(* The partition directory (see directory.mli): epoch-stamped routing
   truth, held authoritatively by the seed and as follower copies
   everywhere else, or fixed at epoch 1 by [--partition] specs or the
   shard layer. The only module that knows the wildcard rule. *)

module Message = Pequod_proto.Message

type entry = Message.dir_entry

type t = { mutable epoch : int; mutable entries : entry list (* sorted (table, lo) *) }

let create () = { epoch = 0; entries = [] }
let epoch t = t.epoch
let entries t = t.entries

let compare_entry (a : entry) (b : entry) =
  match String.compare a.Message.de_table b.Message.de_table with
  | 0 -> String.compare a.Message.de_lo b.Message.de_lo
  | c -> c

let normalize entries =
  let sorted = List.sort compare_entry entries in
  (* coalesce adjacent ranges of one table with identical placement, so
     repeated migrations don't fragment the directory forever *)
  let rec go acc = function
    | [] -> List.rev acc
    | (e : entry) :: rest -> (
      match acc with
      | (p : entry) :: acc'
        when String.equal p.Message.de_table e.Message.de_table
             && String.equal p.Message.de_hi e.Message.de_lo
             && String.equal p.Message.de_home e.Message.de_home
             && p.Message.de_replicas = e.Message.de_replicas ->
        go ({ p with Message.de_hi = e.Message.de_hi } :: acc') rest
      | _ -> go (e :: acc) rest)
  in
  go [] sorted

(* A wildcard entry ([de_table = "*"]) partitions every table that no
   specific entry names: its bounds are in component space, the part of
   a key after "T|", with [""] as the open end on either side. *)
let is_wildcard (e : entry) = String.equal e.Message.de_table "*"

(* [x] sorts below [e]'s upper bound; a wildcard's [""] is open *)
let below_hi (e : entry) x =
  (is_wildcard e && e.Message.de_hi = "") || String.compare x e.Message.de_hi < 0

let validate entries =
  let sorted = List.sort compare_entry entries in
  let rec go = function
    | [] -> Ok ()
    | (e : entry) :: rest ->
      if e.Message.de_table = "" then Error "directory entry with empty table"
      else if not (below_hi e e.Message.de_lo) then
        Error
          (Printf.sprintf "directory entry %s[%s,%s) is empty or inverted"
             e.Message.de_table e.Message.de_lo e.Message.de_hi)
      else if e.Message.de_home = "" then
        Error
          (Printf.sprintf "directory entry %s[%s,%s) has no home" e.Message.de_table
             e.Message.de_lo e.Message.de_hi)
      else
        match rest with
        | (n : entry) :: _
          when String.equal n.Message.de_table e.Message.de_table
               && below_hi e n.Message.de_lo ->
          Error
            (Printf.sprintf "directory entries overlap in table %s at %s"
               e.Message.de_table n.Message.de_lo)
        | _ -> go rest
  in
  go sorted

let install t ~epoch ~entries =
  if epoch <= t.epoch then
    Error (Printf.sprintf "stale directory epoch %d (current is %d)" epoch t.epoch)
  else
    match validate entries with
    | Error _ as e -> e
    | Ok () ->
      t.epoch <- epoch;
      t.entries <- normalize entries;
      Ok ()

(* A wildcard's slice of [table] in key space. The open low end starts
   at the bare key [table], whose component is empty. *)
let instantiate table (e : entry) =
  { e with
    Message.de_table = table;
    de_lo = (if e.Message.de_lo = "" then table else table ^ "|" ^ e.Message.de_lo);
    de_hi = (if e.Message.de_hi = "" then table ^ "}" else table ^ "|" ^ e.Message.de_hi) }

let for_table entries ~table =
  match List.filter (fun (e : entry) -> String.equal e.Message.de_table table) entries with
  | _ :: _ as specific -> specific
  | [] ->
    List.filter_map (fun e -> if is_wildcard e then Some (instantiate table e) else None) entries

let overlaps (e : entry) ~lo ~hi =
  String.compare e.Message.de_lo hi < 0 && String.compare lo e.Message.de_hi < 0

let intersect ~lo ~hi (lo', hi') =
  let l = if String.compare lo lo' < 0 then lo' else lo in
  let h = if String.compare hi' hi < 0 then hi' else hi in
  if String.compare l h < 0 then Some (l, h) else None

let find entries ~key =
  List.find_opt
    (fun (e : entry) ->
      String.compare e.Message.de_lo key <= 0 && String.compare key e.Message.de_hi < 0)
    (for_table entries ~table:(Pequod_store.Store.table_name_of key))

let home_of t ~key = Option.map (fun (e : entry) -> e.Message.de_home) (find t.entries ~key)

let candidates ~self (e : entry) =
  match List.filter (fun a -> not (String.equal a self)) e.Message.de_replicas with
  | [] -> [ e.Message.de_home ]
  | reps ->
    let n = List.length reps in
    let start = Hashtbl.hash self mod n in
    List.init n (fun i -> List.nth reps ((start + i) mod n)) @ [ e.Message.de_home ]

let cut entries ~lo ~hi =
  let overlapping =
    List.filter (overlaps ~lo ~hi) entries
    |> List.sort (fun (a : entry) (b : entry) -> String.compare a.Message.de_lo b.Message.de_lo)
  in
  let pieces = ref [] in
  let cursor = ref lo in
  List.iter
    (fun (e : entry) ->
      if String.compare !cursor e.Message.de_lo < 0 then begin
        pieces := (None, !cursor, e.Message.de_lo) :: !pieces;
        cursor := e.Message.de_lo
      end;
      match intersect ~lo:!cursor ~hi (e.Message.de_lo, e.Message.de_hi) with
      | Some (plo, phi) ->
        pieces := (Some e, plo, phi) :: !pieces;
        cursor := phi
      | None -> ())
    overlapping;
  if String.compare !cursor hi < 0 then pieces := (None, !cursor, hi) :: !pieces;
  List.rev !pieces

let segments entries ~lo ~hi =
  let table = Pequod_store.Store.table_name_of lo in
  let one_table =
    String.compare (table ^ "|") lo <= 0 && String.compare hi (table ^ "}") <= 0
  in
  if one_table then `Cut (cut (for_table entries ~table) ~lo ~hi)
  else if List.exists is_wildcard entries then
    `Spread
      (List.sort_uniq String.compare
         (List.filter_map
            (fun (e : entry) ->
              if is_wildcard e || overlaps e ~lo ~hi then Some e.Message.de_home else None)
            entries))
  else `Cut (cut entries ~lo ~hi)

type route = Local | Replica | Forward of string list

let route_of ~self (e : entry) =
  if String.equal e.Message.de_home self then Local
  else if List.mem self e.Message.de_replicas then Replica
  else Forward (candidates ~self e)

let write_home entries ~self ~key =
  match find entries ~key with
  | Some e when not (String.equal e.Message.de_home self) -> Some e.Message.de_home
  | _ -> None

let read_route entries ~self ~key =
  match find entries ~key with Some e -> route_of ~self e | None -> Local

let scan_route entries ~self ~spread ~lo ~hi =
  match segments entries ~lo ~hi with
  | `Cut pieces ->
    List.map
      (fun (e, slo, shi) ->
        ((match e with Some e -> route_of ~self e | None -> Local), slo, shi))
      pieces
  | `Spread homes when spread ->
    (Local, lo, hi)
    :: List.filter_map
         (fun h -> if String.equal h self then None else Some (Forward [ h ], lo, hi))
         homes
  | `Spread _ -> [ (Local, lo, hi) ]

let plan ~self ~outputs entries ~table ~lo ~hi =
  let entries =
    if List.mem table outputs then List.filter (fun e -> not (is_wildcard e)) entries
    else entries
  in
  match for_table entries ~table with
  | [] -> `Unrouted
  | governing ->
    let pieces = cut governing ~lo ~hi in
    if List.exists (fun (e, _, _) -> e = None) pieces then `Gap
    else
      `Fetch
        (List.filter_map
           (function
             | Some (e : entry), flo, fhi when not (String.equal e.Message.de_home self) ->
               Some (e, flo, fhi)
             | _ -> None)
           pieces)

let assign entries ~table ~lo ~hi ~home =
  if String.compare lo hi >= 0 then Error "empty migration range"
  else if home = "" then Error "empty destination address"
  else begin
    let overlapping, others =
      List.partition
        (fun (e : entry) -> String.equal e.Message.de_table table && overlaps e ~lo ~hi)
        entries
    in
    let overlapping = List.sort compare_entry overlapping in
    (* the range must be fully covered, by entries of a single current
       home: a migration moves data from one source server *)
    let cursor = ref lo in
    let gap = ref false in
    let sources = ref [] in
    List.iter
      (fun (e : entry) ->
        if String.compare !cursor e.Message.de_lo < 0 then gap := true;
        if String.compare !cursor e.Message.de_hi < 0 then cursor := e.Message.de_hi;
        if not (List.mem e.Message.de_home !sources) then
          sources := e.Message.de_home :: !sources)
      overlapping;
    if !gap || String.compare !cursor hi < 0 then
      Error (Printf.sprintf "range %s[%s,%s) is not fully covered by the directory" table lo hi)
    else
      match !sources with
      | [ _ ] ->
        let pieces =
          List.concat_map
            (fun (e : entry) ->
              let keep_left =
                if String.compare e.Message.de_lo lo < 0 then
                  [ { e with Message.de_hi = lo } ]
                else []
              in
              let keep_right =
                if String.compare hi e.Message.de_hi < 0 then
                  [ { e with Message.de_lo = hi } ]
                else []
              in
              keep_left @ keep_right)
            overlapping
        in
        let moved =
          { Message.de_table = table; de_lo = lo; de_hi = hi; de_home = home;
            de_replicas = [] }
        in
        Ok (normalize (moved :: pieces @ others))
      | srcs ->
        Error
          (Printf.sprintf "range %s[%s,%s) spans several homes (%s); migrate per home"
             table lo hi (String.concat ", " srcs))
  end

let add_replica entries ~table ~lo ~hi ~addr =
  if addr = "" then Error "empty replica address"
  else begin
    let touched = ref false in
    let conflict = ref false in
    let entries' =
      List.map
        (fun (e : entry) ->
          if String.equal e.Message.de_table table && overlaps e ~lo ~hi then begin
            touched := true;
            if String.equal e.Message.de_home addr then begin
              conflict := true;
              e
            end
            else if List.mem addr e.Message.de_replicas then e
            else { e with Message.de_replicas = e.Message.de_replicas @ [ addr ] }
          end
          else e)
        entries
    in
    if !conflict then
      Error (Printf.sprintf "%s is the home of part of %s[%s,%s)" addr table lo hi)
    else if not !touched then
      Error (Printf.sprintf "no directory entry overlaps %s[%s,%s)" table lo hi)
    else Ok (normalize entries')
  end

let to_lines t =
  Printf.sprintf "epoch %d, %d entries" t.epoch (List.length t.entries)
  :: List.map
       (fun (e : entry) ->
         Printf.sprintf "  %s[%s,%s) @ %s%s" e.Message.de_table e.Message.de_lo
           e.Message.de_hi e.Message.de_home
           (match e.Message.de_replicas with
           | [] -> ""
           | rs -> " replicas " ^ String.concat "," rs))
       t.entries
