(* Session consistency client: accumulate write-ack stamp vectors, demand
   them back on every read. See session.mli and docs/SESSIONS.md. *)

module Message = Pequod_proto.Message

exception Stale of Message.stamp_entry list

type t = {
  sn_client : Net_client.t;
  (* the demand vector: (table, lo, hi) -> highest acked stamp *)
  sn_stamps : (string * string * string, int) Hashtbl.t;
  sn_max_entries : int;
}

let create ?(max_entries = 64) client =
  if max_entries < 1 then invalid_arg "Session.create: max_entries must be positive";
  { sn_client = client; sn_stamps = Hashtbl.create 32; sn_max_entries = max_entries }

let client t = t.sn_client

(* Merge the current entries into hulls keyed by [group], then put the
   result back. Over-demands keys between a hull's members — sound (the
   server refetches or proves freshness), never under-demands. *)
let merge_by t group =
  let hulls = Hashtbl.create 8 in
  Hashtbl.iter
    (fun ((_, lo, hi) as key) s ->
      let g = group key in
      match Hashtbl.find_opt hulls g with
      | None -> Hashtbl.replace hulls g (lo, hi, s)
      | Some (lo', hi', s') ->
        Hashtbl.replace hulls g (min lo lo', max hi hi', max s s'))
    t.sn_stamps;
  Hashtbl.reset t.sn_stamps;
  Hashtbl.iter
    (fun (table, _) (lo, hi, s) -> Hashtbl.replace t.sn_stamps (table, lo, hi) s)
    hulls

(* Pequod keys are ['|']-separated paths; the prefix up to the last
   separator of a narrow ack entry is its user slice (["p|bob|…"] →
   ["p|bob|"]). *)
let slice_of lo =
  match String.rindex_opt lo '|' with
  | Some i -> String.sub lo 0 (i + 1)
  | None -> lo

(* Past the cap, first collapse same-slice entries (a user's many posts
   become one demand on that user's slice); only if still over, fall all
   the way back to one convex hull per table. The narrower the demand,
   the fewer unrelated lagging copies a server must chase before
   answering. *)
let coalesce t =
  if Hashtbl.length t.sn_stamps > t.sn_max_entries then begin
    merge_by t (fun (table, lo, _) -> (table, slice_of lo));
    if Hashtbl.length t.sn_stamps > t.sn_max_entries then
      merge_by t (fun (table, _, _) -> (table, ""))
  end

let with_at_least t entries =
  List.iter
    (fun (table, lo, hi, s) ->
      if s > 0 && String.compare lo hi < 0 then begin
        let key = (table, lo, hi) in
        match Hashtbl.find_opt t.sn_stamps key with
        | Some s' when s' >= s -> ()
        | _ -> Hashtbl.replace t.sn_stamps key s
      end)
    entries;
  coalesce t

let stamp t =
  Hashtbl.fold (fun (table, lo, hi) s acc -> (table, lo, hi, s) :: acc) t.sn_stamps []
  |> List.sort compare

let fail msg = raise (Net_client.Net_error msg)

let write t req =
  match Net_client.call t.sn_client req with
  | Message.Stamps entries -> with_at_least t entries
  | Message.Done -> () (* a pre-v3 peer: nothing to demand, nothing lost *)
  | Message.Error msg -> fail msg
  | _ -> fail "unexpected write response"

let put t k v = write t (Message.Put (k, v))
let put_batch t pairs = if pairs <> [] then write t (Message.Put_batch pairs)
let remove t k = write t (Message.Remove k)

(* a read, stamped with the session's vector when it holds one *)
let read t ~plain ~at answer =
  match Net_client.call t.sn_client (match stamp t with [] -> plain | min -> at min) with
  | Message.Stale unmet -> raise (Stale unmet)
  | Message.Error msg -> fail msg
  | resp -> (match answer resp with Some v -> v | None -> fail "unexpected read response")

let get t key =
  read t ~plain:(Message.Get key) ~at:(fun min -> Message.Get_at { key; min }) (function
    | Message.Value v -> Some v
    | _ -> None)

let scan t ~lo ~hi =
  read t ~plain:(Message.Scan { lo; hi }) ~at:(fun min -> Message.Scan_at { lo; hi; min })
    (function Message.Pairs pairs -> Some pairs | _ -> None)
