(** Key patterns with named slots.

    A pattern like [t|<user>|<time>|<poster>] describes a family of keys:
    ['|']-separated segments that are either literals (the table name [t],
    Newp's tag literals [a], [k], ...) or {e slots} (in angle brackets).
    Slot names are interned to integer ids shared across all patterns of one
    cache join, so a binding array describes a {e slot set} (§3.1) for the
    whole join.

    Beyond matching and building keys, patterns support the two §3.1 query
    planning operations:
    - [bind_range]: derive a slot set (bindings plus a residual bound on the
      first unbound slot) from a requested output key range, and
    - [containing_range]: the minimal range of keys a pattern can produce
      under a slot set — used both to narrow source scans and to determine
      the output range a join execution will cover.

    Residual narrowing is minimal for fixed-width slot encodings
    ({!Strkey.encode_int}); for variable-width values it remains a correct
    over-approximation. *)

type seg = Lit of string | Slot of int

type t = { segs : seg array; text : string }

(** Residual constraint on one slot: value in [\[rlo, rhi)] where [None]
    means unconstrained on that side. *)
type residual = { slot : int; rlo : string option; rhi : string option }

exception Parse_error of string

(** [parse ~intern text]: [intern] maps slot names to shared ids. *)
let parse ~intern text =
  if text = "" then raise (Parse_error "empty pattern");
  let segs =
    String.split_on_char '|' text
    |> List.map (fun seg ->
           let n = String.length seg in
           if n >= 2 && seg.[0] = '<' && seg.[n - 1] = '>' then
             let name = String.sub seg 1 (n - 2) in
             if name = "" then raise (Parse_error "empty slot name")
             else Slot (intern name)
           else begin
             if String.exists (fun c -> c = '<' || c = '>') seg then
               raise (Parse_error ("malformed segment: " ^ seg));
             if seg = "" then raise (Parse_error ("empty segment in: " ^ text));
             Lit seg
           end)
  in
  let segs = Array.of_list segs in
  (match segs.(0) with
  | Slot _ -> raise (Parse_error ("pattern must start with a table literal: " ^ text))
  | Lit _ -> ());
  { segs; text }

let text t = t.text
let nsegs t = Array.length t.segs

(** The pattern's table: its leading literal segment. *)
let table t = match t.segs.(0) with Lit s -> s | Slot _ -> assert false

(** Ids of the slots the pattern mentions, in order of appearance. *)
let slots t =
  Array.to_list t.segs
  |> List.filter_map (function Slot i -> Some i | Lit _ -> None)

let mentions_slot t i = List.mem i (slots t)

(** The natural subtable boundary of the pattern's keys (§4.1): the
    number of leading segments up to and including the first slot, when
    more segments follow it ([t|<user>|<time>|<poster>] gives 2: one
    subtable per [t|user|]). *)
let boundary_depth t =
  let n = Array.length t.segs in
  let rec first i =
    if i >= n then None else match t.segs.(i) with Slot _ -> Some i | Lit _ -> first (i + 1)
  in
  match first 0 with Some i when i + 1 < n -> Some (i + 1) | _ -> None

(* [piece_eq key pos len v]: does key[pos .. pos+len) equal [v]? *)
let piece_eq key pos len v =
  String.length v = len
  &&
  let rec go i = i = len || (String.unsafe_get key (pos + i) = String.unsafe_get v i && go (i + 1)) in
  go 0

(** Match [key] against the pattern, extending [bindings] (without mutating
    it). Returns the extended bindings, or [None] if the key has the wrong
    shape, a literal mismatch, or conflicts with an existing binding. The
    input array is only copied on a successful match with new bindings. *)
let match_key t key ~bindings =
  let n = String.length key in
  let nsegs = Array.length t.segs in
  let out = ref bindings in
  let copied = ref false in
  let bind s v =
    if not !copied then begin
      out := Array.copy bindings;
      copied := true
    end;
    !out.(s) <- Some v
  in
  let rec go i pos =
    if i = nsegs then pos = n + 1 (* consumed exactly the whole key *)
    else if pos > n then false
    else begin
      let e = match String.index_from_opt key pos '|' with Some j -> j | None -> n in
      let len = e - pos in
      let ok =
        match t.segs.(i) with
        | Lit l -> piece_eq key pos len l
        | Slot s -> (
          len > 0
          &&
          match !out.(s) with
          | Some v -> piece_eq key pos len v
          | None ->
            bind s (String.sub key pos len);
            true)
      in
      ok && go (i + 1) (e + 1)
    end
  in
  if go 0 0 then Some (if !copied then !out else Array.copy bindings) else None

(** Build the key the pattern denotes under [bindings]. Raises
    [Invalid_argument] if a slot is unbound. *)
let build_key t bindings =
  let parts =
    Array.to_list t.segs
    |> List.map (function
         | Lit l -> l
         | Slot i -> (
           match bindings.(i) with
           | Some v -> v
           | None -> invalid_arg ("Pattern.build_key: unbound slot in " ^ t.text)))
  in
  String.concat "|" parts

let fully_bound t bindings =
  Array.for_all (function Lit _ -> true | Slot i -> bindings.(i) <> None) t.segs

(** [containing_range t ~bindings ~residual]: the minimal key range that can
    contain every key matching [t] under the slot set (§3.1). When the first
    unbound slot carries the residual, its bounds narrow the range. *)
let containing_range t ~bindings ~residual =
  let n = Array.length t.segs in
  let buf = Buffer.create 32 in
  let rec go i =
    if i = n then begin
      (* fully bound: exactly one candidate key *)
      let k = Buffer.contents buf in
      (k, Strkey.key_after k)
    end
    else begin
      match t.segs.(i) with
      | Lit l ->
        if i > 0 then Buffer.add_char buf '|';
        Buffer.add_string buf l;
        go (i + 1)
      | Slot s -> (
        match bindings.(s) with
        | Some v ->
          if i > 0 then Buffer.add_char buf '|';
          Buffer.add_string buf v;
          go (i + 1)
        | None ->
          if i > 0 then Buffer.add_char buf '|';
          let prefix = Buffer.contents buf in
          let rlo, rhi =
            match residual with
            | Some r when r.slot = s -> (r.rlo, r.rhi)
            | _ -> (None, None)
          in
          let lo = match rlo with Some b -> prefix ^ b | None -> prefix in
          let hi =
            match rhi with Some b -> prefix ^ b | None -> Strkey.prefix_upper prefix
          in
          (lo, hi))
    end
  in
  go 0

(** Derive a slot set from a requested key range (§3.1's
    [join.slotset(table, first, last)]).

    Walks segments left to right. A segment is exactly bound when every key
    in [\[lo, hi)] must agree on it; the first segment that is only
    partially constrained becomes the residual (if it is a slot) or is
    checked for overlap (if it is a literal). Returns [None] when the range
    can contain no key of this pattern at all. *)
let bind_range t ~lo ~hi ~nslots =
  if String.compare lo hi >= 0 then None
  else begin
    let bindings = Array.make nslots None in
    let n = Array.length t.segs in
    (* q is the accumulated prefix, ending with '|' (or "" initially) *)
    let rec go i q =
      (* keys of this pattern from segment i on live in [branch_lo, branch_hi) *)
      let overlap_branch q' last_seg =
        let branch_lo = if last_seg then String.sub q' 0 (String.length q' - 1) else q' in
        Strkey.range_overlaps (branch_lo, Strkey.prefix_upper q') (lo, hi)
      in
      if i = n then begin
        (* fully bound: single key = q without its trailing '|' *)
        let k = String.sub q 0 (String.length q - 1) in
        if Strkey.in_range ~lo ~hi k || Strkey.range_overlaps (k, Strkey.key_after k) (lo, hi)
        then Some (bindings, None)
        else None
      end
      else begin
        let consume v =
          let q' = q ^ v ^ "|" in
          if overlap_branch q' (i = n - 1) then go (i + 1) q' else None
        in
        match t.segs.(i) with
        | Lit l -> consume l
        | Slot s -> (
          match bindings.(s) with
          | Some v -> consume v
          | None ->
            (* can the range pin this slot to one exact value? *)
            let lo_starts = String.length lo > String.length q && String.starts_with ~prefix:q lo in
            let exact =
              if not lo_starts then None
              else begin
                let rest = String.sub lo (String.length q) (String.length lo - String.length q) in
                match String.index_opt rest '|' with
                | Some j ->
                  let v = String.sub rest 0 j in
                  let q' = q ^ v ^ "|" in
                  if v <> "" && String.compare hi (Strkey.prefix_upper q') <= 0 then Some v
                  else None
                | None ->
                  (* lo ends inside this segment; the range pins the slot
                     only when hi admits no other value *)
                  if rest <> "" && String.compare hi (Strkey.key_after (q ^ rest)) <= 0 then
                    Some rest
                  else None
              end
            in
            (match exact with
            | Some v ->
              bindings.(s) <- Some v;
              consume v
            | None ->
              (* slot is the first partially-constrained segment: residual *)
              if not lo_starts && String.compare lo q > 0 then
                (* lo is above everything with prefix q *)
                None
              else if String.compare hi q <= 0 then None
              else begin
                let rlo =
                  if lo_starts then begin
                    let rest = String.sub lo (String.length q) (String.length lo - String.length q) in
                    (* a remainder spanning segments over-constrains the slot
                       value; truncate to the slot's own segment (minimal and
                       correct for fixed-width slot encodings) *)
                    match String.index_opt rest '|' with
                    | Some j -> Some (String.sub rest 0 j)
                    | None -> Some rest
                  end
                  else None
                in
                let rhi =
                  if
                    String.length hi > String.length q && String.starts_with ~prefix:q hi
                  then begin
                    let rest = String.sub hi (String.length q) (String.length hi - String.length q) in
                    (* multi-segment remainders name *output* segments that
                       need not line up with another source's segments;
                       weaken to an inclusive bound on this slot's value *)
                    match String.index_opt rest '|' with
                    | Some 0 -> None
                    | Some j -> Some (Strkey.prefix_upper (String.sub rest 0 j))
                    | None -> Some rest
                  end
                  else if String.compare hi (Strkey.prefix_upper q) >= 0 then None
                  else
                    (* hi <= q handled above; between q and prefix_upper q
                       without the prefix is impossible for '|'-terminated q *)
                    None
                in
                let rlo = match rlo with Some "" -> None | r -> r in
                let residual =
                  if rlo = None && rhi = None then None else Some { slot = s; rlo; rhi }
                in
                Some (bindings, residual)
              end))
      end
    in
    (* the first segment has no preceding separator; treat uniformly by
       checking overlap with the whole-pattern branch first *)
    match t.segs.(0) with
    | Lit table ->
      let q0 = table ^ "|" in
      if n = 1 then
        if Strkey.in_range ~lo ~hi table then Some (bindings, None) else None
      else if Strkey.range_overlaps (table, Strkey.prefix_upper q0) (lo, hi) then go 1 q0
      else None
    | Slot _ -> assert false
  end
