(** Disjoint cover of key space by half-open ranges carrying values.

    Join status ranges (§3.2) "form a disjoint cover of key space": every key
    belongs to at most one explicit range; keys outside any explicit range
    are implicitly in the Unknown state, which this structure represents as
    absence. Supports point lookup, covering iteration (reporting gaps), and
    range assignment with splitting of straddling ranges.

    Pieces live in the store's mutable red-black tree ({!Rbtree}), one node
    per piece keyed by its low end. A lookup is one [floor] descent, and an
    assignment splits, trims, re-keys and merges nodes in place rather than
    path-copying a persistent map.

    Values may be mutable; when a range is split, the [dup] function
    supplied at creation is used to give each piece its own value. *)

module Rb = Rbtree

(* A node's payload. [Sentinel] only seeds the tree's nil node; every live
   node holds a [Piece]. *)
type 'a piece = Sentinel | Piece of { mutable hi : string; mutable v : 'a }

type 'a t = { tree : 'a piece Rb.t; dup : 'a -> 'a }

let create ?(dup = fun v -> v) () = { tree = Rb.create ~dummy:Sentinel (); dup }

let is_empty t = Rb.is_empty t.tree
let cardinal t = Rb.size t.tree

let sentinel () = invalid_arg "Range_map: sentinel node"
let hi_of (n : _ piece Rb.node) = match n.value with Piece p -> p.hi | Sentinel -> sentinel ()
let value_of (n : _ piece Rb.node) = match n.value with Piece p -> p.v | Sentinel -> sentinel ()

let set_hi (n : _ piece Rb.node) hi =
  match n.value with Piece p -> p.hi <- hi | Sentinel -> sentinel ()

let set_value (n : _ piece Rb.node) v =
  match n.value with Piece p -> p.v <- v | Sentinel -> sentinel ()

let add t lo hi v = ignore (Rb.insert t.tree lo (Piece { hi; v }))

(** The explicit range containing [k], if any. *)
let find t k =
  match Rb.floor t.tree k with
  | Some { key; value = Piece p; _ } when String.compare k p.hi < 0 -> Some (key, p.hi, p.v)
  | _ -> None

(* A piece held across operations: its node, which splits, trims and
   merges edit in place and a removal kills. *)
type 'a piece_ref = 'a piece Rb.node

let find_piece t k =
  match Rb.floor t.tree k with
  | Some ({ value = Piece p; _ } as n) when String.compare k p.hi < 0 -> Some n
  | _ -> None

(** The value of a held piece, when it is still a piece of its map and
    covers [\[lo, hi)]. *)
let piece_covering (n : _ piece_ref) ~lo ~hi =
  match n.value with
  | Piece p when Rb.is_live n && String.compare n.key lo <= 0 && String.compare hi p.hi <= 0 ->
    Some p.v
  | _ -> None

(** The value of a held piece, when it is still a piece of its map and
    spans exactly [\[lo, hi)]. *)
let piece_exact (n : _ piece_ref) ~lo ~hi =
  match n.value with
  | Piece p when Rb.is_live n && String.equal n.key lo && String.equal p.hi hi -> Some p.v
  | _ -> None

(** The bounds of a held piece as it stands now. *)
let piece_bounds (n : _ piece_ref) = (n.key, hi_of n)

(* The first piece ending after [lo]: the one containing [lo], else the
   first one starting after it. *)
let first_after t lo =
  match Rb.floor t.tree lo with
  | Some n when String.compare lo (hi_of n) < 0 -> Some n
  | Some n -> Rb.next t.tree n
  | None -> Rb.min_node t.tree

(** All explicit ranges intersecting [\[lo, hi)], in order.
    O(log n + matches). *)
let overlapping t ~lo ~hi =
  let rec go acc = function
    | Some (n : _ piece Rb.node) when String.compare n.key hi < 0 ->
      go ((n.key, hi_of n, value_of n) :: acc) (Rb.next t.tree n)
    | _ -> List.rev acc
  in
  if String.compare lo hi >= 0 then [] else go [] (first_after t lo)

(** [iter_cover t ~lo ~hi f] calls [f sublo subhi v_opt] on consecutive
    pieces exactly covering [\[lo, hi)]; [None] marks implicit gaps. [f]
    must not modify the map. *)
let iter_cover t ~lo ~hi f =
  let rec go cursor = function
    | Some (n : _ piece Rb.node) when String.compare n.key hi < 0 ->
      let l = Strkey.max_str n.key lo and h = Strkey.min_str (hi_of n) hi in
      if String.compare cursor l < 0 then f cursor l None;
      f l h (Some (value_of n));
      go h (Rb.next t.tree n)
    | _ -> if String.compare cursor hi < 0 then f cursor hi None
  in
  if String.compare lo hi < 0 then go lo (first_after t lo)

(** Remove all coverage of [\[lo, hi)], trimming straddling ranges (the
    trimmed remainders keep duplicates of their values). *)
let clear_range t ~lo ~hi =
  if String.compare lo hi < 0 then begin
    let tree = t.tree in
    (* nodes inside [lo, hi) go; a piece running past [hi] keeps its
       right remainder by moving its node's key up to [hi] *)
    let rec drop = function
      | Some (n : _ piece Rb.node) when String.compare n.key hi < 0 ->
        if String.compare hi (hi_of n) < 0 then begin
          Rb.rekey n hi;
          set_value n (t.dup (value_of n))
        end
        else begin
          let next = Rb.next tree n in
          Rb.remove_node tree n;
          drop next
        end
      | _ -> ()
    in
    match Rb.floor tree lo with
    | Some n when String.compare n.key lo < 0 && String.compare lo (hi_of n) < 0 ->
      (* a piece starting before [lo] keeps its left remainder in place *)
      let h = hi_of n and v = value_of n in
      set_hi n lo;
      set_value n (t.dup v);
      if String.compare hi h < 0 then add t hi h (t.dup v) else drop (Rb.next tree n)
    | _ -> drop (Rb.lower_bound tree lo)
  end

(** Assign value [v] to exactly [\[lo, hi)], overwriting any overlap. *)
let set t ~lo ~hi v =
  if String.compare lo hi >= 0 then invalid_arg "Range_map.set: empty range";
  clear_range t ~lo ~hi;
  add t lo hi v

(** [update_range t ~lo ~hi f] rewrites the cover of [\[lo, hi)] piecewise:
    [f sublo subhi v_opt] returns the piece's new value ([None] clears it).
    Straddling ranges are split first, so their outside remainders already
    hold duplicates when [f] runs. One [floor] descent finds where the
    range starts; splits and gap fills link their node beside a neighbour
    ([Rb.insert_after]), and the rest is an in-order walk. *)
let update_range t ~lo ~hi f =
  if String.compare lo hi < 0 then begin
    let tree = t.tree in
    (* link [\[k, h)] right after [prev] (the node before it, if any) *)
    let link prev k h v =
      match prev with
      | Some p -> fst (Rb.insert_after tree ~hint:p k (Piece { hi = h; v }))
      | None -> fst (Rb.insert tree k (Piece { hi = h; v }))
    in
    let fill prev cursor upto =
      match f cursor upto None with Some v -> ignore (link prev cursor upto v) | None -> ()
    in
    (* [prev]: the last node before [cursor], the hint for a gap fill *)
    let rec go prev cursor = function
      | Some (n : _ piece Rb.node) when String.compare n.key hi < 0 ->
        if String.compare cursor n.key < 0 then fill prev cursor n.key;
        let h = hi_of n in
        let h =
          if String.compare hi h < 0 then begin
            (* straddles [hi]: the right remainder keeps a duplicate *)
            set_hi n hi;
            ignore (Rb.insert_after tree ~hint:n hi (Piece { hi = h; v = t.dup (value_of n) }));
            hi
          end
          else h
        in
        let next = Rb.next tree n in
        (match f n.key h (Some (value_of n)) with
        | Some v -> set_value n v
        | None -> Rb.remove_node tree n);
        go (Some n) h next
      | _ -> if String.compare cursor hi < 0 then fill prev cursor hi
    in
    match Rb.floor tree lo with
    | Some n when String.compare n.key lo < 0 && String.compare lo (hi_of n) < 0 ->
      (* straddles [lo]: the left remainder keeps a duplicate in place *)
      let h = hi_of n and v = value_of n in
      set_hi n lo;
      set_value n (t.dup v);
      go (Some n) lo (Some (link (Some n) lo h v))
    | Some n when String.equal n.key lo -> go None lo (Some n)
    | Some n -> go (Some n) lo (Rb.next tree n)
    | None -> go None lo (Rb.min_node tree)
  end

(** Merge runs of adjacent ranges with [eq]-equal values in the
    neighbourhood of [\[lo, hi)], from the piece ending at or containing
    [lo] to the one starting at [hi] (fights fragmentation from repeated
    split/heal cycles). The merged run keeps the leftmost value. *)
let coalesce t ~lo ~hi ~eq =
  let tree = t.tree in
  let rec go (cur : _ piece Rb.node) = function
    | Some (n : _ piece Rb.node) when String.compare n.key hi <= 0 ->
      if String.equal (hi_of cur) n.key && eq (value_of cur) (value_of n) then begin
        let next = Rb.next tree n in
        set_hi cur (hi_of n);
        Rb.remove_node tree n;
        go cur next
      end
      else go n (Rb.next tree n)
    | _ -> ()
  in
  let start =
    match Rb.floor tree lo with
    | Some n when String.equal n.key lo -> (
      match Rb.prev tree n with Some p -> Some p | None -> Some n)
    | Some n -> Some n
    | None -> Rb.min_node tree
  in
  match start with
  | Some s when String.compare s.key hi <= 0 -> go s (Rb.next tree s)
  | _ -> ()

(** [coalesce] around one held piece, from its node: it merges with the
    piece ending where it starts and the one starting where it ends,
    when their values are [eq]-equal; the run keeps the leftmost value.
    No descent. *)
let coalesce_piece t (n : _ piece_ref) ~eq =
  if Rb.is_live n then begin
    (match Rb.next t.tree n with
    | Some r when String.equal (hi_of n) r.key && eq (value_of n) (value_of r) ->
      set_hi n (hi_of r);
      Rb.remove_node t.tree r
    | _ -> ());
    match Rb.prev t.tree n with
    | Some l when String.equal (hi_of l) n.key && eq (value_of l) (value_of n) ->
      set_hi l (hi_of n);
      Rb.remove_node t.tree n
    | _ -> ()
  end

(** [f] must not modify the map. *)
let iter t f = Rb.iter t.tree (fun n -> f n.key (hi_of n) (value_of n))

let to_list t =
  let acc = ref [] in
  iter t (fun lo hi v -> acc := (lo, hi, v) :: !acc);
  List.rev !acc

(** Validation for tests: ranges non-empty, sorted, pairwise disjoint,
    and the tree itself well formed. *)
let validate t =
  let fail msg = failwith ("Range_map.validate: " ^ msg) in
  (try Rb.validate t.tree with Failure msg -> fail msg);
  let prev_hi = ref "" in
  Rb.iter t.tree (fun n ->
      match n.value with
      | Sentinel -> fail "sentinel in a live node"
      | Piece { hi; _ } ->
        if String.compare n.key hi >= 0 then fail "empty range";
        if String.compare !prev_hi n.key > 0 then fail "overlap";
        prev_hi := hi)
