(** A logical table of the store: ordered key-value pairs, optionally
    subdivided into {e subtables} (§4.1).

    Applications can mark natural key boundaries (e.g. one Twip timeline)
    with a component depth; the table then keeps one red-black tree per
    boundary prefix, indexed by a hash table, so operations entirely within
    one subtable reach it in O(1) instead of O(log N). The table remains a
    single ordered key space: operations that cross subtable boundaries
    walk the subtables in order (a [Map] keeps them sorted).

    The table also keeps operation statistics used by the ablation
    benchmarks and Fig 10's work count. *)

module Smap = Map.Make (String)

type stats = {
  mutable lookups : int;
  mutable inserts : int;
  mutable removes : int;
  mutable steps : int; (* iteration steps *)
}

let fresh_stats () = { lookups = 0; inserts = 0; removes = 0; steps = 0 }

let total_ops s = s.lookups + s.inserts + s.removes + s.steps

type 'v t = {
  name : string;
  subtable_depth : int option; (* None: single tree *)
  single : 'v Rbtree.t; (* used when subtable_depth = None *)
  by_prefix : (string, 'v Rbtree.t) Hashtbl.t; (* O(1) subtable jump *)
  mutable ordered : 'v Rbtree.t Smap.t; (* subtables in key order *)
  dummy : 'v;
  stats : stats;
  mutable key_bytes : int;
  mutable pair_count : int;
  (* consecutive operations usually hit the same boundary (e.g. appends
     into one timeline); cache the last group to skip hashing *)
  mutable last_group : string;
  mutable last_tree : 'v Rbtree.t option;
}

type 'v handle = { node : 'v Rbtree.node; tree : 'v Rbtree.t }

(* Overhead charged per stored pair when estimating memory: tree node,
   pointers, headers. Roughly what the C++ implementation pays. *)
let node_overhead = 64

let create ?subtable_depth ~name ~dummy () =
  (match subtable_depth with
  | Some d when d < 1 -> invalid_arg "Table.create: subtable_depth < 1"
  | _ -> ());
  {
    name;
    subtable_depth;
    single = Rbtree.create ~dummy ();
    by_prefix = Hashtbl.create 64;
    ordered = Smap.empty;
    dummy;
    stats = fresh_stats ();
    key_bytes = 0;
    pair_count = 0;
    last_group = "";
    last_tree = None;
  }

let name t = t.name
let stats t = t.stats
let size t = t.pair_count

(** Approximate resident bytes for keys and bookkeeping (values are
    accounted separately by the server, which knows about sharing). *)
let memory_bytes t = t.key_bytes + (t.pair_count * node_overhead)

(* The subtable group of [key]: the prefix covering the first
   [depth] components, including the trailing separator when the key
   continues past the boundary. *)
let group_of t key =
  match t.subtable_depth with
  | None -> key (* unused *)
  | Some depth ->
    let n = String.length key in
    let rec scan i seen =
      if i >= n then key
      else if key.[i] = '|' then
        if seen + 1 = depth then String.sub key 0 (i + 1) else scan (i + 1) (seen + 1)
      else scan (i + 1) seen
    in
    scan 0 0

(* does [key]'s group equal [g] (a complete boundary prefix ending in
   '|')? true iff key starts with g — then key's first components are
   exactly g — without allocating the group substring *)
let group_matches g key =
  let gl = String.length g in
  gl > 0
  && String.length key >= gl
  &&
  let rec eq i = i = gl || (String.unsafe_get key i = String.unsafe_get g i && eq (i + 1)) in
  eq 0

let subtable_for t key ~create_missing =
  match t.subtable_depth with
  | None -> Some t.single
  | Some _ -> (
    match t.last_tree with
    | Some tree when group_matches t.last_group key -> Some tree
    | _ -> (
      let g = group_of t key in
      match Hashtbl.find_opt t.by_prefix g with
      | Some tree ->
        if String.length g > 0 && g.[String.length g - 1] = '|' then begin
          t.last_group <- g;
          t.last_tree <- Some tree
        end;
        Some tree
      | None ->
        if create_missing then begin
          let tree = Rbtree.create ~dummy:t.dummy () in
          Hashtbl.add t.by_prefix g tree;
          t.ordered <- Smap.add g tree t.ordered;
          if String.length g > 0 && g.[String.length g - 1] = '|' then begin
            t.last_group <- g;
            t.last_tree <- Some tree
          end;
          Some tree
        end
        else None))

let subtable_count t =
  match t.subtable_depth with None -> 1 | Some _ -> Hashtbl.length t.by_prefix

let get t key =
  t.stats.lookups <- t.stats.lookups + 1;
  match subtable_for t key ~create_missing:false with
  | None -> None
  | Some tree -> (
    match Rbtree.find tree key with Some node -> Some node.Rbtree.value | None -> None)

let get_handle t key =
  t.stats.lookups <- t.stats.lookups + 1;
  match subtable_for t key ~create_missing:false with
  | None -> None
  | Some tree -> (
    match Rbtree.find tree key with Some node -> Some { node; tree } | None -> None)

(** Insert or overwrite. When [hint] points at the predecessor of [key]
    (§4.2 output hints) insertion is O(1) amortized. Returns the handle and
    the previous value ([None] when the key is new). *)
let put ?hint t key value =
  t.stats.inserts <- t.stats.inserts + 1;
  let tree =
    match subtable_for t key ~create_missing:true with
    | Some tree -> tree
    | None -> assert false
  in
  let node, old =
    match hint with
    | Some h when h.tree == tree && Rbtree.is_live h.node ->
      Rbtree.insert_after tree ~hint:h.node key value
    | _ -> Rbtree.insert tree key value
  in
  if old = None then begin
    t.key_bytes <- t.key_bytes + String.length key;
    t.pair_count <- t.pair_count + 1
  end;
  ({ node; tree }, old)

let remove t key =
  t.stats.removes <- t.stats.removes + 1;
  match subtable_for t key ~create_missing:false with
  | None -> None
  | Some tree -> (
    match Rbtree.find tree key with
    | None -> None
    | Some node ->
      let v = node.Rbtree.value in
      Rbtree.remove_node tree node;
      t.key_bytes <- t.key_bytes - String.length key;
      t.pair_count <- t.pair_count - 1;
      Some v)

(* Subtables whose group could hold keys in [lo, hi): any key k in the
   range satisfies group(lo) <= group(k) <= k < hi, because groups are
   component-boundary prefixes of their keys. So we walk groups in
   [group_of lo, hi) in order; each tree filters precisely. *)
let iter_range t ~lo ~hi f =
  if String.compare lo hi < 0 then begin
    let visit tree =
      Rbtree.iter_range tree ~lo ~hi (fun node ->
          t.stats.steps <- t.stats.steps + 1;
          f node.Rbtree.key node.Rbtree.value)
    in
    match t.subtable_depth with
    | None -> visit t.single
    | Some _ ->
      let glo = group_of t lo in
      let depth = match t.subtable_depth with Some d -> d | None -> assert false in
      let confined =
        (* every key in [lo, hi) shares lo's group when the group is a
           complete boundary prefix (all [depth] components, trailing
           separator) and hi stays under its upper bound *)
        String.length glo > 0
        && glo.[String.length glo - 1] = '|'
        && String.fold_left (fun acc c -> if c = '|' then acc + 1 else acc) 0 glo = depth
        && String.compare hi (Strkey.prefix_upper glo) <= 0
      in
      if confined then begin
        (* fast path: range confined to one subtable, O(1) jump *)
        match Hashtbl.find_opt t.by_prefix glo with
        | Some tree -> visit tree
        | None -> ()
      end
      else
        Seq.iter
          (fun (g, tree) -> if String.compare g hi < 0 then visit tree)
          (Seq.take_while
             (fun (g, _) -> String.compare g hi < 0)
             (Smap.to_seq_from glo t.ordered))
  end

let fold_range t ~lo ~hi ~init f =
  let acc = ref init in
  iter_range t ~lo ~hi (fun k v -> acc := f !acc k v);
  !acc

exception Stopped

(* Early-terminating fold: the callback decides per pair whether to keep
   going, so bounded scans stop walking the tree at their limit instead
   of materializing the whole range. *)
let fold_range_stop t ~lo ~hi ~init f =
  let acc = ref init in
  (try
     iter_range t ~lo ~hi (fun k v ->
         match f !acc k v with
         | `Continue a -> acc := a
         | `Stop a ->
           acc := a;
           raise_notrace Stopped)
   with Stopped -> ());
  !acc

let count_range t ~lo ~hi = fold_range t ~lo ~hi ~init:0 (fun acc _ _ -> acc + 1)

let range_to_list t ~lo ~hi =
  List.rev (fold_range t ~lo ~hi ~init:[] (fun acc k v -> (k, v) :: acc))

(** Remove every pair in [\[lo, hi)]; returns how many were removed. *)
let remove_range t ~lo ~hi =
  let doomed = List.map fst (range_to_list t ~lo ~hi) in
  List.iter (fun k -> ignore (remove t k)) doomed;
  List.length doomed

let iter t f = iter_range t ~lo:"" ~hi:"\xff" f

let validate t =
  match t.subtable_depth with
  | None -> Rbtree.validate t.single
  | Some _ ->
    Hashtbl.iter (fun _ tree -> Rbtree.validate tree) t.by_prefix;
    if Hashtbl.length t.by_prefix <> Smap.cardinal t.ordered then
      failwith "Table.validate: index mismatch"
