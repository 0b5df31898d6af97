(** A logical table of the store: ordered key-value pairs, optionally
    subdivided into {e subtables} (§4.1).

    A table can be given a boundary depth: the number of leading
    ['|']-separated components that name one natural group (one Twip
    timeline [t|ann|]). The table then keeps one red-black tree per group
    prefix, indexed by a hash table, so operations entirely within one
    subtable reach it in O(1) instead of O(log N). The table remains a
    single ordered key space: operations that cross subtable boundaries
    walk the subtables in order (a [Map] keeps them sorted). A subtable
    lives exactly as long as it holds a pair.

    Each subtable also carries a {e note} of the caller's type, which
    the table never reads: the engine keeps there the join-status piece
    that last answered a read in the subtable, and checks it before use.

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

type ('v, 'n) sub = {
  group : string; (* the boundary prefix, e.g. [t|ann|] *)
  stree : 'v Rbtree.t;
  mutable note : 'n option;
}

type ('v, 'n) t = {
  name : string;
  mutable depth : int option; (* None: single tree *)
  mutable single : 'v Rbtree.t; (* used when depth = None *)
  by_prefix : (string, ('v, 'n) sub) Hashtbl.t; (* O(1) subtable jump *)
  mutable ordered : ('v, 'n) sub Smap.t; (* subtables in key order *)
  dummy : 'v;
  stats : stats;
  mutable key_bytes : int;
  mutable pair_count : int;
  (* consecutive operations usually hit the same boundary (e.g. appends
     into one timeline); cache the last complete group to skip hashing *)
  mutable last : ('v, 'n) sub option;
}

type 'v handle = { node : 'v Rbtree.node; tree : 'v Rbtree.t }

(* Overhead charged per stored pair when estimating memory: tree node,
   pointers, headers. Roughly what the C++ implementation pays. *)
let node_overhead = 64

(* Overhead charged per subtable: its record, tree header and sentinel
   node, hash bucket, map node and group string. [Obj.reachable_words]
   reads about 31 words per one-pair group against a single tree. *)
let subtable_overhead = 248

let check_depth = function
  | Some d when d < 1 -> invalid_arg "Table: subtable depth < 1"
  | _ -> ()

let create ?subtable_depth ~name ~dummy () =
  check_depth subtable_depth;
  {
    name;
    depth = subtable_depth;
    single = Rbtree.create ~dummy ();
    by_prefix = Hashtbl.create 64;
    ordered = Smap.empty;
    dummy;
    stats = fresh_stats ();
    key_bytes = 0;
    pair_count = 0;
    last = None;
  }

let name t = t.name
let stats t = t.stats
let size t = t.pair_count
let subtable_depth t = t.depth

let subtable_count t =
  match t.depth with None -> 1 | Some _ -> Hashtbl.length t.by_prefix

(** Approximate resident bytes for keys and bookkeeping (values are
    accounted separately by the server, which knows about sharing). *)
let memory_bytes t =
  t.key_bytes + (t.pair_count * node_overhead)
  + match t.depth with None -> 0 | Some _ -> Hashtbl.length t.by_prefix * subtable_overhead

(* The complete boundary prefix of [key] at [depth]: its first [depth]
   components with the trailing separator; [None] when the key has no
   more components than that. *)
let boundary depth key =
  let n = String.length key in
  let rec scan i seen =
    if i >= n then None
    else if String.unsafe_get key i = '|' then
      if seen + 1 = depth then Some (String.sub key 0 (i + 1)) else scan (i + 1) (seen + 1)
    else scan (i + 1) seen
  in
  scan 0 0

(* The subtable group of [key]: its boundary prefix, or the key itself
   when it is too short to have one. *)
let group_of depth key = match boundary depth key with Some g -> g | None -> key

(* does [key] start with the complete boundary prefix [g]? Then its
   group is exactly [g]. No substring is allocated. *)
let group_matches g key =
  let gl = String.length g in
  String.length key >= gl
  &&
  let rec eq i = i = gl || (String.unsafe_get key i = String.unsafe_get g i && eq (i + 1)) in
  eq 0

(* [hi <= Strkey.prefix_upper g] for a complete boundary prefix [g]
   (ending in ['|'], whose upper bound ends in ['}']), without building
   the bound *)
let under_upper g hi =
  let last = String.length g - 1 and hl = String.length hi in
  let rec go i =
    if i = last then
      i >= hl || Char.compare (String.unsafe_get hi i) '}' < 0
      || (String.unsafe_get hi i = '}' && hl = last + 1)
    else if i >= hl then true
    else
      let c = Char.compare (String.unsafe_get hi i) (String.unsafe_get g i) in
      if c <> 0 then c < 0 else go (i + 1)
  in
  go 0

(* The subtable a key belongs to (created on demand when asked). Only
   a complete boundary prefix is cached: a key too short to have one is
   its own group, and a prefix of other groups' keys. *)
let sub_for t depth key ~create_missing =
  match t.last with
  | Some sub when group_matches sub.group key -> Some sub
  | _ -> (
    let complete, g =
      match boundary depth key with Some g -> (true, g) | None -> (false, key)
    in
    let found =
      match Hashtbl.find_opt t.by_prefix g with
      | Some _ as found -> found
      | None when create_missing ->
        let sub = { group = g; stree = Rbtree.create ~dummy:t.dummy (); note = None } in
        Hashtbl.add t.by_prefix g sub;
        t.ordered <- Smap.add g sub t.ordered;
        Some sub
      | None -> None
    in
    if complete then t.last <- found;
    found)

let tree_for t key ~create_missing =
  match t.depth with
  | None -> Some t.single
  | Some depth -> (
    match sub_for t depth key ~create_missing with Some sub -> Some sub.stree | None -> None)

(* A subtable goes with its last pair, and so does its note. *)
let drop_sub t sub =
  Hashtbl.remove t.by_prefix sub.group;
  t.ordered <- Smap.remove sub.group t.ordered;
  match t.last with Some s when s == sub -> t.last <- None | _ -> ()

let get t key =
  t.stats.lookups <- t.stats.lookups + 1;
  match tree_for t key ~create_missing:false with
  | None -> None
  | Some tree -> (
    match Rbtree.find tree key with Some node -> Some node.Rbtree.value | None -> None)

let get_handle t key =
  t.stats.lookups <- t.stats.lookups + 1;
  match tree_for t key ~create_missing:false with
  | None -> None
  | Some tree -> (
    match Rbtree.find tree key with Some node -> Some { node; tree } | None -> None)

(** Insert or overwrite. When [hint] points at the predecessor of [key]
    (§4.2 output hints) insertion is O(1) amortized. Returns the handle and
    the previous value ([None] when the key is new). *)
let put ?hint t key value =
  t.stats.inserts <- t.stats.inserts + 1;
  let tree =
    match tree_for t key ~create_missing:true with Some tree -> tree | None -> assert false
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
  let found =
    match t.depth with
    | None -> Option.map (fun n -> (n, None)) (Rbtree.find t.single key)
    | Some depth -> (
      match sub_for t depth key ~create_missing:false with
      | None -> None
      | Some sub -> Option.map (fun n -> (n, Some sub)) (Rbtree.find sub.stree key))
  in
  match found with
  | None -> None
  | Some (node, sub) ->
    let v = node.Rbtree.value in
    (match sub with
    | None -> Rbtree.remove_node t.single node
    | Some sub ->
      Rbtree.remove_node sub.stree node;
      if Rbtree.is_empty sub.stree then drop_sub t sub);
    t.key_bytes <- t.key_bytes - String.length key;
    t.pair_count <- t.pair_count - 1;
    Some v

(** The subtable holding every key of [\[lo, hi)]: the range lies within
    one complete boundary prefix and that subtable exists. [None] on a
    single-tree table, a range crossing boundaries, or an empty group. *)
let confined t ~lo ~hi =
  match t.depth with
  | None -> None
  | Some depth -> (
    match t.last with
    | Some sub when group_matches sub.group lo && under_upper sub.group hi -> Some sub
    | _ -> (
      match boundary depth lo with
      | Some g when under_upper g hi -> (
        match Hashtbl.find_opt t.by_prefix g with
        | Some sub ->
          t.last <- Some sub;
          Some sub
        | None -> None)
      | _ -> None))

let note sub = sub.note
let set_note sub n = sub.note <- Some n

(* Walk one tree over [lo, hi), counting each pair visited. *)
let visit t tree ~lo ~hi f =
  Rbtree.iter_range tree ~lo ~hi (fun node ->
      t.stats.steps <- t.stats.steps + 1;
      f node.Rbtree.key node.Rbtree.value)

(* Subtables whose group could hold keys in [lo, hi): any key k in the
   range satisfies group(lo) <= group(k) <= k < hi, because groups are
   component-boundary prefixes of their keys. So we walk groups in
   [group_of lo, hi) in order; each tree filters precisely. *)
let iter_range t ~lo ~hi f =
  if String.compare lo hi < 0 then
    match t.depth with
    | None -> visit t t.single ~lo ~hi f
    | Some depth -> (
      match confined t ~lo ~hi with
      | Some sub -> visit t sub.stree ~lo ~hi f (* an O(1) jump *)
      | None ->
        Seq.iter
          (fun (_, sub) -> visit t sub.stree ~lo ~hi f)
          (Seq.take_while
             (fun (g, _) -> String.compare g hi < 0)
             (Smap.to_seq_from (group_of depth lo) t.ordered)))

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

(** Re-lay the table out in subtables of [depth] components, moving
    every pair into a fresh tree. Handles into the old layout stop
    matching any tree (a hint then falls back to a descent), and every
    note is dropped. No operation is counted. *)
let set_subtable_depth t depth =
  check_depth (Some depth);
  if Some depth <> t.depth then begin
    let pairs = ref [] in
    let collect tree =
      Rbtree.iter tree (fun n -> pairs := (n.Rbtree.key, n.Rbtree.value) :: !pairs)
    in
    (match t.depth with
    | None -> collect t.single
    | Some _ -> Smap.iter (fun _ s -> collect s.stree) t.ordered);
    t.single <- Rbtree.create ~dummy:t.dummy ();
    Hashtbl.reset t.by_prefix;
    t.ordered <- Smap.empty;
    t.last <- None;
    t.depth <- Some depth;
    List.iter
      (fun (k, v) ->
        match tree_for t k ~create_missing:true with
        | Some tree -> ignore (Rbtree.insert tree k v)
        | None -> assert false)
      (List.rev !pairs)
  end

let validate t =
  match t.depth with
  | None -> Rbtree.validate t.single
  | Some _ ->
    Hashtbl.iter
      (fun g sub ->
        Rbtree.validate sub.stree;
        if Rbtree.is_empty sub.stree then failwith ("Table.validate: empty subtable " ^ g);
        if not (String.equal g sub.group) then failwith ("Table.validate: misfiled subtable " ^ g);
        match Smap.find_opt g t.ordered with
        | Some s when s == sub -> ()
        | _ -> failwith "Table.validate: index mismatch")
      t.by_prefix;
    if Hashtbl.length t.by_prefix <> Smap.cardinal t.ordered then
      failwith "Table.validate: index mismatch"
