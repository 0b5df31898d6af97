(** One logical table of the store: ordered pairs, optionally subdivided
    into {e subtables} at marked key boundaries (§4.1). Operations within
    one boundary jump to its tree through a hash index (with a last-group
    cache); the table remains a single ordered key space, and scans that
    cross boundaries walk the subtables in order. A subtable exists while
    it holds a pair, and carries a caller-typed {e note} (['n]) that the
    table never reads. *)

type stats = {
  mutable lookups : int;
  mutable inserts : int;
  mutable removes : int;
  mutable steps : int;
}

(** [lookups + inserts + removes + steps]: the store-op work measure the
    Fig 10 throughput model divides by. *)
val total_ops : stats -> int

type ('v, 'n) t

(** One subtable. *)
type ('v, 'n) sub

(** Handle to a stored pair: the node plus the tree holding it (used as
    the §4.2 output hint). *)
type 'v handle = { node : 'v Rbtree.node; tree : 'v Rbtree.t }

(** [create ?subtable_depth ~name ~dummy ()]: [subtable_depth] is the
    number of ['|']-separated components forming a boundary (e.g. 2 for
    one Twip timeline [t|user|]). *)
val create : ?subtable_depth:int -> name:string -> dummy:'v -> unit -> ('v, 'n) t

(** The boundary depth, [None] for a single tree. *)
val subtable_depth : ('v, 'n) t -> int option

(** Re-lay the table out in subtables of the given depth, moving every
    pair. Handles into the old layout stop serving as hints and every
    note is dropped. *)
val set_subtable_depth : ('v, 'n) t -> int -> unit

val name : ('v, 'n) t -> string
val stats : ('v, 'n) t -> stats
val size : ('v, 'n) t -> int

(** Approximate resident bytes for keys and nodes (values are accounted by
    the engine, which knows about sharing). Equals the summed key lengths
    plus {!node_overhead} per resident pair, plus {!subtable_overhead}
    per subtable of a subdivided table. *)
val memory_bytes : ('v, 'n) t -> int

(** Bytes charged per stored pair on top of its key (tree node, pointers,
    headers) when estimating {!memory_bytes}. *)
val node_overhead : int

(** Bytes charged per subtable (record, tree header, index entries). *)
val subtable_overhead : int

(** Live subtables; 1 for a single-tree table. *)
val subtable_count : ('v, 'n) t -> int
val get : ('v, 'n) t -> string -> 'v option
val get_handle : ('v, 'n) t -> string -> 'v handle option

(** Insert or overwrite; O(1) amortized with an adjacent [hint]. Returns
    the handle and the previous value ([None] when new). *)
val put : ?hint:'v handle -> ('v, 'n) t -> string -> 'v -> 'v handle * 'v option

val remove : ('v, 'n) t -> string -> 'v option

(** The subtable holding every key of [\[lo, hi)]: the range lies
    within one complete boundary prefix and that subtable exists. [None]
    on a single-tree table, for a range crossing boundaries, or when no
    pair lies under the prefix. *)
val confined : ('v, 'n) t -> lo:string -> hi:string -> ('v, 'n) sub option

val note : ('v, 'n) sub -> 'n option
val set_note : ('v, 'n) sub -> 'n -> unit

(** Ordered iteration over [\[lo, hi)], across subtables as needed. *)
val iter_range : ('v, 'n) t -> lo:string -> hi:string -> (string -> 'v -> unit) -> unit

val fold_range : ('v, 'n) t -> lo:string -> hi:string -> init:'a -> ('a -> string -> 'v -> 'a) -> 'a

(** Early-terminating fold over [\[lo, hi)]: return [`Stop acc] to cut
    the walk short (bounded scans stop at their limit instead of
    materializing the whole range). *)
val fold_range_stop :
  ('v, 'n) t ->
  lo:string ->
  hi:string ->
  init:'a ->
  ('a -> string -> 'v -> [ `Continue of 'a | `Stop of 'a ]) ->
  'a
val count_range : ('v, 'n) t -> lo:string -> hi:string -> int
val range_to_list : ('v, 'n) t -> lo:string -> hi:string -> (string * 'v) list

(** Remove every pair in [\[lo, hi)]; returns how many were removed. *)
val remove_range : ('v, 'n) t -> lo:string -> hi:string -> int

val iter : ('v, 'n) t -> (string -> 'v -> unit) -> unit
val validate : ('v, 'n) t -> unit
