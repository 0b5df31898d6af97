(** Disjoint cover of key space by half-open ranges carrying values — the
    join status structure (§3.2). Absence of coverage is the implicit
    Unknown state. Values may be mutable; [dup] (given at creation) gives
    split pieces their own value. Pieces are nodes of a mutable red-black
    tree, updated in place. *)

type 'a t

(** An empty map (no key is covered). *)
val create : ?dup:('a -> 'a) -> unit -> 'a t
val is_empty : 'a t -> bool
val cardinal : 'a t -> int

(** The explicit range containing the key, if any. *)
val find : 'a t -> string -> (string * string * 'a) option

(** A piece held across operations, checked before use: splits, trims
    and merges edit pieces in place, and a removed piece never covers
    anything again. *)
type 'a piece_ref

(** The piece containing the key, if any. *)
val find_piece : 'a t -> string -> 'a piece_ref option

(** The held piece's current value, when it is still a piece of its map
    and covers all of [\[lo, hi)]. O(1). *)
val piece_covering : 'a piece_ref -> lo:string -> hi:string -> 'a option

(** The held piece's current value, when it is still a piece of its map
    and spans exactly [\[lo, hi)]. O(1). *)
val piece_exact : 'a piece_ref -> lo:string -> hi:string -> 'a option

(** The held piece's bounds as they stand now. *)
val piece_bounds : 'a piece_ref -> string * string

(** Explicit ranges intersecting [\[lo, hi)], in order.
    O(log n + matches). *)
val overlapping : 'a t -> lo:string -> hi:string -> (string * string * 'a) list

(** Consecutive pieces exactly covering [\[lo, hi)]; [None] marks gaps.
    The callback must not modify the map. *)
val iter_cover : 'a t -> lo:string -> hi:string -> (string -> string -> 'a option -> unit) -> unit

(** Remove all coverage of [\[lo, hi)], trimming straddling ranges. *)
val clear_range : 'a t -> lo:string -> hi:string -> unit

(** Assign [v] to exactly [\[lo, hi)], overwriting any overlap. *)
val set : 'a t -> lo:string -> hi:string -> 'a -> unit

(** Rewrite the cover of [\[lo, hi)] piecewise; [None] clears a piece.
    Straddling ranges are split first. One descent, then an in-order
    walk. *)
val update_range :
  'a t -> lo:string -> hi:string -> (string -> string -> 'a option -> 'a option) -> unit

(** Merge runs of adjacent ranges with [eq]-equal values around
    [\[lo, hi)]: from the piece ending at or containing [lo] to the one
    starting at [hi] (fights split/heal fragmentation). *)
val coalesce : 'a t -> lo:string -> hi:string -> eq:('a -> 'a -> bool) -> unit

(** {!coalesce} around one held piece, from its node: no descent. *)
val coalesce_piece : 'a t -> 'a piece_ref -> eq:('a -> 'a -> bool) -> unit

(** The callback must not modify the map. *)
val iter : 'a t -> (string -> string -> 'a -> unit) -> unit
val to_list : 'a t -> (string * string * 'a) list

(** Ranges non-empty, sorted, pairwise disjoint; raises [Failure]. *)
val validate : 'a t -> unit
