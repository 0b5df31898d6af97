(** Interval tree over half-open string ranges [\[lo, hi)] — the index of
    updaters (§3.2): each write stabs the tree to find every updater whose
    source range contains the key, in O(log n + matches). *)

type 'a t
type 'a handle

(** An empty interval map. *)
val create : unit -> 'a t
val size : 'a t -> int
val handle_data : 'a handle -> 'a
val handle_range : 'a handle -> string * string

(** Add the interval [\[lo, hi)] carrying [data]; empty intervals are
    rejected. The handle removes it later. *)
val add : 'a t -> lo:string -> hi:string -> 'a -> 'a handle

(** Remove a previously added entry. Idempotent. *)
val remove : 'a t -> 'a handle -> unit

(** [stab t k f] calls [f] on every entry whose interval contains [k]. *)
val stab : 'a t -> string -> ('a handle -> unit) -> unit

(** Every entry whose interval intersects [\[lo, hi)]. *)
val iter_overlapping : 'a t -> lo:string -> hi:string -> ('a handle -> unit) -> unit

(** Every entry whose interval is exactly [\[lo, hi)], newest first:
    one descent to the node bucketing [lo]. *)
val exact : 'a t -> lo:string -> hi:string -> 'a handle list

val iter : 'a t -> ('a handle -> unit) -> unit
val to_list : 'a t -> 'a handle list

(** Structural validation (balance, augmentation); raises [Failure]. *)
val validate : 'a t -> unit
