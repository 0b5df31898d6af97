(** Mutable red-black tree with parent pointers, specialized to string
    keys (the paper's §4 store structure).

    Three properties matter beyond balanced-tree behaviour: {b node
    identity} (deletion splices nodes without moving contents, so output
    hints — §4.2 — stay meaningful; removed nodes are marked dead),
    {b hinted insertion} ([insert_after] is O(1) amortized for accurate
    hints), and {b ordered iteration} over half-open ranges. *)

type 'v node = private {
  mutable key : string;
  mutable value : 'v;
  mutable left : 'v node;
  mutable right : 'v node;
  mutable parent : 'v node;
  mutable red : bool;
  mutable live : bool;
}

type 'v t

(** [create ~dummy ()] makes an empty tree; [dummy] seeds the sentinel and
    is never observable. *)
val create : dummy:'v -> unit -> 'v t

val is_empty : 'v t -> bool
val size : 'v t -> int

(** False once the node has been unlinked (guards stale hints). *)
val is_live : 'v node -> bool

val min_node : 'v t -> 'v node option

(** The last node, kept up to date by every insert and removal: O(1). *)
val max_node : 'v t -> 'v node option

(** In-order successor / predecessor, or [None] at the ends. *)
val next : 'v t -> 'v node -> 'v node option

val prev : 'v t -> 'v node -> 'v node option
val find : 'v t -> string -> 'v node option

(** First node with key >= the argument; O(1) past the maximum. *)
val lower_bound : 'v t -> string -> 'v node option

(** Last node with key <= the argument. *)
val floor : 'v t -> string -> 'v node option

(** Change a node's key in place without rebalancing; the new key must
    sort strictly between the node's predecessor and successor. *)
val rekey : 'v node -> string -> unit

(** Insert or overwrite in place; returns the node and the previous value
    ([None] when freshly inserted). *)
val insert : 'v t -> string -> 'v -> 'v node * 'v option

(** O(1) amortized when the key belongs immediately after [hint] (the
    §4.2 output-hint fast path); falls back to {!insert} when the hint is
    dead, equal, or not adjacent. *)
val insert_after : 'v t -> hint:'v node -> string -> 'v -> 'v node * 'v option

(** Unlink the node; it keeps its contents but becomes dead. Other nodes
    keep their identity. *)
val remove_node : 'v t -> 'v node -> unit

val remove : 'v t -> string -> bool

(** Ascending iteration over keys in [\[lo, hi)]. The callback must not
    mutate the tree. *)
val iter_range : 'v t -> lo:string -> hi:string -> ('v node -> unit) -> unit

val fold_range : 'v t -> lo:string -> hi:string -> init:'a -> ('a -> 'v node -> 'a) -> 'a

(** Nodes in range, collected first (safe to mutate afterwards). *)
val nodes_in_range : 'v t -> lo:string -> hi:string -> 'v node list

val iter : 'v t -> ('v node -> unit) -> unit
val to_list : 'v t -> (string * 'v) list
val count_range : 'v t -> lo:string -> hi:string -> int

(** Check BST order, red-black invariants, parent pointers, size and the
    kept maximum; raises [Failure] on violation (tests). *)
val validate : 'v t -> unit
