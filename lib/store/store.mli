(** The multi-table store facade (paper Fig 6, top layer). The first
    ['|']-separated component of a key names its table; tables are created
    on demand with per-table subtable configuration; the whole store is
    one ordered key space and scans may cross tables. *)

type 'v t

(** An empty store; [table_config] maps a table name to its subtable
    depth ([None] for a single tree). *)
val create : ?table_config:(string -> int option) -> dummy:'v -> unit -> 'v t

(** Table name of a key: everything before the first ['|']. *)
val table_name_of : string -> string

val table : 'v t -> string -> 'v Table.t
val table_of_key : 'v t -> string -> 'v Table.t

(** @raise Strkey.Invalid_key on keys containing [0xff]. *)
val get : 'v t -> string -> 'v option

val put : ?hint:'v Table.handle -> 'v t -> string -> 'v -> 'v Table.handle * 'v option
val remove : 'v t -> string -> 'v option

(** Ordered iteration over [\[lo, hi)] across all tables. *)
val iter_range : 'v t -> lo:string -> hi:string -> (string -> 'v -> unit) -> unit

val fold_range : 'v t -> lo:string -> hi:string -> init:'a -> ('a -> string -> 'v -> 'a) -> 'a

(** Early-terminating fold over [\[lo, hi)] across tables: return
    [`Stop acc] to cut the walk short. *)
val fold_range_stop :
  'v t ->
  lo:string ->
  hi:string ->
  init:'a ->
  ('a -> string -> 'v -> [ `Continue of 'a | `Stop of 'a ]) ->
  'a
val range_to_list : 'v t -> lo:string -> hi:string -> (string * 'v) list
val count_range : 'v t -> lo:string -> hi:string -> int
val size : 'v t -> int
val memory_bytes : 'v t -> int
val tables : 'v t -> 'v Table.t list

(** Summed operation statistics across tables (Fig 10's work count). *)
val total_ops : 'v t -> int

(** Aggregate of every table's {!Table.stats} as a fresh record; the
    per-table records keep accumulating independently. The engine mirrors
    this into its metrics registry at snapshot time. *)
val stats_totals : 'v t -> Table.stats

val validate : 'v t -> unit
