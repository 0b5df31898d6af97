(** The multi-table store facade (paper Fig 6, top layer). The first
    ['|']-separated component of a key names its table; tables are created
    on demand, subdivided at the boundary declared for their name; the
    whole store is one ordered key space and scans may cross tables. The
    second type parameter is the subtables' note ({!Table.note}). *)

type ('v, 'n) t

(** An empty store; every table is a single tree until {!add_boundary}. *)
val create : dummy:'v -> unit -> ('v, 'n) t

(** [add_boundary t name depth] subdivides table [name] into subtables of
    [depth] leading components (§4.1). Asked for several depths, a table
    keeps the shallowest; a table already holding pairs is re-laid out
    ({!Table.set_subtable_depth}). *)
val add_boundary : ('v, 'n) t -> string -> int -> unit

(** Table name of a key: everything before the first ['|']. *)
val table_name_of : string -> string

val table : ('v, 'n) t -> string -> ('v, 'n) Table.t

(** The table of that name, if one was ever created. *)
val find_table : ('v, 'n) t -> string -> ('v, 'n) Table.t option

val table_of_key : ('v, 'n) t -> string -> ('v, 'n) Table.t

(** @raise Strkey.Invalid_key on keys containing [0xff]. *)
val get : ('v, 'n) t -> string -> 'v option

val put : ?hint:'v Table.handle -> ('v, 'n) t -> string -> 'v -> 'v Table.handle * 'v option
val remove : ('v, 'n) t -> string -> 'v option

(** Ordered iteration over [\[lo, hi)] across all tables. *)
val iter_range : ('v, 'n) t -> lo:string -> hi:string -> (string -> 'v -> unit) -> unit

val fold_range : ('v, 'n) t -> lo:string -> hi:string -> init:'a -> ('a -> string -> 'v -> 'a) -> 'a

(** Early-terminating fold over [\[lo, hi)] across tables: return
    [`Stop acc] to cut the walk short. *)
val fold_range_stop :
  ('v, 'n) t ->
  lo:string ->
  hi:string ->
  init:'a ->
  ('a -> string -> 'v -> [ `Continue of 'a | `Stop of 'a ]) ->
  'a
val range_to_list : ('v, 'n) t -> lo:string -> hi:string -> (string * 'v) list
val count_range : ('v, 'n) t -> lo:string -> hi:string -> int
val size : ('v, 'n) t -> int
val memory_bytes : ('v, 'n) t -> int
val tables : ('v, 'n) t -> ('v, 'n) Table.t list

(** Summed operation statistics across tables (Fig 10's work count). *)
val total_ops : ('v, 'n) t -> int

(** Aggregate of every table's {!Table.stats} as a fresh record; the
    per-table records keep accumulating independently. The engine mirrors
    this into its metrics registry at snapshot time. *)
val stats_totals : ('v, 'n) t -> Table.stats

val validate : ('v, 'n) t -> unit
