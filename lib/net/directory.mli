(** The partition directory: a versioned mapping [table range -> home
    (+ replicas)] that replaces static [--partition] flags as the
    cluster's source of routing truth.

    One server (the {e seed}, [--dir-host]) holds the authoritative
    copy and serves it over [Dir_get]/[Dir_watch]; every other server
    keeps a follower copy refreshed by polling. Each version is stamped
    with a monotonically increasing {e epoch}; an update ([Dir_update],
    sent by [pequod_ctl] or by a migration flipping ownership) is
    accepted only when its epoch is strictly newer, so replayed or
    crossed updates cannot roll the directory back.

    Epoch 0 means "no directory yet": followers treat every range as
    unresolved until their first successful fetch, so a half-started
    cluster defers reads instead of serving empty ranges as truth.

    A {e wildcard} entry has [de_table = "*"] and covers the same slice
    of every table that no specific entry names. Its bounds are in
    component space — the part of a key after ["T|"] — with [""] as the
    open end on either side (the low end takes the bare key [T] too).
    The shard layer partitions the whole keyspace this way, one entry
    per shard. A table named by any specific entry is governed only by
    specific entries. This module is the only one that knows the rule.

    It is also the only one that decides who serves a key: every
    routing question a server asks ({!write_home}, {!read_route},
    {!scan_route}, {!plan}) is a pure function of the entries and the
    asking server's own address. An empty directory (epoch 0) answers
    "local" to all of them. *)

type entry = Pequod_proto.Message.dir_entry

type t

(** An empty directory at epoch 0. *)
val create : unit -> t

val epoch : t -> int
val entries : t -> entry list

(** Structural validity: ranges non-empty ([lo < hi], or a wildcard's
    open [hi = ""]), homes non-empty strings, and no two entries of the
    same table (or two wildcards) overlapping. Gaps are allowed (an
    uncovered range simply stays unresolved at computes). *)
val validate : entry list -> (unit, string) result

(** Install a new version iff [epoch] is strictly newer than the
    current one and [entries] validate; entries are normalized (sorted,
    adjacent same-home same-replica ranges coalesced). *)
val install : t -> epoch:int -> entries:entry list -> (unit, string) result

(** Whether the entry is a wildcard ([de_table = "*"]). *)
val is_wildcard : entry -> bool

(** The entries governing [table], in key space: the specific entries
    naming it if there are any, else every wildcard instantiated for it
    (bounds [T|lo] .. [T|hi], open ends [T] and [T}]). *)
val for_table : entry list -> table:string -> entry list

(** The home of the range containing [key], if any entry covers it. *)
val home_of : t -> key:string -> string option

(** Who may serve a read of [e]'s range, as seen from [self]: the
    replicas other than [self], rotated by [self]'s identity so readers
    spread over them, then the home. *)
val candidates : self:string -> entry -> string list

(** [[lo, hi)] intersected with [(lo', hi')], when not empty. *)
val intersect : lo:string -> hi:string -> string * string -> (string * string) option

(** How a scan of [[lo, hi)] splits over the directory. A range inside
    one table is [`Cut] in key order by the entries governing that
    table: one piece per overlapping entry, clamped, and [None] pieces
    for the gaps between them. A range that spans tables is [`Cut] by
    the specific entries it overlaps, unless the directory has
    wildcards: a wildcard cannot be cut across tables, so the range is
    [`Spread] over the distinct homes of every wildcard and every
    overlapping entry, each to serve the whole range from what it
    holds. *)
val segments :
  entry list -> lo:string -> hi:string ->
  [ `Cut of (entry option * string * string) list | `Spread of string list ]

(** Who serves a read, as seen from [self]: [Local] when [self] is the
    home or no entry covers the key (join outputs, ungoverned tables),
    [Replica] when [self] replicates it (its subscription keeps the copy
    fresh), else [Forward] to the {!candidates}, the home last. *)
type route = Local | Replica | Forward of string list

(** Where a write of [key] must be applied: [Some home] when the
    entries name another server, [None] when it applies at [self]. *)
val write_home : entry list -> self:string -> key:string -> string option

(** Who serves a point read of [key]. *)
val read_route : entry list -> self:string -> key:string -> route

(** A scan of [[lo, hi)] as routed pieces covering it in key order
    (see {!segments}); a gap is [Local]. A [`Spread] range is served by
    [self] first and forwarded whole to every other home when [spread]
    (a request the shard acceptor handed in), and wholly [Local]
    otherwise, so a spread leg is never spread again. *)
val scan_route :
  entry list -> self:string -> spread:bool -> lo:string -> hi:string ->
  (route * string * string) list

(** How a missing [\[lo, hi)] of [table] is fetched, seen from [self].
    [`Unrouted]: no entry governs the table, so it is purely local.
    [`Gap]: entries govern the table but leave part of the range
    uncovered, a misconfiguration surfaced instead of being served as
    present-and-empty. [`Fetch clamps]: one clamp per overlapping entry
    homed elsewhere; [[]] when every one is [self]'s. A wildcard never
    governs a table in [outputs] (the join-output tables): each server
    recomputes its outputs from subscription-fresh sources, and a
    fetched copy would freeze, because join-derived writes are never
    pushed. *)
val plan :
  self:string -> outputs:string list -> entry list -> table:string -> lo:string ->
  hi:string -> [ `Unrouted | `Gap | `Fetch of (entry * string * string) list ]

(** A new entry list reassigning [table [lo,hi)] to [home] (the
    migration flip): overlapping entries are split around the range,
    the reassigned piece carries no replicas. Fails if the range is
    empty or not fully covered by existing entries of one home. *)
val assign :
  entry list -> table:string -> lo:string -> hi:string -> home:string ->
  (entry list, string) result

(** A new entry list with [addr] added as a read replica of every entry
    of [table] overlapping [[lo,hi)]. Fails if nothing overlaps or
    [addr] is already the home of an overlapping entry. *)
val add_replica :
  entry list -> table:string -> lo:string -> hi:string -> addr:string ->
  (entry list, string) result

(** One human-readable line per entry ([pequod_ctl dir]). *)
val to_lines : t -> string list
