(** The Pequod cache engine: an ordered key-value store with cache joins.

    One [Server.t] is one cache server. It supports the paper's four
    client operations plus join installation (§2), and implements forward
    query execution with dynamic materialization (§3.1), incremental
    maintenance with eager updaters and lazy invalidation logs (§3.2),
    missing-data resolution (§3.3), the pull/snapshot maintenance
    annotations (§3.4), LRU eviction (§2.5), and the §4 optimizations
    (subtables, output hints, value sharing, updater combining), each
    controlled by {!Config.t}.

    Keys are ['|']-separated byte strings without [0xff]
    ({!Strkey.validate}); the first component names the table. *)

module Joinspec = Pequod_pattern.Joinspec

type t

(** Resolver answers for a missing base range (§3.3). The engine never
    fetches: the host fetches a [Deferred] range itself, hands it in
    through {!feed_base} and retries the scan. *)
type resolve_result =
  | Deferred  (** the host must fetch it; {!scan_result} reports it [`Missing] *)
  | Local  (** this range is not backed elsewhere; treat as present *)

type resolver = table:string -> lo:string -> hi:string -> resolve_result

(** Client-level state transitions, as reported to the durability
    subsystem ({!set_mutation_hook}). Only API-level mutations appear;
    engine-derived writes (join materialization) are recomputed on
    recovery, never replayed. *)
type mutation =
  | M_put of string * string
  | M_remove of string
  | M_put_batch of (string * string) list
      (** one client batch, in argument order; recovery replays it through
          {!put_batch} *)
  | M_add_join of string  (** canonical join text *)
  | M_present of string * string * string
      (** table, lo, hi now locally owned ({!mark_present} only — presence
          installed by {!feed_base} or a resolver is refetchable cache and
          is never reported, so it cannot be persisted) *)

(** Raised when chained joins evaluate cyclically at runtime. *)
exception Join_cycle of string

(** A fresh engine; [config] defaults to {!Config.default}[ ()]. *)
val create : ?config:Config.t -> unit -> t

val config : t -> Config.t

(** Install a cache join. Rejects joins that would make the dependency
    graph between tables cyclic (the §3 recursion check, extended to
    indirect cycles through chained joins). *)
val add_join : t -> Joinspec.t -> (unit, string) result

val add_join_text : t -> string -> (unit, string) result
val add_join_exn : t -> string -> unit
val joins : t -> Joinspec.t list

(** Store a pair; every applicable updater runs (§3.2). *)
val put : t -> string -> string -> unit

(** Batched write — the hot path for bulk loads and grouped client
    traffic. Equivalent to the same puts applied one at a time in
    ascending key order (duplicate keys keep their argument order, so
    the last occurrence wins), but pays table resolution once per
    contiguous same-table key run and threads insertion hints across it
    (a sorted run appends without tree descents). Each key fires its
    updaters through the same per-key interval stab as {!put}. Every key
    is validated before any store mutation; eviction runs once after the
    batch. *)
val put_batch : t -> (string * string) list -> unit

val remove : t -> string -> unit

(** Fetch one key, computing and freshening overlapping join output
    first. *)
val get : t -> string -> string option

(** Every scan produces one of these: the ordered pairs, or the base
    ranges ([table, lo, hi] triples) that must be fetched and fed in
    through {!feed_base} before the scan can complete.
    One pass collects {e every} missing range it can currently see (a
    check join fans out over all bound value ranges at once), in
    first-discovery order without duplicates, so an asynchronous host
    can issue the whole set as one fetch burst. Completed covers stay
    valid across retries (§3.3 restart behaviour), and a region or log
    executes staged and commits only when no source was absent, so a
    region that misses is left untouched and materializes once, on the
    retry that finds all its sources. A retry may still surface ranges that
    were unreachable before the first feed (a check source gates which
    value ranges are scanned). *)
type scan_result =
  [ `Ok of (string * string) list
  | `Missing of (string * string * string) list ]

(** Ordered scan of [\[lo, hi)], computing and freshening any overlapping
    cache-join output first. Pull-join results are merged in without
    being cached. [limit] bounds the result to its first [limit] pairs;
    the store walk stops there instead of materializing the whole range
    (maintenance of the range still runs in full, so freshness
    bookkeeping is identical with and without a limit).

    A scan collects misses exactly when a resolver is installed; with
    none, every range is present and the result is always [`Ok]. Outside
    a scan, an eager-check updater ([lazy_checks = false]) that meets a
    [Deferred] source gives its cover up, so the output range turns
    invalid and the next read recomputes it, collecting the miss. *)
val scan_result : ?limit:int -> t -> lo:string -> hi:string -> scan_result

(** {!get} as a collect-mode scan of the one key: the value, or the base
    ranges to fetch before retrying, as in {!scan_result}. Unlike {!get}
    it does not count [op.get]: a parked get calls it once per retry, so
    its caller counts the get once. *)
val get_result :
  t -> string -> [ `Ok of string option | `Missing of (string * string * string) list ]

(** Thin convenience wrapper over {!scan_result} for callers that know
    every needed range is present; fails on [`Missing]. [limit] as in
    {!scan_result}. *)
val scan : ?limit:int -> t -> lo:string -> hi:string -> (string * string) list

(** Hook consulted when a base range is first needed (§3.3): a database
    backing store or a remote home server. *)
val set_resolver : t -> resolver -> unit

(** Install fetched base data as the authoritative content of
    [\[lo, hi)] and mark the range present (distributed deployments feed
    [Fetch] responses through this). Resident keys the feed no longer
    contains are removed through the updaters, so refetching a range —
    after recovery, eviction, or a lost subscription — heals stale base
    data and the join output computed from it. The range's recorded
    stamp becomes exactly [stamp], the home's version of the snapshot
    (0: none), whatever was recorded over it before. *)
val feed_base :
  t -> table:string -> lo:string -> hi:string -> stamp:int -> (string * string) list -> unit

(** Mark a base range as locally owned (home-server partitions). Unlike
    fetched presence, ownership reaches the mutation hook and
    {!present_ranges}, so it survives recovery. *)
val mark_present : t -> table:string -> lo:string -> hi:string -> unit

(** Forget any presence of [\[lo, hi)]: the next scan needing the range
    consults the resolver again. Healing path for a compute server whose
    subscription the home dropped. *)
val unmark_present : t -> table:string -> lo:string -> hi:string -> unit

(** Remove, through {!remove}, up to [limit] resident keys of [\[lo, hi)]
    that neither lie in a fetched copy (present, not owned: a feed
    reconciled them) nor are named by [keep]: what a migration's source
    still holds of a range it gave away. [Some next] is where the next
    call resumes; [None]: the walk reached [hi]. *)
val drop_moved :
  t -> lo:string -> hi:string -> limit:int -> keep:(string -> bool) -> string option

(** {2 Per-range version stamps (session consistency)}

    Every range this server is authoritative for — an owned piece, or
    any range of a table no partition layer governs — carries a version
    stamp bumped once per public mutation ({!put}, {!remove},
    {!put_batch}). A fetched copy records exactly the owner's stamp of
    its [Subscribed] snapshot ({!feed_base}), raised by [Notify] push
    trailers. Stamps of
    authoritative ranges persist through snapshots (and reproduce under
    WAL replay, which re-runs the same mutations); recorded fetched
    stamps are cache state and do not survive. See docs/SESSIONS.md. *)

(** Stamp vector acknowledging a write of [keys]: one
    [(table, lo, hi, stamp)] entry per key this server is authoritative
    for, clamped to the key itself. *)
val stamps_for_keys : t -> string list -> (string * string * string * int) list

(** Record that the local copy of [\[lo, hi)] reflects the owner's
    version [stamp]. Monotone (only raises); also the snapshot-restore
    entry point. *)
val set_range_stamp : t -> table:string -> lo:string -> hi:string -> int -> unit

(** The stamp a [Fetch]/[Subscribed] answer carries for [\[lo, hi)]: the
    lowest stamp over the range (conservative across pieces), 0 when
    nothing was ever stamped. *)
val range_stamp : t -> table:string -> lo:string -> hi:string -> int

(** The sub-ranges of [demands] this server cannot prove are at the
    demanded stamp: fetched pieces a push has not yet caught up, and
    gaps in a governed table (no copy means no proof — derived data
    computed from a dropped copy may still be resident). Owned pieces
    and ungoverned tables satisfy any demand (authority), as do tables
    with nothing resident at all. Empty: a scan served now meets the
    demand. *)
val stamp_unsatisfied :
  t -> (string * string * string * int) list -> (string * string * string * int) list

(** Authoritative stamps for snapshot writers, sorted: owned pieces plus
    whole-table stamps of ungoverned tables. *)
val stamp_ranges : t -> (string * string * string * int) list

(** Approximate resident bytes: keys, nodes, values (§4.3-aware). *)
val memory_bytes : t -> int

(** Number of resident key-value pairs. *)
val size : t -> int

(** Cumulative store operations (tree lookups/inserts/removes/steps) —
    Fig 10's count of a server's work. *)
val store_ops : t -> int

(** {2 Observability}

    Each server owns a metrics registry ({!Obs.t}); every subsystem
    attached to it (persist, net, sim node) records into the same one,
    so one snapshot covers the whole process. The catalogue of metric
    names lives in [docs/OBSERVABILITY.md]. *)

(** This server's metrics registry and trace ring. *)
val obs : t -> Obs.t

(** Current total of one registry counter by name; 0 when absent.
    Convenience for tests and tools — hot paths use pre-resolved
    handles. *)
val counter : t -> string -> int

(** Full typed registry snapshot (counters, gauges, histograms), with
    the mirrored gauges — memory ledgers, store-layer op totals —
    freshly synced. The [Stats_full] RPC returns exactly this. *)
val metrics_snapshot : t -> (string * Obs.value) list

(** {!metrics_snapshot} flattened to integers (histograms expand to
    [.count]/[.sum]/[.min]/[.max]/[.p50]/[.p95]/[.p99] entries), for
    text tables and in-process consumers. Not on the wire: the RPC
    surface carries only the typed {!metrics_snapshot} ([Stats_full]). *)
val stats_snapshot : t -> (string * int) list

(** {2 Durability hooks (lib/persist)} *)

(** Observe every client-level mutation, after it is applied. One hook at
    a time; the write-ahead log is the intended subscriber. *)
val set_mutation_hook : t -> (mutation -> unit) -> unit

val clear_mutation_hook : t -> unit

(** Every resident pair in table order (includes materialized join
    output; snapshot writers skip {!sink_tables}). *)
val iter_pairs : t -> (string -> string -> unit) -> unit

(** Output tables of installed push/snapshot joins: derived state,
    recomputed on demand after recovery. *)
val sink_tables : t -> string list

(** Base ranges {e owned} via {!mark_present}. Fetched presence is
    excluded deliberately: restoring it on recovery would serve a frozen
    copy with no subscription keeping it fresh — recovery refetches
    instead. *)
val present_ranges : t -> (string * string * string) list

(** Installed joins as canonical re-parsable text, in install order. *)
val join_texts : t -> string list

(** Whole-engine invariant checks: store-layer [validate]s on every
    table (trees, range maps, interval trees, present-range maps), the
    cover/updater bookkeeping (every context in exactly one live entry
    and in its cover's list, no entry without a context, no duplicate
    context in a cover, the [updater.entries]/[updater.contexts] counts
    exact) and the memory ledgers. Cheap enough that model-based tests
    run it after every operation; raises [Failure] on the first
    violation. *)
val check_invariants : t -> unit

(** Historical name for {!check_invariants}. *)
val validate : t -> unit
