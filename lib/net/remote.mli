(** Live distributed deployment (§2.4/§3.3): wires a {!Net_client} into
    a cache engine as its missing-range resolver.

    A server's routes say which peer is the {e home} of each base-table
    range: a fixed route list (the shard layer's slices), or the
    partition directory — fixed at epoch 1 by [--partition] specs, or
    polled from a seed. Ranges routed to this process are marked present
    (home ownership). Ranges routed to a peer are fetched on first need:
    a [Fetch] names this server's own address as the subscriber, and the
    home (or a read replica) replies [Subscribed] with a snapshot and
    starts pushing [Notify_batch] frames for every later write in the
    range — the protocol the simulator models, between live processes.

    A scan that misses parks instead of blocking the event loop: the
    fetcher issues its whole missing set as one pipelined burst per
    peer, single-flighted across waiters. A fetch whose every candidate
    (the range's replicas, then its home) fails answers the parked scan
    [Error] instead of crashing; the next scan retries, so a respawned
    peer heals the route. Resolver calls with no retry loop above them
    fetch inline through blocking clients that keep the server's loop
    turning ({!Net_server.on_wait}).

    Subscriptions self-heal: the tick returned by {!attach} periodically
    sends [Sub_check] to every server this one fetched from and compares
    the answer against the subscriptions it believes it holds. A range
    the server dropped (a failed push, a restart) is re-planned against
    the current routes and refetched — [feed_base] reconciles the data
    and the [Fetch] re-subscribes — or, if no owner answers, un-marked
    present so the next scan goes back through the resolver. Losses are
    counted in [peer.sub.lost]. *)

(** One partition route. [r_addr = None] means this process is the home
    (the range is marked present); [Some "host:port"] names the owning
    peer.

    A {e wildcard} route has [r_table = "*"] and covers the same slice
    of every table not named by a specific route: its bounds are in
    component space — the part of the key after ["T|"] — with
    [r_lo = ""] meaning each table's start and [r_hi = ""] its end. The
    shard layer partitions the whole keyspace with one cut vector this
    way. Specific routes always win: a table any specific route names is
    governed only by specific routes. *)
type route = {
  r_table : string;
  r_lo : string;
  r_hi : string;
  r_addr : string option;
}

(** Parse [--partition] specs, [TABLE\[:LO:HI\]\[@HOST:PORT\]], against
    the [--peer] list: an explicit [@HOST:PORT] wins; a bare spec is
    owned by the single [--peer] when exactly one is given, is local
    when none is, and is an error (ambiguous) with several. A bare
    [TABLE] covers the whole table. ["*"] is an error: it is not a
    table. *)
val routes_of_specs :
  peers:string list -> string list -> (route list, string) result

(** How a missing [\[lo, hi)] of [table] maps onto the routes.
    [`Unrouted]: no route mentions the table — it is purely local.
    [`Gap]: routes mention the table but leave part of the range
    uncovered — a partition misconfiguration, surfaced as [Deferred]
    rather than silently served as present-and-empty.
    [`Fetch clamps]: the per-route clamps to fetch (remotely-owned
    overlapping routes only — an empty list means every overlapping
    route is local, so the range resolves [Local]). Wildcard routes are
    instantiated against [table] first. Exposed for tests. *)
val plan :
  routes:route list -> table:string -> lo:string -> hi:string ->
  [ `Unrouted | `Gap | `Fetch of (route * string * string) list ]

(** Directory entries seen from [self_addr]: entries homed here become
    local routes, everything else names the home. *)
val routes_of_entries :
  self_addr:string -> Pequod_proto.Message.dir_entry list -> route list

(** Where routes come from. [Fixed routes] apply once. [Directory]
    routes come from a {!Directory.t} shared with
    {!Net_server.set_directory} and re-plan on every epoch change;
    [seed = None] means the directory is installed locally (a seed, or
    a server whose [--partition] specs fixed it), otherwise the tick
    polls [seed] every [poll_every] seconds. *)
type source =
  | Fixed of route list
  | Directory of { dir : Directory.t; seed : string option; poll_every : float }

(** Install [source]'s routing on [server]'s engine — the resolver and
    the asynchronous fetcher — and return the maintenance tick: run it
    from the serving loop ({!Net_server.add_ticker}). Call once, before
    serving; a follower's first seed poll happens here.

    Every change of routes marks and un-marks owned ranges by diff,
    drops subscriptions whose granting server the routes no longer name,
    and warms the ranges this server replicates (fetch+subscribe from
    the home). A wildcard route never claims a table an installed join
    outputs into. The tick polls the seed ([dir.fetch], [dir.epoch]) and
    heals subscriptions every [check_every] seconds ([peer.sub.lost]).
    Parked scans report [scan.parked], [fetch.coalesced],
    [fetch.inflight] and [resolver.fetch.wait_ns].

    Every [Subscribed] snapshot's version stamp is recorded against the
    fed range ({!Pequod_core.Server.set_range_stamp}), so stamped
    session reads (docs/SESSIONS.md) can tell a fresh copy from a stale
    one — on replicas exactly as on computes. *)
val attach :
  server:Net_server.t -> self_addr:string -> check_every:float -> source -> unit -> unit
