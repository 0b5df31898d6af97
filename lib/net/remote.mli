(** Live distributed deployment (§2.4/§3.3): routes a server's cache
    engine by its partition directory — the missing-range resolver, the
    asynchronous fetcher and the maintenance tick.

    A server's partition directory says which peer is the {e home} of
    each base-table range. It is fixed at epoch 1 by [--partition] specs
    or by the shard layer's slices, or polled from a seed. Ranges homed
    at this process are marked present (home ownership). Ranges homed at
    a peer are fetched on first need:
    a [Fetch] names this server's own address as the subscriber, and the
    home (or a read replica) replies [Subscribed] with a snapshot and
    starts pushing [Notify_batch] frames for every later write in the
    range.

    A read that misses parks instead of blocking the event loop: the
    fetcher issues its whole missing set as one pipelined burst per
    peer through the core's outbound record ({!Peer.outbound}),
    single-flighted across waiters.
    A fetch whose every candidate (the range's replicas, then its home)
    fails answers the parked read [Error] instead of crashing; the next
    read retries, so a respawned peer heals the route. The resolver
    never fetches inline: outside a collect-mode scan a remote miss
    answers [Deferred], and the only engine path that meets that — an
    eager-check updater ([lazy_checks = false]) — invalidates its cover
    so the next read recomputes it and parks.

    Subscriptions self-heal: the tick returned by {!attach} periodically
    sends [Sub_check] (through the outbound record, never blocking) to every
    server this one fetched from and compares
    the answer against the subscriptions it believes it holds. A range
    the server dropped (a failed push, a restart) is re-planned against
    the current directory and refetched — [feed_base] reconciles the data
    and the [Fetch] re-subscribes — or, if no owner answers, un-marked
    present so the next scan goes back through the resolver. Losses are
    counted in [peer.sub.lost]. *)

(** Parse [--partition] specs, [TABLE\[:LO:HI\]\[@HOST:PORT\]], into
    directory entries: a spec names its home with [@HOST:PORT], and a
    bare one is homed at [self_addr]. A bare [TABLE] covers the whole
    table. ["*"] is an error: it is the directory's wildcard, not a
    table. *)
val entries_of_specs :
  self_addr:string -> string list ->
  (Pequod_proto.Message.dir_entry list, string) result

(** Route the request core [node] by the partition directory [dir]:
    install [dir] as the core's routing truth ({!Node.set_directory}),
    the resolver and the asynchronous fetcher, and register the
    maintenance tick, which the core's owner runs once per step. Call
    once, before serving. Every timer reads the engine's clock,
    [Config.now].

    [seed = None] means the directory is installed locally: a seed, a
    server whose [--partition] specs fixed it at epoch 1, or a shard.
    Otherwise the tick polls [seed] once a second through the outbound
    record, the first time from [attach] itself, before the owner first
    waits. Until that poll lands the follower is at epoch 0 and its core
    answers every keyed request [Error "directory not yet synced"], so a
    follower that has just been attached, and its listening line, report
    epoch 0.

    Every epoch change marks and un-marks owned ranges by diff, drops
    subscriptions whose granting server the directory no longer names,
    and warms the ranges this server replicates (fetch+subscribe from
    the home). Missing ranges are planned by {!Directory.plan}, with the
    installed joins' output tables. The tick polls the seed
    ([dir.fetch], [dir.epoch]) and heals subscriptions every
    [check_every] seconds ([peer.sub.lost]).
    Parked scans report [scan.parked], [fetch.coalesced],
    [fetch.inflight] and [resolver.fetch.wait_ns].

    A fed range records exactly its [Subscribed] snapshot's stamp
    ({!Pequod_core.Server.feed_base}), the home's version, so stamped
    session reads (docs/SESSIONS.md) can tell a fresh copy from a stale
    one — on replicas exactly as on computes. A push the home sent after
    the snapshot may land before it; the fetcher logs the pushes it sees
    while a fetch is out ([on_push] of {!Node.set_directory}) and, after
    the feed, applies again those whose trailer over the range is above
    the snapshot's stamp ([fetch.replayed]). *)
val attach :
  node:Node.t -> self_addr:string -> check_every:float -> ?seed:string -> Directory.t -> unit
