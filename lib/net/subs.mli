(** The home's half of a subscription (§2.4): which subscriber fetched
    which base range, and the pushes its later writes owe them. The
    compute's half, the ranges it believes it holds and the heartbeat
    that heals them, is {!Remote}.

    Granting a [Fetch] ({!grant}) installs the subscription, then
    snapshots the range, so a write landing in between is pushed as
    well. Every write applied here is queued ({!enqueue}): each
    subscription whose range contains the key owes its subscriber that
    write. A {!flush} turns what is owed into one [Notify_batch] per
    subscriber, carrying a stamp trailer. A subscriber whose pushes are lost is
    dropped ({!drop}), and a migration flip hands the moved range's
    subscriptions to the new home ({!hand_off}).

    Subscriptions are keyed by table, then by range: one entry per
    (range, subscriber), however often the subscriber refetches the
    range. Owned by one request core; not thread-safe. Counters, in the
    engine's registry: [peer.fetch.in], [peer.notify.out]. *)

type t

(** No subscriptions, over the home's engine. *)
val create : Pequod_core.Server.t -> t

(** Answer a [Fetch] of [\[lo, hi)] in [table] from [subscriber]. [refused]
    is the server's routing verdict: [Some why] answers [Error why] and
    grants nothing. Otherwise the subscription is installed unless an
    identical one exists (or [subscriber] is [""], a plain snapshot),
    and the answer is [Subscribed] with the snapshot and the range's
    stamp. A range the engine does not hold answers [Error], as does an
    engine that raises; either way the subscription is rescinded. *)
val grant :
  t -> refused:string option -> table:string -> lo:string -> hi:string -> subscriber:string ->
  Pequod_proto.Message.response

(** A write of [key] ([None]: a removal) was applied here: queue it for
    every subscriber holding a range that contains [key], behind that
    subscriber's earlier pushes. *)
val enqueue : t -> string -> string option -> unit

(** What is queued, as one [(subscriber, Notify_batch)] per subscriber,
    in the order each was first queued to since the last flush; the
    queue is then empty. A batch's items are in write order. Its
    trailer lists each of the subscriber's ranges containing a pushed
    key, with the range's stamp (none whose stamp is 0): once the items
    are applied, the range is current through that stamp. *)
val flush : t -> (string * Pequod_proto.Message.request) list

(** Every [(table, lo, hi)] pushed to [subscriber], sorted: the answer
    to its [Sub_check]. *)
val ranges_of : t -> string -> (string * string * string) list

(** Forget every subscription [subscriber] holds (its pushes were lost),
    so one dead peer costs one failed connection, not one per write. A
    live one notices at its next [Sub_check] and refetches. *)
val drop : t -> string -> unit

(** [\[lo, hi)] of [table] moved to [dest]: forget the subscriptions inside
    it and return one [Fetch] per subscription meeting it, clamped to
    the moved range and naming its subscriber, for [dest] to grant (none
    for [dest] itself). A subscription straddling the range's edge
    stays, serving its unmoved part; writes to the moved part no longer
    apply here, so it never fires there again. *)
val hand_off :
  t -> table:string -> lo:string -> hi:string -> dest:string ->
  Pequod_proto.Message.request list
