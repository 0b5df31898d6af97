(** Live range migration: this server, the source home of
    [table [lo,hi)], hands the range to [dest] without stopping writes.

    A migration moves through four phases. [Copying]: the next
    {!pump} posts up to 64 chunks of the range to the destination as
    [Notify_batch] frames. [Awaiting_barrier]: a [Dir_get] barrier
    follows the chunks, and the pump waits for its answer; the last
    barrier starts the flip. [Flipping]: the captured write delta and
    the range's stamps are replayed, a second barrier proves them
    applied, the new directory is installed (through the seed when
    there is one), and the destination gets its [Dir_update] and the
    subscriber handoff. Writes to the range are captured while copying
    and held while flipping; the flip releases them and answers the
    [Migrate] once it ends, and a failure at any point up to then leaves
    the directory unchanged. [Removing]: each pump removes 16 of the
    moved keys this server still holds, so the flip never stalls the
    loop for the whole range; a key applied here since (the range moving
    back) is kept. The migration ends, and the server takes another
    [Migrate], once the last chunk is gone.

    A migration talks to peers through its server's outbound record
    ({!Peer.outbound}), never blocking. Counters: [migrate.keys_moved],
    [migrate.delta_replayed]. *)

type phase = Copying | Awaiting_barrier | Flipping | Removing

(** What a migration needs of its server. *)
type env = {
  out : Peer.outbound; (** the server's way to reach other servers *)
  engine : Pequod_core.Server.t;
  dir : Directory.t;
  self : string; (** this server's advertised address *)
  seed : string option; (** the directory seed; [None]: [dir] is authoritative *)
  hand_off :
    table:string -> lo:string -> hi:string -> dest:string -> Pequod_proto.Message.request list;
      (** at the flip: the server's subscriptions to the moved range, as
          [Fetch]es for [dest] to grant ({!Subs.hand_off}), so pushes keep
          flowing without waiting for each subscriber's [Sub_check] heal *)
}

type t

(** Validate a [Migrate] against the directory and start copying; the
    server then calls {!pump} once per step. [reply] answers the
    [Migrate] when the flip ends or the migration fails. [on_end] must
    make the server forget the migration; it runs on a failure, before
    [reply], and once the moved keys are removed. *)
val start :
  env -> table:string -> lo:string -> hi:string -> dest:string -> on_end:(unit -> unit) ->
  (Pequod_proto.Message.response -> unit) -> (t, string) result

val phase : t -> phase

(** Record a write applied at this server; one inside the range joins
    the delta. *)
val capture : t -> string -> string option -> unit

(** [hold mg touches k retry]: while flipping, hold a write that
    [touches] the range ([touches] is handed its membership test).
    [retry] re-routes it once the migration ends; if it raises, [k]
    answers [Error]. [false]: not held. *)
val hold :
  t -> ((string -> bool) -> bool) -> (Pequod_proto.Message.response -> unit) ->
  (unit -> unit) -> bool

(** One step's copying when [Copying], one chunk's removal when
    [Removing]; nothing otherwise. *)
val pump : t -> unit
