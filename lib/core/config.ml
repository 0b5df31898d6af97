(** Server configuration knobs.

    The optimization toggles exist so the §4 ablation experiments can
    measure each mechanism: output hints (§4.2), value sharing (§4.3),
    updater combining (§3.2), subtables (§4.1) and the check-source
    maintenance policy (§3.2). Production use keeps the defaults, which
    match the paper's prototype. *)

(** When to force the write-ahead log to stable storage. *)
type sync_mode =
  | Sync_always (* fsync after every appended record *)
  | Sync_interval of float (* fsync at most every [n] seconds *)
  | Sync_never (* leave it to the OS page cache *)

(** Durability knobs consumed by [Pequod_persist.Persist] (the engine
    itself never reads them; they live here so one [Config.t] describes a
    whole server). *)
type persist = {
  p_dir : string; (* data directory: wal-*.pql + snap-*.pqs *)
  mutable p_sync : sync_mode;
  mutable p_snapshot_every : int; (* log records between snapshots; 0 = only
                                     when the log outgrows [p_wal_max_bytes] *)
  mutable p_wal_max_bytes : int; (* rotate + compact past this log size *)
}

let default_persist ~dir =
  { p_dir = dir; p_sync = Sync_interval 1.0; p_snapshot_every = 0;
    p_wal_max_bytes = 64 * 1024 * 1024 }

let sync_mode_of_string = function
  | "always" -> Some Sync_always
  | "interval" -> Some (Sync_interval 1.0)
  | "never" -> Some Sync_never
  | _ -> None

let sync_mode_to_string = function
  | Sync_always -> "always"
  | Sync_interval _ -> "interval"
  | Sync_never -> "never"

type t = {
  mutable output_hints : bool; (* O(1) appends via last-update pointer *)
  mutable value_sharing : bool; (* copy joins share the source string *)
  mutable combine_updaters : bool; (* merge same-range updaters *)
  mutable lazy_checks : bool; (* check sources invalidate lazily (paper default) *)
  mutable pending_log_limit : int; (* partial-invalidation log cap; beyond it
                                      escalate to complete invalidation *)
  mutable memory_limit : int option; (* eviction high-water mark, bytes *)
  mutable now : unit -> float; (* clock, for snapshot joins *)
  mutable subtables : bool; (* split tables at the boundaries the joins
                               name (§4.1); read as each join is added *)
  mutable persist : persist option; (* durability; None = pure in-memory *)
}

let default () =
  {
    output_hints = true;
    value_sharing = true;
    combine_updaters = true;
    lazy_checks = true;
    pending_log_limit = 64;
    memory_limit = None;
    now = Unix.gettimeofday;
    subtables = true;
    persist = None;
  }
