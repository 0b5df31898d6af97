(* pequod-server: a real network-facing Pequod cache server.

   Single-threaded and event-driven, like the paper's implementation: a
   Unix.select readiness loop multiplexes any number of client
   connections, each speaking the length-prefixed wire protocol of
   Pequod_proto. Cache joins can be installed at startup (--join) or by
   clients at runtime (add-join requests).

   With --data-dir the server is durable: every mutation is appended to a
   CRC-checked write-ahead log, snapshots bound recovery time, and a
   restart replays its way back to the last durable record.

   Usage:
     dune exec bin/pequod_server.exe -- --port 7077 \
       --data-dir /var/lib/pequod --sync interval --snapshot-every 100000 \
       --join 't|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>'

   Distributed: --partition routes declare which server is the home for
   each base-table range; a compute server fetches missing ranges from
   the owning peer and subscribes to updates (see DESIGN.md):
     pequod_server --port 7001                                # home for s
     pequod_server --port 7002                                # home for p
     pequod_server --port 7077 \
       --partition 's@127.0.0.1:7001' --partition 'p@127.0.0.1:7002' \
       --join 't|<u>|<t>|<p> = check s|<u>|<p> copy p|<p>|<t>'
   The routes are this server's partition directory, fixed at epoch 1;
   --dir-host also serves it to --directory followers, which poll it for
   changes (docs/PARTITIONING.md).
*)

module Net_server = Pequod_server_lib.Net_server
module Remote = Pequod_server_lib.Remote
module Shard = Pequod_server_lib.Shard
module Directory = Pequod_server_lib.Directory
module Config = Pequod_core.Config

open Cmdliner

let port =
  Arg.(value & opt int 7077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")

let joins =
  Arg.(
    value & opt_all string []
    & info [ "j"; "join" ] ~docv:"JOIN" ~doc:"Cache join to install at startup (repeatable).")

let memory_limit =
  Arg.(
    value
    & opt (some int) None
    & info [ "memory-limit" ] ~docv:"BYTES" ~doc:"Evict computed ranges above this footprint.")

let data_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:
          "Durability directory (write-ahead log + snapshots). Prior state is recovered from \
           it on startup; without this flag the server is a pure in-memory cache.")

let sync_mode =
  let parse s =
    match Config.sync_mode_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "bad sync mode %S (always|interval|never)" s))
  in
  let print ppf m = Format.pp_print_string ppf (Config.sync_mode_to_string m) in
  Arg.(
    value
    & opt (conv (parse, print)) (Config.Sync_interval 1.0)
    & info [ "sync" ] ~docv:"MODE"
        ~doc:
          "When to fsync the write-ahead log: $(b,always) (every record), $(b,interval) (at \
           most once per --sync-interval seconds), or $(b,never).")

let sync_interval =
  Arg.(
    value & opt float 1.0
    & info [ "sync-interval" ] ~docv:"SECONDS"
        ~doc:"Seconds between log fsyncs under --sync interval.")

let snapshot_every =
  Arg.(
    value & opt int 0
    & info [ "snapshot-every" ] ~docv:"RECORDS"
        ~doc:
          "Take a snapshot (and compact the log) every N logged mutations; 0 snapshots only \
           when the log exceeds --wal-max-bytes.")

let wal_max_bytes =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "wal-max-bytes" ] ~docv:"BYTES"
        ~doc:"Rotate the log through a snapshot once it exceeds this size.")

let metrics_dump =
  Arg.(
    value
    & opt (some float) None
    & info [ "metrics-dump" ] ~docv:"SECONDS"
        ~doc:
          "Print the full metrics registry as one JSON line on stdout every $(docv) seconds \
           (counters and gauges as integers, histograms as objects with p50/p95/p99).")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log client connections and joins.")

let partitions =
  Arg.(
    value & opt_all string []
    & info [ "partition" ] ~docv:"TABLE[:LO:HI][@HOST:PORT]"
        ~doc:
          "Base-table partition route (repeatable). Bare $(b,TABLE) covers the whole table. \
           With $(b,@HOST:PORT) the range is owned by that home server and \
           fetched+subscribed on first need; otherwise this process is its home. \
           The routes form this server's partition directory at epoch 1.")

let advertise =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "advertise" ] ~docv:"HOST"
        ~doc:
          "Host peers use to push subscription updates back to this server (with the bound \
           port); set it when 127.0.0.1 is not reachable from the peers.")

let shards =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard-per-core mode: run $(docv) shared-nothing engine shards, each in its own \
           domain with its own event loop and a disjoint slice of the keyspace, behind one \
           acceptor on --port. 0 (the default) runs the classic single-loop server. \
           Incompatible with --partition.")

let shard_cuts =
  Arg.(
    value & opt_all string []
    & info [ "shard-cut" ] ~docv:"CUT"
        ~doc:
          "Keyspace cut point between consecutive shards, in component space (the part of \
           every key after \"TABLE|\"); give exactly $(b,--shards) minus one, strictly \
           increasing (repeatable). Defaults interpolate evenly over printable strings — \
           pass cuts matched to your key population for balanced shards.")

let dir_host =
  Arg.(
    value & flag
    & info [ "dir-host" ]
        ~doc:
          "Serve this server's partition directory to $(b,--directory) followers (the \
           $(b,seed) role). The directory is seeded at epoch 1 from this process's \
           $(b,--partition) specs (each spec must name its home with @HOST:PORT, or \
           defaults to this server); an empty spec list starts at epoch 0, waiting for \
           $(b,pequod_ctl dir-seed). Incompatible with $(b,--directory) and $(b,--shards).")

let directory =
  Arg.(
    value
    & opt (some string) None
    & info [ "directory" ] ~docv:"HOST:PORT"
        ~doc:
          "Join a directory-routed cluster as a follower of the given seed server: fetch \
           the partition directory at startup, poll it for epoch changes, and route \
           reads/writes by it instead of by static $(b,--partition) flags. Incompatible \
           with $(b,--dir-host), $(b,--partition) and $(b,--shards).")

let sub_check_every =
  Arg.(
    value & opt float 2.0
    & info [ "sub-check-every" ] ~docv:"SECONDS"
        ~doc:
          "Seconds between subscription-healing heartbeats to the homes. Each round costs \
           the homes a walk of this server's live subscriptions, so large deployments \
           should slow it down.")

let main port joins memory_limit data_dir sync sync_interval snapshot_every wal_max_bytes
    metrics_dump verbose partitions advertise sub_check_every shards shard_cuts
    dir_host directory =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  (* Warning, not App: Some App would filter out Logs.err itself, and a
     server that refuses to start must say why *)
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning));
  let config = Config.default () in
  (match data_dir with
  | None -> ()
  | Some dir ->
    let p = Config.default_persist ~dir in
    p.Config.p_sync <-
      (match sync with Config.Sync_interval _ -> Config.Sync_interval sync_interval | m -> m);
    p.Config.p_snapshot_every <- snapshot_every;
    p.Config.p_wal_max_bytes <- wal_max_bytes;
    config.Config.persist <- Some p);
  let durable = match data_dir with Some dir -> " (durable in " ^ dir ^ ")" | None -> "" in
  if shards > 0 then begin
    if partitions <> [] then begin
      Logs.err (fun m -> m "--shards is incompatible with --partition");
      1
    end
    else if dir_host || directory <> None then begin
      Logs.err (fun m -> m "--shards is incompatible with --dir-host/--directory");
      1
    end
    else
      match
        Shard.create ~config ?metrics_every:metrics_dump ~sub_check_every ~advertise
          ?cuts:(match shard_cuts with [] -> None | cs -> Some cs)
          ~port ~joins ~memory_limit ~shards ()
      with
      | t ->
        Logs.app (fun m ->
            m "pequod-server listening on port %d with %d joins, %d shards on ports [%s]%s"
              (Shard.port t) (List.length joins) shards
              (String.concat "; " (List.map string_of_int (Shard.shard_ports t)))
              durable);
        Shard.run t;
        0
      | exception (Failure msg | Invalid_argument msg) ->
        Logs.err (fun m -> m "%s" msg);
        1
  end
  else if dir_host && directory <> None then begin
    Logs.err (fun m -> m "--dir-host and --directory are mutually exclusive");
    1
  end
  else if directory <> None && partitions <> [] then begin
    Logs.err (fun m ->
        m "--directory followers take all routes from the seed; drop --partition");
    1
  end
  else
    match
      Net_server.create ~config ?metrics_every:metrics_dump ~port ~joins ~memory_limit ()
    with
    | t -> (
      let self_addr = Printf.sprintf "%s:%d" advertise (Net_server.port t) in
      (* Routing truth is always a partition directory. A follower's copy
         stays at epoch 0 ("not yet synced") until its first poll of the
         seed lands, answering keyed requests Error until then; the poll
         leaves before the loop's first wait, so a follower's listening
         line below reports epoch 0 — and so does a seed with
         no specs, waiting for pequod_ctl dir-seed. Every other server
         fixes its specs at epoch 1 — even none, which routes everything
         here. *)
      let dir = Directory.create () in
      let installed =
        match Remote.entries_of_specs ~self_addr partitions with
        | Error _ as e -> e
        | Ok entries ->
          if directory <> None || (dir_host && entries = []) then Ok ()
          else Directory.install dir ~epoch:1 ~entries
      in
      match installed with
      | Error msg ->
        Logs.err (fun m -> m "%s" msg);
        1
      | Ok () ->
        Remote.attach ~node:(Net_server.node t) ~self_addr ~check_every:sub_check_every
          ?seed:directory dir;
        Logs.app (fun m ->
            m "pequod-server listening on port %d with %d joins, directory epoch %d (%d \
               entries%s)%s"
              (Net_server.port t)
              (List.length (Pequod_core.Server.joins (Net_server.engine t)))
              (Directory.epoch dir)
              (List.length (Directory.entries dir))
              (match directory with Some s -> ", following " ^ s | None -> "")
              durable);
        Net_server.run t;
        0)
    | exception Failure msg ->
      Logs.err (fun m -> m "%s" msg);
      1

let cmd =
  Cmd.v
    (Cmd.info "pequod-server" ~doc:"A Pequod cache server speaking the binary wire protocol")
    Term.(
      const main $ port $ joins $ memory_limit $ data_dir $ sync_mode $ sync_interval
      $ snapshot_every $ wal_max_bytes $ metrics_dump $ verbose $ partitions
      $ advertise $ sub_check_every $ shards $ shard_cuts $ dir_host $ directory)

let () = if not !Sys.interactive then exit (Cmd.eval' cmd)
