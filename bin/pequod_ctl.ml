(* pequod-ctl: cluster-control client for directory-mode pequod-servers.

   Talks to the partition directory (held by the seed server) and to the
   migration driver in the homes. See docs/PARTITIONING.md.

   Examples:
     pequod_ctl.exe dir 127.0.0.1:7001
     pequod_ctl.exe dir-seed 127.0.0.1:7001 's@127.0.0.1:7001' 'p@127.0.0.1:7002'
     pequod_ctl.exe migrate 127.0.0.1:7001 s 's|m' 's}' 127.0.0.1:7002
     pequod_ctl.exe replicate 127.0.0.1:7001 s 's|' 's|m' 127.0.0.1:7003
*)

module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client
module Directory = Pequod_server_lib.Directory
module Remote = Pequod_server_lib.Remote

let with_client ?(call_timeout = 10.0) addr f =
  let client = Net_client.create ~config:{ connect_timeout = 2.0; call_timeout } addr in
  Fun.protect
    ~finally:(fun () -> Net_client.close client)
    (fun () ->
      try f client
      with Net_client.Net_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1)

let fail msg =
  Printf.eprintf "error: %s\n" msg;
  exit 1

let print_dir ~epoch ~entries =
  let d = Directory.create () in
  (match Directory.install d ~epoch:(max epoch 1) ~entries with
  | Ok () ->
    Printf.printf "epoch %d, %d entries\n" epoch (List.length entries);
    List.iter print_endline (List.tl (Directory.to_lines d))
  | Error _ ->
    (* show whatever the seed holds even if it would not validate *)
    Printf.printf "epoch %d, %d entries\n" epoch (List.length entries);
    List.iter
      (fun (e : Message.dir_entry) ->
        Printf.printf "  %s[%s,%s) @ %s%s\n" e.de_table e.de_lo e.de_hi e.de_home
          (match e.de_replicas with
          | [] -> ""
          | rs -> " replicas " ^ String.concat "," rs))
      entries)

(* fetch the current directory from [addr] *)
let dir_get client =
  match Net_client.call client Message.Dir_get with
  | Message.Dir_state { epoch; entries } -> (epoch, entries)
  | Message.Error msg -> fail msg
  | _ -> fail "unexpected response to Dir_get"

(* push [entries] at the next epoch; the seed rejects stale versions, so
   a concurrent update (another ctl, a migration flip) loses cleanly *)
let dir_update client ~epoch ~entries =
  match Net_client.call client (Message.Dir_update { epoch; entries }) with
  | Message.Done -> ()
  | Message.Error msg -> fail msg
  | _ -> fail "unexpected response to Dir_update"

open Cmdliner

let addr_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SEED" ~doc:"Seed server (HOST:PORT) holding the directory.")

let dir_cmd =
  let run addr = with_client addr (fun c ->
      let epoch, entries = dir_get c in
      print_dir ~epoch ~entries)
  in
  Cmd.v
    (Cmd.info "dir" ~doc:"Show the partition directory held by a server")
    Term.(const run $ addr_arg)

let dir_seed_cmd =
  let specs =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"SPEC"
          ~doc:
            "Partition spec TABLE[:LO:HI]@HOST:PORT (repeatable); every spec must name its \
             home explicitly.")
  in
  let run addr specs =
    match Remote.entries_of_specs ~self_addr:"" specs with
    | Error msg -> fail msg
    | Ok entries ->
      List.iter
        (fun (e : Message.dir_entry) ->
          if e.de_home = "" then
            fail
              (Printf.sprintf "partition %s[%s,%s) names no home; add @HOST:PORT" e.de_table
                 e.de_lo e.de_hi))
        entries;
      (match Directory.validate entries with
      | Error msg -> fail msg
      | Ok () -> ());
      with_client addr (fun c ->
          let epoch, _ = dir_get c in
          dir_update c ~epoch:(epoch + 1) ~entries;
          Printf.printf "directory seeded at epoch %d (%d entries)\n" (epoch + 1)
            (List.length entries))
  in
  Cmd.v
    (Cmd.info "dir-seed"
       ~doc:"Install a full directory (replacing the current entries) at the next epoch")
    Term.(const run $ addr_arg $ specs)

let range_args =
  let table =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"TABLE" ~doc:"Base table.")
  in
  let lo = Arg.(required & pos 2 (some string) None & info [] ~docv:"LO" ~doc:"Range start (inclusive).") in
  let hi = Arg.(required & pos 3 (some string) None & info [] ~docv:"HI" ~doc:"Range end (exclusive).") in
  (table, lo, hi)

let migrate_cmd =
  let table, lo, hi = range_args in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"The range's current home server (HOST:PORT).")
  in
  let dest =
    Arg.(
      required
      & pos 4 (some string) None
      & info [] ~docv:"DEST" ~doc:"Destination home server (HOST:PORT).")
  in
  let run source table lo hi dest =
    (* the call returns only once the source has copied the range,
       replayed the write delta, and flipped the directory epoch *)
    with_client ~call_timeout:600.0 source (fun c ->
        match Net_client.call c (Message.Migrate { table; lo; hi; dest }) with
        | Message.Pairs stats ->
          List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) stats
        | Message.Error msg -> fail msg
        | _ -> fail "unexpected response to Migrate")
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Live-migrate TABLE [LO,HI) from its current home to DEST: snapshot-copy under \
          load, replay the write delta, flip the directory epoch")
    Term.(const run $ source $ table $ lo $ hi $ dest)

let replicate_cmd =
  let table, lo, hi = range_args in
  let replica =
    Arg.(
      required
      & pos 4 (some string) None
      & info [] ~docv:"REPLICA" ~doc:"Server to add as a read replica (HOST:PORT).")
  in
  let run addr table lo hi replica =
    with_client addr (fun c ->
        let epoch, entries = dir_get c in
        match Directory.add_replica entries ~table ~lo ~hi ~addr:replica with
        | Error msg -> fail msg
        | Ok entries' ->
          dir_update c ~epoch:(epoch + 1) ~entries:entries';
          Printf.printf "epoch %d: %s added as a read replica of %s[%s,%s)\n" (epoch + 1)
            replica table lo hi)
  in
  Cmd.v
    (Cmd.info "replicate"
       ~doc:
         "Advertise REPLICA as a read replica of TABLE [LO,HI): the replica \
          fetch+subscribes the range from its home and serves reads for it")
    Term.(const run $ addr_arg $ table $ lo $ hi $ replica)

let cmd =
  Cmd.group
    (Cmd.info "pequod-ctl"
       ~doc:"Cluster control for directory-mode pequod-servers (see docs/PARTITIONING.md)")
    [ dir_cmd; dir_seed_cmd; migrate_cmd; replicate_cmd ]

let () = if not !Sys.interactive then exit (Cmd.eval cmd)
