(** Live-cluster topology for the load harness.

    The harness owns its cluster: it forks [homes] plain [pequod_server]
    processes each owning a contiguous user-id slice of the base tables
    ([s] subscriptions, [p] posts), plus [computes] servers running the
    Twip timeline join with [--partition] routes at the homes. Ports are
    ephemeral ([--port 0], read back from the server's "listening on
    port N" line), so any number of harness runs coexist on one box.

    Key routing mirrors the servers' range routes arithmetically: user
    [u] of [n] lives on home [u*homes/n], and reads for [u]'s timeline
    go to compute [u mod computes], so every compute materializes a
    disjoint slice of timelines. *)

module Social_graph = Pequod_apps.Social_graph
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client

type topology = {
  nusers : int;
  nhomes : int;
  ncomputes : int;
  chunk : int array;  (** home h owns users [chunk.(h), chunk.(h+1)) *)
  home_addrs : string array;
  compute_addrs : string array;
}

let chunk_bounds ~nusers ~nhomes = Array.init (nhomes + 1) (fun h -> h * nusers / nhomes)

let home_of topo u = min (topo.nhomes - 1) (u * topo.nhomes / topo.nusers)
let compute_of topo u = u mod topo.ncomputes

(** The placement as partition-directory entries: each home's user
    slice of tables [s] and [p]. The first slice opens at [T|] and the
    last closes at [T}], so the entries cover the whole table (a gap
    would surface as [Deferred] scans). A flag-routed compute gets them
    as [--partition] specs, a directory-mode cluster as its epoch-1
    directory. *)
let directory_entries ~nusers ~home_addrs =
  let nhomes = Array.length home_addrs in
  let chunk = chunk_bounds ~nusers ~nhomes in
  let bound table h =
    if h = 0 then table ^ "|"
    else if h = nhomes then table ^ "}"
    else table ^ "|" ^ Social_graph.user_name chunk.(h)
  in
  List.concat_map
    (fun table ->
      List.init nhomes (fun h ->
          { Message.de_table = table; de_lo = bound table h; de_hi = bound table (h + 1);
            de_home = home_addrs.(h); de_replicas = [] }))
    [ "s"; "p" ]

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)

type cluster = {
  topology : topology;
  procs : (int * Unix.file_descr) list;  (* pid, stdout pipe *)
}

let default_server_exe () =
  (* pequod_load and pequod_server are built into the same bin/ dir *)
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "pequod_server.exe" in
  let candidates =
    [ beside; "_build/default/bin/pequod_server.exe"; "bin/pequod_server.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> exe
  | None -> failwith "pequod_server.exe not found; build it or pass --server-exe"

let spawn_server exe args =
  let r, w = Unix.pipe () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  (pid, r)

let digits_after s prefix =
  let rec find i =
    if i + String.length prefix > String.length s then None
    else if String.sub s i (String.length prefix) = prefix then Some (i + String.length prefix)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < String.length s && (match s.[!stop] with '0' .. '9' -> true | _ -> false) do
      incr stop
    done;
    if !stop > start then int_of_string_opt (String.sub s start (!stop - start)) else None

let read_port fd =
  let acc = Buffer.create 256 in
  let b = Bytes.create 1024 in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    match digits_after (Buffer.contents acc) "listening on port " with
    | Some port -> port
    | None ->
      if Unix.gettimeofday () > deadline then failwith "server did not report its port";
      (match Unix.select [ fd ] [] [] 1.0 with
      | [ _ ], _, _ ->
        let n = Unix.read fd b 0 (Bytes.length b) in
        if n = 0 then failwith "server exited before reporting its port";
        Buffer.add_subbytes acc b 0 n
      | _ -> ());
      go ()
  in
  go ()

let timeline_join =
  "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

(** [--shard-cut] points for a shard-per-core server: the same per-user
    arithmetic that slices the homes, expressed in component space (the
    fixed-width user-name format sorts lexicographically like the ids,
    and every table keyed by user shares the cut). *)
let shard_cuts ~nusers ~shards =
  List.init (shards - 1) (fun i -> Social_graph.user_name ((i + 1) * nusers / shards))

(** Fork the cluster and wait for every server to report its port.
    [memory_limit] is passed to the compute servers only (homes are the
    system of record for this run).

    With [~shards:n > 0] the topology is one shard-per-core server
    instead: a single [pequod_server --shards n] owning the whole
    keyspace and running the timeline join, with cut points derived
    from the user-name format so user slices balance. [nhomes] and
    [ncomputes] are ignored — the public port is both the write and the
    read destination ([--shards] is incompatible with [--partition]).

    With [~directory:true] the cluster is directory-routed instead of
    flag-routed: home 0 boots as the seed ([--dir-host], epoch 0), the
    other homes and every compute join it as [--directory] followers,
    the harness pushes the {!directory_entries} placement as a
    [Dir_update] at epoch 1, and [start] returns only once every server
    reports epoch >= 1 over [Dir_get] — so a following migration (see
    [Coord] [migrate_mid_run]) starts from a converged directory. *)
let start ?server_exe ?memory_limit ?(shards = 0) ?(directory = false) ~nusers ~nhomes
    ~ncomputes () =
  if nhomes < 1 || ncomputes < 1 then failwith "need at least one home and one compute";
  if shards > nusers then failwith "--shards must not exceed --users";
  let exe = match server_exe with Some e -> e | None -> default_server_exe () in
  let procs = ref [] in
  let boot args =
    let pid, out = spawn_server exe args in
    procs := (pid, out) :: !procs;
    read_port out
  in
  if shards > 0 then begin
    let args =
      [ "--port"; "0"; "--join"; timeline_join; "--shards"; string_of_int shards ]
      @ List.concat_map (fun c -> [ "--shard-cut"; c ]) (shard_cuts ~nusers ~shards)
      @ (match memory_limit with
        | Some b -> [ "--memory-limit"; string_of_int b ]
        | None -> [])
    in
    let addr = Printf.sprintf "127.0.0.1:%d" (boot args) in
    let topology =
      { nusers; nhomes = 1; ncomputes = 1; chunk = chunk_bounds ~nusers ~nhomes:1;
        home_addrs = [| addr |]; compute_addrs = [| addr |] }
    in
    { topology; procs = !procs }
  end
  else if directory then begin
    (* the seed boots first (epoch 0), the remaining homes follow it *)
    let seed_addr = Printf.sprintf "127.0.0.1:%d" (boot [ "--port"; "0"; "--dir-host" ]) in
    let home_addrs =
      Array.init nhomes (fun h ->
          if h = 0 then seed_addr
          else
            Printf.sprintf "127.0.0.1:%d" (boot [ "--port"; "0"; "--directory"; seed_addr ]))
    in
    (* push the placement as epoch 1 *)
    let entries = directory_entries ~nusers ~home_addrs in
    let seedc = Net_client.create seed_addr in
    (match Net_client.call seedc (Message.Dir_update { epoch = 1; entries }) with
    | Message.Done -> ()
    | Message.Error msg -> failwith ("directory seeding failed: " ^ msg)
    | _ -> failwith "directory seeding: unexpected response");
    Net_client.close seedc;
    let compute_addrs =
      Array.init ncomputes (fun _ ->
          let args =
            [ "--port"; "0"; "--join"; timeline_join; "--sub-check-every"; "10";
              "--directory"; seed_addr ]
            @ (match memory_limit with
              | Some b -> [ "--memory-limit"; string_of_int b ]
              | None -> [])
          in
          Printf.sprintf "127.0.0.1:%d" (boot args))
    in
    (* preloading before the placement converges would freeze ranges at
       the wrong home; block until every server reports epoch >= 1 *)
    let wait_epoch addr =
      let c = Net_client.create addr in
      let deadline = Unix.gettimeofday () +. 20.0 in
      let rec go () =
        let epoch =
          match Net_client.call c Message.Dir_get with
          | Message.Dir_state { epoch; _ } -> epoch
          | _ -> 0
          | exception Net_client.Net_error _ -> 0
        in
        if epoch < 1 then
          if Unix.gettimeofday () > deadline then
            failwith (addr ^ " never adopted the seeded directory")
          else begin
            Unix.sleepf 0.1;
            go ()
          end
      in
      go ();
      Net_client.close c
    in
    Array.iter wait_epoch home_addrs;
    Array.iter wait_epoch compute_addrs;
    let topology =
      { nusers; nhomes; ncomputes; chunk = chunk_bounds ~nusers ~nhomes; home_addrs;
        compute_addrs }
    in
    { topology; procs = !procs }
  end
  else begin
  let home_addrs =
    Array.init nhomes (fun _ -> Printf.sprintf "127.0.0.1:%d" (boot [ "--port"; "0" ]))
  in
  let specs =
    List.map
      (fun (e : Message.dir_entry) ->
        Printf.sprintf "%s:%s:%s@%s" e.de_table e.de_lo e.de_hi e.de_home)
      (directory_entries ~nusers ~home_addrs)
  in
  let compute_addrs =
    Array.init ncomputes (fun _ ->
        let args =
          [ "--port"; "0"; "--join"; timeline_join;
            (* the heartbeat costs the homes a walk of the compute's
               live subscriptions, which grow with the working set *)
            "--sub-check-every"; "10" ]
          @ List.concat_map (fun spec -> [ "--partition"; spec ]) specs
          @ (match memory_limit with
            | Some b -> [ "--memory-limit"; string_of_int b ]
            | None -> [])
        in
        Printf.sprintf "127.0.0.1:%d" (boot args))
  in
  let topology =
    { nusers; nhomes; ncomputes; chunk = chunk_bounds ~nusers ~nhomes; home_addrs;
      compute_addrs }
  in
  { topology; procs = !procs }
  end

let shutdown cluster =
  List.iter
    (fun (pid, out) ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.close out with Unix.Unix_error _ -> ())
    cluster.procs
