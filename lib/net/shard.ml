(* Shard-per-core Pequod: one acceptor domain feeding N shared-nothing
   engine shards, each a full single-threaded Net_server in its own
   domain with a disjoint slice of the keyspace.

   There is no shared mutable cache state between shards. A shard is a
   directory home whose address is in the same process: the keyspace is
   cut once, in component space (the part of every key after "T|"), and
   every shard holds the same fixed epoch-1 partition directory with one
   wildcard entry per slice, homed at that shard's own port. Each shard
   then routes exactly like any directory server (Node): writes
   and point reads go to the home, scans are cut into slices served by
   their homes, and join sources resolve through the engine's ordinary
   resolver — the same §2.4 fetch+subscribe path a compute server uses
   against a home server, so the data arrives once and stays fresh by
   push. Join outputs are routed by the same slices, but never fetched:
   each shard materializes the join ranges it serves from
   subscription-fresh sources.

   Deadlock freedom holds by construction: sibling traffic is symmetric
   (A can fetch from B while B forwards to A), but no shard ever waits
   on a sibling. Every forward, scan leg, fetch, push and fan-out leaves
   through the shard's nonblocking peer pool (Peer) and answers through
   a continuation into the request's in-order response slot, so a
   shard's loop keeps turning whatever its siblings are doing. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message

let src = Logs.Src.create "pequod.shard"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  servers : Net_server.t array;
  listener : Unix.file_descr; (* the public port all clients dial *)
  stopping : bool Atomic.t;
  mutable domains : unit Domain.t array;
  mutable acceptor : unit Domain.t option;
}

let shards t = Array.length t.servers
let servers t = Array.to_list t.servers
let engines t = List.map Net_server.engine (servers t)
let shard_ports t = List.map Net_server.port (servers t)

let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Shard.port"

(* The shards' partition directory: fixed at epoch 1, one wildcard entry
   per slice, [*[cut_{j-1}, cut_j) @ homes_j] with [""] at both open
   ends. *)
let directory ~cuts ~homes =
  let n = List.length homes in
  let bound j = if j = 0 || j = n then "" else List.nth cuts (j - 1) in
  let dir = Directory.create () in
  (match
     Directory.install dir ~epoch:1
       ~entries:
         (List.mapi
            (fun j home ->
              { Message.de_table = "*"; de_lo = bound j; de_hi = bound (j + 1);
                de_home = home; de_replicas = [] })
            homes)
   with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Shard.directory: " ^ msg));
  dir

(* Default cuts when none are given: evenly spaced over printable
   component space (two base-94 digits). Uniform only for uniformly
   distributed component bytes — real deployments pass cuts matched to
   their key population (the load harness derives them from the user-id
   format). *)
let default_cuts n =
  List.init (n - 1) (fun i ->
      let f = float_of_int (i + 1) /. float_of_int n in
      let x = int_of_float (f *. float_of_int (94 * 94)) in
      Printf.sprintf "%c%c" (Char.chr (33 + (x / 94))) (Char.chr (33 + (x mod 94))))

let mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A sharded data directory is sliced state: reopening it with a
   different shard count would scatter each slice's WAL over the wrong
   engines. Refuse loudly instead of recovering garbage. *)
let check_shard_marker dir shards =
  mkdir_p dir;
  let path = Filename.concat dir "SHARDS" in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let recorded = int_of_string (String.trim (input_line ic)) in
    close_in ic;
    if recorded <> shards then
      failwith
        (Printf.sprintf
           "data dir %s was written with --shards %d; refusing to open it with --shards %d"
           dir recorded shards)
  end
  else begin
    let oc = open_out path in
    output_string oc (string_of_int shards ^ "\n");
    close_out oc
  end

(* per-shard copy of the template config: shard [i] logs under
   [dir/shard-i] and gets an equal slice of the memory budget *)
let shard_config template ~shards ~i =
  let c = { template with Config.now = template.Config.now } in
  Option.iter
    (fun p ->
      let dir = Filename.concat p.Config.p_dir (Printf.sprintf "shard-%d" i) in
      mkdir_p dir;
      c.Config.persist <- Some { p with Config.p_dir = dir })
    template.Config.persist;
  Option.iter (fun m -> c.Config.memory_limit <- Some (max 1 (m / shards)))
    template.Config.memory_limit;
  c

(* Stats_full, aggregated: sum counters and gauges across shards under
   their own names, and additionally expose every shard.* counter per
   shard as shard.<i>.<suffix> (shard.ops -> shard.0.ops). Histogram
   percentiles cannot be summed, so histograms appear only per shard, as
   shard.<i>.<full name>. *)
let merge_stats snaps =
  let totals : (string, Obs.value) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let add name v =
    match (Hashtbl.find_opt totals name, v) with
    | None, _ ->
      order := name :: !order;
      Hashtbl.add totals name v
    | Some (Obs.Counter a), Obs.Counter b -> Hashtbl.replace totals name (Obs.Counter (a + b))
    | Some (Obs.Gauge a), Obs.Gauge b -> Hashtbl.replace totals name (Obs.Gauge (a + b))
    | Some _, _ -> () (* cross-shard kind clash: keep the first *)
  in
  List.iter
    (fun (i, snap) ->
      List.iter
        (fun (name, v) ->
          match v with
          | Obs.Histogram _ -> add (Printf.sprintf "shard.%d.%s" i name) v
          | _ ->
            add name v;
            if String.length name > 6 && String.equal (String.sub name 0 6) "shard." then
              add
                (Printf.sprintf "shard.%d.%s" i (String.sub name 6 (String.length name - 6)))
                v)
        snap)
    snaps;
  List.sort (fun (a, _) (b, _) -> String.compare a b)
    (List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order)

let create ?config ?backend ?metrics_every ?(sub_check_every = 2.0)
    ?(advertise = "127.0.0.1") ?cuts ~port ~joins ~memory_limit ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let template = match config with Some c -> c | None -> Config.default () in
  let cuts = match cuts with None -> default_cuts shards | Some cs -> cs in
  if List.length cuts <> shards - 1 then
    invalid_arg
      (Printf.sprintf "Shard.create: %d shards need %d cuts, got %d" shards (shards - 1)
         (List.length cuts));
  (* the directory validates the cuts (strictly increasing) before any
     listener is bound *)
  ignore (directory ~cuts ~homes:(List.init shards string_of_int));
  Option.iter (fun p -> check_shard_marker p.Config.p_dir shards) template.Config.persist;
  (* bind every shard's own listener first (ephemeral ports), so sibling
     addresses are known before any routing is installed *)
  let servers =
    Array.init shards (fun i ->
        let config = shard_config template ~shards ~i in
        (* one shard dumps for the whole process; per-shard dumps would
           interleave JSON lines on stdout *)
        let metrics_every = if i = 0 then metrics_every else None in
        Net_server.create ~config ?metrics_every ?backend ~port:0 ~joins ~memory_limit ())
  in
  let addrs =
    List.init shards (fun i -> Printf.sprintf "%s:%d" advertise (Net_server.port servers.(i)))
  in
  (* one shard is the whole keyspace: nothing to route *)
  if shards > 1 then
    Array.iteri
      (fun i srv ->
        let self_addr = List.nth addrs i in
        (* a copy per shard: a directory is its owning domain's state *)
        let dir = directory ~cuts ~homes:addrs in
        let node = Net_server.node srv in
        Remote.attach ~node ~self_addr ~check_every:sub_check_every dir;
        Node.set_shard node ~self:i ~addrs ~merge:merge_stats)
      servers;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (match Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_any, port)) with
  | () -> ()
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    Array.iter Net_server.stop servers;
    raise e);
  Unix.listen listener 128;
  { servers; listener; stopping = Atomic.make false; domains = [||];
    acceptor = None }

(* the acceptor: blocking accepts on the public port, connections dealt
   to shards round-robin. Stopped by shutting the listener down, which
   wakes the blocked accept with an error. *)
let accept_loop t =
  let n = Array.length t.servers in
  let rec loop rr =
    if not (Atomic.get t.stopping) then
      match Unix.accept t.listener with
      | fd, _ ->
        Net_server.inject t.servers.(rr) fd;
        loop ((rr + 1) mod n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop rr
      | exception Unix.Unix_error _ -> ()
  in
  loop 0

let start t =
  if Array.length t.domains > 0 then invalid_arg "Shard.start: already started";
  t.domains <-
    Array.mapi
      (fun i srv ->
        Domain.spawn (fun () ->
            (* an exception escaping a shard loop would otherwise stay
               invisible until join: log it before the domain dies *)
            try Net_server.run srv
            with e ->
              Log.err (fun m ->
                  m "shard %d loop died: %s\n%s" i (Printexc.to_string e)
                    (Printexc.get_backtrace ()));
              raise e))
      t.servers;
  t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t))

(** Signal every domain, join them, then release sockets and
    durability state. Idempotent. *)
let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    Array.iter Net_server.request_stop t.servers;
    Option.iter Domain.join t.acceptor;
    t.acceptor <- None;
    Array.iter Domain.join t.domains;
    t.domains <- [||];
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    Array.iter Net_server.stop t.servers
  end

(** [start] + block until {!stop} is called from elsewhere (a signal
    handler, another domain). *)
let run t =
  start t;
  while not (Atomic.get t.stopping) do
    Unix.sleepf 0.2
  done
