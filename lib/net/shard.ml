(* Shard-per-core Pequod: one acceptor domain feeding N shared-nothing
   engine shards, each a full single-threaded Net_server in its own
   domain with a disjoint slice of the keyspace.

   There is no shared mutable cache state between shards. The keyspace
   is cut once, in component space (the part of every key after "T|"),
   so one cut vector partitions every base table the same way. Writes
   and point reads that land on the wrong shard are forwarded to the
   owner over the sibling's own protocol port; scans and fetches are
   served where they arrive, pulling sibling-owned source slices through
   the engine's ordinary resolver — the same §2.4 fetch+subscribe path a
   compute server uses against a home server, so the data arrives once
   and stays fresh by push. Join outputs are not partitioned: every
   shard materializes the join ranges its own clients scan, from
   subscription-fresh sources.

   Deadlock-freedom: sibling calls are symmetric (A can fetch from B
   while B forwards to A), so a shard never blocks dead on a sibling —
   while waiting for a sibling's response it keeps serving its own
   internal traffic through nested event-loop steps (the Net_client
   [on_wait] hook; see Net_server.on_wait). *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message

let src = Logs.Src.create "pequod.shard"

module Log = (val Logs.src_log src : Logs.LOG)

type t = {
  servers : Net_server.t array;
  sh_cuts : string array; (* shards-1 component-space cut points, ascending *)
  listener : Unix.file_descr; (* the public port all clients dial *)
  stopping : bool Atomic.t;
  mutable domains : unit Domain.t array;
  mutable acceptor : unit Domain.t option;
}

let shards t = Array.length t.servers
let cuts t = Array.to_list t.sh_cuts
let servers t = Array.to_list t.servers
let engines t = List.map Net_server.engine (servers t)
let shard_ports t = List.map Net_server.port (servers t)

let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> invalid_arg "Shard.port"

(* the key's position in component space: everything after the first
   '|'; keys without a component ("T}"-style bounds never reach here as
   single keys) sort with the empty component, i.e. shard 0 *)
let component key =
  match String.index_opt key '|' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> ""

let owner_of_cuts sh_cuts key =
  let c = component key in
  let n = Array.length sh_cuts in
  let i = ref 0 in
  while !i < n && String.compare sh_cuts.(!i) c <= 0 do
    incr i
  done;
  !i

let owner t key = owner_of_cuts t.sh_cuts key

(* Scan routing: a range whose bounds share one table prefix and whose
   component span stays inside one shard's slice is served entirely by
   that shard; anything wider (a whole-table scan, a cross-table scan)
   is scattered to every shard and merged. [hi] is exclusive, so a span
   ending exactly on the owner's upper cut still routes. *)
let route_scan sh_cuts ~shards ~lo ~hi =
  match (String.index_opt lo '|', String.index_opt hi '|') with
  | Some i, Some j
    when i = j && String.equal (String.sub lo 0 i) (String.sub hi 0 j) ->
    let o = owner_of_cuts sh_cuts lo in
    if o = shards - 1 || String.compare (component hi) sh_cuts.(o) <= 0 then Some o
    else None
  | _ -> None

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
  (match template.Config.persist with
  | None -> ()
  | Some p ->
    let dir = Filename.concat p.Config.p_dir (Printf.sprintf "shard-%d" i) in
    mkdir_p dir;
    c.Config.persist <-
      Some
        { p with Config.p_dir = dir });
  (match template.Config.memory_limit with
  | None -> ()
  | Some m -> c.Config.memory_limit <- Some (max 1 (m / shards)));
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
  let sh_cuts =
    match cuts with
    | None -> Array.of_list (default_cuts shards)
    | Some cs ->
      let a = Array.of_list cs in
      if Array.length a <> shards - 1 then
        invalid_arg
          (Printf.sprintf "Shard.create: %d shards need %d cuts, got %d" shards (shards - 1)
             (Array.length a));
      Array.iteri
        (fun i c ->
          if i > 0 && String.compare a.(i - 1) c >= 0 then
            invalid_arg "Shard.create: cuts must be strictly increasing")
        a;
      a
  in
  (match template.Config.persist with
  | Some p -> check_shard_marker p.Config.p_dir shards
  | None -> ());
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
  let addr i = Printf.sprintf "%s:%d" advertise (Net_server.port servers.(i)) in
  let slice j =
    ( (if j = 0 then "" else sh_cuts.(j - 1)),
      (if j = shards - 1 then "" else sh_cuts.(j)) )
  in
  Array.iteri
    (fun i srv ->
      let engine = Net_server.engine srv in
      if shards > 1 then begin
        let routes =
          List.init shards (fun j ->
              let r_lo, r_hi = slice j in
              { Remote.r_table = "*"; r_lo; r_hi;
                r_addr = (if j = i then None else Some (addr j)) })
        in
        Net_server.add_ticker srv
          (Remote.attach ~server:srv ~self_addr:(addr i) ~check_every:sub_check_every
             (Remote.Fixed routes));
        (* forwarding clients, one per sibling, separate from the
           resolver's fetch clients so a slow fetch never queues behind
           point-write traffic; waits keep this shard's loop serving *)
        let clients =
          Array.init shards (fun j ->
              if j = i then None
              else
                let h, p = (advertise, Net_server.port servers.(j)) in
                Some
                  (Net_client.create ~obs:(Server.obs engine)
                     ~on_wait:(Net_server.on_wait srv) ~host:h ~port:p ()))
        in
        let client j =
          match clients.(j) with Some c -> c | None -> invalid_arg "Shard: self call"
        in
        Net_server.set_router srv ~self:i
          ~owner:(owner_of_cuts sh_cuts)
          ~route_scan:(fun ~lo ~hi -> route_scan sh_cuts ~shards ~lo ~hi)
          ~call:(fun j req -> Net_client.call (client j) req)
          ~post:(fun j req -> Net_client.post (client j) req)
          ~siblings:(List.filter (fun j -> j <> i) (List.init shards Fun.id))
          ~stats:(fun () ->
            merge_stats
              (List.init shards (fun j ->
                   if j = i then (j, Server.metrics_snapshot engine)
                   else
                     match Net_client.call (client j) Message.Stats_full with
                     | Message.Metrics m -> (j, m)
                     | _ -> (j, [])
                     | exception Net_client.Net_error msg ->
                       Log.warn (fun m -> m "stats from shard %d failed: %s" j msg);
                       (j, []))))
      end)
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
  { servers; sh_cuts; listener; stopping = Atomic.make false; domains = [||];
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
