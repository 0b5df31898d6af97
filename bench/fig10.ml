(** Figure 10: distributed scalability (§5.5).

    A fixed Twip workload runs against a cluster with a fixed backing
    store and a growing set of compute servers. The paper scales 12 -> 48
    compute servers for a 3x throughput gain (4x would be ideal); base
    memory grows slightly with duplicated subscription state, compute
    memory grows with base-data duplication, and the inter-server
    subscription share of network traffic rises from ~10% to ~16%.

    The cluster is the shipped request cores ({!Pequod_server_lib.Node})
    wired through the in-memory {!Hub}: 6 homes, each holding one
    contiguous user range of [s] and [p], and the compute servers, which
    run the timeline join. Throughput is checks divided by the busiest
    compute's work: its store operations plus the messages it handled
    (the paper's bottleneck is compute-server CPU). Every column is a
    count, a byte total or a memory ledger value, so a seed gives the
    same table on every run. *)

module Hub = Pequod_hub.Hub
module Node = Pequod_server_lib.Node
module Directory = Pequod_server_lib.Directory
module Server = Pequod_core.Server
module Message = Pequod_proto.Message
module Social_graph = Pequod_apps.Social_graph
module Workload = Pequod_apps.Workload
module Twip = Pequod_apps.Twip

type row = {
  ncompute : int;
  throughput : float; (* checks per 1,000 units of the busiest compute's work *)
  speedup : float;
  base_memory : int;
  compute_memory : int;
  subscription_share : float;
}

let nbase = 6

let run_point ~graph ~ops ~ncompute =
  let nusers = Social_graph.nusers graph in
  let user = Social_graph.user_name in
  let clock = ref 1_000_000.0 in
  let hub =
    Hub.cluster ~clock ~homes:nbase ~computes:ncompute
      ~cuts:(List.init (nbase - 1) (fun k -> user ((k + 1) * nusers / nbase)))
      ~joins:[ Twip.timeline_join ]
  in
  let entries = Node.entries hub.Hub.nodes.(0) in
  let call core req =
    match Hub.call hub core req with
    | Message.Error msg -> failwith ("fig10: a request answered Error: " ^ msg)
    | _ -> ()
  in
  (* clients write to the key's home and read at their compute *)
  let put key value =
    let home = Option.get (Directory.write_home entries ~self:"" ~key) in
    call (int_of_string home) (Put (key, value))
  in
  let check u =
    let lo = Printf.sprintf "t|%s|" (user u) in
    call (nbase + (u mod ncompute)) (Scan { lo; hi = Strkey.prefix_upper lo })
  in
  for u = 0 to nusers - 1 do
    Array.iter (fun p -> put (Printf.sprintf "s|%s|%s" (user u) (user p)) "1")
      (Social_graph.following graph u)
  done;
  (* warm the caches: log every user in on its compute server (§5.5) *)
  for u = 0 to nusers - 1 do check u done;
  Hub.reset_counts hub;
  let computes = Array.sub hub.Hub.nodes nbase ncompute in
  let ops0 = Array.map (fun n -> Server.store_ops (Node.engine n)) computes in
  let checks = ref 0 in
  Array.iter
    (function
      | Workload.Login u | Workload.Check u -> incr checks; check u
      | Workload.Subscribe (u, p) -> put (Printf.sprintf "s|%s|%s" (user u) (user p)) "1"
      | Workload.Post (p, time) ->
        put
          (Printf.sprintf "p|%s|%s" (user p) (Strkey.encode_time time))
          (Twip.tweet_text (user p) time))
    ops;
  let work i n = Server.store_ops (Node.engine n) - ops0.(i) + hub.Hub.handled.(nbase + i) in
  let busiest = Array.fold_left max 1 (Array.mapi work computes) in
  let memory nodes =
    Array.fold_left (fun acc n -> acc + Server.memory_bytes (Node.engine n)) 0 nodes
  in
  let peer = List.fold_left (fun acc l -> acc + l.Hub.bytes) 0 (Hub.links hub) in
  ( 1000.0 *. float_of_int !checks /. float_of_int busiest,
    memory (Array.sub hub.Hub.nodes 0 nbase),
    memory computes,
    float_of_int peer /. float_of_int (max 1 (peer + hub.Hub.client_bytes)) )

let default_points = [ 12; 24; 36; 48 ]

let run ?(points = default_points) (scale : Scale.t) =
  let rng = Rng.create scale.Scale.seed in
  let nusers = Scale.i scale 2_000 in
  let graph = Social_graph.generate ~rng ~nusers ~avg_follows:10 () in
  let w =
    Workload.generate ~rng:(Rng.create (scale.Scale.seed + 3)) ~graph ~active_fraction:1.0
      ~total_ops:(Scale.i scale 30_000) ()
  in
  let rows =
    List.map
      (fun ncompute ->
        let throughput, base_memory, compute_memory, subscription_share =
          run_point ~graph ~ops:w.Workload.ops ~ncompute
        in
        (ncompute, throughput, base_memory, compute_memory, subscription_share))
      points
  in
  let base = match rows with (_, q, _, _, _) :: _ -> q | [] -> 1.0 in
  List.map
    (fun (ncompute, throughput, base_memory, compute_memory, subscription_share) ->
      { ncompute; throughput; speedup = throughput /. base; base_memory; compute_memory;
        subscription_share })
    rows

let print rows =
  let t =
    Tablefmt.create ~title:"Figure 10: distributed Twip scalability"
      ~headers:
        [ "Compute servers"; "Checks/kwork"; "Speedup"; "Base mem (MB)"; "Compute mem (MB)";
          "Subscr. traffic" ]
      ~aligns:[ Tablefmt.Right; Right; Right; Right; Right; Right ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [
          string_of_int r.ncompute;
          Tablefmt.fmt_float ~decimals:2 r.throughput;
          Printf.sprintf "%.2fx" r.speedup;
          Tablefmt.fmt_float ~decimals:1 (float_of_int r.base_memory /. 1048576.0);
          Tablefmt.fmt_float ~decimals:1 (float_of_int r.compute_memory /. 1048576.0);
          Printf.sprintf "%.1f%%" (100.0 *. r.subscription_share);
        ])
    rows;
  Tablefmt.print t
