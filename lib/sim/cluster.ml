(** Distributed Pequod (§2.4) over the discrete-event simulator.

    A cluster is a set of {e base} nodes — home servers that absorb writes,
    partitioned by a key-range function — and {e compute} nodes that run
    cache joins in response to client reads. When a compute node needs a
    base range it does not hold, it sends a [Fetch] RPC to the range's home
    server; the home server returns the data {e and installs a
    subscription}, after which every update to the range is pushed to the
    subscriber with the network latency — giving the paper's
    eventually-consistent replication. All inter-server traffic crosses the
    wire codec, so message and byte counts are real.

    Per-node CPU work is accounted as store operations plus per-message and
    per-byte costs; the Fig 10 throughput model divides client operations
    by the busiest node's accumulated work (the paper's observed bottleneck
    is compute-server CPU). *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Interval_map = Pequod_store.Interval_map

type kind = Base | Compute

type node = {
  id : int;
  kind : kind;
  server : Server.t;
  (* home-server subscriptions: source range -> subscriber node id *)
  subs : (string, int Interval_map.t) Hashtbl.t;
  (* traffic tallies live in the node's own registry (one per server, so
     per-node figures come for free); recorded with [force_add] because
     they feed the Fig 10 measurements, not just observability *)
  m_msgs : Obs.Counter.t; (* sim.msgs_sent *)
  m_server_bytes : Obs.Counter.t; (* sim.server_bytes: inter-server traffic *)
  m_client_bytes : Obs.Counter.t; (* sim.client_bytes: client-facing traffic *)
  mutable work_epoch : int; (* store-op snapshot at epoch start *)
  mutable msg_work : int; (* message-handling work units since epoch *)
  (* outgoing subscription updates, coalesced per destination until the
     end of the current simulated instant: one Notify_batch per
     (destination, flush) instead of one message per key *)
  pending_notify : (int, (string * string option) list) Hashtbl.t; (* dst -> rev items *)
  mutable pending_order : int list; (* destinations, reverse first-enqueue order *)
  mutable flush_scheduled : bool;
}

(* Which base node is home for a key range of a partitioned table;
   [None] means the table is not partitioned (computed locally). *)
type partition = table:string -> lo:string -> int option

type t = {
  event : Event.t;
  nodes : node array;
  base_ids : int list;
  compute_ids : int list;
  partition : partition;
  latency : float;
  mutable scans_done : int;
  mutable fetch_rounds : int;
}

(* work units charged per message handled and per KiB moved; calibrated so
   messaging is comparable to a few tree operations, as on a fast LAN *)
let msg_units = 4
let byte_units_per_kb = 2

let node t id = t.nodes.(id)

let make_node ~id ~kind ?config () =
  let server = Server.create ?config () in
  let obs = Server.obs server in
  {
    id;
    kind;
    server;
    subs = Hashtbl.create 8;
    m_msgs = Obs.counter obs "sim.msgs_sent";
    m_server_bytes = Obs.counter obs "sim.server_bytes";
    m_client_bytes = Obs.counter obs "sim.client_bytes";
    work_epoch = 0;
    msg_work = 0;
    pending_notify = Hashtbl.create 8;
    pending_order = [];
    flush_scheduled = false;
  }

let create ~event ~nbase ~ncompute ~partition ?(latency = 0.0001) ?config () =
  if nbase < 1 || ncompute < 1 then invalid_arg "Cluster.create: need base and compute nodes";
  let nodes =
    Array.init (nbase + ncompute) (fun id ->
        let config = match config with Some f -> Some (f ()) | None -> None in
        make_node ~id ~kind:(if id < nbase then Base else Compute) ?config ())
  in
  let t =
    {
      event;
      nodes;
      base_ids = List.init nbase (fun i -> i);
      compute_ids = List.init ncompute (fun i -> nbase + i);
      partition;
      latency;
      scans_done = 0;
      fetch_rounds = 0;
    }
  in
  (* compute nodes resolve partitioned tables through fetches *)
  Array.iter
    (fun n ->
      match n.kind with
      | Base -> ()
      | Compute ->
        Server.set_resolver n.server (fun ~table ~lo ~hi ->
            ignore hi;
            match partition ~table ~lo with
            | Some home when home <> n.id -> Server.Deferred
            | _ -> Server.Local))
    t.nodes;
  t

let base_ids t = t.base_ids
let compute_ids t = t.compute_ids

(** Install a cache join on every compute node (base nodes are plain
    stores, as in the §5.5 setup). *)
let add_join t text =
  List.iter
    (fun id ->
      match Server.add_join_text t.nodes.(id).server text with
      | Ok () -> ()
      | Error msg -> invalid_arg msg)
    t.compute_ids

(* account one message from [src] to [dst]; returns the wire size *)
let account_msg t ~src ~dst wire =
  let n = String.length wire in
  Obs.Counter.force_add t.nodes.(src).m_msgs 1;
  Obs.Counter.force_add t.nodes.(src).m_server_bytes n;
  Obs.Counter.force_add t.nodes.(dst).m_server_bytes n;
  let units = msg_units + (n * byte_units_per_kb / 1024) in
  t.nodes.(src).msg_work <- t.nodes.(src).msg_work + units;
  t.nodes.(dst).msg_work <- t.nodes.(dst).msg_work + units;
  n

let subs_for node table =
  match Hashtbl.find_opt node.subs table with
  | Some im -> im
  | None ->
    let im = Interval_map.create () in
    Hashtbl.add node.subs table im;
    im

(* Send one buffered Notify_batch to every destination with pending
   updates. Consecutive puts at the receiver take the engine's batched
   path; removes keep their place so same-key put/remove order is
   preserved. *)
let flush_notifications t home =
  let n = t.nodes.(home) in
  n.flush_scheduled <- false;
  let order = List.rev n.pending_order in
  n.pending_order <- [];
  List.iter
    (fun dst ->
      match Hashtbl.find_opt n.pending_notify dst with
      | None | Some [] -> ()
      | Some rev_items ->
        Hashtbl.remove n.pending_notify dst;
        let items = List.rev rev_items in
        (* stamp trailer: the pushed keys' ranges are current at these
           versions once the items are applied (session consistency) *)
        let stamps = Server.stamps_for_keys n.server (List.map fst items) in
        let wire = Message.encode_request (Message.Notify_batch { items; stamps }) in
        ignore (account_msg t ~src:home ~dst wire);
        Event.schedule t.event ~delay:t.latency (fun () ->
            match Message.decode_request wire with
            | Message.Notify_batch { items; stamps } ->
              let srv = t.nodes.(dst).server in
              let apply acc = if acc <> [] then Server.put_batch srv (List.rev acc) in
              let acc =
                List.fold_left
                  (fun acc (k, v) ->
                    match v with
                    | Some v -> (k, v) :: acc
                    | None ->
                      apply acc;
                      Server.remove srv k;
                      [])
                  [] items
              in
              apply acc;
              List.iter
                (fun (table, lo, hi, s) -> Server.set_range_stamp srv ~table ~lo ~hi s)
                stamps
            | _ -> assert false))
    order

(* Push an update to every subscriber of [key]'s range (§2.4). Updates
   are buffered per (home, destination) and flushed at the end of the
   current simulated instant — events at equal times run in scheduling
   order, so the flush sees every notification this instant produced,
   and delivery still lands one latency after the write, exactly as the
   unbatched protocol's did. *)
let push_notifications t home key value_opt =
  let table = Pequod_store.Store.table_name_of key in
  match Hashtbl.find_opt t.nodes.(home).subs table with
  | None -> ()
  | Some im ->
    let targets = ref [] in
    Interval_map.stab im key (fun e -> targets := Interval_map.handle_data e :: !targets);
    let n = t.nodes.(home) in
    List.iter
      (fun dst ->
        let prev =
          match Hashtbl.find_opt n.pending_notify dst with
          | Some items -> items
          | None ->
            n.pending_order <- dst :: n.pending_order;
            []
        in
        Hashtbl.replace n.pending_notify dst ((key, value_opt) :: prev))
      (List.sort_uniq compare !targets);
    if (not n.flush_scheduled) && n.pending_order <> [] then begin
      n.flush_scheduled <- true;
      Event.schedule t.event ~delay:0.0 (fun () -> flush_notifications t home)
    end

(** Write a base pair: routed to its home server, then pushed to
    subscribers. [via] applies the write at a compute node first
    (read-your-own-writes for that node's clients, §2.4). *)
let client_put ?via t key value =
  let table = Pequod_store.Store.table_name_of key in
  let home =
    match t.partition ~table ~lo:key with
    | Some h -> h
    | None -> invalid_arg ("client_put: table " ^ table ^ " is not partitioned")
  in
  (match via with
  | Some c when c <> home -> Server.put t.nodes.(c).server key value
  | _ -> ());
  let n = t.nodes.(home) in
  Obs.Counter.force_add n.m_client_bytes (String.length key + String.length value + 16);
  Event.schedule t.event ~delay:t.latency (fun () ->
      Server.put n.server key value;
      push_notifications t home key (Some value))

let client_remove t key =
  let table = Pequod_store.Store.table_name_of key in
  match t.partition ~table ~lo:key with
  | None -> invalid_arg "client_remove: unpartitioned table"
  | Some home ->
    Event.schedule t.event ~delay:t.latency (fun () ->
        Server.remove t.nodes.(home).server key;
        push_notifications t home key None)

(* fetch a missing range from its home server, then continue [k] *)
let fetch_range t ~requester ~table ~lo ~hi k =
  t.fetch_rounds <- t.fetch_rounds + 1;
  let home =
    match t.partition ~table ~lo with
    | Some h -> h
    | None -> invalid_arg ("fetch: no home for table " ^ table)
  in
  let req = Message.Fetch { table; lo; hi; subscriber = string_of_int requester } in
  let wire = Message.encode_request req in
  ignore (account_msg t ~src:requester ~dst:home wire);
  Event.schedule t.event ~delay:t.latency (fun () ->
      match Message.decode_request wire with
      | Message.Fetch { table; lo; hi; subscriber } ->
        let subscriber = int_of_string subscriber in
        let hnode = t.nodes.(home) in
        (* §2.4: the home server installs the subscription first, then
           snapshots — a write landing in between is pushed as well, and
           the duplicate application is idempotent *)
        ignore (Interval_map.add (subs_for hnode table) ~lo ~hi subscriber);
        let pairs = Server.scan hnode.server ~lo ~hi in
        let stamp = Server.range_stamp hnode.server ~table ~lo ~hi in
        let resp_wire = Message.encode_response (Message.Subscribed { stamp; pairs }) in
        ignore (account_msg t ~src:home ~dst:subscriber resp_wire);
        Event.schedule t.event ~delay:t.latency (fun () ->
            match Message.decode_response resp_wire with
            | Message.Subscribed { stamp; pairs } ->
              Server.feed_base t.nodes.(subscriber).server ~table ~lo ~hi ~stamp pairs;
              k ()
            | _ -> assert false)
      | _ -> assert false)

(** Issue a scan at compute node [via]; [callback] fires (in simulated
    time) once every missing base range has been fetched. *)
let client_scan t ~via ~lo ~hi callback =
  let n = t.nodes.(via) in
  let rec attempt () =
    match Server.scan_result n.server ~lo ~hi with
    | `Ok pairs ->
      t.scans_done <- t.scans_done + 1;
      Obs.Counter.force_add n.m_client_bytes
        (24 + List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v) 0 pairs);
      callback pairs
    | `Missing missing ->
      List.iter
        (fun (table, flo, fhi) -> fetch_range t ~requester:via ~table ~lo:flo ~hi:fhi attempt)
        (match missing with [] -> assert false | m :: _ -> [ m ])
  in
  attempt ()

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)

(** Reset every node's work epoch (call after warm-up). *)
let mark_epoch t =
  Array.iter
    (fun n ->
      n.work_epoch <- Server.store_ops n.server;
      n.msg_work <- 0)
    t.nodes

(** Work units a node has performed since the epoch. *)
let node_work t id =
  let n = t.nodes.(id) in
  Server.store_ops n.server - n.work_epoch + n.msg_work

(** The cluster's bottleneck work: max over compute nodes (§5.5 observes
    the bottleneck is compute-server CPU). *)
let bottleneck_work t =
  List.fold_left (fun acc id -> max acc (node_work t id)) 1 t.compute_ids

let total_memory t ids =
  List.fold_left (fun acc id -> acc + Server.memory_bytes t.nodes.(id).server) 0 ids

(** One node's traffic tallies (also visible in its registry snapshot as
    [sim.msgs_sent] / [sim.server_bytes] / [sim.client_bytes]). *)
let node_msgs_sent n = Obs.Counter.value n.m_msgs

let node_server_bytes n = Obs.Counter.value n.m_server_bytes
let node_client_bytes n = Obs.Counter.value n.m_client_bytes

let server_bytes t =
  Array.fold_left (fun acc n -> acc + node_server_bytes n) 0 t.nodes / 2 (* counted at both ends *)

let client_bytes t = Array.fold_left (fun acc n -> acc + node_client_bytes n) 0 t.nodes

let subscription_count t =
  Array.fold_left
    (fun acc n -> acc + Hashtbl.fold (fun _ im a -> a + Interval_map.size im) n.subs 0)
    0 t.nodes

let scans_done t = t.scans_done
let fetch_rounds t = t.fetch_rounds
