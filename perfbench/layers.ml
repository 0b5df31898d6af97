(** The engine and durability layers, driven outside-in: the same base
    rows and op stream a cluster run uses, replayed in this process
    straight through [Server.put]/[Server.scan] (every base range local,
    no network) and, for a durable workload, through a [Persist] log
    synced after every write — what a home would pay per write with
    [--sync always]. Each call is a span of the tracer. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Persist = Pequod_persist.Persist
module Workload = Pequod_apps.Workload
module Graph = Pequod_apps.Social_graph
module Samples = Metrics.Samples

type result = {
  scan_us : Samples.t;
  put_us : Samples.t;  (** engine put, including the log append *)
  sync_us : Samples.t;  (** durable workloads only *)
}

let replay ~(tracer : Driver.t) ~graph ~seed ~mix ~preload_posts ~durable_dir ~seconds =
  let server = Server.create () in
  Server.add_join_exn server Pequod_load_lib.Spawn.timeline_join;
  let batch = ref [] in
  let flush () =
    Server.put_batch server (List.rev !batch);
    batch := []
  in
  Driver.iter_base_rows ~seed ~graph ~posts:preload_posts (fun k v ->
      batch := (k, v) :: !batch;
      if List.compare_length_with !batch 1000 >= 0 then flush ());
  flush ();
  let persist =
    Option.map
      (fun dir -> Persist.attach server { (Config.default_persist ~dir) with p_sync = Config.Sync_never })
      durable_dir
  in
  let r = { scan_us = Samples.create (); put_us = Samples.create (); sync_us = Samples.create () } in
  let timed samples name ~parent f =
    let t0 = Driver.now_ns () in
    let v = Driver.span tracer ~parent name (fun _ -> f ()) in
    Samples.add samples (float_of_int (Driver.now_ns () - t0) /. 1e3);
    v
  in
  let stream =
    Workload.stream ~rng:(Rng.stream ~seed ~index:1) ~graph ~mix ~first_time:Driver.base_time ()
  in
  let last_seen = Array.make (Graph.nusers graph) 0 in
  let clock = ref Driver.base_time in
  let scan u ~since ~parent =
    let user = Graph.user_name u in
    ignore
      (timed r.scan_us "core.scan" ~parent (fun () ->
           Server.scan server
             ~lo:(Printf.sprintf "t|%s|%s" user (Strkey.encode_time since))
             ~hi:(Printf.sprintf "t|%s}" user)))
  in
  let put k v ~parent =
    timed r.put_us "core.put" ~parent (fun () -> Server.put server k v);
    Option.iter (fun p -> timed r.sync_us "persist.sync" ~parent (fun () -> Persist.sync p)) persist
  in
  let stop = Driver.now_ns () + int_of_float (seconds *. 1e9) in
  Driver.span tracer ~parent:0 "engine.replay" (fun parent ->
      while Driver.now_ns () < stop do
        match Workload.next stream with
        | Workload.Login u -> scan u ~since:(max 0 (!clock - Driver.login_window)) ~parent
        | Workload.Check u ->
          let since = last_seen.(u) + 1 in
          last_seen.(u) <- !clock;
          scan u ~since ~parent
        | Workload.Subscribe (u, p) ->
          put (Printf.sprintf "s|%s|%s" (Graph.user_name u) (Graph.user_name p)) "1" ~parent
        | Workload.Post (p, time) ->
          clock := max !clock time;
          let poster = Graph.user_name p in
          put
            (Printf.sprintf "p|%s|%s" poster (Strkey.encode_time time))
            (Pequod_apps.Twip.tweet_text poster time)
            ~parent
      done);
  Option.iter Persist.close persist;
  r
