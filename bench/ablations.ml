(** Ablations for the §3.2/§4 mechanisms, on the Twip workload:
    subtables (§4.1: paper 1.55x faster, 1.17x more memory), output hints
    (§4.2: 1.11x faster), value sharing (§4.3: 1.14x less memory), updater
    combining (§3.2: "large factors"), and the lazy check-source
    maintenance policy. Each row disables one mechanism and reports its
    cost relative to the full configuration.

    The engine is driven directly (no RPC layer) so the measured deltas
    isolate the mechanisms themselves. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Twip = Pequod_apps.Twip
module Social_graph = Pequod_apps.Social_graph
module Workload = Pequod_apps.Workload

type row = {
  variant : string;
  runtime : float;
  runtime_ratio : float; (* variant / baseline: > 1 means mechanism helps speed *)
  memory : int;
  memory_ratio : float;
}

(* the full configuration with one mechanism turned off *)
let without off () =
  let c = Config.default () in
  off c;
  c

let variants : (string * (unit -> Config.t)) list =
  [
    ("baseline (all on)", Config.default);
    ("no subtables", without (fun c -> c.Config.subtables <- false));
    ("no output hints", without (fun c -> c.Config.output_hints <- false));
    ("no value sharing", without (fun c -> c.Config.value_sharing <- false));
    ("no updater combining", without (fun c -> c.Config.combine_updaters <- false));
    ("eager check maintenance", without (fun c -> c.Config.lazy_checks <- false));
    ("complete invalidation only", without (fun c -> c.Config.pending_log_limit <- 0));
  ]

let run_one ~graph ~config ~total_ops ~seed =
  let s = Server.create ~config () in
  Server.add_join_exn s Twip.timeline_join;
  (* old-post corpus, mostly never read (exercises lazy maintenance) *)
  let posting = Rng.Alias.create (Social_graph.posting_weights graph) in
  let rng0 = Rng.create (seed + 9) in
  for time = 0 to 9_999 do
    let poster = Social_graph.user_name (Rng.Alias.sample posting rng0) in
    Server.put s
      (Printf.sprintf "p|%s|%s" poster (Strkey.encode_time time))
      (Twip.tweet_text poster time)
  done;
  for u = 0 to Social_graph.nusers graph - 1 do
    let user = Social_graph.user_name u in
    Array.iter
      (fun p -> Server.put s (Printf.sprintf "s|%s|%s" user (Social_graph.user_name p)) "1")
      (Social_graph.following graph u)
  done;
  let w = Workload.generate ~rng:(Rng.create seed) ~graph ~total_ops () in
  let window = max 1 (w.Workload.nposts / 4) in
  let nusers = Social_graph.nusers graph in
  let last_seen = Array.make nusers 1_000_000 in
  let clock = ref 1_000_000 in
  let timeline u since =
    let user = Social_graph.user_name u in
    Server.scan s
      ~lo:(Printf.sprintf "t|%s|%s" user (Strkey.encode_time since))
      ~hi:(Strkey.prefix_upper (Printf.sprintf "t|%s|" user))
  in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun op ->
      match op with
      | Workload.Login u ->
        ignore (timeline u (max 0 (!clock - window)));
        last_seen.(u) <- !clock
      | Workload.Check u ->
        ignore (timeline u (last_seen.(u) + 1));
        last_seen.(u) <- !clock
      | Workload.Subscribe (u, p) ->
        Server.put s
          (Printf.sprintf "s|%s|%s" (Social_graph.user_name u) (Social_graph.user_name p))
          "1"
      | Workload.Post (p, time) ->
        clock := max !clock time;
        let poster = Social_graph.user_name p in
        Server.put s
          (Printf.sprintf "p|%s|%s" poster (Strkey.encode_time time))
          (Twip.tweet_text poster time))
    w.Workload.ops;
  let elapsed = Unix.gettimeofday () -. t0 in
  (elapsed, Server.memory_bytes s)

let run (scale : Scale.t) =
  let rng = Rng.create scale.Scale.seed in
  let nusers = Scale.i scale 1_500 in
  let graph = Social_graph.generate ~rng ~nusers ~avg_follows:25 () in
  let total_ops = Scale.i scale 150_000 in
  (* minimum of three runs: the mechanism deltas are ~10%, below single-run
     noise on a busy machine *)
  let best_of_three f =
    let runs = List.init 3 (fun _ -> let r = f () in Gc.full_major (); r) in
    List.fold_left
      (fun (bt, bm) (t, m) -> if t < bt then (t, m) else (bt, bm))
      (List.hd runs) (List.tl runs)
  in
  let results =
    List.map
      (fun (variant, mk_config) ->
        let r =
          best_of_three (fun () ->
              run_one ~graph ~config:(mk_config ()) ~total_ops ~seed:(scale.Scale.seed + 2))
        in
        (variant, r))
      variants
  in
  let base_time, base_mem =
    match results with (_, (t, m)) :: _ -> (t, m) | [] -> (1.0, 1)
  in
  List.map
    (fun (variant, (runtime, memory)) ->
      {
        variant;
        runtime;
        runtime_ratio = runtime /. base_time;
        memory;
        memory_ratio = float_of_int memory /. float_of_int base_mem;
      })
    results

let print rows =
  let t =
    Tablefmt.create ~title:"Ablations: each mechanism disabled (vs full configuration)"
      ~headers:[ "Variant"; "Runtime (s)"; "Ratio"; "Memory (MB)"; "Ratio" ]
      ~aligns:[ Tablefmt.Left; Right; Right; Right; Right ]
  in
  List.iter
    (fun r ->
      Tablefmt.add_row t
        [
          r.variant;
          Tablefmt.fmt_float ~decimals:3 r.runtime;
          Printf.sprintf "%.2fx" r.runtime_ratio;
          Tablefmt.fmt_float ~decimals:1 (float_of_int r.memory /. 1048576.0);
          Printf.sprintf "%.2fx" r.memory_ratio;
        ])
    rows;
  Tablefmt.print t
