(** Twip, the paper's Twitter model (§2.1), implemented on five systems
    (§5.2): Pequod with cache joins, "client Pequod" (no joins, clients
    maintain timelines), a Redis model, a memcached model, and the mini
    relational database with triggers standing in for PostgreSQL.

    All five expose the same operations behind a record of closures and
    are driven through a {!Pequod_baselines.Meter} channel. Under the
    [Separate_process] deployment (used by the benchmark harness) each
    system's state lives in a forked server process and every operation is
    a genuine loopback-TCP RPC, as in the paper's setup; the [In_process]
    deployment (used by tests) keeps the handler local but still moves all
    bytes through the kernel. All five produce identical timeline contents
    — the test suite checks that — so measured differences come from the
    systems' architectures. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Meter = Pequod_baselines.Meter
module Redis = Pequod_baselines.Redis_model
module Memcached = Pequod_baselines.Memcached_model
module Db = Pequod_db.Db
module Query = Pequod_db.Query
module Relation = Pequod_db.Relation

let timeline_join =
  "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>"

let time_str t = Strkey.encode_time t
(* tweet-sized values (~140 bytes): value sharing's memory effect (§4.3)
   is proportional to payload size *)
let tweet_text poster time =
  let base = Printf.sprintf "tweet by %s at %d " poster time in
  base ^ String.make (max 0 (140 - String.length base)) 'x'

type deployment = In_process | Separate_process

(** One Twip deployment: the uniform backend interface. [timeline] returns
    (time, poster, tweet) ascending; [bulk_subscribe] loads the social
    graph without paying per-subscription client fan-out (used for
    pre-experiment loading only); [shutdown] releases the channel (and the
    forked server, when there is one). *)
type backend = {
  name : string;
  subscribe : user:string -> poster:string -> unit;
  bulk_subscribe : user:string -> poster:string -> unit;
  post : poster:string -> time:string -> tweet:string -> unit;
  timeline : user:string -> since:string -> (string * string * string) list;
  rpcs : unit -> int;
  wire_bytes : unit -> int;
  memory_bytes : unit -> int;
  shutdown : unit -> unit;
}

(* parse a Pequod timeline key t|user|time|poster *)
let parse_tkey key tweet =
  match String.split_on_char '|' key with
  | [ _t; _user; time; poster ] -> Some (time, poster, tweet)
  | _ -> None

let make_channel deployment serve =
  match deployment with
  | In_process -> Meter.create ~handler:serve ()
  | Separate_process -> Meter.create_forked ~serve ()

(* ------------------------------------------------------------------ *)
(* Pequod and client Pequod share the engine-backed channel            *)

let pequod_channel ?config ~deployment ~joins () =
  let serve () =
    (* state is created lazily inside the closure so a forked child owns
       its engine exclusively *)
    let server = Server.create ?config () in
    List.iter (Server.add_join_exn server) joins;
    fun request ->
      Message.encode_response (Message.apply_to_server server (Message.decode_request request))
  in
  make_channel deployment (serve ())

let engine_backend ~name ~meter ~subscribe ~bulk_subscribe ~post ~timeline =
  let metrics_of meter =
    match
      Message.decode_response (Meter.call meter (Message.encode_request Message.Stats_full))
    with
    | Message.Metrics metrics -> metrics
    | _ -> []
  in
  {
    name;
    subscribe;
    bulk_subscribe;
    post;
    timeline;
    rpcs = (fun () -> meter.Meter.rpcs);
    wire_bytes = (fun () -> meter.Meter.bytes_sent + meter.Meter.bytes_received);
    memory_bytes =
      (fun () ->
        match List.assoc_opt "memory.bytes" (metrics_of meter) with
        | Some (Obs.Gauge n) | Some (Obs.Counter n) -> n
        | _ -> 0);
    shutdown = (fun () -> Meter.close meter);
  }

let rpc meter req = Message.decode_response (Meter.call meter (Message.encode_request req))

let put_rpc meter k v =
  match rpc meter (Message.Put (k, v)) with
  | Message.Done | Message.Stamps _ -> ()
  | _ -> assert false

let scan_rpc meter lo hi =
  match rpc meter (Message.Scan { lo; hi }) with Message.Pairs p -> p | _ -> assert false

(** 1. Pequod with the timeline cache join. *)
let pequod ?config ?(deployment = In_process) () =
  let meter = pequod_channel ?config ~deployment ~joins:[ timeline_join ] () in
  let subscribe ~user ~poster = put_rpc meter (Printf.sprintf "s|%s|%s" user poster) "1" in
  engine_backend ~name:"Pequod" ~meter ~subscribe ~bulk_subscribe:subscribe
    ~post:(fun ~poster ~time ~tweet -> put_rpc meter (Printf.sprintf "p|%s|%s" poster time) tweet)
    ~timeline:(fun ~user ~since ->
      let lo = Printf.sprintf "t|%s|%s" user since in
      let hi = Strkey.prefix_upper (Printf.sprintf "t|%s|" user) in
      List.filter_map (fun (k, v) -> parse_tkey k v) (scan_rpc meter lo hi))

(** 2. Client Pequod: same store, no joins; clients fan posts out and
    backfill new subscriptions themselves, paying an RPC per update. *)
let client_pequod ?config ?(deployment = In_process) () =
  let meter = pequod_channel ?config ~deployment ~joins:[] () in
  let bulk_subscribe ~user ~poster =
    put_rpc meter (Printf.sprintf "s|%s|%s" user poster) "1";
    (* reverse index so posting clients can find followers *)
    put_rpc meter (Printf.sprintf "rs|%s|%s" poster user) "1"
  in
  let subscribe ~user ~poster =
    bulk_subscribe ~user ~poster;
    (* backfill: copy the poster's existing posts into the timeline *)
    let posts =
      scan_rpc meter
        (Printf.sprintf "p|%s|" poster)
        (Strkey.prefix_upper (Printf.sprintf "p|%s|" poster))
    in
    List.iter
      (fun (k, tweet) ->
        match String.split_on_char '|' k with
        | [ _p; _poster; time ] ->
          put_rpc meter (Printf.sprintf "t|%s|%s|%s" user time poster) tweet
        | _ -> ())
      posts
  in
  engine_backend ~name:"Client Pequod" ~meter ~subscribe ~bulk_subscribe
    ~post:(fun ~poster ~time ~tweet ->
      put_rpc meter (Printf.sprintf "p|%s|%s" poster time) tweet;
      let followers =
        scan_rpc meter
          (Printf.sprintf "rs|%s|" poster)
          (Strkey.prefix_upper (Printf.sprintf "rs|%s|" poster))
      in
      List.iter
        (fun (k, _) ->
          match String.split_on_char '|' k with
          | [ _rs; _poster; user ] ->
            put_rpc meter (Printf.sprintf "t|%s|%s|%s" user time poster) tweet
          | _ -> ())
        followers)
    ~timeline:(fun ~user ~since ->
      let lo = Printf.sprintf "t|%s|%s" user since in
      let hi = Strkey.prefix_upper (Printf.sprintf "t|%s|" user) in
      List.filter_map (fun (k, v) -> parse_tkey k v) (scan_rpc meter lo hi))

(* ------------------------------------------------------------------ *)
(* 3. Redis model                                                      *)

let redis ?(deployment = In_process) () =
  let serve () =
    let r = Redis.create () in
    fun request -> Meter.encode_parts (Redis.dispatch r (Meter.decode_parts request))
  in
  let meter = make_channel deployment (serve ()) in
  let cmd parts = Meter.command meter parts in
  let bulk_subscribe ~user ~poster =
    ignore (cmd [ "SADD"; "following:" ^ user; poster ]);
    ignore (cmd [ "SADD"; "followers:" ^ poster; user ])
  in
  let pairs_of = function
    | [] -> []
    | flat ->
      let rec go = function
        | s :: m :: rest -> (s, m) :: go rest
        | _ -> []
      in
      go flat
  in
  let subscribe ~user ~poster =
    bulk_subscribe ~user ~poster;
    let posts = pairs_of (cmd [ "ZRANGEBYSCORE"; "posts:" ^ poster; ""; "\xfe" ]) in
    List.iter
      (fun (score, tweet) ->
        ignore (cmd [ "ZADD"; "timeline:" ^ user; score ^ "|" ^ poster; tweet ]))
      posts
  in
  {
    name = "Redis";
    subscribe;
    bulk_subscribe;
    post =
      (fun ~poster ~time ~tweet ->
        ignore (cmd [ "ZADD"; "posts:" ^ poster; time; tweet ]);
        let followers = cmd [ "SMEMBERS"; "followers:" ^ poster ] in
        List.iter
          (fun user -> ignore (cmd [ "ZADD"; "timeline:" ^ user; time ^ "|" ^ poster; tweet ]))
          followers);
    timeline =
      (fun ~user ~since ->
        let entries = pairs_of (cmd [ "ZRANGEBYSCORE"; "timeline:" ^ user; since; "\xfe" ]) in
        List.filter_map
          (fun (score, tweet) ->
            match String.split_on_char '|' score with
            | [ time; poster ] -> Some (time, poster, tweet)
            | _ -> None)
          entries);
    rpcs = (fun () -> meter.Meter.rpcs);
    wire_bytes = (fun () -> meter.Meter.bytes_sent + meter.Meter.bytes_received);
    memory_bytes =
      (fun () -> match cmd [ "MEMORY" ] with [ n ] -> int_of_string n | _ -> 0);
    shutdown = (fun () -> Meter.close meter);
  }

(* ------------------------------------------------------------------ *)
(* 4. memcached model                                                  *)

let memcached ?(deployment = In_process) () =
  let serve () =
    let m = Memcached.create () in
    fun request -> Meter.encode_parts (Memcached.dispatch m (Meter.decode_parts request))
  in
  let meter = make_channel deployment (serve ()) in
  let cmd parts = Meter.command meter parts in
  let append_entry key entry =
    match cmd [ "append"; key; entry ] with
    | [ "STORED" ] -> ()
    | _ -> ignore (cmd [ "set"; key; entry ])
  in
  let get key = match cmd [ "get"; key ] with [ v ] -> Some v | _ -> None in
  let parse_lines v =
    String.split_on_char '\n' v
    |> List.filter_map (fun line ->
           match String.split_on_char '|' line with
           | [ time; poster; tweet ] -> Some (time, poster, tweet)
           | _ -> None)
  in
  let get_members key =
    match get key with
    | Some v -> String.split_on_char ' ' v |> List.filter (fun s -> s <> "")
    | None -> []
  in
  let bulk_subscribe ~user ~poster =
    (* read-modify-write keeps the follower list duplicate-free *)
    let followers = get_members ("followers:" ^ poster) in
    if not (List.mem user followers) then append_entry ("followers:" ^ poster) (user ^ " ");
    let following = get_members ("following:" ^ user) in
    if not (List.mem poster following) then append_entry ("following:" ^ user) (poster ^ " ")
  in
  let subscribe ~user ~poster =
    bulk_subscribe ~user ~poster;
    match get ("posts:" ^ poster) with
    | None -> ()
    | Some v ->
      List.iter
        (fun (time, poster, tweet) ->
          append_entry ("timeline:" ^ user) (Printf.sprintf "%s|%s|%s\n" time poster tweet))
        (parse_lines v)
  in
  {
    name = "memcached";
    subscribe;
    bulk_subscribe;
    post =
      (fun ~poster ~time ~tweet ->
        append_entry ("posts:" ^ poster) (Printf.sprintf "%s|%s|%s\n" time poster tweet);
        List.iter
          (fun user ->
            append_entry ("timeline:" ^ user) (Printf.sprintf "%s|%s|%s\n" time poster tweet))
          (get_members ("followers:" ^ poster)));
    timeline =
      (fun ~user ~since ->
        let v = Option.value ~default:"" (get ("timeline:" ^ user)) in
        parse_lines v
        |> List.filter (fun (time, _, _) -> String.compare time since >= 0)
        |> List.sort compare);
    rpcs = (fun () -> meter.Meter.rpcs);
    wire_bytes = (fun () -> meter.Meter.bytes_sent + meter.Meter.bytes_received);
    memory_bytes =
      (fun () -> match cmd [ "MEMORY" ] with [ n ] -> int_of_string n | _ -> 0);
    shutdown = (fun () -> Meter.close meter);
  }

(* ------------------------------------------------------------------ *)
(* 5. PostgreSQL model: relational tables, triggers maintain timelines *)

let make_twip_db () =
  let db = Db.create () in
  let _p = Db.create_table db ~name:"p" ~columns:[ "poster"; "time"; "tweet" ] ~key:[ "poster"; "time" ] in
  let _s = Db.create_table db ~name:"s" ~columns:[ "user"; "poster" ] ~key:[ "user"; "poster" ] in
  let _tl =
    Db.create_table db ~name:"tl"
      ~columns:[ "user"; "time"; "poster"; "tweet" ]
      ~key:[ "user"; "time"; "poster" ]
  in
  Db.add_index db ~table:"s" ~columns:[ "poster" ];
  (* trigger: a new post fans out into follower timelines *)
  Db.create_trigger db ~table:"p" (fun change row ->
      match change with
      | Db.Row_insert ->
        Relation.scan_index (Db.table db "s") ~columns:[ "poster" ] ~values:[ row.(0) ]
          (fun srow -> Db.insert db ~table:"tl" [ srow.(0); row.(1); row.(0); row.(2) ])
      | Db.Row_delete ->
        Relation.scan_index (Db.table db "s") ~columns:[ "poster" ] ~values:[ row.(0) ]
          (fun srow -> ignore (Db.delete db ~table:"tl" [ srow.(0); row.(1); row.(0) ])));
  (* trigger: a new subscription backfills the follower's timeline *)
  Db.create_trigger db ~table:"s" (fun change row ->
      match change with
      | Db.Row_insert ->
        Relation.scan_prefix (Db.table db "p") [ row.(1) ] (fun prow ->
            Db.insert db ~table:"tl" [ row.(0); prow.(1); prow.(0); prow.(2) ])
      | Db.Row_delete ->
        Relation.scan_prefix (Db.table db "p") [ row.(1) ] (fun prow ->
            ignore (Db.delete db ~table:"tl" [ row.(0); prow.(1); prow.(0) ])));
  (* real PostgreSQL pays tens of microseconds of parse/plan/MVCC work per
     statement even tuned for memory; model that honestly *)
  Db.set_statement_overhead db 120;
  db

let pg_dispatch db parts =
  match parts with
  | [ "INSERT"; "s"; user; poster ] ->
    Db.insert db ~table:"s" [ user; poster ];
    [ "INSERT 0 1" ]
  | [ "INSERT"; "p"; poster; time; tweet ] ->
    Db.insert db ~table:"p" [ poster; time; tweet ];
    [ "INSERT 0 1" ]
  | [ "SELECT"; "tl"; user; since ] ->
    Db.statement_begin db;
    let q =
      Query.make
        ~terms:[ { Query.relation = Db.table db "tl"; alias = "tl" } ]
        ~preds:[ Query.Const ("tl", "user", user); Query.Ge ("tl", "time", since) ]
        ~select:[ ("tl", "time"); ("tl", "poster"); ("tl", "tweet") ]
    in
    Query.exec_list q |> List.concat_map (fun r -> [ r.(0); r.(1); r.(2) ])
  | [ "MEMORY" ] -> [ string_of_int (Db.total_rows db * 96) ]
  | _ -> [ "ERROR" ]

let postgres ?(deployment = In_process) () =
  let serve () =
    let db = make_twip_db () in
    fun request -> Meter.encode_parts (pg_dispatch db (Meter.decode_parts request))
  in
  let meter = make_channel deployment (serve ()) in
  let cmd parts = Meter.command meter parts in
  let subscribe ~user ~poster = ignore (cmd [ "INSERT"; "s"; user; poster ]) in
  {
    name = "PostgreSQL";
    subscribe;
    bulk_subscribe = subscribe;
    post = (fun ~poster ~time ~tweet -> ignore (cmd [ "INSERT"; "p"; poster; time; tweet ]));
    timeline =
      (fun ~user ~since ->
        let rec triple = function
          | time :: poster :: tweet :: rest -> (time, poster, tweet) :: triple rest
          | _ -> []
        in
        triple (cmd [ "SELECT"; "tl"; user; since ]));
    rpcs = (fun () -> meter.Meter.rpcs);
    wire_bytes = (fun () -> meter.Meter.bytes_sent + meter.Meter.bytes_received);
    memory_bytes =
      (fun () -> match cmd [ "MEMORY" ] with [ n ] -> int_of_string n | _ -> 0);
    shutdown = (fun () -> Meter.close meter);
  }

(* ------------------------------------------------------------------ *)
(* Workload driver                                                     *)

type run_result = {
  system : string;
  elapsed : float;
  rpcs : int;
  wire_bytes : int;
  memory : int;
  entries_read : int;
}

(** Load the social graph (bulk, uniform across systems). *)
let load_graph (backend : backend) graph =
  let n = Social_graph.nusers graph in
  for u = 0 to n - 1 do
    let user = Social_graph.user_name u in
    Array.iter
      (fun p -> backend.bulk_subscribe ~user ~poster:(Social_graph.user_name p))
      (Social_graph.following graph u)
  done

(** Pre-populate post history (times [0..nposts)), before the graph is
    loaded: a paper-style corpus of old tweets that reads rarely touch.
    Run this BEFORE [load_graph] so client-managed systems do not fan the
    history out (no subscriptions exist yet). *)
let preload_posts (backend : backend) graph ~rng ~nposts =
  let weights = Social_graph.posting_weights graph in
  let posting = Rng.Alias.create weights in
  for time = 0 to nposts - 1 do
    let poster = Social_graph.user_name (Rng.Alias.sample posting rng) in
    backend.post ~poster ~time:(time_str time) ~tweet:(tweet_text poster time)
  done

(** Run a Twip op stream to completion, tracking per-user last-seen times
    so Check ops are incremental, as in §5.1: logins fetch "a list of many
    recent tweets" (a window of recent history), checks fetch what is new
    since the user last looked. *)
let run ?login_window ?(initial_clock = 0) (backend : backend) graph (w : Workload.t) =
  let n = Social_graph.nusers graph in
  let window =
    match login_window with Some w -> w | None -> max 1 (w.Workload.nposts / 4)
  in
  let last_seen = Array.make n initial_clock in
  let clock = ref initial_clock in
  let entries = ref 0 in
  let t0 = Unix.gettimeofday () in
  Array.iter
    (fun op ->
      match op with
      | Workload.Login u ->
        let since = time_str (max 0 (!clock - window)) in
        let tl = backend.timeline ~user:(Social_graph.user_name u) ~since in
        entries := !entries + List.length tl;
        last_seen.(u) <- !clock
      | Workload.Check u ->
        let since = time_str (last_seen.(u) + 1) in
        let tl = backend.timeline ~user:(Social_graph.user_name u) ~since in
        entries := !entries + List.length tl;
        last_seen.(u) <- !clock
      | Workload.Subscribe (u, p) ->
        backend.subscribe ~user:(Social_graph.user_name u) ~poster:(Social_graph.user_name p)
      | Workload.Post (p, time) ->
        clock := max !clock time;
        let poster = Social_graph.user_name p in
        backend.post ~poster ~time:(time_str time) ~tweet:(tweet_text poster time))
    w.Workload.ops;
  let elapsed = Unix.gettimeofday () -. t0 in
  {
    system = backend.name;
    elapsed;
    rpcs = backend.rpcs ();
    wire_bytes = backend.wire_bytes ();
    memory = backend.memory_bytes ();
    entries_read = !entries;
  }
