(* One live range migration (docs/PARTITIONING.md): this server is the
   source home handing [table [lo,hi)] to [dest]. The copy posts a
   bounded batch of chunks per event-loop step and then waits for a
   barrier; writes landing in the range during the copy are captured as
   the delta. Once the copy is done the flip holds every write to the
   range, replays the delta and flips the directory epoch, so the
   destination never becomes the home of a range it only half holds.
   The moved keys then leave this server in chunks, as they came. *)

module Server = Pequod_core.Server
module Message = Pequod_proto.Message

let src = Logs.Src.create "pequod.migration"

module Log = (val Logs.src_log src : Logs.LOG)

type phase = Copying | Awaiting_barrier | Flipping | Removing

type env = {
  out : Peer.outbound;
  engine : Server.t;
  dir : Directory.t;
  self : string;
  seed : string option;
  hand_off : table:string -> lo:string -> hi:string -> dest:string -> Message.request list;
}

type t = {
  env : env;
  table : string;
  lo : string;
  hi : string;
  dest : string;
  mutable phase : phase;
  mutable cursor : string; (* next key to copy, then to remove *)
  mutable delta : (string * string option) list; (* captured writes, newest first *)
  mutable keys : int;
  mutable deltas : int;
  mutable held : (unit -> unit) list; (* held writes' retries, newest first *)
  arrived : (string, unit) Hashtbl.t; (* keys applied here while removing *)
  on_end : unit -> unit; (* the server forgets this migration *)
  reply : Message.response -> unit; (* answers the Migrate request *)
  m_keys : Obs.Counter.t; (* migrate.keys_moved *)
  m_delta : Obs.Counter.t; (* migrate.delta_replayed *)
}

exception Fail of string

let chunk = 512 (* keys per posted snapshot batch *)
let chunks_per_step = 64
let removals_per_step = 16 (* each is logged, and fsynced under --sync always *)

let phase mg = mg.phase
let inside mg key = String.compare mg.lo key <= 0 && String.compare key mg.hi < 0

let start env ~table ~lo ~hi ~dest ~on_end reply =
  if Directory.epoch env.dir = 0 then Error "no directory epoch yet; seed the directory first"
  else if String.equal dest env.self then Error "destination is this server"
  else
    (* dry-run the flip now so a doomed migration fails before any data
       moves: the range must be fully covered, by one home *)
    match Directory.assign (Directory.entries env.dir) ~table ~lo ~hi ~home:dest with
    | Error _ as e -> e
    | Ok _ when Directory.home_of env.dir ~key:lo <> Some env.self ->
      Error (Printf.sprintf "this server is not the home of %s[%s,%s)" table lo hi)
    | Ok _ ->
      Log.app (fun m -> m "migrating %s[%s,%s) to %s" table lo hi dest);
      let obs = Server.obs env.engine in
      Ok
        { env; table; lo; hi; dest; phase = Copying; cursor = lo; delta = []; keys = 0;
          deltas = 0; held = []; arrived = Hashtbl.create 8; on_end; reply;
          m_keys = Obs.counter obs "migrate.keys_moved";
          m_delta = Obs.counter obs "migrate.delta_replayed" }

(* a write applied here while the range is moving is part of the
   handoff delta: the snapshot chunk covering it may be copied already.
   Once it has moved, one is the range coming back, and stays *)
let capture mg key value =
  if inside mg key then
    if mg.phase = Removing then Hashtbl.replace mg.arrived key ()
    else mg.delta <- (key, value) :: mg.delta

let hold mg touches k retry =
  if mg.phase = Flipping && touches (inside mg) then begin
    let retry () = try retry () with e -> k (Message.Error (Printexc.to_string e)) in
    mg.held <- retry :: mg.held;
    true
  end
  else false

(* the flip is over: release the held writes, which re-route by the
   directory as it now stands (forwarded to the new home after an
   install, applied here after a failure) *)
let release mg =
  let held = List.rev mg.held in
  mg.held <- [];
  List.iter (fun retry -> retry ()) held

let fail mg msg =
  Log.err (fun m ->
      m
        "migration of %s[%s,%s) to %s failed after %d keys: %s (directory unchanged; re-run \
         the migration)"
        mg.table mg.lo mg.hi mg.dest mg.keys msg);
  mg.on_end ();
  release mg;
  mg.reply (Message.Error msg)

(* [k resp] for [req] sent to [addr] on [lane]; a peer failure, an
   [Error] answer or a raise in [k] fails the migration *)
let call mg lane addr req k =
  mg.env.out.call lane addr req (fun reply ->
      match reply with
      | Ok (Message.Error msg) | Error msg ->
        fail mg (if String.equal addr mg.dest then msg else "seed: " ^ msg)
      | Ok resp -> (
        try k resp with
        | Fail msg -> fail mg msg
        | e -> fail mg (Printexc.to_string e)))

(* any locally-handled call answered by the destination on the [Prompt]
   lane proves every frame posted before it has been applied (frames are
   processed in order per connection). Dir_get is answered from the
   destination's own directory copy and never forwarded — a [Get] for a
   key in the moving range would bounce straight back here, because the
   destination still routes the range to this server until the flip. *)
let barrier mg k =
  call mg Peer.Prompt mg.dest Message.Dir_get (function
    | Message.Dir_state _ -> k ()
    | _ -> raise (Fail "unexpected barrier response"))

(* post [items] ((key, Some v | None) in write order) to the destination
   as Notify_batch frames. Notify — not Put — so the receiver applies
   them locally instead of re-forwarding through its own directory
   (which still names this server as the range's home until the flip). *)
let rec feed mg = function
  | [] -> ()
  | items ->
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (n - 1) (x :: acc) rest
    in
    let batch, rest = take 1024 [] items in
    mg.env.out.post mg.dest (Message.Notify_batch { items = batch; stamps = [] });
    feed mg rest

(* The copy is done: flip the range to the destination, one answer at a
   time — delta and stamp trailer, a barrier, the new directory (from
   the seed, when there is one), the local install, then the
   destination's [Dir_update] and the subscriber handoff. Writes to the
   range are held from the first link to the last; everything else keeps
   being served. *)
let flip mg =
  let { env; table; lo; hi; dest; _ } = mg in
  mg.phase <- Flipping;
  (* 1. the write delta captured during the copy; held writes cannot
     add to it any more *)
  let items = List.rev mg.delta in
  mg.delta <- [];
  mg.deltas <- mg.deltas + List.length items;
  Obs.Counter.add mg.m_delta (List.length items);
  feed mg items;
  (* hand the range's version stamps over before the flip: the new
     home's counter must continue where this one stops, or a session's
     acked stamp could exceed anything the new home ever issues *)
  let stamps =
    List.filter_map
      (fun (tb, slo, shi, s) ->
        if not (String.equal tb table) then None
        else
          Option.map (fun (l, h) -> (tb, l, h, s)) (Directory.intersect ~lo ~hi (slo, shi)))
      (Server.stamp_ranges env.engine)
  in
  if stamps <> [] then env.out.post dest (Message.Notify_batch { items = []; stamps });
  let assign entries =
    match Directory.assign entries ~table ~lo ~hi ~home:dest with
    | Ok e -> e
    | Error msg -> raise (Fail msg)
  in
  (* 3. (after 2., the barrier and the seed's new directory, below) from
     this epoch on the cluster routes the range to [dest]. The
     directory is only ever updated after the destination holds the
     complete range, so a migration failing at any earlier point leaves
     the epoch — and reads — exactly where they were. *)
  let installed epoch entries =
    (match Directory.install env.dir ~epoch ~entries with
    | Ok () -> ()
    | Error msg -> if env.seed = None then raise (Fail msg));
    Server.unmark_present env.engine ~table ~lo ~hi;
    let result =
      Message.Pairs
        [ ("keys_moved", string_of_int mg.keys);
          ("delta_replayed", string_of_int mg.deltas);
          ("epoch", string_of_int epoch) ]
    in
    (* 4. tell the new home directly (its poll would learn the flip
       anyway; this closes the window where it still routes the range
       back here) and hand the subscribers over. All on the [Parked]
       lane, in this order: the new home applies the [Dir_update] before
       the forwards this server now sends it for the range, and before
       the handoff [Fetch]es, which it would refuse while it still named
       this server as the home. The held writes stay held until every
       one has answered: forwarded any earlier, they could reach it
       before its [Dir_update] and bounce back here. The range has
       flipped already, so a failure is logged, not fatal: a subscriber
       whose handoff failed heals through its Sub_check. *)
    let pending = ref 0 in
    let answered reply =
      (match reply with
      | Ok (Message.Error msg) | Error msg ->
        Log.warn (fun m ->
            m "migration of %s[%s,%s): handing over to %s: %s" table lo hi dest msg)
      | Ok _ -> ());
      decr pending;
      if !pending = 0 then begin
        Log.app (fun m ->
            m "migration of %s[%s,%s) to %s complete: %d keys, %d delta writes" table lo hi
              dest mg.keys mg.deltas);
        mg.phase <- Removing;
        mg.cursor <- lo;
        release mg;
        mg.reply result
      end
    in
    let reqs = Message.Dir_update { epoch; entries } :: env.hand_off ~table ~lo ~hi ~dest in
    pending := List.length reqs;
    List.iter (fun req -> env.out.call Peer.Parked dest req answered) reqs
  in
  (* 2. the barrier proves the destination applied the delta; then the
     new directory: assigned here, or at the seed when there is one *)
  barrier mg (fun () ->
      match env.seed with
      | None -> installed (Directory.epoch env.dir + 1) (assign (Directory.entries env.dir))
      | Some seed ->
        call mg Peer.Prompt seed Message.Dir_get (function
          | Message.Dir_state { epoch; entries } ->
            let entries' = assign entries in
            (* [Parked], with forwards: one sent to the seed after it
               finds the seed on the new epoch *)
            call mg Peer.Parked seed
              (Message.Dir_update { epoch = epoch + 1; entries = entries' })
              (function
                | Message.Done -> installed (epoch + 1) entries'
                | _ -> raise (Fail "seed: unexpected Dir_update response"))
          | _ -> raise (Fail "seed: unexpected Dir_get response")))

(* One step's worth of work. Copying: up to [chunks_per_step] chunks
   posted to the destination, then a barrier the pump waits on; the last
   barrier starts the flip. Removing: [removals_per_step] moved keys
   leave this server. A copy left behind would come back to life if the
   range moved here again, with the keys removed since; a key that
   arrived since (the range moving back) stays, as does a fetched copy,
   which its feed reconciled. *)
let pump mg =
  match mg.phase with
  | Awaiting_barrier | Flipping -> ()
  | Removing -> (
    match
      Server.drop_moved mg.env.engine ~lo:mg.cursor ~hi:mg.hi ~limit:removals_per_step
        ~keep:(Hashtbl.mem mg.arrived)
    with
    | Some next -> mg.cursor <- next
    | None -> mg.on_end ())
  | Copying -> (
    try
      let copied_all = ref false in
      let budget = ref chunks_per_step in
      while (not !copied_all) && !budget > 0 do
        decr budget;
        match Server.scan_result ~limit:chunk mg.env.engine ~lo:mg.cursor ~hi:mg.hi with
        | `Missing _ -> raise (Fail "this server does not hold the range")
        | `Ok pairs ->
          let n = List.length pairs in
          if n > 0 then begin
            feed mg (List.map (fun (k, v) -> (k, Some v)) pairs);
            mg.keys <- mg.keys + n;
            Obs.Counter.add mg.m_keys n
          end;
          if n = chunk then mg.cursor <- fst (List.nth pairs (n - 1)) ^ "\x00"
          else copied_all := true
      done;
      mg.phase <- Awaiting_barrier;
      barrier mg (fun () -> if !copied_all then flip mg else mg.phase <- Copying)
    with Fail msg -> fail mg msg)
