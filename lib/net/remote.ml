(* Routes a server's engine by its partition directory: the resolver,
   the asynchronous fetcher and the maintenance tick — the
   compute-server half of the §2.4 fetch/subscribe protocol. *)

module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message
module Joinspec = Pequod_pattern.Joinspec

let src = Logs.Src.create "pequod.remote"

module Log = (val Logs.src_log src : Logs.LOG)

(* TABLE[:LO:HI][@HOST:PORT]; a bare TABLE covers the whole table,
   [T|, T}) in the repo's key order *)
let parse_spec ~self_addr spec =
  let body, home =
    match String.index_opt spec '@' with
    | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
    | None -> (spec, self_addr) (* a bare spec: this process is the home *)
  in
  let entry de_table de_lo de_hi =
    Ok { Message.de_table; de_lo; de_hi; de_home = home; de_replicas = [] }
  in
  match String.split_on_char ':' body with
  (* "*" is the directory's wildcard, whose bounds are component space; a
     spec's bounds are key space *)
  | "*" :: _ -> Error (Printf.sprintf "partition %S: \"*\" is not a table" spec)
  | [ table ] when table <> "" -> entry table (table ^ "|") (table ^ "}")
  | [ table; lo; hi ] when table <> "" && String.compare lo hi < 0 -> entry table lo hi
  | _ -> Error (Printf.sprintf "partition %S: expected TABLE or TABLE:LO:HI" spec)

(* the first bad spec's error, in order *)
let entries_of_specs ~self_addr specs =
  List.fold_right
    (fun s acc -> Result.bind (parse_spec ~self_addr s) (fun e -> Result.map (List.cons e) acc))
    specs (Ok [])

(* The asynchronous fetch engine behind the core's parked reads, on top
   of its outbound record ({!Peer.outbound}): a parked read's whole
   missing-range set is planned into clamps and sent as one pipelined
   burst per peer, concurrently across peers. Each landed [Subscribed]
   snapshot is fed into the engine and the read retried once the full
   set has landed.

   Each clamp carries its candidate servers: the range's read replicas,
   then its home. A candidate that refuses, is down, or drops the
   connection hands the fetch to the next one; the waiters fail only
   once the home has failed too.

   Single-flight: an in-flight table keyed by the exact (table, lo, hi)
   clamp means N concurrent parked reads missing the same range share
   one wire [Fetch] and one [feed_base]; the extra joins are counted in
   [fetch.coalesced].

   A push the home sent after a snapshot can land before it (they
   travel on different connections) and the feed would revert it, so a
   flight logs the pushes over its clamp and, once its snapshot at stamp
   S is fed, applies again those whose trailer is above S
   ([fetch.replayed]). *)
module Fetcher = struct
  type waiter = {
    mutable w_remaining : int; (* clamps not yet landed *)
    mutable w_failed : bool;
    w_k : ok:bool -> unit;
  }

  type flight = {
    fl_key : string * string * string; (* table, clamp lo, clamp hi *)
    mutable fl_cands : string list; (* candidates not yet tried, the home last *)
    mutable fl_waiters : waiter list;
    (* pushes applied while out, newest first: (trailer over the clamp,
       items inside it, trailer) *)
    mutable fl_log : (int * (string * string option) list * Message.stamp_entry list) list;
  }

  type t = {
    f_out : Peer.outbound;
    f_engine : Server.t;
    f_self : string;
    (* missing range -> (table, clamp lo, clamp hi, candidates) fetches,
       re-planned at fetch time *)
    f_plan :
      table:string -> lo:string -> hi:string ->
      [ `Fail | `Nothing | `Clamps of (string * string * string * string list) list ];
    f_tracked : (string * string * string, string) Hashtbl.t;
    f_inflight : (string * string * string, flight) Hashtbl.t;
    m_fetch_out : Obs.Counter.t; (* peer.fetch.out *)
    m_coalesced : Obs.Counter.t; (* fetch.coalesced *)
    m_replayed : Obs.Counter.t; (* fetch.replayed *)
    m_inflight : Obs.Gauge.t; (* fetch.inflight *)
  }

  let create ~out ~engine ~self_addr ~plan ~tracked =
    let obs = Server.obs engine in
    { f_out = out;
      f_engine = engine;
      f_self = self_addr;
      f_plan = plan;
      f_tracked = tracked;
      f_inflight = Hashtbl.create 16;
      m_fetch_out = Obs.counter obs "peer.fetch.out";
      m_coalesced = Obs.counter obs "fetch.coalesced";
      m_replayed = Obs.counter obs "fetch.replayed";
      m_inflight = Obs.gauge obs "fetch.inflight" }

  (* every push [Node.apply_oneway] applied; one whose trailer misses a
     clamp cannot be above its snapshot, so that flight skips it *)
  let on_push f items stamps =
    if Hashtbl.length f.f_inflight > 0 then
      Hashtbl.iter
        (fun (table, lo, hi) fl ->
          let over_clamp acc (t, slo, shi, s) =
            if t = table && Strkey.range_overlaps (slo, shi) (lo, hi) then max acc s else acc
          in
          match List.fold_left over_clamp 0 stamps with
          | 0 -> ()
          | over ->
            let inside = List.filter (fun (k, _) -> Strkey.in_range ~lo ~hi k) items in
            fl.fl_log <- (over, inside, stamps) :: fl.fl_log)
        f.f_inflight

  let complete_waiter w ~ok =
    if not ok then w.w_failed <- true;
    w.w_remaining <- w.w_remaining - 1;
    if w.w_remaining = 0 then w.w_k ~ok:(not w.w_failed)

  (* The flight leaves the in-flight table before its waiters run: a
     waiter's retry may miss the same range again (eviction raced the
     feed) and must start a fresh fetch, not join a completed one. *)
  let complete_flight f fl ~ok =
    Hashtbl.remove f.f_inflight fl.fl_key;
    Obs.Gauge.set f.m_inflight (Hashtbl.length f.f_inflight);
    let ws = fl.fl_waiters in
    fl.fl_waiters <- [];
    List.iter (fun w -> complete_waiter w ~ok) ws

  (* Send [fl]'s [Fetch] to its next candidate; a failure moves it on to
     the one after, and with no candidate left the flight fails. *)
  let rec issue f fl =
    match fl.fl_cands with
    | [] -> complete_flight f fl ~ok:false
    | addr :: rest ->
      fl.fl_cands <- rest;
      Obs.Counter.incr f.m_fetch_out;
      let table, lo, hi = fl.fl_key in
      f.f_out.call Peer.Prompt addr
        (Message.Fetch { table; lo; hi; subscriber = f.f_self })
        (fun reply ->
          let failed why =
            Log.warn (fun m -> m "fetch %s[%s,%s) from %s %s" table lo hi addr why);
            issue f fl
          in
          match reply with
          | Ok (Message.Subscribed { stamp; pairs }) ->
            Hashtbl.replace f.f_tracked fl.fl_key addr;
            (* the copy is exactly the home's version [stamp], on
               replicas as on computes *)
            Server.feed_base f.f_engine ~table ~lo ~hi ~stamp pairs;
            (* a home's batches leave in write order: those above [stamp]
               hold every write the snapshot missed; one at or below it is
               in the snapshot, and replayed could revert a newer key *)
            List.iter
              (fun (over, items, stamps) ->
                if over > stamp then begin
                  Obs.Counter.incr f.m_replayed;
                  ignore (Message.apply_to_server f.f_engine (Notify_batch { items; stamps }))
                end)
              (List.rev fl.fl_log);
            complete_flight f fl ~ok:true
          | Ok (Message.Error msg) -> failed ("refused: " ^ msg)
          | Ok _ -> failed "answered unexpectedly"
          | Error msg -> failed ("failed: " ^ msg))

  (* The fetcher [Node.set_directory] installs: fetch a whole
     missing-range set, calling [k ~ok] once every clamp has landed (or
     failed on every candidate). Completion may run synchronously —
     every candidate in dead-peer backoff — or later from the peer pool;
     callers handle both. *)
  let request f ranges k =
    let planned =
      List.fold_left
        (fun acc (table, lo, hi) ->
          match acc with
          | `Fail -> `Fail
          | `Ok clamps -> (
            match f.f_plan ~table ~lo ~hi with
            | `Fail -> `Fail
            | `Nothing ->
              (* the directory moved under the read (a new epoch):
                 nothing to fetch; the retry re-plans *)
              `Ok clamps
            | `Clamps cs -> `Ok (List.rev_append cs clamps)))
        (`Ok []) ranges
    in
    match planned with
    | `Fail -> k ~ok:false
    | `Ok [] -> k ~ok:true
    | `Ok clamps ->
      let waiter = { w_remaining = List.length clamps; w_failed = false; w_k = k } in
      List.iter
        (fun (table, flo, fhi, cands) ->
          let key = (table, flo, fhi) in
          match Hashtbl.find_opt f.f_inflight key with
          | Some fl ->
            (* single-flight: share the wire fetch already under way *)
            Obs.Counter.incr f.m_coalesced;
            fl.fl_waiters <- waiter :: fl.fl_waiters
          | None ->
            let fl = { fl_key = key; fl_cands = cands; fl_waiters = [ waiter ]; fl_log = [] } in
            Hashtbl.replace f.f_inflight key fl;
            Obs.Gauge.set f.m_inflight (Hashtbl.length f.f_inflight);
            issue f fl)
        (List.rev clamps)
end

(* seconds between a follower's directory polls *)
let poll_every = 1.0

let attach ~node ~self_addr ~check_every ?seed dir =
  let engine = Node.engine node in
  let obs = Server.obs engine in
  let out = Node.out node in
  let m_sub_lost = Obs.counter obs "peer.sub.lost" in
  (* live subscriptions this server believes it holds: exactly the
     (table, clamp) ranges whose Fetch was granted, keyed to the server
     that granted them. The healing heartbeat audits this against that
     server's own Sub_check answer. *)
  let tracked : (string * string * string, string) Hashtbl.t = Hashtbl.create 16 in
  (* the directory entries in force and the epoch they reflect: 0 until
     a follower first syncs *)
  let entries = ref [] in
  let applied = ref 0 in
  let plan ~table ~lo ~hi =
    Directory.plan ~self:self_addr
      ~outputs:(List.map Joinspec.output_table (Server.joins engine))
      !entries ~table ~lo ~hi
  in
  let candidates = Directory.candidates ~self:self_addr in
  (* The resolver never fetches: a remote miss answers [Deferred]. Inside
     a collect-mode scan the server parks the read and the fetcher issues
     the whole missing set as one burst; an eager-check updater that
     meets it gives its cover up, and the next read recomputes it and
     parks. *)
  let resolve ~table ~lo ~hi =
    if !applied = 0 then
      (* no directory yet: resolving [Local] here would mark the range
         present and freeze it empty; defer until the first epoch *)
      Server.Deferred
    else
      match plan ~table ~lo ~hi with
      | `Unrouted | `Fetch [] -> Server.Local
      | `Gap ->
        (* surface the misconfiguration instead of serving the gap as
           present-and-empty: the read reports the range missing *)
        Log.warn (fun m ->
            m "partition routes leave a gap inside %s[%s,%s); check the partition specs"
              table lo hi);
        Server.Deferred
      | `Fetch _ -> Server.Deferred
  in
  (* A server that has synced and whose entries are all its own needs no
     resolver, and keeping it off leaves its tables ungoverned — the
     authority for every stamp a session can hold, like a lone server.
     Once needed (a follower not yet synced, a remote range) it stays. *)
  let resolving = ref false in
  let govern () =
    let remote (e : Message.dir_entry) = not (String.equal e.de_home self_addr) in
    if (not !resolving) && (!applied = 0 || List.exists remote !entries) then begin
      resolving := true;
      Server.set_resolver engine resolve
    end
  in
  let fetcher =
    Fetcher.create ~out ~engine ~self_addr ~tracked ~plan:(fun ~table ~lo ~hi ->
        if !applied = 0 then `Fail
        else
          match plan ~table ~lo ~hi with
          | `Unrouted | `Fetch [] -> `Nothing
          | `Gap -> `Fail
          | `Fetch clamps ->
            `Clamps (List.map (fun (e, flo, fhi) -> (table, flo, fhi, candidates e)) clamps))
  in
  (* replica duty waiting to be established: ranges this server
     replicates but has not fetch+subscribed yet. Retried every second
     until a candidate answers. *)
  let warm_pending = ref [] in
  let warm_replicas () =
    List.iter
      (fun ((table, lo, hi) as range) ->
        Fetcher.request fetcher [ range ] (fun ~ok ->
            if ok && List.mem range !warm_pending then begin
              warm_pending := List.filter (fun r -> r <> range) !warm_pending;
              Log.info (fun m -> m "replicating %s[%s,%s)" table lo hi)
            end))
      !warm_pending
  in
  (* owned ranges; a local wildcard slice has no concrete table to
     mark — it resolves as `Fetch with no remote clamps, i.e. Local *)
  let owned_of es =
    List.filter_map
      (fun (e : Message.dir_entry) ->
        if String.equal e.de_home self_addr && not (Directory.is_wildcard e) then
          Some (e.de_table, e.de_lo, e.de_hi)
        else None)
      es
  in
  (* Bring this server in line with the directory's [new_entries]:
     adjust owned presence by diff, drop subscriptions whose granting
     server the entries no longer name for the range, and warm any range
     this server now replicates. *)
  let apply ~epoch new_entries =
    let old_owned = owned_of !entries in
    let new_owned = owned_of new_entries in
    (* unmark before marking: a range that shrank (a migration moved
       part of it) is unmarked whole, and the part still owned is
       marked again *)
    List.iter
      (fun ((table, lo, hi) as k) ->
        if not (List.mem k new_owned) then Server.unmark_present engine ~table ~lo ~hi)
      old_owned;
    List.iter
      (fun ((table, lo, hi) as k) ->
        if not (List.mem k old_owned) then Server.mark_present engine ~table ~lo ~hi)
      new_owned;
    entries := new_entries;
    applied := epoch;
    govern ();
    Log.info (fun m ->
        m "directory epoch %d applied: %d entries, %d owned" epoch (List.length new_entries)
          (List.length new_owned));
    let stale =
      Hashtbl.fold
        (fun ((table, lo, hi) as key) addr acc ->
          match plan ~table ~lo ~hi with
          | `Fetch clamps
            when List.exists (fun (e, _, _) -> List.mem addr (candidates e)) clamps ->
            acc
          | _ -> key :: acc)
        tracked []
    in
    List.iter
      (fun ((table, lo, hi) as key) ->
        Hashtbl.remove tracked key;
        (* the data moved out from under the subscription: forget the
           presence; the next read refetches from the current home *)
        Server.unmark_present engine ~table ~lo ~hi)
      stale;
    (* replica duty: a fetch+subscribe feeds the copy in (base-table
       scans never resolve on their own) *)
    warm_pending :=
      List.filter_map
        (fun (e : Message.dir_entry) ->
          if
            List.mem self_addr e.de_replicas
            && not (Hashtbl.mem tracked (e.de_table, e.de_lo, e.de_hi))
          then Some (e.de_table, e.de_lo, e.de_hi)
          else None)
        new_entries;
    warm_replicas ()
  in
  let m_dir_fetch = Obs.counter obs "dir.fetch" in
  let m_epoch = Obs.gauge obs "dir.epoch" in
  (* apply the local copy's epoch if it moved — a poll, a pushed
     [Dir_update] or a migration flip installed it *)
  let sync () =
    let epoch = Directory.epoch dir in
    if epoch > !applied then begin
      apply ~epoch (Directory.entries dir);
      Obs.Gauge.set m_epoch epoch
    end
  in
  (* poll the seed for a newer directory: rate-limited, one at a time *)
  let poll =
    match seed with
    | None -> fun _ -> () (* installs land in [dir] directly *)
    | Some seed_addr ->
      (* the first tick polls at once *)
      let last_poll = ref neg_infinity and polling = ref false in
      fun now ->
        if (not !polling) && now -. !last_poll >= poll_every then begin
          last_poll := now;
          polling := true;
          out.call Peer.Prompt seed_addr (Message.Dir_watch { epoch = Directory.epoch dir })
            (fun reply ->
              polling := false;
              match reply with
              | Ok (Message.Dir_state { epoch; entries }) -> (
                Obs.Counter.incr m_dir_fetch;
                (* a migration flip pushed to this server can race the
                   poll: an answer at-or-below the installed epoch is
                   just old news; a newer one applies at once *)
                if epoch > Directory.epoch dir then
                  match Directory.install dir ~epoch ~entries with
                  | Ok () -> sync ()
                  | Error msg -> Log.warn (fun m -> m "directory from seed rejected: %s" msg))
              | Ok Message.Done -> Obs.Counter.incr m_dir_fetch (* unchanged *)
              | Ok (Message.Error msg) ->
                Log.warn (fun m -> m "seed %s refused Dir_watch: %s" seed_addr msg)
              | Ok _ -> ()
              | Error msg -> Log.debug (fun m -> m "seed %s unreachable: %s" seed_addr msg))
        end
  in
  (* a range the heartbeat found dropped: re-plan it against the current
     directory and refetch it ([feed_base] reconciles the data, the
     [Fetch] re-subscribes); a range no candidate answers is un-marked
     present so the next read goes back through the resolver *)
  let refetch ((table, lo, hi) as range) =
    Fetcher.request fetcher [ range ] (fun ~ok ->
        if not ok then Server.unmark_present engine ~table ~lo ~hi)
  in
  (* The healing heartbeat: every [check_every] seconds ask each server
     we hold subscriptions from which of them it still pushes, and
     refetch every range it dropped (a failed push, a restart, a
     migration). Without this, a dropped subscription would freeze the
     fetched copy forever with no error. *)
  let last_check = ref neg_infinity in
  let checking = ref 0 in
  let heal now =
    if
      Hashtbl.length tracked > 0 && !checking = 0 && now -. !last_check >= check_every
    then begin
      last_check := now;
      let by_addr = Hashtbl.create 4 in
      Hashtbl.iter
        (fun key addr ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt by_addr addr) in
          Hashtbl.replace by_addr addr (key :: prev))
        tracked;
      Hashtbl.iter
        (fun addr keys ->
          incr checking;
          out.call Peer.Prompt addr (Message.Sub_check { subscriber = self_addr })
            (fun reply ->
              decr checking;
              match reply with
              | Ok (Message.Sub_ranges live) ->
                (* hash the answer: a compute tracks one range per fetched
                   timeline piece, so [keys] and [live] both grow with the
                   working set and a List.mem join is quadratic *)
                let live_set = Hashtbl.create (1 + List.length live) in
                List.iter (fun k -> Hashtbl.replace live_set k ()) live;
                List.iter
                  (fun ((table, lo, hi) as key) ->
                    if
                      (not (Hashtbl.mem live_set key))
                      && Hashtbl.find_opt tracked key = Some addr
                    then begin
                      Obs.Counter.force_add m_sub_lost 1;
                      Log.warn (fun m ->
                          m "subscription %s[%s,%s) lost at %s; refetching" table lo hi addr);
                      Hashtbl.remove tracked key;
                      refetch key
                    end)
                  keys
              | _ ->
                (* unreachable: reads surface it; the next heartbeat
                   retries once it returns *)
                ()))
        by_addr
    end
  in
  let last_warm = ref neg_infinity in
  let tick () =
    let now = (Server.config engine).Config.now () in
    poll now;
    sync ();
    if !warm_pending <> [] && now -. !last_warm >= 1.0 then begin
      last_warm := now;
      warm_replicas ()
    end;
    heal now
  in
  (* the first tick runs now: a follower's first poll leaves before
     its owner first waits *)
  tick ();
  govern ();
  Node.set_directory node ?seed ~dir ~self_addr ~fetcher:(Fetcher.request fetcher)
    ~on_push:(Fetcher.on_push fetcher) ~tick ()
