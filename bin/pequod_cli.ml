(* pequod-cli: command-line client for a running pequod-server.

   Keyed commands (get / put / remove / scan / load) speak through a
   {!Session}: write acks fold their stamp vector into the session and
   are printed for handoff; reads can demand a vector back with
   repeatable --at-least flags (read-your-writes across invocations):

     pequod_cli.exe put 'p|bob|0000000100' 'hello'
       ok
       stamp p	[p|bob|0000000100,p|bob|0000000100\x00)	7
     pequod_cli.exe --at-least 'p,p|bob|,p|bob},7' scan 't|ann|' 't|ann}'

   With --directory HOST:PORT the CLI asks the partition directory who
   owns the command's key and connects there — the same routing surface
   servers use, following live migrations instead of a hardwired --host.

   Other examples:
     pequod_cli.exe scan 't|ann|' 't|ann}'
     pequod_cli.exe add-join 't|<u>|<t>|<p> = check s|<u>|<p> copy p|<p>|<t>'
     pequod_cli.exe stats        # or: pequod_cli.exe --stats
*)

module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client
module Session = Pequod_server_lib.Session
module Directory = Pequod_server_lib.Directory

let print_stamps stamps =
  List.iter
    (fun (table, lo, hi, s) -> Printf.printf "stamp %s\t[%s,%s)\t%d\n" table lo hi s)
    stamps

(* [Stale] is a retryable, typed condition, not a generic failure:
   give scripts a distinct status (generic errors exit 1, usage 124+) *)
let stale_exit_code = 4

let stale_exit unmet =
  List.iter
    (fun (table, lo, hi, s) ->
      Printf.eprintf "stale: %s [%s,%s) still below %d\n" table lo hi s)
    unmet;
  exit stale_exit_code

(* all traffic goes through the typed client: connection management,
   the protocol handshake and timeouts live there, not here *)
let with_client addr f =
  let client = Net_client.create addr in
  Fun.protect
    ~finally:(fun () -> Net_client.close client)
    (fun () ->
      try f client
      with Net_client.Net_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1)

(* --directory: ask the partition directory who owns [key] and connect
   there, by the same lookup servers route with. Falls back to
   --host/--port when no entry covers the key. *)
let resolve_home ~host ~port directory key =
  let fallback = Printf.sprintf "%s:%d" host port in
  match directory with
  | None -> fallback
  | Some addr ->
    with_client addr (fun c ->
        match Net_client.call c Message.Dir_get with
        | Message.Dir_state { epoch; entries } -> (
          let dir = Directory.create () in
          match Directory.install dir ~epoch:(max epoch 1) ~entries with
          | Ok () -> Option.value (Directory.home_of dir ~key) ~default:fallback
          | Error _ -> fallback)
        | Message.Error msg ->
          Printf.eprintf "error: directory: %s\n" msg;
          exit 1
        | _ -> fallback)

(* keyed commands run in a session: --at-least entries seed the demand
   vector, write acks grow it, and [Stale] becomes a typed failure *)
let with_session ~host ~port ~directory ~at_least ~key f =
  with_client (resolve_home ~host ~port directory key) (fun client ->
      let session = Session.create client in
      Session.with_at_least session at_least;
      try f session with Session.Stale unmet -> stale_exit unmet)

let print_response = function
  | Message.Done -> print_endline "ok"
  | Message.Value None -> print_endline "(nil)"
  | Message.Value (Some v) -> print_endline v
  | Message.Pairs pairs | Message.Subscribed { pairs; _ } ->
    List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) pairs;
    Printf.printf "(%d pairs)\n" (List.length pairs)
  | Message.Stamps stamps ->
    (* v3 write ack: the stamp vector for the written keys *)
    print_endline "ok";
    print_stamps stamps
  | Message.Stale unmet -> stale_exit unmet
  | Message.Welcome { version } -> Printf.printf "protocol v%d\n" version
  | Message.Sub_ranges ranges ->
    List.iter (fun (table, lo, hi) -> Printf.printf "%s\t%s\t%s\n" table lo hi) ranges;
    Printf.printf "(%d subscriptions)\n" (List.length ranges)
  | Message.Metrics metrics ->
    (* the full registry: histograms render their quantile summary *)
    let tbl =
      Tablefmt.create ~title:"server metrics"
        ~headers:[ "metric"; "kind"; "value"; "p50"; "p95"; "p99"; "max" ]
        ~aligns:
          [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right;
            Tablefmt.Right; Tablefmt.Right ]
    in
    List.iter
      (fun (name, v) ->
        match v with
        | Obs.Counter n ->
          Tablefmt.add_row tbl [ name; "counter"; string_of_int n; ""; ""; ""; "" ]
        | Obs.Gauge n -> Tablefmt.add_row tbl [ name; "gauge"; string_of_int n; ""; ""; ""; "" ]
        | Obs.Histogram h ->
          Tablefmt.add_row tbl
            [ name; "histogram"; string_of_int h.Obs.Histogram.count;
              string_of_int h.Obs.Histogram.p50; string_of_int h.Obs.Histogram.p95;
              string_of_int h.Obs.Histogram.p99; string_of_int h.Obs.Histogram.max ])
      metrics;
    Tablefmt.print tbl
  | Message.Dir_state { epoch; entries } ->
    Printf.printf "directory epoch %d\n" epoch;
    List.iter
      (fun (e : Message.dir_entry) ->
        Printf.printf "%s\t[%s,%s)\t%s%s\n" e.de_table e.de_lo e.de_hi e.de_home
          (match e.de_replicas with
          | [] -> ""
          | rs -> "\treplicas " ^ String.concat "," rs))
      entries
  | Message.Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

open Cmdliner

let host =
  Arg.(value & opt string "127.0.0.1" & info [ "h"; "host" ] ~docv:"HOST" ~doc:"Server host.")

let port = Arg.(value & opt int 7077 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port.")

let directory =
  Arg.(
    value
    & opt (some string) None
    & info [ "directory" ] ~docv:"HOST:PORT"
        ~doc:
          "Partition directory to consult: the command's key is routed to the home the \
           directory names, following live migrations (falls back to --host/--port when \
           no entry covers the key).")

(* TABLE,LO,HI,STAMP — the printed `stamp` lines of an earlier write,
   handed back as a freshness demand *)
let at_least_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ table; lo; hi; stamp ] -> (
      match int_of_string_opt stamp with
      | Some n when n > 0 -> Ok (table, lo, hi, n)
      | _ -> Error (`Msg ("bad stamp in --at-least: " ^ s)))
    | _ -> Error (`Msg ("--at-least wants TABLE,LO,HI,STAMP, got: " ^ s))
  in
  let print ppf (table, lo, hi, s) = Format.fprintf ppf "%s,%s,%s,%d" table lo hi s in
  Arg.conv (parse, print)

let at_least =
  Arg.(
    value
    & opt_all at_least_conv []
    & info [ "at-least" ] ~docv:"TABLE,LO,HI,STAMP"
        ~doc:
          "Demand the server's copy of [LO,HI) in TABLE be at version STAMP or newer \
           before answering (repeatable). Pass the $(b,stamp) lines an earlier write \
           printed; the read waits, refetches, or fails $(b,stale) — it never silently \
           answers older data.")

let run_command host port req =
  with_client (Printf.sprintf "%s:%d" host port) (fun client ->
      print_response (Net_client.call client req));
  0

let key_arg n doc = Arg.(required & pos n (some string) None & info [] ~docv:"KEY" ~doc)

let get_cmd =
  Cmd.v (Cmd.info "get" ~doc:"Fetch one key (computing joins if needed)")
    Term.(
      const (fun host port directory at_least key ->
          with_session ~host ~port ~directory ~at_least ~key (fun session ->
              match Session.get session key with
              | None -> print_endline "(nil)"
              | Some v -> print_endline v);
          0)
      $ host $ port $ directory $ at_least $ key_arg 0 "Key to fetch.")

let put_cmd =
  Cmd.v (Cmd.info "put" ~doc:"Store a key-value pair")
    Term.(
      const (fun host port directory key value ->
          with_session ~host ~port ~directory ~at_least:[] ~key (fun session ->
              Session.put session key value;
              print_endline "ok";
              print_stamps (Session.stamp session));
          0)
      $ host $ port $ directory $ key_arg 0 "Key to store."
      $ Arg.(required & pos 1 (some string) None & info [] ~docv:"VALUE" ~doc:"Value."))

let remove_cmd =
  Cmd.v (Cmd.info "remove" ~doc:"Remove a key")
    Term.(
      const (fun host port directory key ->
          with_session ~host ~port ~directory ~at_least:[] ~key (fun session ->
              Session.remove session key;
              print_endline "ok";
              print_stamps (Session.stamp session));
          0)
      $ host $ port $ directory $ key_arg 0 "Key to remove.")

let scan_cmd =
  Cmd.v (Cmd.info "scan" ~doc:"Ordered scan of [LO, HI)")
    Term.(
      const (fun host port directory at_least lo hi ->
          with_session ~host ~port ~directory ~at_least ~key:lo (fun session ->
              let pairs = Session.scan session ~lo ~hi in
              List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) pairs;
              Printf.printf "(%d pairs)\n" (List.length pairs));
          0)
      $ host $ port $ directory $ at_least
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"LO" ~doc:"Range start.")
      $ Arg.(required & pos 1 (some string) None & info [] ~docv:"HI" ~doc:"Range end (exclusive)."))

let add_join_cmd =
  Cmd.v (Cmd.info "add-join" ~doc:"Install a cache join")
    Term.(
      const (fun host port text -> run_command host port (Message.Add_join text))
      $ host $ port
      $ Arg.(required & pos 0 (some string) None & info [] ~docv:"JOIN" ~doc:"Join text."))

let stats_cmd =
  Cmd.v (Cmd.info "stats" ~doc:"Full server metrics registry (counters, gauges, histograms)")
    Term.(const (fun host port -> run_command host port Message.Stats_full) $ host $ port)

(* Bulk load: KEY<TAB>VALUE lines, framed as Put_batch chunks so the
   server pays its per-batch costs (sort, stab, fsync) once per chunk
   instead of once per key. The final stamp vector covers every chunk —
   hand it to a later stamped read to observe the whole load. *)
let run_load host port directory path batch =
  if batch < 1 then begin
    prerr_endline "pequod-cli: --batch must be at least 1";
    exit 2
  end;
  let ic = if path = "-" then stdin else open_in path in
  Fun.protect
    ~finally:(fun () -> if path <> "-" then close_in ic)
    (fun () ->
      with_session ~host ~port ~directory ~at_least:[] ~key:"" (fun session ->
          let total = ref 0 and batches = ref 0 in
          let send = function
            | [] -> ()
            | rev_pairs ->
              let pairs = List.rev rev_pairs in
              Session.put_batch session pairs;
              total := !total + List.length pairs;
              incr batches
          in
          let pending = ref [] and n = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if line <> "" then
                 match String.index_opt line '\t' with
                 | None -> Printf.eprintf "skipping line without a TAB: %s\n" line
                 | Some i ->
                   let key = String.sub line 0 i in
                   let value = String.sub line (i + 1) (String.length line - i - 1) in
                   pending := (key, value) :: !pending;
                   incr n;
                   if !n >= batch then begin
                     send !pending;
                     pending := [];
                     n := 0
                   end
             done
           with End_of_file -> ());
          send !pending;
          Printf.printf "loaded %d pairs in %d batches\n" !total !batches;
          print_stamps (Session.stamp session));
      0)

let batch_size =
  Arg.(
    value & opt int 1000
    & info [ "batch" ] ~docv:"N" ~doc:"Pairs per Put_batch frame (default 1000).")

let load_cmd =
  Cmd.v
    (Cmd.info "load"
       ~doc:"Bulk-load KEY<TAB>VALUE lines from FILE (or stdin) using batched writes")
    Term.(
      const run_load $ host $ port $ directory
      $ Arg.(
          value & pos 0 string "-"
          & info [] ~docv:"FILE" ~doc:"Input file of KEY<TAB>VALUE lines; - reads stdin.")
      $ batch_size)

(* bare `pequod-cli --stats` and `pequod-cli --load FILE` work too, as
   shorthands for the subcommands *)
let default_term =
  Term.(
    const (fun host port directory stats load batch ->
        match load with
        | Some path -> run_load host port directory path batch
        | None ->
          if stats then run_command host port Message.Stats_full
          else begin
            prerr_endline "pequod-cli: missing command (try --help or --stats)";
            2
          end)
    $ host $ port $ directory
    $ Arg.(value & flag & info [ "stats" ] ~doc:"Print the server's full metrics registry and exit.")
    $ Arg.(
        value & opt (some string) None
        & info [ "load" ] ~docv:"FILE"
            ~doc:"Bulk-load KEY<TAB>VALUE lines from FILE (- for stdin) with batched writes.")
    $ batch_size)

let cmd =
  Cmd.group ~default:default_term
    (Cmd.info "pequod-cli" ~doc:"Client for a pequod-server")
    [ get_cmd; put_cmd; remove_cmd; scan_cmd; add_join_cmd; stats_cmd; load_cmd ]

let () = if not !Sys.interactive then exit (Cmd.eval' cmd)
