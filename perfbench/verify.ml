(** End-of-run correctness check.

    For a seeded sample of users, the timeline the compute serves must
    equal the timeline recomputed from the home's base rows: one
    [t|u|time|poster] pair per subscription [s|u|poster] and post
    [p|poster|time], carrying the post's value. Pushes still in flight
    when the load stops are allowed to land: a mismatching timeline is
    rescanned a few times before it counts. *)

module Graph = Pequod_apps.Social_graph
module Message = Pequod_proto.Message
module Net_client = Pequod_server_lib.Net_client

let scan client lo hi =
  match Net_client.call client (Message.Scan { lo; hi }) with
  | Message.Pairs pairs -> pairs
  | Message.Error msg -> failwith ("check scan failed: " ^ msg)
  | _ -> failwith "check scan: unexpected answer"

let suffix ~prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix)

(** The timeline of [user] as the join defines it, from the home. *)
let expected_timeline home user =
  let s_prefix = "s|" ^ user ^ "|" in
  let posters = List.map (fun (k, _) -> suffix ~prefix:s_prefix k) (scan home s_prefix ("s|" ^ user ^ "}")) in
  let reqs = List.map (fun p -> Message.Scan { lo = "p|" ^ p ^ "|"; hi = "p|" ^ p ^ "}" }) posters in
  let answers = if reqs = [] then [] else Net_client.pipeline home reqs in
  List.concat
    (List.map2
       (fun poster answer ->
         match answer with
         | Message.Pairs posts ->
           List.map
             (fun (k, v) ->
               let time = suffix ~prefix:("p|" ^ poster ^ "|") k in
               (Printf.sprintf "t|%s|%s|%s" user time poster, v))
             posts
         | _ -> failwith "check: post scan failed")
       posters answers)
  |> List.sort compare

(** Check [sample] seeded users; [Error] names the first timeline that
    still differs after the retries. *)
let run ~seed ~graph ~home_addr ~compute_addr ~sample =
  let home = Cluster.client_of home_addr and compute = Cluster.client_of compute_addr in
  Fun.protect
    ~finally:(fun () ->
      Net_client.close home;
      Net_client.close compute)
    (fun () ->
      let rng = Rng.stream ~seed ~index:2 in
      let nusers = Graph.nusers graph in
      let rec check_user user tries =
        let want = expected_timeline home user in
        let got = scan compute ("t|" ^ user ^ "|") ("t|" ^ user ^ "}") in
        if want = got then Ok ()
        else if tries = 0 then
          Error
            (Printf.sprintf "timeline of %s: compute has %d pairs, home rows imply %d" user
               (List.length got) (List.length want))
        else begin
          Unix.sleepf 0.05;
          check_user user (tries - 1)
        end
      in
      let rec loop i =
        if i = sample then Ok sample
        else
          match check_user (Graph.user_name (Rng.int rng nusers)) 20 with
          | Ok () -> loop (i + 1)
          | Error _ as e -> e
      in
      loop 0)
