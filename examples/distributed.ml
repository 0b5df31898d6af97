(* Distributed Pequod (§2.4) on the shipped request cores, wired through
   the in-memory hub: base data lives on home servers; compute servers
   fetch missing ranges, get subscriptions installed, and then receive
   pushed updates — eventually consistent.

   Run with: dune exec examples/distributed.exe *)

module Hub = Pequod_hub.Hub
module Node = Pequod_server_lib.Node
module Directory = Pequod_server_lib.Directory
module Server = Pequod_core.Server
module Message = Pequod_proto.Message

let () =
  (* cores 0 and 1 are homes (users before "c" at 0, the rest at 1),
     cores 2 and 3 are computes *)
  let clock = ref 0.0 in
  let hub =
    Hub.cluster ~clock ~homes:2 ~computes:2 ~cuts:[ "c" ]
      ~joins:[ "t|<user>|<time>|<poster> = check s|<user>|<poster> copy p|<poster>|<time>" ]
  in
  let entries = Node.entries hub.Hub.nodes.(0) in
  (* writes go to their home servers *)
  let put key value =
    let home = Option.get (Directory.write_home entries ~self:"" ~key) in
    ignore (Hub.call hub (int_of_string home) (Put (key, value)))
  in
  let fetches () =
    Server.counter (Node.engine hub.Hub.nodes.(0)) "peer.fetch.in"
    + Server.counter (Node.engine hub.Hub.nodes.(1)) "peer.fetch.in"
  in
  let timeline what =
    match Hub.call hub 2 (Scan { lo = "t|ann|"; hi = Strkey.prefix_upper "t|ann|" }) with
    | Message.Pairs pairs ->
      Printf.printf "[t=%.3fs] %s (%d fetches so far):\n" !clock what (fetches ());
      List.iter (fun (k, v) -> Printf.printf "  %-28s -> %s\n" k v) pairs;
      pairs
    | _ -> failwith "the scan failed"
  in
  put "s|ann|bob" "1";
  put "s|ann|liz" "1";
  put "p|bob|0000000100" "hello from bob";
  put "p|liz|0000000110" "liz checking in";
  Printf.printf "cluster: 2 home servers, 2 compute servers; reads go to core 2\n\n";

  (* first timeline check: the compute fetches base ranges from both
     homes and subscribes to them *)
  ignore (timeline "first check of ann's timeline, assembled across both homes");

  (* a new post is pushed to the subscribed compute: no new fetch *)
  let before = fetches () in
  put "p|bob|0000000150" "pushed through the subscription";
  let pairs = timeline "after bob posts again" in
  let refetched = fetches () - before in
  Printf.printf "new fetches for the pushed post: %d\n" refetched;

  let links = Hub.links hub in
  Printf.printf "\ninter-server traffic: %d bytes in %d messages over %d links\n"
    (List.fold_left (fun acc l -> acc + l.Hub.bytes) 0 links)
    (List.fold_left (fun acc l -> acc + l.Hub.msgs) 0 links)
    (List.length links);
  (* the demo's point: the new post reached the compute by push alone *)
  if refetched <> 0 || not (List.mem_assoc "t|ann|0000000150|bob" pairs) then begin
    prerr_endline "FAIL: the pushed post did not arrive through the subscription alone";
    exit 1
  end
