(* Typed blocking client: a private Poller and Peer pool, driven until
   every answer is in. See net_client.mli. *)

module Message = Pequod_proto.Message

exception Net_error of string

type config = { connect_timeout : float; call_timeout : float }

let default_config = { connect_timeout = 5.0; call_timeout = 10.0 }

type pool = { poller : Poller.t; peer : Peer.t }

type t = {
  addr : string;
  config : config;
  obs : Obs.t;
  mutable pool : pool option; (* None until the next call dials *)
  m_timeouts : Obs.Counter.t; (* net.client.timeouts *)
}

let create ?obs ?(config = default_config) addr =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  { addr; config; obs; pool = None; m_timeouts = Obs.counter obs "net.client.timeouts" }

let close t =
  Option.iter (fun p -> t.pool <- None; Peer.close p.peer; Poller.close p.poller) t.pool

(* a failed exchange drops the pool, so the next call dials at once
   rather than sitting out Peer's backoff *)
let fail t why =
  close t;
  raise (Net_error why)

(* Send [reqs] in one flush and drive the pool until each has its
   answer. Each answer opens a fresh [timeout] window: a long pipeline
   is not punished for the server draining it serially. *)
let exchange t p ~timeout reqs =
  let slots = Array.make (List.length reqs) None in
  let pending = ref (Array.length slots) in
  List.iteri
    (fun i req ->
      Peer.call p.peer Prompt t.addr req (fun r ->
          slots.(i) <- Some r;
          decr pending))
    reqs;
  Peer.flush p.peer;
  let deadline = ref (Unix.gettimeofday () +. timeout) in
  while !pending > 0 do
    let left = !deadline -. Unix.gettimeofday () in
    if left <= 0. then begin
      Obs.Counter.force_add t.m_timeouts 1;
      fail t "request timed out"
    end;
    let before = !pending in
    List.iter
      (fun (fd, readable, writable) -> ignore (Peer.ready p.peer fd ~readable ~writable))
      (Poller.wait p.poller ~timeout:left);
    if !pending < before then deadline := Unix.gettimeofday () +. timeout
  done;
  Array.to_list slots
  |> List.map (function
       | Some (Ok resp) -> resp
       | Some (Error why) -> fail t why
       | None -> assert false)

(* the pool, dialled and handshaken if this is a new connection; a
   version mismatch is permanent, so it raises at once *)
let pool t =
  match t.pool with
  | Some p -> p
  | None -> (
    let poller = Poller.create () in
    let p = { poller; peer = Peer.create ~poller ~obs:t.obs ~on_lost:ignore } in
    t.pool <- Some p;
    let refused msg = fail t (Printf.sprintf "handshake with %s failed: %s" t.addr msg) in
    match
      exchange t p ~timeout:t.config.connect_timeout
        [ Message.Hello { version = Message.protocol_version } ]
    with
    | [ Message.Welcome { version } ] when version = Message.protocol_version -> p
    | [ Message.Welcome { version } ] ->
      refused
        (Printf.sprintf "server speaks protocol v%d, this client v%d" version
           Message.protocol_version)
    | [ Message.Error msg ] -> refused msg
    | _ -> refused "unexpected handshake response")

let pipeline t reqs =
  if List.exists Message.is_oneway reqs then
    invalid_arg "Net_client: one-way request (not answered)";
  exchange t (pool t) ~timeout:t.config.call_timeout reqs

let call t req = List.hd (pipeline t [ req ])
