(** An in-memory network for request cores ({!Node}) under a seeded
    scheduler: the stand-in for sockets and the {!Peer} pool that the
    fuzzer, the Fig 10 bench and the distributed example run the shipped
    cores through. Cores are addressed ["0"] .. ["n-1"].

    Each (sender, receiver, lane) is one link that keeps the wire's
    guarantees: requests arrive in the order sent, posts ride [Prompt],
    answers return in request order (as response slots release them),
    and a call to an unknown address answers [Error] at once. A post
    that [lose] drops is reported to the sender's
    {!Node.drop_subscriber}, as the pool's [on_lost] does. Every link
    counts the messages it carried and their encoded bytes; client
    requests ({!request}) and their answers are counted apart.

    Each {!step} delivers the head of one nonempty queue, picked by the
    RNG among the queues that hold something, then advances the clock by
    1 ms and pumps ({!Node.pump}) the core it delivered to, every core a
    client request reached, and every core whose {!Node.max_wait} has
    elapsed since its last pump: at most 1 s, the cap [Net_server]'s
    loop waits. *)

module Node = Pequod_server_lib.Node
module Peer = Pequod_server_lib.Peer
module Remote = Pequod_server_lib.Remote
module Directory = Pequod_server_lib.Directory
module Server = Pequod_core.Server
module Config = Pequod_core.Config
module Message = Pequod_proto.Message

(* deliveries in order to one core; [at] is its index in [t.ready]
   while it holds any, else -1 *)
type queue = { q : (unit -> unit) Queue.t; core : int; mutable at : int }

type link = {
  name : string; (* "src->dst lane", for reports *)
  reqs : queue; (* sent, not yet delivered *)
  (* delivered calls in request order: the answer once produced, and the
     caller's continuation *)
  slots : (Message.response option ref * (Peer.reply -> unit)) Queue.t;
  resps : queue; (* answers on their way back *)
  conn : Node.conn; (* the receiver's view of this connection *)
  mutable msgs : int; (* requests, posts and answers carried *)
  mutable bytes : int; (* their encoded size *)
}

type t = {
  mutable nodes : Node.t array;
  links : (int * int * Peer.lane, link) Hashtbl.t;
  mutable order : link list; (* newest first *)
  mutable ready : queue array; (* the nonempty queues, first [nready] *)
  mutable nready : int;
  due : bool array; (* pump at the next step *)
  last_pump : float array;
  handled : int array; (* messages and client requests each core took *)
  mutable unanswered : int; (* delivered calls not yet answered *)
  mutable client_bytes : int; (* client requests and their answers *)
  clock : float ref;
  mutable rng : Rng.t;
  mutable lose : Message.request -> bool;
}

let queue core = { q = Queue.create (); core; at = -1 }

let push t qu f =
  if qu.at < 0 then begin
    if t.nready = Array.length t.ready then
      t.ready <- Array.append t.ready (Array.make (max 8 t.nready) qu);
    t.ready.(t.nready) <- qu;
    qu.at <- t.nready;
    t.nready <- t.nready + 1
  end;
  Queue.add f qu.q

(* the head of [qu]; an emptied queue leaves [ready], its slot taken by
   the last one *)
let pop t qu =
  let f = Queue.pop qu.q in
  if Queue.is_empty qu.q then begin
    let last = t.ready.(t.nready - 1) in
    t.ready.(qu.at) <- last;
    last.at <- qu.at;
    qu.at <- -1;
    t.nready <- t.nready - 1
  end;
  f

let carried l size =
  l.msgs <- l.msgs + 1;
  l.bytes <- l.bytes + size

let link t src dst lane =
  match Hashtbl.find_opt t.links (src, dst, lane) with
  | Some l -> l
  | None ->
    let l =
      { name =
          Printf.sprintf "%d->%d %s" src dst (if lane = Peer.Prompt then "prompt" else "parked");
        reqs = queue dst; slots = Queue.create (); resps = queue src;
        conn = { Node.injected = false; alive = true }; msgs = 0; bytes = 0 }
    in
    Hashtbl.add t.links (src, dst, lane) l;
    t.order <- l :: t.order;
    l

(* answers leave in request order: only the answered prefix moves *)
let rec release t l =
  match Queue.peek_opt l.slots with
  | Some ({ contents = Some resp }, k) ->
    ignore (Queue.pop l.slots);
    t.unanswered <- t.unanswered - 1;
    carried l (String.length (Message.encode_response resp));
    push t l.resps (fun () -> k (Ok resp));
    release t l
  | _ -> ()

let send t src dst lane req deliver =
  let l = link t src dst lane in
  carried l (String.length (Message.encode_request req));
  push t l.reqs (fun () -> deliver l)

(** Core [src]'s outbound record. *)
let outbound t src =
  let index addr =
    Option.bind (int_of_string_opt addr) (fun i ->
        if i >= 0 && i < Array.length t.nodes then Some i else None)
  in
  { Peer.call =
      (fun lane addr req k ->
        match index addr with
        | None -> k (Error ("unreachable: unknown address " ^ addr))
        | Some dst ->
          send t src dst lane req (fun l ->
              let slot = ref None in
              Queue.add (slot, k) l.slots;
              t.unanswered <- t.unanswered + 1;
              Node.handle t.nodes.(dst) l.conn req (fun resp ->
                  slot := Some resp;
                  release t l)));
    post =
      (fun addr req ->
        match index addr with
        | Some dst when not (t.lose req) ->
          send t src dst Peer.Prompt req (fun _ -> Node.apply_oneway t.nodes.(dst) req)
        | _ -> Node.drop_subscriber t.nodes.(src) addr) }

(** Request cores over [engines], their timers reading [clock]. *)
let create ~clock engines =
  let n = Array.length engines in
  let t =
    { nodes = [||]; links = Hashtbl.create 16; order = []; ready = [||]; nready = 0;
      due = Array.make n false; last_pump = Array.make n !clock; handled = Array.make n 0;
      unanswered = 0; client_bytes = 0; clock; rng = Rng.create 0;
      lose = (fun _ -> false) }
  in
  t.nodes <- Array.mapi (fun i eng -> Node.create ~out:(outbound t i) eng) engines;
  t

(** A client's request to core [i]; the ref holds its answer once one
    is produced. *)
let request t ?(injected = false) i req =
  let answer = ref None in
  let counted size = t.client_bytes <- t.client_bytes + size in
  counted (String.length (Message.encode_request req));
  t.handled.(i) <- t.handled.(i) + 1;
  t.due.(i) <- true;
  Node.handle t.nodes.(i) { Node.injected; alive = true } req (fun resp ->
      counted (String.length (Message.encode_response resp));
      answer := Some resp);
  answer

(** One scheduler step (see the module header). *)
let step t =
  if t.nready > 0 then begin
    let qu = t.ready.(Rng.int t.rng t.nready) in
    let deliver = pop t qu in
    t.handled.(qu.core) <- t.handled.(qu.core) + 1;
    t.due.(qu.core) <- true;
    deliver ()
  end;
  t.clock := !(t.clock) +. 0.001;
  let now = !(t.clock) in
  Array.iteri
    (fun i node ->
      if t.due.(i) || now -. t.last_pump.(i) >= Node.max_wait node 1.0 then begin
        t.due.(i) <- false;
        t.last_pump.(i) <- now;
        Node.pump node
      end)
    t.nodes

(** Step until [cond ()] holds, at most [budget] steps; [false] if not. *)
let run t ~budget cond =
  let rec go n = cond () || (n < budget && (step t; go (n + 1))) in
  go 0

(** Nothing in flight: no message queued, no call unanswered, no core
    owed a pump. *)
let idle t =
  t.nready = 0 && t.unanswered = 0 && not (Array.mem true t.due)

(** The links that carried anything, oldest first. *)
let links t = List.rev t.order

(** Zero every traffic count. *)
let reset_counts t =
  List.iter (fun l -> l.msgs <- 0; l.bytes <- 0) t.order;
  Array.fill t.handled 0 (Array.length t.handled) 0;
  t.client_bytes <- 0

(** The nonempty queues, for a failure report. *)
let queues t =
  links t
  |> List.filter_map (fun l ->
         let r = Queue.length l.reqs.q and s = Queue.length l.slots in
         let a = Queue.length l.resps.q in
         if r + s + a = 0 then None
         else Some (Printf.sprintf "%s: %d sent, %d unanswered, %d answers" l.name r s a))
  |> function [] -> "all queues empty" | qs -> String.concat "; " qs

(** [--partition] specs cutting each of [tables] at the key components
    [cuts] (ascending) into contiguous pieces, homed in order at [homes]
    (one address more than [cuts]). *)
let cut_specs ~tables ~cuts ~homes =
  let los = "|" :: List.map (( ^ ) "|") cuts in
  let pieces = List.combine (List.combine los (List.tl los @ [ "}" ])) homes in
  List.concat_map
    (fun tb ->
      List.map (fun ((lo, hi), home) -> Printf.sprintf "%s:%s%s:%s%s@%s" tb tb lo tb hi home)
        pieces)
    tables

(** [homes] home cores, then [computes] compute cores, over fresh
    engines whose clock is [clock]. The timeline join's base tables [s]
    and [p] are cut at the key components [cuts] ([homes - 1] of them)
    and homed at cores 0, 1, ... in order ({!cut_specs}). Every core
    routes by that fixed directory, and the computes install [joins]. *)
let cluster ~clock ~homes ~computes ~cuts ~joins =
  let config = Config.default () in
  config.Config.now <- (fun () -> !clock);
  let engines = Array.init (homes + computes) (fun _ -> Server.create ~config ()) in
  let ok = function Ok x -> x | Error msg -> invalid_arg ("Hub.cluster: " ^ msg) in
  let specs = cut_specs ~tables:[ "s"; "p" ] ~cuts ~homes:(List.init homes string_of_int) in
  let entries = ok (Remote.entries_of_specs ~self_addr:"" specs) in
  let t = create ~clock engines in
  Array.iteri
    (fun i node ->
      let dir = Directory.create () in
      ok (Directory.install dir ~epoch:1 ~entries);
      (* the directory never moves and no post is lost, so no
         subscription needs healing: the heartbeat checks once, never
         again, and adds no traffic to the counts *)
      Remote.attach ~node ~self_addr:(string_of_int i) ~check_every:infinity dir;
      if i >= homes then List.iter (Server.add_join_exn (Node.engine node)) joins)
    t.nodes;
  t

(** Core [i]'s answer to [req], stepping until it is produced, then
    until nothing is in flight; fails after 100,000 steps. *)
let call t i req =
  let answer = request t i req in
  if not (run t ~budget:100_000 (fun () -> Option.is_some !answer && idle t)) then
    failwith ("Hub.call: no answer or no quiet (" ^ queues t ^ ")");
  Option.get !answer
