(** An in-memory network for request cores ({!Node}) under a seeded
    scheduler: the fuzzer's stand-in for sockets and the {!Peer} pool.
    Cores are addressed ["0"] .. ["n-1"]. Each (sender, receiver, lane)
    is one link that keeps the wire's guarantees: requests arrive in the
    order sent, posts ride [Prompt], answers return in request order (as
    response slots release them), and a call to an unknown address
    answers [Error] at once. A post that [lose] drops is reported to the
    sender's {!Node.drop_subscriber}, as the pool's [on_lost] does. Each
    {!step} delivers the head of one nonempty queue, picked by the RNG,
    then advances the clock by 1 ms and runs every {!Node.pump}. *)

module Node = Pequod_server_lib.Node
module Peer = Pequod_server_lib.Peer
module Message = Pequod_proto.Message

type msg = Call of Message.request * (Peer.reply -> unit) | Post of Message.request

type link = {
  name : string; (* "src->dst lane", for reports *)
  dst : int;
  reqs : msg Queue.t; (* sent, not yet delivered *)
  (* delivered calls in request order: the answer once produced, and the
     caller's continuation *)
  slots : (Message.response option ref * (Peer.reply -> unit)) Queue.t;
  resps : ((Peer.reply -> unit) * Message.response) Queue.t; (* answers on their way back *)
  conn : Node.conn; (* the receiver's view of this connection *)
}

type t = {
  mutable nodes : Node.t array;
  links : (int * int * Peer.lane, link) Hashtbl.t;
  mutable order : link list; (* newest first; picks walk it in a fixed order *)
  clock : float ref;
  mutable rng : Rng.t;
  mutable lose : Message.request -> bool;
}

let link t src dst lane =
  match Hashtbl.find_opt t.links (src, dst, lane) with
  | Some l -> l
  | None ->
    let l =
      { name =
          Printf.sprintf "%d->%d %s" src dst (if lane = Peer.Prompt then "prompt" else "parked");
        dst; reqs = Queue.create (); slots = Queue.create (); resps = Queue.create ();
        conn = { Node.injected = false; alive = true } }
    in
    Hashtbl.add t.links (src, dst, lane) l;
    t.order <- l :: t.order;
    l

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
        | Some dst -> Queue.add (Call (req, k)) (link t src dst lane).reqs);
    post =
      (fun addr req ->
        match index addr with
        | Some dst when not (t.lose req) -> Queue.add (Post req) (link t src dst Peer.Prompt).reqs
        | _ -> Node.drop_subscriber t.nodes.(src) addr) }

(** Request cores over [engines], their timers reading [clock]. *)
let create ~clock engines =
  let t =
    { nodes = [||]; links = Hashtbl.create 16; order = []; clock; rng = Rng.create 0;
      lose = (fun _ -> false) }
  in
  t.nodes <- Array.mapi (fun i eng -> Node.create ~out:(outbound t i) eng) engines;
  t

(* answers leave in request order: only the answered prefix moves *)
let rec release l =
  match Queue.peek_opt l.slots with
  | Some ({ contents = Some resp }, k) ->
    ignore (Queue.pop l.slots);
    Queue.add (k, resp) l.resps;
    release l
  | _ -> ()

let deliver t (l, answer) =
  if answer then begin
    let k, resp = Queue.pop l.resps in
    k (Ok resp)
  end
  else
    match Queue.pop l.reqs with
    | Post req -> Node.apply_oneway t.nodes.(l.dst) req
    | Call (req, k) ->
      let slot = ref None in
      Queue.add (slot, k) l.slots;
      Node.handle t.nodes.(l.dst) l.conn req (fun resp ->
          slot := Some resp;
          release l)

(** One scheduler step (see the module header). *)
let step t =
  let queued =
    List.concat_map
      (fun l ->
        (if Queue.is_empty l.reqs then [] else [ (l, false) ])
        @ if Queue.is_empty l.resps then [] else [ (l, true) ])
      t.order
  in
  if queued <> [] then deliver t (List.nth queued (Rng.int t.rng (List.length queued)));
  t.clock := !(t.clock) +. 0.001;
  Array.iter Node.pump t.nodes

(** Step until [cond ()] holds, at most [budget] steps; [false] if not. *)
let run t ~budget cond =
  let rec go n = cond () || (n < budget && (step t; go (n + 1))) in
  go 0

(** Nothing in flight: no request, unanswered call or answer queued. *)
let idle t =
  List.for_all
    (fun l -> Queue.is_empty l.reqs && Queue.is_empty l.slots && Queue.is_empty l.resps)
    t.order

(** The nonempty queues, for a failure report. *)
let queues t =
  List.rev t.order
  |> List.filter_map (fun l ->
         let r = Queue.length l.reqs and s = Queue.length l.slots and a = Queue.length l.resps in
         if r + s + a = 0 then None
         else Some (Printf.sprintf "%s: %d sent, %d unanswered, %d answers" l.name r s a))
  |> function [] -> "all queues empty" | qs -> String.concat "; " qs
