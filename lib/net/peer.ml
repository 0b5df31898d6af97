(* A server's one outbound path: nonblocking peer connections, one per
   address and lane, driven by the owning server's poller. See
   peer.mli. *)

module Message = Pequod_proto.Message
module Frame = Pequod_proto.Frame

let src = Logs.Src.create "pequod.peer"

module Log = (val Logs.src_log src : Logs.LOG)

(* an outstanding call (or a pending connect) older than this fails its
   connection, exactly like a dropped one *)
let call_deadline = 10.0

(* a failed peer sits out this long: a dead server costs one refused
   connect per half second, not one per request *)
let backoff = 0.5

type reply = (Message.response, string) result

type lane = Prompt | Parked

type conn = {
  addr : string;
  mutable fd : Unix.file_descr option;
  mutable connecting : bool; (* nonblocking connect pending SO_ERROR *)
  mutable since : float; (* when the connect started *)
  mutable decoder : Frame.decoder;
  out : Outbuf.t; (* encoded frames not yet written *)
  calls : (float * (reply -> unit)) Queue.t; (* responses match heads in order *)
  mutable posted : bool; (* one-way frames went out on this connection *)
  mutable down_until : float; (* reconnect backoff deadline *)
  mutable why : string; (* the last failure, for calls refused in backoff *)
  mutable want_write : bool; (* current poller write interest *)
  mutable queued : bool; (* in the pool's flush list *)
}

type t = {
  poller : Poller.t;
  conns : (string * lane, conn) Hashtbl.t;
  by_fd : (Unix.file_descr, conn) Hashtbl.t;
  mutable dirty : conn list;
  buf : Bytes.t;
  on_lost : string -> unit;
  m_calls : Obs.Counter.t; (* peer.calls *)
  m_posts : Obs.Counter.t; (* peer.posts *)
  m_failed : Obs.Counter.t; (* peer.failed *)
}

let create ~poller ~obs ~on_lost =
  { poller; conns = Hashtbl.create 8; by_fd = Hashtbl.create 8; dirty = [];
    buf = Bytes.create 65_536; on_lost;
    m_calls = Obs.counter obs "peer.calls";
    m_posts = Obs.counter obs "peer.posts";
    m_failed = Obs.counter obs "peer.failed" }

let conn_of t lane addr =
  let key = (addr, lane) in
  match Hashtbl.find_opt t.conns key with
  | Some c -> c
  | None ->
    let c =
      { addr; fd = None; connecting = false; since = 0.; decoder = Frame.decoder ();
        out = Outbuf.create (); calls = Queue.create (); posted = false;
        down_until = neg_infinity; why = ""; want_write = false; queued = false }
    in
    Hashtbl.add t.conns key c;
    c

(* a continuation that raises must not take the serving loop down. The
   server's continuations turn their own failures into answers; what
   reaches here is a bug, and is logged *)
let invoke k r =
  try k r
  with e -> Log.err (fun m -> m "peer continuation raised: %s" (Printexc.to_string e))

let sockaddr_of addr =
  match String.rindex_opt addr ':' with
  | None -> invalid_arg ("bad peer address: " ^ addr)
  | Some i -> (
    let host = String.sub addr 0 i in
    match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
    | None -> invalid_arg ("bad peer address: " ^ addr)
    | Some port ->
      let inet =
        match Unix.inet_addr_of_string host with
        | a -> a
        | exception _ -> (
          match (Unix.gethostbyname host).Unix.h_addr_list with
          | [||] -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host))
          | addrs -> addrs.(0)
          | exception Not_found ->
            raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))
      in
      Unix.ADDR_INET (inet, port))

let set_write t c fd want =
  if want <> c.want_write then begin
    c.want_write <- want;
    Poller.set t.poller fd ~read:true ~write:want
  end

(* Tear a connection down: every call still outstanding on it fails
   (its caller fails over or answers an error), a connection that
   carried one-way frames reports its address lost, and the peer sits
   out [backoff]. *)
let fail t c why =
  if not (Queue.is_empty c.calls) then
    Log.warn (fun m -> m "peer %s: %s; failing %d outstanding calls" c.addr why
        (Queue.length c.calls));
  Obs.Counter.incr t.m_failed;
  c.why <- why;
  (match c.fd with
  | Some fd ->
    c.fd <- None;
    Hashtbl.remove t.by_fd fd;
    Poller.remove t.poller fd;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  c.connecting <- false;
  c.want_write <- false;
  Outbuf.clear c.out;
  c.down_until <- Unix.gettimeofday () +. backoff;
  let calls = List.of_seq (Queue.to_seq c.calls) in
  Queue.clear c.calls;
  let lost = c.posted in
  c.posted <- false;
  List.iter (fun (_, k) -> invoke k (Error why)) calls;
  if lost then t.on_lost c.addr

let connect t c =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    try
      Unix.set_nonblock fd;
      match Unix.connect fd (sockaddr_of c.addr) with
      | () -> (fd, false)
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (fd, true)
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | fd, pending ->
    if not pending then
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    c.fd <- Some fd;
    c.connecting <- pending;
    c.since <- Unix.gettimeofday ();
    c.decoder <- Frame.decoder ();
    Hashtbl.replace t.by_fd fd c;
    (* while the connect is pending, write-ready signals its outcome *)
    c.want_write <- pending;
    Poller.set t.poller fd ~read:true ~write:pending
  | exception Unix.Unix_error (err, _, _) -> fail t c ("connect: " ^ Unix.error_message err)
  | exception Invalid_argument msg -> fail t c msg

(* connected, connecting, or connectable now (not in backoff) *)
let usable t c =
  if c.fd = None && Unix.gettimeofday () >= c.down_until then connect t c;
  c.fd <> None

let enqueue t c req =
  Outbuf.add_frame c.out (Message.encode_request req);
  if not c.queued then begin
    c.queued <- true;
    t.dirty <- c :: t.dirty
  end

let call t lane addr req k =
  let c = conn_of t lane addr in
  if usable t c then begin
    Obs.Counter.incr t.m_calls;
    Queue.add (Unix.gettimeofday (), k) c.calls;
    enqueue t c req
  end
  else invoke k (Error ("unreachable: " ^ c.why))

let post t addr req =
  let c = conn_of t Prompt addr in
  if usable t c then begin
    Obs.Counter.incr t.m_posts;
    c.posted <- true;
    enqueue t c req
  end
  else t.on_lost addr

type outbound = {
  call : lane -> string -> Message.request -> (reply -> unit) -> unit;
  post : string -> Message.request -> unit;
}

let outbound t = { call = call t; post = post t }

(* nonblocking flush; write interest stays on exactly while bytes remain
   buffered (a level-triggered poller would spin otherwise) *)
let write_out t c =
  match c.fd with
  | Some fd when not c.connecting -> (
    if Outbuf.length c.out > 0 then
      match Outbuf.write c.out fd with
      | n ->
        Outbuf.consumed c.out n;
        set_write t c fd (Outbuf.length c.out > 0)
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) ->
        set_write t c fd true
      | exception Unix.Unix_error (err, _, _) -> fail t c ("write: " ^ Unix.error_message err)
    else set_write t c fd false)
  | _ -> ()

let flush t =
  match t.dirty with
  | [] -> ()
  | cs ->
    t.dirty <- [];
    List.iter
      (fun c ->
        c.queued <- false;
        write_out t c)
      (List.rev cs)

(* one response frame answers the head of this connection's calls *)
let answer t c frame =
  match Queue.take_opt c.calls with
  | None -> fail t c "a response with no call outstanding"
  | Some (_, k) -> (
    match Message.decode_response frame with
    | resp -> invoke k (Ok resp)
    | exception Message.Protocol_error msg -> invoke k (Error ("protocol error: " ^ msg)))

let read_in t c fd =
  match Unix.read fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> fail t c "connection closed"
  | n ->
    let frames = ref [] in
    Frame.feed_bytes c.decoder t.buf 0 n ~frame:(fun b ~off ~len ->
        frames := Bytes.sub_string b off len :: !frames);
    (* what each answer's continuation sent out leaves at once; frames
       after a failure belong to a dead pipeline *)
    List.iter
      (fun frame ->
        if c.fd = Some fd then begin
          answer t c frame;
          flush t
        end)
      (List.rev !frames)
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (err, _, _) -> fail t c ("read: " ^ Unix.error_message err)
  | exception Frame.Frame_too_large n -> fail t c (Printf.sprintf "oversized frame (%d bytes)" n)

let ready t fd ~readable ~writable =
  match Hashtbl.find_opt t.by_fd fd with
  | None -> false
  | Some c ->
    if writable then begin
      if c.connecting then (
        match Unix.getsockopt_error fd with
        | Some err -> fail t c ("connect: " ^ Unix.error_message err)
        | None ->
          c.connecting <- false;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          write_out t c)
      else write_out t c
    end;
    if readable && c.fd = Some fd then read_in t c fd;
    true

let tick t =
  let now = Unix.gettimeofday () in
  let late = ref [] and idle = ref [] in
  Hashtbl.iter
    (fun key c ->
      match Queue.peek_opt c.calls with
      | Some (t0, _) -> if now -. t0 > call_deadline then late := c :: !late
      | None ->
        if c.connecting && now -. c.since > call_deadline then late := c :: !late
        else if c.fd = None && now >= c.down_until then
          (* a failed peer past its backoff: forget it, so a home whose
             subscribers come and go keeps no state for the dead ones *)
          idle := key :: !idle)
    t.conns;
  List.iter (Hashtbl.remove t.conns) !idle;
  List.iter (fun c -> fail t c "timed out") !late

let close t =
  Hashtbl.iter
    (fun _ c ->
      match c.fd with
      | Some fd ->
        c.fd <- None;
        Poller.remove t.poller fd;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    t.conns;
  Hashtbl.reset t.conns;
  Hashtbl.reset t.by_fd;
  t.dirty <- []
