(* Reusable output buffer of length-prefixed frames, shared by the
   server's client connections and its peer pool: the live span slides
   ([off] advances as the socket accepts bytes) and compacts, so
   backpressure costs a blit at worst — never the O(n^2) string rebuild
   of [outbuf ^ more]. *)

module Frame = Pequod_proto.Frame

type t = { mutable b : Bytes.t; mutable off : int; mutable len : int }

let create () = { b = Bytes.create 4096; off = 0; len = 0 }
let length t = t.len

let reserve t extra =
  if t.off + t.len + extra > Bytes.length t.b then begin
    if t.off > 0 then begin
      Bytes.blit t.b t.off t.b 0 t.len;
      t.off <- 0
    end;
    if t.len + extra > Bytes.length t.b then begin
      let cap = ref (Bytes.length t.b * 2) in
      while t.len + extra > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.b 0 bigger 0 t.len;
      t.b <- bigger
    end
  end

(* append a length-prefixed frame around [body] *)
let add_frame t body =
  let n = String.length body in
  if n > Frame.max_frame then raise (Frame.Frame_too_large n);
  reserve t (4 + n);
  let p = t.off + t.len in
  Bytes.unsafe_set t.b p (Char.unsafe_chr ((n lsr 24) land 0xff));
  Bytes.unsafe_set t.b (p + 1) (Char.unsafe_chr ((n lsr 16) land 0xff));
  Bytes.unsafe_set t.b (p + 2) (Char.unsafe_chr ((n lsr 8) land 0xff));
  Bytes.unsafe_set t.b (p + 3) (Char.unsafe_chr (n land 0xff));
  Bytes.blit_string body 0 t.b (p + 4) n;
  t.len <- t.len + 4 + n

(* the socket took [n] bytes *)
let consumed t n =
  t.off <- t.off + n;
  t.len <- t.len - n;
  if t.len = 0 then begin
    t.off <- 0;
    (* a burst that ballooned the buffer should not pin the memory *)
    if Bytes.length t.b > 1 lsl 20 then t.b <- Bytes.create 4096
  end

let clear t =
  t.off <- 0;
  t.len <- 0

let write t fd = Unix.write fd t.b t.off t.len
