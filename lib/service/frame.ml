(* Newline-delimited frame I/O over a file descriptor, shared by the server
   and the client. The client's blocking [reader] enforces the frame size
   limit *while buffering*, so a reply without a newline cannot balloon
   its memory. The server's non-blocking primitives ([read_once],
   [write_once]) sit at the bottom; [read_once ~inject] opts the daemon
   into the armed {!Faults} plan (short reads, mid-frame EOF, stalls). *)

type reader = {
  fd : Unix.file_descr;
  max_bytes : int;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable eof : bool;
}

let default_max_bytes = 8 * 1024 * 1024

let reader ?(max_bytes = default_max_bytes) fd =
  {
    fd;
    max_bytes;
    buf = Buffer.create 512;
    chunk = Bytes.create 65536;
    eof = false;
  }

(* take one complete line out of [buf], if any *)
let take_line r =
  let s = Buffer.contents r.buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
    let line = String.sub s 0 i in
    Buffer.clear r.buf;
    Buffer.add_substring r.buf s (i + 1) (String.length s - i - 1);
    Some line

let do_read r =
  try Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> -1 (* retry *)
  | Unix.Unix_error
      ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN), _, _) ->
    0

let rec read r =
  match take_line r with
  | Some line ->
    (* a complete line can exceed the cap too, when it arrives newline
       and all within one read *)
    if String.length line > r.max_bytes then `Oversized else `Line line
  | None ->
    if Buffer.length r.buf > r.max_bytes then `Oversized
    else if r.eof then
      if Buffer.length r.buf = 0 then `Eof
      else begin
        (* final unterminated frame: accept it (lenient EOF framing) *)
        let line = Buffer.contents r.buf in
        Buffer.clear r.buf;
        `Line line
      end
    else begin
      let n = do_read r in
      if n = 0 then r.eof <- true
      else if n > 0 then Buffer.add_subbytes r.buf r.chunk 0 n;
      read r
    end

(* ------------------------------------------- non-blocking primitives *)

(* One read attempt against a (normally O_NONBLOCK) fd, for the server's
   loop. With [inject], the read-side fault points apply in a fixed
   order: mid-frame EOF first, then the stall pause, then the short-read
   cap. *)
let read_once ?(inject = false) fd bytes =
  if inject && Faults.fire Faults.Frame_read_eof then `Eof
  else begin
    if inject then Faults.pause Faults.Frame_stall;
    let cap =
      if inject && Faults.fire Faults.Frame_short_read then 1
      else Bytes.length bytes
    in
    match Unix.read fd bytes 0 cap with
    | 0 -> `Eof
    | n -> `Data n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      `Again
    | exception
        Unix.Unix_error
          ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF | Unix.ENOTCONN), _, _)
      ->
      `Eof
  end

(* One write attempt; partial progress is the caller's buffer problem.
   No fault point here on purpose: [Frame_write_error] fires once per
   reply frame, and a non-blocking writer may need many attempts per
   frame — the server queries the point when it *enqueues* a frame. *)
let write_once fd s ~pos ~len =
  match Unix.write_substring fd s pos len with
  | n -> `Wrote n
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    `Again

let write fd line =
  let payload = line ^ "\n" in
  let len = String.length payload in
  let pos = ref 0 in
  while !pos < len do
    let n =
      try Unix.write_substring fd payload !pos (len - !pos)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    pos := !pos + n
  done
