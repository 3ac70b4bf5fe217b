(** Newline-delimited frame I/O over a raw [Unix] file descriptor —
    the transport under {!Protocol}, shared by server and client. *)

type reader

val default_max_bytes : int
(** 8 MiB — generous for inline-QASM requests, small enough that a
    newline-less abuser cannot balloon the daemon. *)

val reader : ?max_bytes:int -> Unix.file_descr -> reader
(** Blocking buffered line reader (the client's). The limit applies to a
    single frame and is enforced while buffering, not after. *)

val read : reader -> [ `Line of string | `Eof | `Oversized ]
(** Next frame, without its newline. A non-empty unterminated trailer
    before EOF is yielded as a final [`Line]. Connection-reset errors
    read as [`Eof]; [`Oversized] poisons the reader (framing is lost). *)

val read_once :
  ?inject:bool ->
  Unix.file_descr ->
  Bytes.t ->
  [ `Data of int | `Eof | `Again ]
(** One [Unix.read] into [bytes] for a non-blocking fd — the server's
    read primitive. [`Again] maps [EAGAIN]/[EWOULDBLOCK]/[EINTR];
    connection-reset errors and a zero-byte read map to [`Eof].
    [inject] (default [false]) applies the read-side {!Faults} points:
    mid-frame EOF, stall, short-read cap, in that order. *)

val write_once :
  Unix.file_descr -> string -> pos:int -> len:int -> [ `Wrote of int | `Again ]
(** One [Unix.write_substring] attempt for a non-blocking fd. [`Again]
    maps [EAGAIN]/[EWOULDBLOCK]/[EINTR]; a vanished peer still raises
    [Unix.Unix_error] ([EPIPE]). Carries no fault point — the server
    queries {!Faults.point}[.Frame_write_error] once per enqueued frame
    instead. *)

val write : Unix.file_descr -> string -> unit
(** Blocking: write [line + "\n"] fully. Raises [Unix.Unix_error] (e.g.
    [EPIPE]) when the peer is gone. *)
