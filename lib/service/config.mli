(** Daemon configuration. A separate module breaks the [Server] →
    [Evented] → config cycle. {!Server.config} is the public
    constructor; this module is the record the {!Evented} loop reads. *)

type t = {
  socket_path : string;
  jobs : int;  (** Domain-pool width for routing *)
  cache_entries : int;
  cache_bytes : int option;
  cache_file : string option;
      (** loaded at startup when present; saved on shutdown and by the
          [cache save] request *)
  max_request_bytes : int;
  queue_capacity : int;  (** bound on not-yet-dispatched routing jobs *)
  backlog : int;
  timeout_ms : int option;
      (** per-request deadline: bounds both mid-frame read stalls and the
          wait for a routing outcome; [None] (default) waits forever *)
  handle_signals : bool;
      (** install SIGTERM/SIGINT handlers that drain gracefully; off by
          default so in-process tests keep their signal dispositions *)
  write_watermark_bytes : int;
      (** backpressure threshold: a connection whose buffered unsent
          reply bytes exceed this stops being read until the buffer
          drains below it again *)
  max_connections : int;
      (** concurrent-connection cap: at the cap
          the listen fd stops being polled, so further connections wait
          in the kernel's listen backlog until a slot frees. Required
          because [Unix.select] rejects fds at or beyond FD_SETSIZE
          (1024); keep it under {!default_max_connections} unless you
          know the process fd budget *)
  on_route_start : (string -> unit) option;
      (** test hook, called with the fingerprint as each routing job
          starts (possibly from a pool domain) *)
}

val default_write_watermark_bytes : int
(** 256 KiB — enough that a healthy client never trips it. *)

val default_max_connections : int
(** 960 — safely under select's FD_SETSIZE (1024), leaving headroom for
    the listen fd, the self-pipe, std streams and transient fds. *)

val make :
  ?jobs:int ->
  ?cache_entries:int ->
  ?cache_bytes:int ->
  ?cache_file:string ->
  ?max_request_bytes:int ->
  ?queue_capacity:int ->
  ?backlog:int ->
  ?timeout_ms:int ->
  ?handle_signals:bool ->
  ?write_watermark_bytes:int ->
  ?max_connections:int ->
  ?on_route_start:(string -> unit) ->
  socket_path:string ->
  unit ->
  t
(** Defaults: 1 job, 1024 cache entries, no byte cap, no cache file,
    {!Frame.default_max_bytes}, queue capacity 64, backlog 64, no
    deadline, no signal handling, {!default_write_watermark_bytes},
    {!default_max_connections}. Raises [Invalid_argument] on [jobs < 1],
    [queue_capacity < 1], [timeout_ms < 1], [write_watermark_bytes < 1]
    or [max_connections < 1]. *)
