(** The compile-as-a-service daemon: a Unix-domain-socket server that
    routes {!Protocol} requests onto the existing {!Pool}, answering from
    a content-addressed {!Cache} when it can.

    Guarantees (asserted by test/test_service.ml, test/test_faults.ml and
    the service-smoke / fault-smoke rules):

    - {b Byte-identical replay} — a cache hit replies with exactly the
      bytes of the cold route reply for the same request content.
    - {b Single computation} — concurrent requests with equal
      fingerprints coalesce onto one in-flight routing job; the counters
      ({!Codar.Stats.service}[.routes_computed], [.coalesced] and
      {!Codar.Stats.cache}[.insertions]) prove it.
    - {b Graceful degradation} — malformed frames, oversized frames,
      unknown ops, router failures and clients that vanish mid-reply are
      answered, dropped or counted; none of them kill the daemon. Under
      an armed {!Faults} plan the same holds for injected short reads,
      mid-frame EOFs, stalls, write errors, pool task exceptions and
      persistence faults.
    - {b Admission control} — a route request that finds the job queue
      full is refused with the typed [overloaded] error instead of
      blocking; {!Client.request_with_retry} implements the client half
      (seeded-jitter backoff).
    - {b Deadlines} — with [timeout_ms] set, a request frame stalled
      mid-transmission or a route that waits/computes past the deadline
      is answered [deadline_exceeded]; neither blocks other connections.
    - {b Graceful drain} — with [handle_signals] set, SIGTERM/SIGINT stop
      the accept loop, finish in-flight work, persist the cache when
      configured and make {!run} return normally (exit 0 in the CLI).

    I/O model ({!Evented}): one I/O thread multiplexes every client
    socket via [Unix.select] over non-blocking fds with per-connection
    buffers; routing outcomes return over a self-pipe; both deadline
    kinds fold into the select timeout; a write-buffer high-watermark
    backpressures slow consumers. *)

type config = Config.t

val config :
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
  config
(** {!Config.make}: defaults are 1 job, 1024 cache entries, no byte cap,
    no cache file, {!Frame.default_max_bytes}, queue capacity 64,
    backlog 64, no deadline, no signal handling,
    {!Config.default_write_watermark_bytes},
    {!Config.default_max_connections}. Raises [Invalid_argument] on
    [jobs < 1], [queue_capacity < 1], [timeout_ms < 1],
    [write_watermark_bytes < 1] or [max_connections < 1]. *)

val run : ?on_ready:(unit -> unit) -> config -> Codar.Stats.service
(** Bind (unlinking a stale socket file first), serve until a [shutdown]
    request (or, with [handle_signals], SIGTERM/SIGINT), then drain
    in-flight work, flush every connection, persist the cache when
    configured, unlink the socket and return the final service counters.
    This is {!Evented.run}. A corrupt
    or truncated cache file at startup logs a warning to stderr and
    starts cold — it never prevents serving. [on_ready] fires once the
    socket is listening (tests start their clients from it). Raises
    [Unix.Unix_error] when the socket cannot be bound. *)
