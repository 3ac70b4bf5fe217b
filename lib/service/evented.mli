(** The daemon's server ([codar_cli serve]): one I/O thread multiplexes
    every client socket through [Unix.select] over non-blocking fds,
    with per-connection read/write buffers and a reading → queued →
    routing → writing state machine; the Domain pool does the routing;
    outcomes return over a self-pipe. Both deadline kinds (mid-frame
    read, slow route) fold into the select timeout — no timer thread —
    and a write-buffer high-watermark backpressures slow consumers.

    {!Server.run} is {!run}; the behavioural guarantees are documented
    on {!Server}. *)

val select_timeout : now:float -> float list -> float
(** Seconds the loop may sleep given the armed absolute deadlines:
    [-1.] (sleep until an fd event) when no deadline is armed, else
    [max 0 (nearest - now)]. Pure; the poll-loop unit test pins it. *)

val run : ?on_ready:(unit -> unit) -> Config.t -> Codar.Stats.service
(** Same contract as {!Server.run}. *)
