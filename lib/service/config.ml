(* Daemon configuration. Lives in its own module so [Evented] can read
   the record without a dependency cycle: [Server] depends on [Evented],
   and [Evented] needs the config record. *)

type t = {
  socket_path : string;
  jobs : int;
  cache_entries : int;
  cache_bytes : int option;
  cache_file : string option;
  max_request_bytes : int;
  queue_capacity : int;
  backlog : int;
  timeout_ms : int option;
  handle_signals : bool;
  write_watermark_bytes : int;
  max_connections : int;
  on_route_start : (string -> unit) option;
}

let default_write_watermark_bytes = 256 * 1024

(* [Unix.select] rejects fds >= FD_SETSIZE (1024 on Linux), so the
   evented loop must bound its concurrent connections well under that,
   leaving headroom for the listen fd, the self-pipe, std streams and
   transient fds (cache persistence). *)
let default_max_connections = 960

let make ?(jobs = 1) ?(cache_entries = 1024) ?cache_bytes ?cache_file
    ?(max_request_bytes = Frame.default_max_bytes) ?(queue_capacity = 64)
    ?(backlog = 64) ?timeout_ms ?(handle_signals = false)
    ?(write_watermark_bytes = default_write_watermark_bytes)
    ?(max_connections = default_max_connections) ?on_route_start
    ~socket_path () =
  if jobs < 1 then invalid_arg "Server.config: jobs < 1";
  if queue_capacity < 1 then invalid_arg "Server.config: queue_capacity < 1";
  (match timeout_ms with
  | Some ms when ms < 1 -> invalid_arg "Server.config: timeout_ms < 1"
  | Some _ | None -> ());
  if write_watermark_bytes < 1 then
    invalid_arg "Server.config: write_watermark_bytes < 1";
  if max_connections < 1 then
    invalid_arg "Server.config: max_connections < 1";
  {
    socket_path;
    jobs;
    cache_entries;
    cache_bytes;
    cache_file;
    max_request_bytes;
    queue_capacity;
    backlog;
    timeout_ms;
    handle_signals;
    write_watermark_bytes;
    max_connections;
    on_route_start;
  }
