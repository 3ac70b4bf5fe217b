(* The routing daemon's public entry point. The server itself is the
   select loop in [Evented]: one I/O thread multiplexes every client
   socket over non-blocking fds, and a dispatcher thread owns the Domain
   pool (see evented.ml for the concurrency layout and docs/SERVICE.md
   for the guarantees).

   Degradation: malformed frames get an error reply; an oversized frame
   gets an error reply and the connection dropped (framing is lost);
   write failures to vanished clients are counted and survived; a router
   exception becomes a [route_failed] reply. Nothing kills the daemon but
   [shutdown] (which drains in-flight work, persists the cache when
   configured, and removes the socket). *)

type config = Config.t

let config = Config.make
let run = Evented.run
