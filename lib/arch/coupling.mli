(** Undirected coupling graph of a quantum device (the [M = (QH, EH)] of the
    paper's maQAM, Table II) with its distance matrix [D].

    Two-qubit gates may only execute on qubit pairs joined by an edge.
    Optional planar coordinates per qubit power CODAR's [Hfine] lattice
    tiebreak.

    {!make} precomputes the all-pairs matrix [D] by BFS into a single
    flat row-major [int array] (see {!distance_table}), so the router hot
    path pays one bounds-checked load per lookup. The table costs
    [8·n²] bytes on a 64-bit host, which is why devices are capped at
    {!max_qubits} qubits: 2 MB at the cap, 1.3 MB for the 409-qubit
    heavy-hex-13. Disconnected pairs are encoded as
    {!unreachable_distance} (-1), a sentinel that cannot wrap additive
    heuristic arithmetic the way the former [max_int] could. *)

type t

val max_qubits : int
(** The qubit cap (512): the largest device {!make} accepts. *)

val make :
  ?coords:(float * float) array -> name:string -> n:int ->
  (int * int) list -> t
(** [make ~name ~n edges] builds the graph and its distance table. Edges
    are undirected; duplicates and self-loops are rejected, as are
    out-of-range endpoints, a negative [n] and an [n] above
    {!max_qubits} (all [Invalid_argument]). [coords], when given, must
    have length [n]. *)

val name : t -> string
val n_qubits : t -> int

val edges : t -> (int * int) list
(** Normalised: each as [(lo, hi)], sorted, no duplicates. *)

val neighbors : t -> int -> int list

val degree : t -> int -> int
(** O(1): read from the precomputed degree array. *)

val adjacent : t -> int -> int -> bool
(** One probe of the distance table (an edge is a pair at distance 1). Raises
    [Invalid_argument] if either endpoint is out of range (both ends are
    validated — historically only the second was, letting a bad first
    index read the wrong matrix row). *)

val distance : t -> int -> int -> int
(** Shortest path length in edges. Raises [Invalid_argument] if either
    endpoint is out of range {e or the pair is unreachable} (disconnected
    components): callers that can face disconnected devices must guard with
    {!reachable} first. Never returns a sentinel — the former [max_int]
    convention wrapped to garbage inside heuristic arithmetic. *)

val reachable : t -> int -> int -> bool
(** [reachable t a b] is [true] iff a path joins [a] and [b] (every qubit is
    reachable from itself). Raises [Invalid_argument] when out of range. *)

val unreachable_distance : int
(** The sentinel (-1) marking disconnected pairs inside
    {!distance_table}. Strictly negative, so [d >= 0] is the reachability
    test. *)

val distance_table : t -> int array
(** The flat row-major [n*n] distance matrix itself: entry [a * n + b] is
    the distance from [a] to [b], or {!unreachable_distance}. Exposed for
    hot loops that index it directly (the SWAP scorer, the heuristic,
    SABRE, the objectives); treat it as read-only — it is the live table,
    not a copy. *)

val rows_cached : t -> int
(** Distance rows held: always [n], the whole table. *)

val dist_bytes : t -> int
(** Bytes held by the distance table: [word·n²], [word] being
    [Sys.word_size / 8]. *)

val diameter : t -> int
(** The largest {e finite} pairwise distance (0 for the empty or edgeless
    graph; disconnected pairs are ignored rather than poisoning the
    value), precomputed at {!make}. *)

val connected : t -> bool

val coords : t -> (float * float) array option
val coord : t -> int -> (float * float) option

val horizontal_distance : t -> int -> int -> float option
(** [|x1 - x2|] when coordinates are available. *)

val vertical_distance : t -> int -> int -> float option

val pp : Format.formatter -> t -> unit
