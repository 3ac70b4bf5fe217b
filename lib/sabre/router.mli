(** SABRE — the SWAP-based bidirectional heuristic router of Li, Ding & Xie
    (ASPLOS 2019), the "best-known algorithm" CODAR is compared against
    (paper §V).

    Faithful to the original: a dependency-DAG front layer (no commutativity,
    no notion of time), a look-ahead heuristic

    {v H = decay(swap) · ( Σ_{g∈F} D[π(g)]/|F| + W · Σ_{g∈E} D[π(g)]/|E| ) v}

    minimised over the SWAPs incident to the front gates' physical qubits,
    with per-qubit decay factors discouraging consecutive SWAPs on the same
    qubit. The emitted order is duration-{e un}aware; the caller scores it
    with {!Schedule.Asap} under the device's real durations.

    The loop is linear in the circuit: the front is kept by in-degree
    rather than rescanned, each SWAP step reuses one set of scratch buffers
    sized by the front, the look-ahead window and the device's edges, and
    a candidate is scored from per-step integer sums plus the change on
    the pairs touching its two qubits (docs/ALGORITHM.md). Raises
    {!Stuck} when no SWAP can help (no candidate, or the swap budget of
    [10·(gates+1)·(qubits+1)] is spent) and [Invalid_argument] when a
    gate straddles disconnected components. *)

type config = {
  extended_size : int;  (** look-ahead window |E| (default 20) *)
  extended_weight : float;  (** W (default 0.5) *)
  decay_delta : float;  (** per-use decay increment (default 0.001) *)
  decay_reset : int;  (** reset decay every this many SWAPs (default 5) *)
}

val default_config : config

exception Stuck of string

val run :
  ?config:config ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Schedule.Routed.t
(** Route and then ASAP-schedule with the machine's durations, so results
    are directly comparable with CODAR's. *)

val final_layout :
  ?config:config ->
  maqam:Arch.Maqam.t ->
  initial:Arch.Layout.t ->
  Qc.Circuit.t ->
  Arch.Layout.t
(** The layout {!run} would end in, without building the gate list or
    schedule — all the reverse-traversal initial-mapping pass needs. Same
    SWAP choices and the same exceptions as {!run}; [initial] is not
    mutated. *)
