(** Gate-dependency DAG of a circuit.

    Two gates depend on each other when they share a qubit; edges go from the
    earlier to the later gate, restricted to the immediately preceding gate on
    each qubit (transitive reduction per qubit). SABRE's front layer is the
    set of nodes with no unresolved predecessors; CODAR replaces it with the
    larger commutative front (see {!Cf_front} in the [codar] library). *)

type t

val of_circuit : Circuit.t -> t

val n_nodes : t -> int
val gate : t -> int -> Gate.t
val preds : t -> int -> int list
val succs : t -> int -> int list

val topological_order : t -> int list
(** A topological order (circuit order is always one). *)

val critical_path_length : t -> weight:(Gate.t -> int) -> int
(** Longest weighted path; with [weight = fun _ -> 1] this is circuit depth. *)
