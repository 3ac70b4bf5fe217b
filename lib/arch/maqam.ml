type t = { coupling : Coupling.t; durations : Durations.t }

let make ~coupling ~durations = { coupling; durations }

let coupling t = t.coupling
let durations t = t.durations
let n_qubits t = Coupling.n_qubits t.coupling
(* Arguments written out: without flambda, a point-free wrapper returns a
   freshly allocated partial application on every call. *)
let adjacent t a b = Coupling.adjacent t.coupling a b
let distance t a b = Coupling.distance t.coupling a b
let duration t g = Durations.of_gate t.durations g

let fits t layout g =
  match g with
  | Qc.Gate.Two (_, q1, q2) ->
    adjacent t (Layout.phys_of_log layout q1) (Layout.phys_of_log layout q2)
  | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> true

let pp ppf t =
  Fmt.pf ppf "maQAM(%a; %a)" Coupling.pp t.coupling Durations.pp t.durations
