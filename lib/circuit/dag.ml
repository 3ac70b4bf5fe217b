type t = {
  gates : Gate.t array;
  preds : int list array;
  succs : int list array;
}

(* The distinct last gates on [g]'s qubits, ascending. One- and two-qubit
   gates (nearly every node) take an allocation-free path: SABRE builds
   this DAG twice per placement, and per-gate garbage here would dominate
   what placement allocates. *)
let preds_of last g =
  match g with
  | Gate.Two (_, a, b) ->
    let pa = last.(a) and pb = last.(b) in
    if pa < 0 then if pb < 0 then [] else [ pb ]
    else if pb < 0 || pa = pb then [ pa ]
    else if pa < pb then [ pa; pb ]
    else [ pb; pa ]
  | Gate.One (_, q) | Gate.Measure (q, _) ->
    let p = last.(q) in
    if p < 0 then [] else [ p ]
  | Gate.Barrier qs ->
    List.filter_map (fun q -> if last.(q) >= 0 then Some last.(q) else None) qs
    |> List.sort_uniq Stdlib.compare

let of_circuit c =
  let gates = Circuit.gate_array c in
  let n = Array.length gates in
  let preds = Array.make n [] in
  let last_on_qubit = Array.make (Circuit.n_qubits c) (-1) in
  for i = 0 to n - 1 do
    preds.(i) <- preds_of last_on_qubit gates.(i);
    match gates.(i) with
    | Gate.Two (_, a, b) ->
      last_on_qubit.(a) <- i;
      last_on_qubit.(b) <- i
    | Gate.One (_, q) | Gate.Measure (q, _) -> last_on_qubit.(q) <- i
    | Gate.Barrier qs -> List.iter (fun q -> last_on_qubit.(q) <- i) qs
  done;
  (* consing from the last node down leaves every successor list
     ascending, and [preds] lists are duplicate-free *)
  let succs = Array.make n [] in
  let rec link i = function
    | [] -> ()
    | p :: rest ->
      succs.(p) <- i :: succs.(p);
      link i rest
  in
  for i = n - 1 downto 0 do
    link i preds.(i)
  done;
  { gates; preds; succs }

let n_nodes d = Array.length d.gates
let gate d i = d.gates.(i)
let preds d i = d.preds.(i)
let succs d i = d.succs.(i)

let topological_order d = List.init (n_nodes d) Fun.id

let critical_path_length d ~weight =
  let n = n_nodes d in
  let finish = Array.make n 0 in
  let best = ref 0 in
  for i = 0 to n - 1 do
    let start =
      List.fold_left (fun acc p -> max acc finish.(p)) 0 d.preds.(i)
    in
    finish.(i) <- start + weight d.gates.(i);
    if finish.(i) > !best then best := finish.(i)
  done;
  !best
