type error =
  | Not_adjacent of Routed.event
  | Overlap of int * Routed.event * Routed.event
  | Bad_duration of Routed.event * int
  | Unmatched_logical_gate of Qc.Gate.t
  | Leftover_original_gates of int
  | Bad_final_layout

let pp_error ppf = function
  | Not_adjacent e ->
    Fmt.pf ppf "two-qubit event on uncoupled qubits: %a" Routed.pp_event e
  | Overlap (q, a, b) ->
    Fmt.pf ppf "qubit %d double-booked: %a vs %a" q Routed.pp_event a
      Routed.pp_event b
  | Bad_duration (e, expect) ->
    Fmt.pf ppf "event %a should last %d cycles" Routed.pp_event e expect
  | Unmatched_logical_gate g ->
    Fmt.pf ppf "replayed gate %a cannot be matched in the original" Qc.Gate.pp
      g
  | Leftover_original_gates n ->
    Fmt.pf ppf "%d original gates were never executed" n
  | Bad_final_layout -> Fmt.pf ppf "recorded final layout differs from replay"

let ( let* ) = Result.bind

let check_hardware ~maqam (r : Routed.t) =
  let coupling = Arch.Maqam.coupling maqam in
  let n_physical = Arch.Coupling.n_qubits coupling in
  let* () =
    List.fold_left
      (fun acc e ->
        let* () = acc in
        match e.Routed.gate with
        | Qc.Gate.Two (_, q1, q2) ->
          if Arch.Coupling.adjacent coupling q1 q2 then Ok ()
          else Error (Not_adjacent e)
        | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> Ok ())
      (Ok ()) r.events
  in
  (* per-qubit interval disjointness *)
  let per_qubit = Array.make n_physical [] in
  List.iter
    (fun e ->
      if e.Routed.duration > 0 then
        List.iter
          (fun q -> per_qubit.(q) <- e :: per_qubit.(q))
          (Qc.Gate.qubits e.Routed.gate))
    r.events;
  let check_qubit q evs =
    let sorted =
      List.sort (fun a b -> Stdlib.compare a.Routed.start b.Routed.start) evs
    in
    let rec walk = function
      | a :: (b :: _ as rest) ->
        if Routed.finish a > b.Routed.start then Error (Overlap (q, a, b))
        else walk rest
      | [ _ ] | [] -> Ok ()
    in
    walk sorted
  in
  let rec walk_qubits q =
    if q >= n_physical then Ok ()
    else
      let* () = check_qubit q per_qubit.(q) in
      walk_qubits (q + 1)
  in
  walk_qubits 0

let check_timing ~maqam (r : Routed.t) =
  List.fold_left
    (fun acc e ->
      let* () = acc in
      let expect = Arch.Maqam.duration maqam e.Routed.gate in
      if e.Routed.duration = expect then Ok ()
      else Error (Bad_duration (e, expect)))
    (Ok ()) r.events

let replay_logical (r : Routed.t) =
  (* one private copy, swapped in place: verification runs on every
     compile, and the pure [swap_physical] copies the layout per SWAP *)
  let layout = Arch.Layout.copy r.initial in
  let back p =
    match Arch.Layout.log_of_phys layout p with
    | Some l -> l
    | None -> -1
  in
  let out = ref [] in
  List.iter
    (fun e ->
      match e.Routed.gate with
      | Qc.Gate.Two (Qc.Gate.Swap, p1, p2) when e.Routed.inserted ->
        Arch.Layout.swap_physical_inplace layout p1 p2
      | Qc.Gate.One _ | Qc.Gate.Two _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _
        ->
        out := Qc.Gate.remap back e.Routed.gate :: !out)
    r.events;
  if Arch.Layout.equal layout r.final then Ok (List.rev !out)
  else Error Bad_final_layout

let check_equivalence ~original (r : Routed.t) =
  let* replay = replay_logical r in
  let originals = Qc.Circuit.gate_array original in
  let n = Array.length originals in
  let used = Array.make n false in
  (* Greedy commutative matching: a replayed gate must equal some unused
     original gate that commutes with every unused gate preceding it.
     [lo] is the smallest possibly-unused index — every slot below it is
     used, so both the candidate search and the prefix walk start there.
     Routed gates replay almost in original order, so the typical match
     is at [lo] with an empty prefix: O(1) amortised, which keeps
     verification linear on the 100k-gate large-tier schedules (the
     from-zero scan was O(n^2) — minutes per circuit, dwarfing the
     route itself). *)
  let lo = ref 0 in
  let match_gate g =
    let rec search i =
      if i >= n then Error (Unmatched_logical_gate g)
      else if used.(i) then search (i + 1)
      else if Qc.Gate.equal originals.(i) g then begin
        let rec commutes_with_prefix j =
          if j >= i then true
          else if used.(j) then commutes_with_prefix (j + 1)
          else
            Qc.Commute.commutes originals.(j) g && commutes_with_prefix (j + 1)
        in
        if commutes_with_prefix !lo then begin
          used.(i) <- true;
          while !lo < n && used.(!lo) do
            incr lo
          done;
          Ok ()
        end
        else search (i + 1)
      end
      else search (i + 1)
    in
    search !lo
  in
  let* () =
    List.fold_left
      (fun acc g ->
        let* () = acc in
        match_gate g)
      (Ok ()) replay
  in
  let leftover = Array.fold_left (fun acc u -> if u then acc else acc + 1) 0 used in
  if leftover = 0 then Ok () else Error (Leftover_original_gates leftover)

let check_all ~maqam ~original r =
  let* () = check_hardware ~maqam r in
  let* () = check_timing ~maqam r in
  check_equivalence ~original r
