(* Determinism and behavior-preservation suite for the incremental router.

   The router overhaul (stateful CF cache, per-cycle pair caches, adjacency
   bitsets, candidate regeneration) is required to be a pure refactor of the
   routing *behavior*: routing is a deterministic function of
   (circuit, machine, initial layout), and the optimized router must emit an
   event stream identical to the seed implementation's, kept verbatim in
   {!Reference_remapper}. *)

let sc = Arch.Durations.superconducting
let tokyo = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let grid33 =
  Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:3 ~cols:3) ~durations:sc

let pp_event ppf (e : Schedule.Routed.event) =
  Fmt.pf ppf "%s@%d+%d%s"
    (Qc.Gate.to_string e.gate)
    e.start e.duration
    (if e.inserted then "*" else "")

let event_eq (a : Schedule.Routed.event) (b : Schedule.Routed.event) =
  Qc.Gate.equal a.gate b.gate
  && a.start = b.start && a.duration = b.duration && a.inserted = b.inserted

let event_t = Alcotest.testable pp_event event_eq

(* Ten benchmarks spread across the suite's families, small enough to route
   a handful of times each in a unit test. *)
let subset =
  let small =
    List.filter
      (fun (e : Workloads.Suite.entry) ->
        e.n_qubits <= 16 && Qc.Circuit.length (Lazy.force e.circuit) <= 1200)
      Workloads.Suite.all
  in
  let step = max 1 (List.length small / 10) in
  let spread = List.filteri (fun i _ -> i mod step = 0) small in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  take 10 spread

let route ?stats maqam (e : Workloads.Suite.entry) =
  let initial =
    Arch.Layout.identity ~n_logical:e.n_qubits
      ~n_physical:(Arch.Maqam.n_qubits maqam)
  in
  Codar.Remapper.run ?stats ~maqam ~initial (Lazy.force e.circuit)

let test_route_twice_identical () =
  Alcotest.(check int) "subset size" 10 (List.length subset);
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let a = route tokyo e in
      let b = route tokyo e in
      (* instrumentation must observe, never perturb *)
      let c = route ~stats:(Codar.Stats.create ()) tokyo e in
      Alcotest.(check (list event_t)) (e.name ^ ": run1 = run2") a.events
        b.events;
      Alcotest.(check (list event_t)) (e.name ^ ": stats run identical")
        a.events c.events;
      Alcotest.(check int) (e.name ^ ": makespan") a.makespan b.makespan)
    subset

let test_matches_seed_reference () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let initial =
        Arch.Layout.identity ~n_logical:e.n_qubits ~n_physical:20
      in
      let circuit = Lazy.force e.circuit in
      let now = Codar.Remapper.run ~maqam:tokyo ~initial circuit in
      let seed = Reference_remapper.run ~maqam:tokyo ~initial circuit in
      Alcotest.(check (list event_t))
        (e.name ^ ": events = seed router")
        seed.events now.events;
      Alcotest.(check int) (e.name ^ ": makespan") seed.makespan now.makespan)
    subset

let prop_random_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"random circuits: optimized router = seed router"
    QCheck.(pair (int_bound 10_000) (int_range 3 9))
    (fun (seed, n) ->
      let circuit =
        Workloads.Builders.random_circuit ~n ~gates:40 ~two_qubit_fraction:0.6
          ~seed
      in
      let initial = Arch.Layout.identity ~n_logical:n ~n_physical:9 in
      let a = Codar.Remapper.run ~maqam:grid33 ~initial circuit in
      let b = Reference_remapper.run ~maqam:grid33 ~initial circuit in
      List.length a.Schedule.Routed.events
      = List.length b.Schedule.Routed.events
      && List.for_all2 event_eq a.events b.events)

let has_measure (c : Qc.Circuit.t) =
  Array.exists
    (function Qc.Gate.Measure _ -> true | _ -> false)
    (Qc.Circuit.gate_array c)

let test_unitary_equivalence () =
  let checked = ref 0 in
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let circuit = Lazy.force e.circuit in
      if e.n_qubits <= 8 && not (has_measure circuit) then begin
        let r = route grid33 e in
        incr checked;
        Alcotest.(check bool)
          (e.name ^ ": statevector equivalent")
          true
          (Sim.Equiv.routed_equivalent ~maqam:grid33 ~original:circuit r)
      end)
    subset;
  Alcotest.(check bool) "checked at least 3 benchmarks" true (!checked >= 3)

(* ----------------------------------------------------- large-tier goldens *)

(* Digests of CODAR's and SABRE's observable output on the large tier
   (devices of 72–193 qubits), generated on the two-provider code — a
   sparse BFS-row provider above 64 qubits — before it was replaced by the
   one flat table. Routing reads nothing but integer distances, so every
   digest must survive any change of how those distances are stored. A
   mismatch prints the offending rows in table syntax. *)

let gate_key g =
  String.concat ","
    (Qc.Gate.name g
     :: List.map string_of_int (Qc.Gate.qubits g)
    @ List.map
        (fun a -> Int64.to_string (Int64.bits_of_float a))
        (Qc.Gate.params g))

let layout_key l =
  String.concat ","
    (Array.to_list (Array.map string_of_int (Arch.Layout.to_array l)))

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let routed_digest (r : Schedule.Routed.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Schedule.Routed.event) ->
      Buffer.add_string b
        (Printf.sprintf "%d:%d:%b:%s;" e.start e.duration e.inserted
           (gate_key e.gate)))
    r.events;
  Buffer.add_string b
    (Printf.sprintf "|%s|%s|%d|%d" (layout_key r.initial) (layout_key r.final)
       r.makespan r.n_logical);
  digest (Buffer.contents b)

let device name =
  match Arch.Devices.by_name name with
  | Some c -> Arch.Maqam.make ~coupling:c ~durations:sc
  | None -> Alcotest.failf "unknown device %s" name

let large name =
  match Workloads.Suite.find name with
  | Some e -> e
  | None -> Alcotest.failf "unknown benchmark %s" name

let identity_run ?config maqam (e : Workloads.Suite.entry) =
  let initial =
    Arch.Layout.identity ~n_logical:e.n_qubits
      ~n_physical:(Arch.Maqam.n_qubits maqam)
  in
  Codar.Remapper.run ?config ~maqam ~initial (Lazy.force e.circuit)

let check_rows rows got =
  let bad =
    List.filter_map
      (fun (key, d) ->
        if List.assoc_opt key rows = Some d then None
        else Some (Printf.sprintf "(%S, %S);" key d))
      got
  in
  if bad <> [] then
    Alcotest.failf "%d golden mismatches:\n%s" (List.length bad)
      (String.concat "\n" bad);
  Alcotest.(check int) "one golden row per cell" (List.length got)
    (List.length rows)

(* CODAR from the identity layout, default objective. *)
let golden_codar =
  [
    ("heavy-hex-9/ghz_128", "8ee0f30b2eae0c09");
    ("heavy-hex-9/bv_128", "d808e9fc6bd253cc");
    ("heavy-hex-9/qaoa_100", "e7104e8b5023c004");
    ("heavy-hex-9/qft_64", "b1cc458b6e726f53");
    ("grid-12x12/ghz_128", "34a14fc43b8ae8e3");
    ("grid-12x12/bv_128", "9049b088f7dffcbd");
    ("grid-12x12/qaoa_100", "f0f0b55d5d2e3ab7");
    ("grid-12x12/qft_64", "24a7af2605d99ced");
    ("grid-10x10/rand_100_20k", "4aaede4c4e61d6bd");
  ]

let test_golden_codar () =
  check_rows golden_codar
    (List.map
       (fun (key, _) ->
         match String.split_on_char '/' key with
         | [ d; b ] -> (key, routed_digest (identity_run (device d) (large b)))
         | _ -> Alcotest.failf "bad key %s" key)
       golden_codar)

(* Every objective on one cell: the depth objective reads [dist_row]. *)
let golden_objectives =
  [
    ("makespan", "e7104e8b5023c004");
    ("depth", "a484899a9f3c1fba");
    ("slack", "ceb234eae3a483b6");
    ("t2", "e7104e8b5023c004");
  ]

let test_golden_objectives () =
  let maqam = device "heavy-hex-9" and e = large "qaoa_100" in
  check_rows golden_objectives
    (List.map
       (fun objective ->
         let config = { Codar.Remapper.default_config with objective } in
         (Objective.name objective, routed_digest (identity_run ~config maqam e)))
       Objective.all)

(* SABRE's reverse-traversal layout, and the SABRE route from it. *)
let golden_sabre =
  [ ("layout", "cbad40f055d5e876"); ("route", "278ce3f069fe5a26") ]

let test_golden_sabre () =
  let maqam = device "heavy-hex-9" and e = large "qaoa_100" in
  let circuit = Lazy.force e.circuit in
  let layout = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  check_rows golden_sabre
    [
      ("layout", digest (layout_key layout));
      ("route", routed_digest (Sabre.Router.run ~maqam ~initial:layout circuit));
    ]

(* Two disjoint 6×6 lattices (72 qubits): gates straddling them are
   unroutable. The outcome — schedule, or the exception and its message —
   of 40 fuzz circuits from random layouts, through both routers. *)
let two_grids =
  let g = Arch.Devices.grid ~rows:6 ~cols:6 in
  let edges = Arch.Coupling.edges g in
  Arch.Coupling.make ~name:"two-grids" ~n:72
    (edges @ List.map (fun (a, b) -> (a + 36, b + 36)) edges)

let outcome f =
  match f () with
  | r -> "ok " ^ routed_digest r
  | exception Codar.Remapper.Stuck msg -> "stuck " ^ msg
  | exception Sabre.Router.Stuck msg -> "stuck " ^ msg
  | exception Invalid_argument msg -> "invalid " ^ msg

let test_golden_disconnected () =
  let maqam = Arch.Maqam.make ~coupling:two_grids ~durations:sc in
  let all =
    List.init 40 (fun seed ->
        let rng = Random.State.make [| seed |] in
        let cfg = Fuzz.Gen.sample_config rng ~max_qubits:12 in
        let cfg = { cfg with gates = 1 + Random.State.int rng 120 } in
        let circuit = Fuzz.Gen.circuit_rng rng cfg in
        let n_logical = Qc.Circuit.n_qubits circuit in
        let initial =
          (* even seeds start inside the first lattice and route *)
          if seed mod 2 = 0 then
            Arch.Layout.identity ~n_logical ~n_physical:72
          else
            Arch.Layout.random (Random.State.make [| seed; 1 |]) ~n_logical
              ~n_physical:72
        in
        outcome (fun () -> Codar.Remapper.run ~maqam ~initial circuit)
        ^ "\n"
        ^ outcome (fun () -> Sabre.Router.run ~maqam ~initial circuit))
  in
  let count k =
    List.length
      (List.filter
         (fun s -> List.hd (String.split_on_char ' ' s) = k)
         (List.concat_map (String.split_on_char '\n') all))
  in
  Alcotest.(check (list int)) "ok / stuck / invalid" [ 40; 20; 20 ]
    [ count "ok"; count "stuck"; count "invalid" ];
  Alcotest.(check string) "outcome digest" "02b6446703adbd35"
    (digest (String.concat "\n" all))

let () =
  Alcotest.run "determinism"
    [
      ( "determinism",
        [
          Alcotest.test_case "route twice, identical events" `Quick
            test_route_twice_identical;
        ] );
      ( "reference equivalence",
        [
          Alcotest.test_case "10-benchmark subset = seed router" `Quick
            test_matches_seed_reference;
          QCheck_alcotest.to_alcotest prop_random_matches_reference;
        ] );
      ( "large-tier goldens",
        [
          Alcotest.test_case "codar schedules" `Quick test_golden_codar;
          Alcotest.test_case "all objectives" `Quick test_golden_objectives;
          Alcotest.test_case "sabre layout and route" `Quick test_golden_sabre;
          Alcotest.test_case "two-component device" `Quick
            test_golden_disconnected;
        ] );
      ( "unitary equivalence",
        [
          Alcotest.test_case "small benchmarks simulate equal" `Quick
            test_unitary_equivalence;
        ] );
    ]
