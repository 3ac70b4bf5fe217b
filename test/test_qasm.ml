(* Tests for the OpenQASM 2.0 front end: lexer, parser (including macro
   expansion and broadcast), printer, and a parse∘print round-trip
   property. *)

let circuit = Alcotest.testable Qc.Circuit.pp Qc.Circuit.equal
let gate = Alcotest.testable Qc.Gate.pp Qc.Gate.equal

(* ------------------------------------------------------------------ lexer *)

let lex src =
  let t = Qasm.Lexer.create () in
  Qasm.Lexer.lex t src;
  t

let test_lexer_basics () =
  let t = lex "cx q[0], q[1]; // comment\nrz(pi/2) q[0];" in
  Alcotest.(check int) "token count" 22 t.n;
  Alcotest.(check char) "first token is an identifier" 'a'
    (Bytes.get t.kind 0);
  Alcotest.(check string) "first token" "cx" (Qasm.Lexer.text t 0);
  Alcotest.(check int) "first line" 1 t.line.(0);
  Alcotest.(check char) "pi is its own kind" 'p' (Bytes.get t.kind 13);
  Alcotest.(check int) "line numbers advance" 2 t.line.(t.n - 1)

let test_lexer_numbers () =
  let t = lex "1.5e-3 2 .25" in
  let nums =
    List.filter_map
      (fun i -> if Bytes.get t.kind i = '0' then Some t.num.(i) else None)
      (List.init t.n Fun.id)
  in
  Alcotest.(check (list (float 1e-12))) "numbers" [ 0.0015; 2.; 0.25 ] nums

let test_lexer_errors () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (lex "h q[0]; @");
       false
     with Qasm.Lexer.Lex_error (1, _) -> true);
  Alcotest.(check bool) "unterminated string" true
    (try
       ignore (lex "include \"qelib");
       false
     with Qasm.Lexer.Lex_error _ -> true)

(* ----------------------------------------------------------------- parser *)

let parse = Qasm.Parser.parse

let test_parse_minimal () =
  let c = parse "qreg q[2]; h q[0]; cx q[0], q[1];" in
  Alcotest.check circuit "minimal"
    (Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ])
    c

let test_parse_header () =
  let c = parse "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1];\nx q[0];" in
  Alcotest.(check int) "one gate" 1 (Qc.Circuit.length c)

let test_parse_angles () =
  let c = parse "qreg q[1]; rz(pi/4) q[0]; u3(-pi/2, 0.5, 2*pi) q[0];" in
  match Qc.Circuit.gates c with
  | [ Qc.Gate.One (Qc.Gate.Rz a, 0); Qc.Gate.One (Qc.Gate.U3 (t, p, l), 0) ] ->
    Alcotest.(check (float 1e-12)) "pi/4" (Float.pi /. 4.) a;
    Alcotest.(check (float 1e-12)) "-pi/2" (-.Float.pi /. 2.) t;
    Alcotest.(check (float 1e-12)) "0.5" 0.5 p;
    Alcotest.(check (float 1e-12)) "2pi" (2. *. Float.pi) l
  | gates -> Alcotest.failf "unexpected gates: %d" (List.length gates)

let test_parse_expressions () =
  let c = parse "qreg q[1]; u1((1+2)*3 - 4/2) q[0];" in
  match Qc.Circuit.gates c with
  | [ Qc.Gate.One (Qc.Gate.U1 a, 0) ] ->
    Alcotest.(check (float 1e-12)) "arith" 7. a
  | _ -> Alcotest.fail "expected u1"

let test_parse_multiple_registers () =
  (* registers are flattened in declaration order *)
  let c = parse "qreg a[2]; qreg b[2]; cx a[1], b[0];" in
  Alcotest.check gate "offsets" (Qc.Gate.cx 1 2) (List.hd (Qc.Circuit.gates c));
  Alcotest.(check int) "total width" 4 (Qc.Circuit.n_qubits c)

let test_parse_broadcast () =
  let c = parse "qreg q[3]; h q;" in
  Alcotest.(check int) "h broadcast" 3 (Qc.Circuit.length c);
  let c = parse "qreg a[2]; qreg b[2]; cx a, b;" in
  Alcotest.(check (list string)) "pairwise cx" [ "cx"; "cx" ]
    (List.map Qc.Gate.name (Qc.Circuit.gates c));
  (match Qc.Circuit.gates c with
  | [ Qc.Gate.Two (Qc.Gate.CX, 0, 2); Qc.Gate.Two (Qc.Gate.CX, 1, 3) ] -> ()
  | _ -> Alcotest.fail "wrong broadcast expansion");
  (* scalar against register *)
  let c = parse "qreg a[1]; qreg b[3]; cx a[0], b;" in
  Alcotest.(check int) "scalar broadcast" 3 (Qc.Circuit.length c);
  Alcotest.(check bool) "size mismatch rejected" true
    (try
       ignore (parse "qreg a[2]; qreg b[3]; cx a, b;");
       false
     with Qasm.Parser.Parse_error _ -> true)

let test_parse_measure_barrier () =
  let c = parse "qreg q[2]; creg c[2]; barrier q; measure q -> c;" in
  match Qc.Circuit.gates c with
  | [ Qc.Gate.Barrier [ 0; 1 ]; Qc.Gate.Measure (0, 0); Qc.Gate.Measure (1, 1) ]
    ->
    ()
  | _ -> Alcotest.fail "wrong measure/barrier parse"

let test_parse_ccx_expanded () =
  let c = parse "qreg q[3]; ccx q[0], q[1], q[2];" in
  Alcotest.(check int) "toffoli expansion" 15 (Qc.Circuit.length c)

let test_parse_macro () =
  let src =
    "qreg q[3];\n\
     gate my_entangle(theta) a, b { h a; cx a, b; rz(theta) b; }\n\
     my_entangle(pi) q[0], q[2];"
  in
  let c = parse src in
  Alcotest.check circuit "macro expansion"
    (Qc.Circuit.make ~n_qubits:3
       [ Qc.Gate.h 0; Qc.Gate.cx 0 2; Qc.Gate.rz Float.pi 2 ])
    c

let test_parse_nested_macro () =
  let src =
    "qreg q[2];\n\
     gate base a { h a; }\n\
     gate outer a, b { base a; cx a, b; base b; }\n\
     outer q[0], q[1];"
  in
  let c = parse src in
  Alcotest.check circuit "nested macro"
    (Qc.Circuit.make ~n_qubits:2
       [ Qc.Gate.h 0; Qc.Gate.cx 0 1; Qc.Gate.h 1 ])
    c

let test_parse_errors () =
  let fails src =
    try
      ignore (parse src);
      false
    with Qasm.Parser.Parse_error _ -> true
  in
  Alcotest.(check bool) "unknown gate" true (fails "qreg q[1]; zap q[0];");
  Alcotest.(check bool) "unknown register" true (fails "h q[0];");
  Alcotest.(check bool) "index out of range" true (fails "qreg q[2]; h q[5];");
  Alcotest.(check bool) "duplicate qreg" true (fails "qreg q[1]; qreg q[2];");
  Alcotest.(check bool) "arity" true (fails "qreg q[2]; cx q[0];");
  Alcotest.(check bool) "param count" true (fails "qreg q[1]; rz q[0];");
  Alcotest.(check bool) "measure mismatch" true
    (fails "qreg q[2]; creg c[1]; measure q -> c;")

let test_parse_error_line () =
  try
    ignore (parse "qreg q[2];\nh q[0];\nzap q[1];");
    Alcotest.fail "expected failure"
  with Qasm.Parser.Parse_error (line, _) ->
    Alcotest.(check int) "error on line 3" 3 line

(* ---------------------------------------------------------------- printer *)

let test_printer_forms () =
  let check_gate g expected =
    Alcotest.(check string) expected expected (Fmt.str "%a" Qasm.Printer.pp_gate g)
  in
  check_gate (Qc.Gate.cx 0 1) "cx q[0], q[1];";
  check_gate (Qc.Gate.sdg 3) "sdg q[3];";
  check_gate (Qc.Gate.measure 2 1) "measure q[2] -> c[1];";
  check_gate (Qc.Gate.barrier [ 0; 2 ]) "barrier q[0], q[2];";
  check_gate (Qc.Gate.xx 0.5 0 1) "rxx(0.5) q[0], q[1];"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_printer_creg' () =
  let with_measure = Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.measure 0 3 ] in
  Alcotest.(check bool) "creg sized to max clbit" true
    (contains (Qasm.Printer.to_string with_measure) "creg c[4];");
  let no_measure = Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.h 0 ] in
  Alcotest.(check bool) "no creg without measure" false
    (contains (Qasm.Printer.to_string no_measure) "creg")

(* round trip: random circuits survive print+parse exactly *)
let circuit_gen =
  let open QCheck.Gen in
  let n = 4 in
  let angle = oneofl [ 0.25; -1.5; Float.pi /. 3.; 2.0 ] in
  let gate =
    let* q = int_range 0 (n - 1) in
    let* q2' = int_range 0 (n - 2) in
    let q2 = if q2' >= q then q2' + 1 else q2' in
    oneof
      [
        oneofl
          [ Qc.Gate.h q; Qc.Gate.x q; Qc.Gate.t q; Qc.Gate.sdg q; Qc.Gate.i q ];
        map (fun a -> Qc.Gate.rz a q) angle;
        map (fun a -> Qc.Gate.u2 a (a /. 2.) q) angle;
        map (fun a -> Qc.Gate.u3 a 0.1 (-.a) q) angle;
        return (Qc.Gate.cx q q2);
        return (Qc.Gate.cz q q2);
        return (Qc.Gate.swap q q2);
        map (fun a -> Qc.Gate.rzz a q q2) angle;
        map (fun a -> Qc.Gate.xx a q q2) angle;
        return (Qc.Gate.measure q q);
        return (Qc.Gate.barrier [ q ]);
      ]
  in
  let* gates = list_size (int_range 0 30) gate in
  return (Qc.Circuit.make ~n_qubits:n gates)

let circuit_arb =
  QCheck.make ~print:(Fmt.str "%a" Qc.Circuit.pp) circuit_gen

let prop_round_trip =
  QCheck.Test.make ~count:200 ~name:"print |> parse is the identity"
    circuit_arb
    (fun c ->
      let reparsed = Qasm.Parser.parse (Qasm.Printer.to_string c) in
      Qc.Circuit.equal c reparsed)

(* The same property driven by the fuzzing generator: full gate coverage
   with continuous uniform angles (every bit of the double must survive
   the %.17g print), plus byte-stability of a second print. *)
let test_round_trip_fuzz_gen () =
  for seed = 0 to 149 do
    let cfg =
      Fuzz.Gen.config ~n_qubits:(2 + (seed mod 5)) ~gates:25
        ~angles:Fuzz.Gen.Uniform ()
    in
    let c = Fuzz.Gen.circuit ~seed cfg in
    let printed = Qasm.Printer.to_string c in
    let reparsed = Qasm.Parser.parse printed in
    if not (Qc.Circuit.equal c reparsed) then
      Alcotest.failf "seed %d: print |> parse changed the circuit:@.%s" seed
        printed;
    let printed' = Qasm.Printer.to_string reparsed in
    if not (String.equal printed printed') then
      Alcotest.failf "seed %d: second print not byte-identical" seed
  done

(* Every benchmark, paper suite and large tier alike, must have finite
   angles and print as QASM that parses back to the same circuit. QFT's
   π/2^k once came from [1 lsl k], which overflows at k = 62: qft_64
   printed u1(inf) and a wrong-sign angle. *)
let test_suite_round_trips () =
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let c = Lazy.force e.circuit in
      List.iter
        (fun g ->
          if not (List.for_all Float.is_finite (Qc.Gate.params g)) then
            Alcotest.failf "%s: non-finite angle in %a" e.name Qc.Gate.pp g)
        (Qc.Circuit.gates c);
      if not (Qc.Circuit.equal c (Qasm.Parser.parse (Qasm.Printer.to_string c)))
      then Alcotest.failf "%s: print |> parse changed the circuit" e.name)
    (Workloads.Suite.all @ Workloads.Suite.large)

let test_round_trip_edge_cases () =
  let rt c = Qasm.Parser.parse (Qasm.Printer.to_string c) in
  (* empty circuit: header only *)
  let empty = Qc.Circuit.empty 3 in
  Alcotest.(check bool) "empty circuit" true (Qc.Circuit.equal empty (rt empty));
  (* zero-width circuit: qreg q[0]; *)
  let zero = Qc.Circuit.empty 0 in
  Alcotest.(check bool) "zero-width circuit" true (Qc.Circuit.equal zero (rt zero));
  (* measure-only program *)
  let measures =
    Qc.Circuit.make ~n_qubits:4
      [ Qc.Gate.measure 3 0; Qc.Gate.measure 0 1; Qc.Gate.measure 1 2 ]
  in
  Alcotest.(check bool) "measure-only" true
    (Qc.Circuit.equal measures (rt measures));
  (* an empty barrier is Asap's global fence; it prints as the
     whole-register form and re-parses as a barrier on every qubit —
     the same fence, normalised *)
  let fence = Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.h 0; Qc.Gate.barrier [] ] in
  let expect =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.h 0; Qc.Gate.barrier [ 0; 1; 2 ] ]
  in
  Alcotest.(check bool) "empty barrier normalises to all qubits" true
    (Qc.Circuit.equal expect (rt fence));
  (* and the normalised form is a fixpoint *)
  Alcotest.(check bool) "normalised fence round-trips" true
    (Qc.Circuit.equal expect (rt expect))

(* Multi-register inputs flatten into one register; from there,
   print |> parse must be idempotent even though the register names
   changed. *)
let test_multi_register_idempotent () =
  let src =
    "OPENQASM 2.0;\nqreg a[2];\nqreg b[3];\ncreg m[2];\ncreg n[1];\n\
     h a[0];\ncx a[1], b[2];\nbarrier b;\nmeasure a[0] -> m[1];\n\
     measure b[0] -> n[0];\n"
  in
  let c = Qasm.Parser.parse src in
  Alcotest.(check int) "registers flattened" 5 (Qc.Circuit.n_qubits c);
  let once = Qasm.Printer.to_string c in
  let again = Qasm.Printer.to_string (Qasm.Parser.parse once) in
  Alcotest.(check string) "print |> parse |> print is stable" once again

(* ----------------------------------------------------------- file corpus *)

let corpus_candidates = [ "../examples/qasm"; "examples/qasm" ]

let test_corpus_parses () =
  match List.find_opt Sys.file_exists corpus_candidates with
  | None -> () (* corpus not visible from this cwd; covered by the example *)
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".qasm")
    in
    Alcotest.(check bool) "corpus is non-empty" true (files <> []);
    List.iter
      (fun f ->
        let c = Qasm.Parser.parse_file (Filename.concat dir f) in
        Alcotest.(check bool) (f ^ " has gates") true (Qc.Circuit.length c > 0);
        (* and survives a print/parse round trip *)
        let again = Qasm.Parser.parse (Qasm.Printer.to_string c) in
        Alcotest.(check bool) (f ^ " round-trips") true
          (Qc.Circuit.equal c again))
      files

(* ---------------------------------------------------------------- goldens *)

(* Outputs of the reader pinned bit for bit: a digest of every gate's name,
   angle bit patterns and operands. Taken on the list-of-tokens reader
   that preceded the token tape; any change to the reader must leave them
   unchanged. *)
let render c =
  let b = Buffer.create 1024 in
  Buffer.add_string b (string_of_int (Qc.Circuit.n_qubits c));
  List.iter
    (fun g ->
      Buffer.add_char b '|';
      Buffer.add_string b (Qc.Gate.name g);
      List.iter
        (fun f -> Printf.bprintf b " %Lx" (Int64.bits_of_float f))
        (Qc.Gate.params g);
      match g with
      | Qc.Gate.Measure (q, c) -> Printf.bprintf b " %d>%d" q c
      | g -> List.iter (Printf.bprintf b " %d") (Qc.Gate.qubits g))
    (Qc.Circuit.gates c);
  Digest.to_hex (Digest.string (Buffer.contents b))

let suite_digests =
  [
      ("qft_3", "4ff0f96ba6cc9e6ec34eceef914cbd16");
      ("ghz_3", "c8c18f532cb962b03b5261f053ce8263");
      ("grover_3x3", "34f11845c1e365a1a2dc39061cadb687");
      ("grover_3", "250a33a3d9545846a320d93e486156b8");
      ("grover_3x2", "ef0602ee4923a3693d6b296479d7d639");
      ("tof_3", "8c839b4741557b920b459afb9abd8620");
      ("qft_4", "1cb4dba9796f44974eb58751505de470");
      ("bv_4", "79c7df470f940d2ce7f70efb163a19c4");
      ("dj_4", "e5e99f1b330c08fe0231d6b4b1d252d2");
      ("adder_4", "2ced94ed47775df8d6b9f1e6ba42c469");
      ("tof_4", "d230261f91de44daf0dcc8fd271a025b");
      ("wstate_4", "9d205f8c687c1f516777455c97389121");
      ("qpe_4", "51fc8edbaea07f868a0137827f6985c8");
      ("qft_5", "60fe7d6b317e0a49e4bd864348103750");
      ("ghz_5", "b4285d5dbf1ca826100f70e9a129e797");
      ("grover_4", "96e26c51941aa6a4e1d47b68084f1dd5");
      ("tof_5", "7f682d2f94cd3aae3aa052b5eb1dbfef");
      ("oracle_5", "e4027c2b4ae958b1a7ff5d48ae247999");
      ("qft_6", "7ef03fed43aed9c5f9a92ccd497abfb1");
      ("bv_6", "088fd06aaa1bcdfd7fc70dfd4d842cac");
      ("dj_6", "2c7fbf4e386de1c53415db7a34986a63");
      ("adder_6", "dfffdb71ec91eb31223bd6361b335d2f");
      ("qaoa_6", "2ca1a564153fbafa90d19041afc67c67");
      ("tof_6", "7720769a5735468949dc674c6edc739d");
      ("oracle_6", "9c16fdaf1a0bd89616da0d5458024279");
      ("simon_6", "ce84fb8ea0a6361b01d75e98f4b13e54");
      ("qpe_6", "da4b3c99d5d41b76b6b10ae0070ab5f5");
      ("qft_7", "cfb79490993c56597c490f2715515b37");
      ("qft_8", "c8ac2e8902c41b7b6f4c2104533642ac");
      ("ghz_8", "74c2ec666124dd872886a4f69afe2163");
      ("bv_8", "f66a992b4fde9c151ed6fee458fbd804");
      ("dj_8", "0482ceaec10e63801196a0570b50aba3");
      ("adder_8", "5c1c18f8c57badcae96a7b4f342eb5ea");
      ("qaoa_8", "0b662b81003cc6b36b525a83576d23d7");
      ("tof_8", "4a1079c7d3b61d1c775c55f6f0c3a012");
      ("oracle_8", "977d57a0b3f320c78150e6093182bb96");
      ("wstate_8", "0be003591e2c873150f2ddf0b491c22f");
      ("simon_8", "ea02758a703c52466ebe76f7dfa5ae51");
      ("qpe_8", "affa2e07c472cc4728b4d6cd3ba9e7ad");
      ("qft_10", "3f8356e8b448dc4700eceaa9549e3be0");
      ("bv_10", "5f94d3fe9555f6ce70682b50f187dee2");
      ("dj_10", "4444133490fbf8eea787a7c28dbca814");
      ("adder_10", "ef6a674d3ea90a629e27976b15a49be4");
      ("qaoa_10", "7010a16707763bbe0fe9392b70058956");
      ("tof_10", "e1a2de1dd2402e365dd89583832c7e7f");
      ("oracle_10", "12abbf08042ea151471201f278d950e9");
      ("simon_10", "54ef5db6d5366995ff649da78a2046dd");
      ("qft_12", "cf6a5f4691f3165d67c8ec7da8528c63");
      ("ghz_12", "58ff0a9fe9426f081b03f6196b3f9508");
      ("bv_12", "800f2853a105b6a5d4889f633bc06831");
      ("dj_12", "3892d16bd24ac7b83bc45ccadd6f3ad4");
      ("adder_12", "b33e66efbb819cdb17d4c17bf47a747d");
      ("qaoa_12", "163eb0e8a90a3fe38750885ff4df6669");
      ("oracle_12", "829bbe1c3d4c1fdda9b1b2f028cf6569");
      ("wstate_12", "69d4a28d1c85a3ba097b142a5bc4430b");
      ("bv_13", "79f8757d8174a7e393b5c69900d99d64");
      ("qft_14", "dc2919c6fab7b612518e78f813cd746c");
      ("ghz_14", "11f0f1506b9e502d70e72be5d58d42d9");
      ("adder_14", "e8e59eeccc21b75a2686e7551adbd9a5");
      ("qaoa_14", "f3e8314f24cb78245881129e09c9fbb8");
      ("oracle_14", "d4e724891aec8ef44ac1db0bb50df213");
      ("bv_15", "34a991b2ab129899ee623e43483a8833");
      ("qft_16", "5e94b421d6af0b4142a13c3623687609");
      ("ghz_16", "319be20e5039da668e2fd1b979b407c1");
      ("bv_16", "a625636fa14a82e4440b104558ee072e");
      ("adder_16", "44a8f55594d553c15f1902263fdc58df");
      ("qaoa_16", "885ad9e8262e0ce789246f74cc2f0dc3");
      ("rand_16_30k", "2c9f3253b0b9cf637c6f79f1ef6b67da");
      ("ghz_36", "bcdefd0d92e3dd0d2cba0b2d9a1baa80");
      ("qaoa_36", "36535cabd1df8472620b04a013b2ae00");
      ("rand_36", "6445bf8eaf056652e563f98a68b7f543");
  ]

let test_suite_digests () =
  Alcotest.(check int) "one digest per suite entry"
    (List.length Workloads.Suite.all) (List.length suite_digests);
  List.iter
    (fun (e : Workloads.Suite.entry) ->
      let printed = Qasm.Printer.to_string (Lazy.force e.circuit) in
      Alcotest.(check string) e.name
        (List.assoc e.name suite_digests)
        (render (Qasm.Parser.parse printed)))
    Workloads.Suite.all

let corpus_digests =
  [
      ("regression-grid-2x3-angles.qasm", "e7d36ee60534792b76cfcbda89f74489");
      ("regression-q5-barrier-measure.qasm", "6829816fb9dab3246ecaa2a1247d73c4");
      ("regression-q5-measure-only.qasm", "d9be29c2e3f661ed2e832ac24d8bbd45");
      ("regression-ring-8-antipodal.qasm", "54be857752e7f24439667fc289314557");
      ("regression-ring-8-commute-chain.qasm", "cded361aea9676316781b7b019ac26cf");
  ]

let test_corpus_digests () =
  let dir =
    List.find_opt Sys.file_exists [ "corpus"; "test/corpus" ]
    |> Option.value ~default:"corpus"
  in
  List.iter
    (fun (file, digest) ->
      Alcotest.(check string) file digest
        (render (Qasm.Parser.parse_file (Filename.concat dir file))))
    corpus_digests

type outcome =
  | Ok of string
  | Parse of int * string
  | Lex of int * string
  | Invalid of string

let outcome src =
  match Qasm.Parser.parse src with
  | c -> Ok (render c)
  | exception Qasm.Parser.Parse_error (line, msg) -> Parse (line, msg)
  | exception Qasm.Lexer.Lex_error (line, msg) -> Lex (line, msg)
  | exception Invalid_argument msg -> Invalid msg

let pp_outcome ppf = function
  | Ok d -> Fmt.pf ppf "Ok %s" d
  | Parse (l, m) -> Fmt.pf ppf "Parse_error (%d, %S)" l m
  | Lex (l, m) -> Fmt.pf ppf "Lex_error (%d, %S)" l m
  | Invalid m -> Fmt.pf ppf "Invalid_argument %S" m

let outcome_t = Alcotest.testable pp_outcome ( = )

(* gate macros with parameters, nested macros and barriers inside them;
   broadcast; upper-case U/CX/PI; number shapes; comments and headers;
   every built-in *)
let battery =
  [
    ("macros",
     "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ngate rot(a, b) t { rz(a) t; barrier t; ry(b / 2) t; }\ngate pair(th) x, y { rot(th, -th) x; cx x, y; rot(th * 2, pi) y; }\ngate outer x, y, z { pair(0.3) x, z; barrier x, y; pair(pi / 4) z, y; }\ngate nop() a { }\npair(0.5) q[0], q[2];\nouter q[2], q[1], q[0];\nnop q[1];\nnop q[0];\n",
     Ok "e381277a8b68268744d802569e8ec225");
    ("broadcast",
     "qreg a[3];\nqreg b[3];\ncreg c[3];\ncreg d[1];\nh a;\ncx a, b;\ncx a[0], b;\nrz(0.5) b;\nswap b, a[1];\nbarrier a, b[1];\nbarrier b;\nmeasure b -> c;\nmeasure a[2] -> d[0];\n",
     Ok "caf374d83053576b62da84dd8c16e9aa");
    ("uppercase",
     "qreg q[3];\nU(PI/2, 0, pi) q[0];\nCX q[0], q[1];\nu(Pi, -PI/4, 1) q[1];\nH q[0];\nRz(pI) q[1];\nCCX q[0], q[1], q[2];\n",
     Ok "157de0ce2f30ecebbc9c1dc8f52d5c17");
    ("numbers",
     "qreg q[2];\nrz(1.5e-3) q[0];\nrz(.25) q[0];\nrz(2E+2) q[0];\nu1(007) q[0];\nrx(1.) q[0];\nry(123456789012345678901234) q[0];\nrz(1e-300 * 1e-300) q[0];\nu3(-0., 0.1 + 0.2, 3 / 7) q[1];\nrz(-(-(2.5))) q[1];\nrz(1 - 2 - 3) q[1];\nrz(8 / 4 / 2) q[1];\nrz(999999999999999) q[0];\nrz(9999999999999999) q[0];\nh q[1.0];\nh q[1e0];\n",
     Ok "426b1fdd13ad1f5ac1cca23d83dbd3d5");
    ("comments",
     "// leading comment { with braces }\nOPENQASM 2.0; // version\ninclude \"qelib1.inc\"; // library\n\n  qreg   q [ 2 ] ;// no space\r\n\tcreg c[2];\nh q[0]; // h\n// cx q[0], q[1];\ncx q[0],q[1];measure q[1]->c[0];\n// trailing",
     Ok "599ffe6ed2739d5110c934e21dc321b9");
    ("builtins",
     "qreg q[3];\nid q[0]; x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];\nrx(0.1) q[0]; ry(0.2) q[0]; rz(0.3) q[0]; p(0.4) q[0]; u1(0.5) q[0];\nu2(0.6, 0.7) q[0]; u3(0.8, 0.9, 1.0) q[0]; u(1.1, 1.2, 1.3) q[0];\ncx q[0], q[1]; cz q[1], q[2]; swap q[0], q[2]; rzz(1.4) q[0], q[1];\nrxx(1.5) q[1], q[2]; xx(1.6) q[2], q[0]; ccx q[0], q[1], q[2];\ncswap q[2], q[0], q[1]; cu1(1.7) q[0], q[1]; cp(1.8) q[1], q[0];\ncrz(1.9) q[2], q[1];\n",
     Ok "632b2ac3b682397f7e90f3377204a6d3");
    ("registers",
     "qreg a[2]; qreg b[3]; creg m[2]; creg n[3];\nh b; cx a[1], b[2]; measure b -> n; measure a -> m; barrier a[0], b;\nqreg e[0]; h e; zap e;\n",
     Ok "00853e687406013c20ab6243a1546c41");
    ("macro shadowing",
     "qreg q[2];\ngate h a { x a; }\ngate g a { h a; }\ngate g a { y a; }\ng q[0];\nh q[1];\n",
     Ok "b9efe620ca7d32618ca1b87510ad1cb3");
    ("empty",
     "",
     Ok "cfcd208495d565ef66e7dff9f98764da");
  ]

let test_battery () =
  List.iter
    (fun (name, src, expected) ->
      Alcotest.check outcome_t name expected (outcome src))
    battery

(* (exception, line, message) of malformed inputs. The whole source is
   lexed before any of it is parsed, so a lex error wins over a parse
   error earlier in the file. *)
let error_triples =
  [
  ("qreg q[1]; zap q[0];", Parse (1, "unknown gate zap"));
  ("h q[0];", Parse (1, "unknown qreg q"));
  ("qreg q[2];\nh q[5];", Parse (2, "index out of range for qreg q"));
  ("qreg q[1]; qreg q[2];", Parse (1, "duplicate qreg q"));
  ("creg c[1]; creg c[2];", Parse (1, "duplicate creg c"));
  ("qreg q[2]; cx q[0];", Parse (1, "cx expects 2 qubit(s)"));
  ("qreg q[1]; rz q[0];", Parse (1, "rz expects 1 parameter(s)"));
  ("qreg q[1]; x(1) q[0];", Parse (1, "x expects 0 parameter(s)"));
    ("qreg q[2]; creg c[1]; measure q -> c;", Parse (1, "measure operands must both be scalars or equal-size registers"));
    ("qreg q[2]; creg c[2]; measure q[0] -> c;", Parse (1, "measure operands must both be scalars or equal-size registers"));
    ("qreg q[2];\nh q[0]\ncx q[0], q[1];", Parse (3, "expected , or ; after operand"));
    ("qreg q[1];\nrz(pi/2 q[0];", Parse (2, "expected , or ) in parameter list"));
  ("qreg q[1];\nrz(theta) q[0];", Parse (0, "unbound parameter theta"));
  ("qreg q[1];\nrz(a + b) q[0];", Parse (0, "unbound parameter b"));
  ("qreg q[1.5];", Parse (1, "expected non-negative integer"));
  ("qreg q[x];", Parse (1, "expected integer"));
  ("qreg q[1];\nh q[0];\n@", Lex (3, "unexpected character '@'"));
    ("qreg q[1];\nzap q[0];\nh q[0]; $", Lex (3, "unexpected character '$'"));
  ("qreg q[1];\nh q[0\n];\n&", Lex (4, "unexpected character '&'"));
  ("include \"qelib1.inc", Lex (1, "unterminated string"));
  ("qreg q[1]; rz(1.2.3) q[0];", Lex (1, "bad number: 1.2.3"));
  ("qreg q[1]; rz(1e) q[0];", Lex (1, "bad number: 1e"));
  ("qreg q[1]; rz(.) q[0];", Lex (1, "unexpected character '.'"));
  ("qreg q[2];\ngate g a {\nh a;\n", Parse (0, "unterminated gate body"));
  ("gate g(a, b a { h a; }", Parse (1, "expected , or ) in gate formals"));
    ("qreg q[1]; gate g a h a; }", Parse (1, "expected { after gate header"));
    ("qreg q[2];\ngate g a, b { cx a, c; }\ng q[0], q[1];", Parse (3, "unbound qubit argument c"));
    ("qreg q[2];\ngate g(t) a { rz(t) a; }\ng q[0];", Parse (3, "g: parameter count mismatch"));
    ("qreg q[2];\ngate g a { h a; }\ng q[0], q[1];", Parse (3, "g: qubit count mismatch"));
    ("qreg q[1];\ngate g(t) a { rz(s) a; }\ng(1) q[0];", Parse (0, "unbound parameter s"));
    ("qreg q[2];\ngate g a, b { cx a[0], b; }", Parse (2, "expected , or ; in gate body"));
  ("qreg q[1]; ) h q[0];", Parse (1, "expected statement"));
  ("qreg q[1]; h q[0];;", Parse (1, "expected statement"));
  ("qreg q[2]; measure q[0] q[1];", Parse (1, "expected ->"));
  ("measure x[0] -> y[0];", Parse (1, "unknown qreg x"));
  ("qreg q[2]; measure q[0] -> y[0];", Parse (1, "unknown creg y"));
    ("qreg q[2]; cx q[0], q[0];", Invalid ("Circuit.make: cx q[0], q[0] repeats operand 0"));
  ("qreg q", Parse (0, "unexpected end of input"));
  ("OPENQASM 2.0", Parse (0, "unexpected end of input"));
    ("qreg q[2]; qreg r[3]; cx q, r;", Parse (1, "register size mismatch in broadcast"));
  ("gate pi a { h a; }", Parse (1, "expected identifier"));
  ("qreg q[2];\nrz(1,\n) q[0];", Parse (3, "expected expression"));
  ("qreg q[1];\nrz(*2) q[0];", Parse (2, "expected expression"));
    ("qreg q[1];\nrz((1) q[0];", Parse (2, "expected , or ) in parameter list"));
  ("qreg q[1]; h 3;", Parse (1, "expected identifier"));
  ("qreg q[1]; h q[0], ;", Parse (0, "expected identifier"));
  ("qreg 5[1];", Parse (1, "expected identifier"));
  ("qreg q[1]; barrier q[2];", Parse (1, "index out of range for qreg q"));
    ("qreg q[1]; gate g a { barrier a; h a;", Parse (0, "unterminated gate body"));
    ]

let test_error_triples () =
  List.iter
    (fun (src, expected) -> Alcotest.check outcome_t src expected (outcome src))
    error_triples

(* Braces are tokens. They were once rewritten to the identifiers
   __lbrace__ and __rbrace__ before lexing, so those identifiers acted as
   braces and a brace could stand where an identifier was expected. *)
let test_brace_tokens () =
  List.iter
    (fun (src, expected) -> Alcotest.check outcome_t src expected (outcome src))
    [
      ( "qreg q[1]; gate g a __lbrace__ h a; __rbrace__ g q[0];",
        Parse (1, "expected { after gate header") );
      (* read "expected { after gate header" when { was an identifier *)
      ("qreg q[1]; gate g() { h a; }", Parse (1, "expected identifier"));
      ( "qreg q[1]; gate __lbrace__ a { h a; } __lbrace__ q[0];",
        Ok (render (Qc.Circuit.make ~n_qubits:1 [ Qc.Gate.h 0 ])) );
    ]

let () =
  Alcotest.run "qasm"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "minimal" `Quick test_parse_minimal;
          Alcotest.test_case "header" `Quick test_parse_header;
          Alcotest.test_case "angles" `Quick test_parse_angles;
          Alcotest.test_case "expressions" `Quick test_parse_expressions;
          Alcotest.test_case "registers" `Quick test_parse_multiple_registers;
          Alcotest.test_case "broadcast" `Quick test_parse_broadcast;
          Alcotest.test_case "measure/barrier" `Quick test_parse_measure_barrier;
          Alcotest.test_case "ccx" `Quick test_parse_ccx_expanded;
          Alcotest.test_case "macro" `Quick test_parse_macro;
          Alcotest.test_case "nested macro" `Quick test_parse_nested_macro;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
        ] );
      ( "printer",
        [
          Alcotest.test_case "forms" `Quick test_printer_forms;
          Alcotest.test_case "creg" `Quick test_printer_creg';
          QCheck_alcotest.to_alcotest prop_round_trip;
          Alcotest.test_case "suite round-trips" `Quick test_suite_round_trips;
          Alcotest.test_case "round-trip over fuzz generator" `Quick
            test_round_trip_fuzz_gen;
          Alcotest.test_case "round-trip edge cases" `Quick
            test_round_trip_edge_cases;
          Alcotest.test_case "multi-register idempotence" `Quick
            test_multi_register_idempotent;
        ] );
      ("corpus", [ Alcotest.test_case "sample files" `Quick test_corpus_parses ]);
      ( "goldens",
        [
          Alcotest.test_case "suite parse digests" `Quick test_suite_digests;
          Alcotest.test_case "corpus parse digests" `Quick test_corpus_digests;
          Alcotest.test_case "hand battery" `Quick test_battery;
          Alcotest.test_case "error triples" `Quick test_error_triples;
          Alcotest.test_case "brace tokens" `Quick test_brace_tokens;
        ] );
    ]
