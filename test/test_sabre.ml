(* Tests for the SABRE baseline and its reverse-traversal initial mapping. *)

let sc = Arch.Durations.superconducting

let maqam_linear n =
  Arch.Maqam.make ~coupling:(Arch.Devices.linear n) ~durations:sc

let maqam_tokyo =
  Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let identity nl np = Arch.Layout.identity ~n_logical:nl ~n_physical:np

let test_no_swaps_when_adjacent () =
  let circuit =
    Qc.Circuit.make ~n_qubits:3 [ Qc.Gate.cx 0 1; Qc.Gate.cx 1 2 ]
  in
  let r = Sabre.Router.run ~maqam:(maqam_linear 3) ~initial:(identity 3 3) circuit in
  Alcotest.(check int) "no swaps" 0 (Schedule.Routed.swap_count r);
  Alcotest.(check int) "asap makespan" 4 r.makespan

let test_routes_distant_cx () =
  let circuit = Qc.Circuit.make ~n_qubits:4 [ Qc.Gate.cx 0 3 ] in
  let r = Sabre.Router.run ~maqam:(maqam_linear 4) ~initial:(identity 4 4) circuit in
  Alcotest.(check bool) "swaps inserted" true (Schedule.Routed.swap_count r >= 2);
  match
    Schedule.Verify.check_all ~maqam:(maqam_linear 4) ~original:circuit r
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e

let test_verified_on_qft () =
  let circuit = Workloads.Builders.qft 8 in
  let initial = identity 8 20 in
  let r = Sabre.Router.run ~maqam:maqam_tokyo ~initial circuit in
  (match Schedule.Verify.check_all ~maqam:maqam_tokyo ~original:circuit r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e);
  (* SABRE reorders only across independent DAG branches — never by
     commutation — so the replayed multiset of logical gates is exactly the
     original's *)
  match Schedule.Verify.replay_logical r with
  | Ok replay ->
    Alcotest.(check int) "replay length" (Qc.Circuit.length circuit)
      (List.length replay);
    Alcotest.(check bool) "same multiset of gates" true
      (List.equal Qc.Gate.equal
         (List.sort Qc.Gate.compare replay)
         (List.sort Qc.Gate.compare (Qc.Circuit.gates circuit)))
  | Error e -> Alcotest.failf "replay: %a" Schedule.Verify.pp_error e

let test_statevector_equiv () =
  let circuit = Workloads.Builders.qft 5 in
  let maqam =
    Arch.Maqam.make ~coupling:(Arch.Devices.grid ~rows:2 ~cols:3) ~durations:sc
  in
  let r = Sabre.Router.run ~maqam ~initial:(identity 5 6) circuit in
  Alcotest.(check bool) "equivalent" true
    (Sim.Equiv.routed_equivalent ~maqam ~original:circuit r)

let test_decay_discourages_repeats () =
  (* with decay disabled the router may ping-pong more; we only check the
     config plumbing works and both settings stay correct *)
  let circuit = Workloads.Builders.qft 6 in
  let config = { Sabre.Router.default_config with decay_delta = 0. } in
  let r =
    Sabre.Router.run ~config ~maqam:(maqam_linear 6) ~initial:(identity 6 6)
      circuit
  in
  match
    Schedule.Verify.check_all ~maqam:(maqam_linear 6) ~original:circuit r
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e

let test_wide_circuit_rejected () =
  let circuit = Qc.Circuit.make ~n_qubits:5 [ Qc.Gate.h 4 ] in
  Alcotest.(check bool) "width check" true
    (try
       ignore
         (Sabre.Router.run ~maqam:(maqam_linear 3) ~initial:(identity 5 5)
            circuit);
       false
     with Invalid_argument _ -> true)

let test_reverse_traversal () =
  let circuit = Workloads.Builders.qft 6 in
  let maqam = maqam_tokyo in
  let layout = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
  Alcotest.(check int) "logical width" 6 (Arch.Layout.n_logical layout);
  Alcotest.(check int) "physical width" 20 (Arch.Layout.n_physical layout);
  (* the produced layout must be usable by both routers *)
  let c = Codar.Remapper.run ~maqam ~initial:layout circuit in
  let s = Sabre.Router.run ~maqam ~initial:layout circuit in
  List.iter
    (fun r ->
      match Schedule.Verify.check_all ~maqam ~original:circuit r with
      | Ok () -> ()
      | Error e -> Alcotest.failf "verify: %a" Schedule.Verify.pp_error e)
    [ c; s ];
  (* the reverse-traversal layout should beat (or match) a pessimal layout
     for SABRE itself on average-sized input; just require it not to crash
     and give a finite result *)
  Alcotest.(check bool) "finite makespan" true (s.makespan > 0)

let test_extended_window_config () =
  let circuit = Workloads.Builders.qft 6 in
  List.iter
    (fun extended_size ->
      let config = { Sabre.Router.default_config with extended_size } in
      let r =
        Sabre.Router.run ~config ~maqam:maqam_tokyo ~initial:(identity 6 20)
          circuit
      in
      match Schedule.Verify.check_all ~maqam:maqam_tokyo ~original:circuit r with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "verify (E=%d): %a" extended_size
          Schedule.Verify.pp_error e)
    [ 0; 5; 50 ]

(* ---------------------------------------------------------------- goldens *)

(* Digests of SABRE's observable output — the [reverse_traversal] layout
   and the [run] schedule routed from it — over the whole evaluation suite
   on Tokyo-20 (the entries that fit) and Sycamore-54. The tables were
   generated from the straightforward rescan-everything router; the
   incremental front, scratch reuse and delta scoring must reproduce them
   bit for bit. A mismatch prints the offending rows in table syntax. *)

let gate_key g =
  String.concat ","
    (Qc.Gate.name g
     :: List.map string_of_int (Qc.Gate.qubits g)
    @ List.map (fun a -> Int64.to_string (Int64.bits_of_float a)) (Qc.Gate.params g))

let layout_key l =
  String.concat "," (Array.to_list (Array.map string_of_int (Arch.Layout.to_array l)))

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let layout_digest l = digest (layout_key l)

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

let maqam_sycamore =
  Arch.Maqam.make ~coupling:Arch.Devices.sycamore_54 ~durations:sc

let golden_tokyo =
  [
    ("qft_3", ("834c105eb95bae8e", "7f0d460b4c510b78"));
    ("ghz_3", ("432bbe434c5e8264", "4db945f8168bdf0d"));
    ("grover_3x3", ("e8d294bb7f20ecd4", "17f5a372e1fd062a"));
    ("grover_3", ("f5a1a560ad1695f0", "8f86defcb6c65ac3"));
    ("grover_3x2", ("e8d294bb7f20ecd4", "6f72bfdee9b15a4f"));
    ("tof_3", ("f5a1a560ad1695f0", "9e7c21d8a846fd41"));
    ("qft_4", ("9b6d469cb8830627", "6e02270f4e45702b"));
    ("bv_4", ("1c3ec000d67dc7dd", "7bdbf844cfb280a4"));
    ("dj_4", ("1c3ec000d67dc7dd", "318a73c2163f8d8a"));
    ("adder_4", ("9b6d469cb8830627", "fcd569244fbb8f15"));
    ("tof_4", ("91eef260424e4d0d", "ce98603acc133d4a"));
    ("wstate_4", ("37770ad1bcf26046", "89dcd7f8ebdf787c"));
    ("qpe_4", ("1c3ec000d67dc7dd", "77fe6459f4259f58"));
    ("qft_5", ("a8b2049d4a528984", "64b7a60c078d8758"));
    ("ghz_5", ("b1959ceae39bb969", "37574c6029672975"));
    ("grover_4", ("2cc1df18a4120cd3", "b68ae53ae4651079"));
    ("tof_5", ("aa36326c2120b44e", "08d2a5069b909d99"));
    ("oracle_5", ("94951dc061a50afb", "42a1c87100d0382b"));
    ("qft_6", ("d827381b21e5dcaa", "f8c0f8c1fe7e2be1"));
    ("bv_6", ("0484dce350351872", "d88eff320c28918a"));
    ("dj_6", ("a43aa184a8d06f3b", "ea543b093a8619e8"));
    ("adder_6", ("d7ab4eccc5adcdff", "ce9f8e5250d7176a"));
    ("qaoa_6", ("8333cdbab40a98c1", "dc2e290e58720aaf"));
    ("tof_6", ("00055d68e6877a93", "c879aee0ca578193"));
    ("oracle_6", ("a4923ae757bb6f41", "7d265961e978518c"));
    ("simon_6", ("13c9475e0186f6de", "4daaca82c264380f"));
    ("qpe_6", ("13c9475e0186f6de", "8686f38720db54a8"));
    ("qft_7", ("bb599c6cec3f7c7f", "8504c92e36fbf379"));
    ("qft_8", ("beb94485f710fb0d", "204dc1ac6d09a9bb"));
    ("ghz_8", ("d4062cdfc5f0ced4", "ad3b03f67583b34e"));
    ("bv_8", ("cac5adfe961c5b64", "0ac4a2bd274caa47"));
    ("dj_8", ("cac5adfe961c5b64", "c6d2a09fbbdb619b"));
    ("adder_8", ("f6e3b36ed4b74520", "e28bdce48897c52b"));
    ("qaoa_8", ("d4062cdfc5f0ced4", "98d47b83596470c2"));
    ("tof_8", ("6ff561924cd58042", "c41b34d96962a444"));
    ("oracle_8", ("86581b884d91adce", "e8a385daab36a43a"));
    ("wstate_8", ("d4062cdfc5f0ced4", "b5a3f3a22d09c2dc"));
    ("simon_8", ("46fed1ea00cac980", "a6f5971761121d48"));
    ("qpe_8", ("25562fd4987db552", "418734e66eba7760"));
    ("qft_10", ("65e1b33799f1ee42", "e1fafafe4ac8663d"));
    ("bv_10", ("9dd4e7d58899f113", "edca3e84203f15a8"));
    ("dj_10", ("4e5870711e31b8e7", "5f7cdb8dbc2ad47c"));
    ("adder_10", ("8d3e354546a4093b", "b1aa3bcd8f134420"));
    ("qaoa_10", ("3c097fba4fe6a360", "24e1fef111051455"));
    ("tof_10", ("2bc93ca8569c691c", "79feae10d3f76d35"));
    ("oracle_10", ("a38f78822ad432ca", "6bcd96a50c1bdc71"));
    ("simon_10", ("7673c5168ccb76de", "4ffda37875d8a64a"));
    ("qft_12", ("551433b2ea733a2d", "3747702af71c9dc0"));
    ("ghz_12", ("fb4b1d7ab55760e8", "2eaa51b1d88259f6"));
    ("bv_12", ("c476d2d01f2adb8b", "d51a7c6195dafcb7"));
    ("dj_12", ("ece6bb0cc16ac36e", "a1a32d47c7f7b66f"));
    ("adder_12", ("6e43940693593ca6", "7007f9f481768579"));
    ("qaoa_12", ("08e095823c21185e", "7cac9b894bad99ee"));
    ("oracle_12", ("218b42d80fc4c6a9", "d3c6f242c21876b0"));
    ("wstate_12", ("fb4b1d7ab55760e8", "a3cebe95608b9356"));
    ("bv_13", ("491ca24a0b7661bf", "8360f752a296ba3e"));
    ("qft_14", ("c2682ef5410e0658", "159096ba079303ea"));
    ("ghz_14", ("0ea63c4ba991a70c", "711548a73af968a2"));
    ("adder_14", ("79e6b01a34a13849", "49ec9b1cb386eab7"));
    ("qaoa_14", ("7d287a0187a67c5b", "7633e0f978a7f8d4"));
    ("oracle_14", ("855eea0d94a20134", "83646b6a2ba00b63"));
    ("bv_15", ("ac1e4d81d0d1425b", "a6db62f03bcc0a58"));
    ("qft_16", ("f9e603336e061af0", "4394db218fa836af"));
    ("ghz_16", ("0f3e53db457c7676", "fc2667a52daeda8e"));
    ("bv_16", ("626de8a6db2a50d3", "fb4108f48d4fe19f"));
    ("adder_16", ("2589464c7700078a", "c89780a85a049bcb"));
    ("qaoa_16", ("149fbebd8cb67e01", "443eccd0d33b7fbb"));
    ("rand_16_30k", ("e1500f9f55ce9324", "af527a515c374b4e"));
  ]

let golden_sycamore =
  [
    ("qft_3", ("d39407d66e3d18e0", "b7b1ce0be2809cb2"));
    ("ghz_3", ("fe2e4493853ae8af", "2b8845880ad8bd9e"));
    ("grover_3x3", ("b11248fb76515770", "04fcda07f6afa9e7"));
    ("grover_3", ("56523ec289cc03eb", "6d5e637c61c4cb6a"));
    ("grover_3x2", ("b11248fb76515770", "61b81f0718e095d8"));
    ("tof_3", ("56523ec289cc03eb", "6203694e0853a096"));
    ("qft_4", ("5c8700823336bb83", "3d3d6dda1dc9f5cd"));
    ("bv_4", ("459ffe9ce489069a", "c7a7e78626d1284c"));
    ("dj_4", ("b0592887334a5113", "162f6f86bc7abeab"));
    ("adder_4", ("d08d06e8e77e5c86", "f74eac3f599ef031"));
    ("tof_4", ("1ddb020e6b9ca044", "ed26503010022619"));
    ("wstate_4", ("a584249284a08c26", "2be4f91e2e3c1454"));
    ("qpe_4", ("be66b79fb587676b", "3b5016319dddc7ec"));
    ("qft_5", ("3630a473486fac97", "17a3e9872df2d89a"));
    ("ghz_5", ("e0fc3f7e3430b765", "b76430ff47c1a676"));
    ("grover_4", ("a5312ce6d6d868aa", "51ec9cfa93ad59e0"));
    ("tof_5", ("30d546d446e82f45", "d29fb9c1c2c00111"));
    ("oracle_5", ("fc1f351cacc899e2", "500263fe7e963618"));
    ("qft_6", ("050bce2c8f372586", "3ed5a82f5a5031e5"));
    ("bv_6", ("fc3e613396e3dd44", "58e411772cb7cb53"));
    ("dj_6", ("46d436b8af3b50c1", "7e37633299b610b5"));
    ("adder_6", ("744fe702f764c17f", "6c214469bc0ceb10"));
    ("qaoa_6", ("6f7c5a7d77e77e8c", "003d2536a2d28f4d"));
    ("tof_6", ("955474bd7cb66d89", "072a9afcc788e6e4"));
    ("oracle_6", ("d247e4ce02e70d5f", "3203785887a1416d"));
    ("simon_6", ("7587e4f742449019", "ccc3f8bdf933fc76"));
    ("qpe_6", ("b077c6730081c3cd", "7b205e490f877f84"));
    ("qft_7", ("525becad76f732d9", "27b90b4415fe9b87"));
    ("qft_8", ("fdb281e54eb860ab", "f8e59104b41a52bd"));
    ("ghz_8", ("ba16a02f10f483c8", "ed130a7a39dad740"));
    ("bv_8", ("a0e5d765faa31361", "88f98fa1ae436f65"));
    ("dj_8", ("f642bba071fcd7b9", "9bc10e40fc854cda"));
    ("adder_8", ("08d818d418d15e17", "0e31d2906ac28b1c"));
    ("qaoa_8", ("ba16a02f10f483c8", "ea73a8dbaed39e21"));
    ("tof_8", ("cdd48adc0e00ddd3", "174821da4327fde0"));
    ("oracle_8", ("f7674396f6a5622b", "d41996f5a26430f4"));
    ("wstate_8", ("ba16a02f10f483c8", "3827d5032794b0ab"));
    ("simon_8", ("e3f991734092138d", "c4248d697da35d15"));
    ("qpe_8", ("dd65dd44c5c1b2c8", "5813febe0787eba6"));
    ("qft_10", ("3f3fba9b31542210", "717e6d6f12ec1268"));
    ("bv_10", ("8463a7f577ec5414", "ff680950194485a1"));
    ("dj_10", ("ae9ec4de8b9ebaa0", "df4cae1d69fd79e4"));
    ("adder_10", ("2c2bfb4c5afa7399", "33c2a855a818bceb"));
    ("qaoa_10", ("459feaa1e65405d0", "80e849b4b8cb616f"));
    ("tof_10", ("a013a42438c6f3b1", "629770f79859ec19"));
    ("oracle_10", ("43211ea147d34585", "718a0099309eefd0"));
    ("simon_10", ("664c2763d0c4fa26", "3a49d4c8be90a29f"));
    ("qft_12", ("91a9888d03770871", "199237776ecffb68"));
    ("ghz_12", ("bfe97fe35bd85aa9", "651815ba0acdba60"));
    ("bv_12", ("8677a18db9b319c0", "fc6e916e9a3990cd"));
    ("dj_12", ("868c7ae4f0da8362", "3ac37d98740d0167"));
    ("adder_12", ("6cb79b014151223a", "ebcd307c796b6d7d"));
    ("qaoa_12", ("a77ea7c3ae918499", "8caf5472f318d22f"));
    ("oracle_12", ("5a756c35ff087197", "6c18195bed2a01f0"));
    ("wstate_12", ("bfe97fe35bd85aa9", "6cfb8ed865895642"));
    ("bv_13", ("da124eee54718233", "b913227bbb22f484"));
    ("qft_14", ("795cf228aaf71982", "f058793c2ad76764"));
    ("ghz_14", ("a73473cb7e217b4c", "548db11c51f5036e"));
    ("adder_14", ("a3b28588a528da85", "9ef0ee8bb7f51a3e"));
    ("qaoa_14", ("e659da94dd58c51d", "082bfc38e494c94f"));
    ("oracle_14", ("af4598bf3db51f5a", "965732c8bce673f6"));
    ("bv_15", ("2dc6f20df22d425c", "402e65c1351066a1"));
    ("qft_16", ("ccba52113fe3ecf5", "4e624d8e2f3ca17b"));
    ("ghz_16", ("8281e5d8b18f82f0", "d194029fec21233a"));
    ("bv_16", ("ac882f4b5964003a", "5f368dcd08a0f831"));
    ("adder_16", ("19e466c3c2992ac1", "18c0ebbdf561cd28"));
    ("qaoa_16", ("eb22b080dddc82dc", "4ee99f13c5dab870"));
    ("rand_16_30k", ("89a2bddc3a3cd862", "2aa40bdc7597b8e0"));
    ("ghz_36", ("fdd235c14a3e1733", "b0f8644f4944bef2"));
    ("qaoa_36", ("7fa40a7c48e690b6", "f3df6359e83ae8b5"));
    ("rand_36", ("fdf1a360581af14d", "324da05251d11c78"));
  ]

let check_goldens ~maqam golden () =
  let n_phys = Arch.Maqam.n_qubits maqam in
  let entries = Workloads.Suite.fitting ~max_qubits:n_phys in
  let bad =
    List.filter_map
      (fun (e : Workloads.Suite.entry) ->
        let circuit = Lazy.force e.circuit in
        let layout = Sabre.Initial_mapping.reverse_traversal ~maqam circuit in
        let r = Sabre.Router.run ~maqam ~initial:layout circuit in
        let got = (layout_digest layout, routed_digest r) in
        if List.assoc_opt e.name golden = Some got then None
        else Some (Printf.sprintf "(%S, (%S, %S));" e.name (fst got) (snd got)))
      entries
  in
  if bad <> [] then
    Alcotest.failf "%d golden mismatches:\n%s" (List.length bad)
      (String.concat "\n" bad);
  Alcotest.(check int) "one golden row per fitting entry" (List.length entries)
    (List.length golden)

(* Two disjoint 4-rings: gates straddling the components are unroutable. *)
let two_rings =
  Arch.Coupling.make ~name:"two-rings" ~n:8
    [ (0, 1); (1, 2); (2, 3); (0, 3); (4, 5); (5, 6); (6, 7); (4, 7) ]

let fuzz_case ~seed ~max_qubits =
  let rng = Random.State.make [| seed |] in
  let cfg = Fuzz.Gen.sample_config rng ~max_qubits in
  let cfg = { cfg with gates = 1 + Random.State.int rng 200 } in
  Fuzz.Gen.circuit_rng rng cfg

let outcome f digest =
  match f () with
  | v -> "ok " ^ digest v
  | exception Sabre.Router.Stuck msg -> "stuck " ^ msg
  | exception Invalid_argument msg -> "invalid " ^ msg

(* Outcomes — schedule, or the exception and its message — of 200 fuzz
   circuits on the disconnected device, from random initial layouts. The
   router must fail on exactly the same inputs with exactly the same
   message as the rescanning router these digests were taken from. *)
let test_disconnected_golden () =
  let maqam = Arch.Maqam.make ~coupling:two_rings ~durations:sc in
  let counts = Hashtbl.create 3 in
  let all =
    List.init 200 (fun seed ->
        let circuit = fuzz_case ~seed ~max_qubits:8 in
        let initial =
          Arch.Layout.random (Random.State.make [| seed; 1 |])
            ~n_logical:(Qc.Circuit.n_qubits circuit) ~n_physical:8
        in
        let r =
          outcome (fun () -> Sabre.Router.run ~maqam ~initial circuit) routed_digest
        in
        let l =
          outcome
            (fun () -> Sabre.Initial_mapping.reverse_traversal ~initial ~maqam circuit)
            layout_digest
        in
        let kind = List.hd (String.split_on_char ' ' r) in
        Hashtbl.replace counts kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind));
        r ^ "\n" ^ l)
  in
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check (list int)) "ok / invalid / stuck" [ 19; 181; 0 ]
    [ count "ok"; count "invalid"; count "stuck" ];
  Alcotest.(check string) "outcome digest" "f08df32620631cbd"
    (digest (String.concat "\n" all))

(* Both qubits of the only gate are isolated: no SWAP touches them. *)
let test_no_candidate_stuck () =
  let coupling = Arch.Coupling.make ~name:"edgeless" ~n:3 [] in
  let maqam = Arch.Maqam.make ~coupling ~durations:sc in
  let circuit = Qc.Circuit.make ~n_qubits:2 [ Qc.Gate.h 0; Qc.Gate.cx 0 1 ] in
  Alcotest.(check string) "stuck"
    "stuck SABRE: no SWAP candidate — disconnected device?"
    (outcome
       (fun () -> Sabre.Router.run ~maqam ~initial:(identity 2 3) circuit)
       routed_digest)

(* Sycamore-54 again, on the sparse distance backend (per-pair BFS rather
   than the flat table) — its routes must not differ. *)
let sycamore_sparse =
  let c = Arch.Devices.sycamore_54 in
  Arch.Coupling.make ?coords:(Arch.Coupling.coords c) ~backend:Arch.Coupling.Sparse
    ~name:"sycamore-sparse" ~n:(Arch.Coupling.n_qubits c) (Arch.Coupling.edges c)

let prop_final_layout =
  let devices =
    [|
      (Arch.Devices.ibm_q20_tokyo, 12);
      (Arch.Devices.sycamore_54, 16);
      (Arch.Devices.ring 7, 7);
      (two_rings, 8);
    |]
  in
  QCheck.Test.make ~count:200 ~name:"final_layout agrees with run"
    QCheck.(pair (int_bound (Array.length devices - 1)) (int_bound 1_000_000))
    (fun (d, seed) ->
      let coupling, max_qubits = devices.(d) in
      let maqam = Arch.Maqam.make ~coupling ~durations:sc in
      let circuit = fuzz_case ~seed ~max_qubits in
      let n_physical = Arch.Coupling.n_qubits coupling in
      let initial =
        Arch.Layout.random (Random.State.make [| seed; 1 |])
          ~n_logical:(Qc.Circuit.n_qubits circuit) ~n_physical
      in
      let before = Arch.Layout.to_array initial in
      let r =
        outcome (fun () -> Sabre.Router.run ~maqam ~initial circuit) (fun r ->
            layout_digest r.Schedule.Routed.final)
      in
      let l =
        outcome
          (fun () -> Sabre.Router.final_layout ~maqam ~initial circuit)
          layout_digest
      in
      if r <> l then QCheck.Test.fail_reportf "run: %s, final_layout: %s" r l;
      if Arch.Layout.to_array initial <> before then
        QCheck.Test.fail_report "initial layout mutated";
      (if d = 1 then
         let sparse = Arch.Maqam.make ~coupling:sycamore_sparse ~durations:sc in
         let digest c = routed_digest (Sabre.Router.run ~maqam:c ~initial circuit) in
         if digest maqam <> digest sparse then
           QCheck.Test.fail_report "sparse backend routes differently");
      true)

let () =
  Alcotest.run "sabre"
    [
      ( "router",
        [
          Alcotest.test_case "no swaps when adjacent" `Quick
            test_no_swaps_when_adjacent;
          Alcotest.test_case "routes distant cx" `Quick test_routes_distant_cx;
          Alcotest.test_case "verified qft" `Quick test_verified_on_qft;
          Alcotest.test_case "statevector equiv" `Quick test_statevector_equiv;
          Alcotest.test_case "decay config" `Quick test_decay_discourages_repeats;
          Alcotest.test_case "wide rejected" `Quick test_wide_circuit_rejected;
          Alcotest.test_case "extended set sizes" `Quick
            test_extended_window_config;
        ] );
      ( "goldens",
        [
          Alcotest.test_case "tokyo-20 suite" `Quick
            (check_goldens ~maqam:maqam_tokyo golden_tokyo);
          Alcotest.test_case "sycamore-54 suite" `Quick
            (check_goldens ~maqam:maqam_sycamore golden_sycamore);
          Alcotest.test_case "disconnected device" `Quick
            test_disconnected_golden;
          Alcotest.test_case "no candidate" `Quick test_no_candidate_stuck;
          QCheck_alcotest.to_alcotest prop_final_layout;
        ] );
      ( "initial mapping",
        [ Alcotest.test_case "reverse traversal" `Quick test_reverse_traversal ]
      );
    ]
