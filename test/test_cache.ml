(* The content-addressed cache: fingerprint canonicalisation, LRU
   mechanics, and persistence.

   The property that matters most is the QCheck one: a circuit and its
   print → parse image must fingerprint identically, because the daemon
   hashes the *parsed* request — if formatting could shift the
   fingerprint, equal workloads would fragment the cache and the
   byte-identical-replay guarantee would silently turn into a recompute.
   The converse (distinct options → distinct canonical bytes) is asserted
   on the encoding, not the 64-bit hash, so CI never flakes on a true
   hash collision. *)

module Fp = Cache.Fingerprint

let sc = Arch.Durations.superconducting
let tokyo = Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo ~durations:sc

let fp ?collect_stats ?(router = "codar") ?(placement = "sabre")
    ?(restarts = 8) ?(seed = 0) ?(maqam = tokyo) circuit =
  Fp.compute ?collect_stats ~circuit ~maqam ~router ~placement ~restarts
    ~seed ()

(* ----------------------------------------------------------- test vectors *)

let test_fnv_vectors () =
  (* published FNV-1a/64 vectors — pins basis and prime forever *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Fmt.str "fnv1a64 %S" input)
        expected
        (Fp.to_hex (Fp.fnv1a64 input)))
    [
      ("", "cbf29ce484222325");
      ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8");
    ]

let test_versioned_prefix () =
  let b =
    Fp.canonical_bytes ~circuit:(Qc.Circuit.make ~n_qubits:1 []) ~maqam:tokyo
      ~router:"codar" ~placement:"sabre" ~restarts:8 ~seed:0 ()
  in
  Alcotest.(check bool)
    "canonical bytes carry the codar-fp/2 version tag" true
    (String.length b >= 10 && String.sub b 0 10 = "codar-fp/2")

(* The hand-written digit writers against the Printf/string_of_int forms
   they replaced, at the edges: negative and extreme integers, zero, and
   64-bit patterns with the top bit set. *)
let test_digit_writers () =
  List.iter
    (fun h ->
      Alcotest.(check string) (Printf.sprintf "to_hex %Ld" h)
        (Printf.sprintf "%016Lx" h) (Fp.to_hex h))
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x00f0_0000_0000_0abcL ];
  List.iter
    (fun seed ->
      let b =
        Fp.canonical_bytes ~circuit:(Qc.Circuit.make ~n_qubits:1 [])
          ~maqam:tokyo ~router:"codar" ~placement:"sabre" ~restarts:8 ~seed ()
      in
      let tail = Printf.sprintf "makespan8;%s;0;" (string_of_int seed) in
      let n = String.length tail in
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) tail
        (String.sub b (String.length b - n) n))
    [ 0; 7; 10; -1; -10; 1234567890; max_int; min_int ]

(* ------------------------------------------------------------ sensitivity *)

let test_sensitivity () =
  let c =
    Qc.Circuit.make ~n_qubits:3
      [ Qc.Gate.h 0; Qc.Gate.rz 0.25 1; Qc.Gate.cx 0 2 ]
  in
  let base = fp c in
  let check name other =
    Alcotest.(check bool) (name ^ " changes the fingerprint") true
      (not (String.equal base other))
  in
  check "seed" (fp ~seed:1 c);
  check "restarts" (fp ~restarts:9 c);
  check "router" (fp ~router:"sabre" c);
  check "placement" (fp ~placement:"trivial" c);
  check "stats flag" (fp ~collect_stats:true c);
  check "device"
    (fp
       ~maqam:
         (Arch.Maqam.make ~coupling:Arch.Devices.ibm_q16_melbourne
            ~durations:sc)
       c);
  check "durations"
    (fp ~maqam:(Arch.Maqam.make ~coupling:Arch.Devices.ibm_q20_tokyo
                  ~durations:Arch.Durations.uniform)
       c);
  (* a one-ULP angle nudge is a different circuit *)
  let c' =
    Qc.Circuit.make ~n_qubits:3
      [
        Qc.Gate.h 0;
        Qc.Gate.rz (Float.succ 0.25) 1;
        Qc.Gate.cx 0 2;
      ]
  in
  check "angle ULP" (fp c')

(* ------------------------------------------- canonicalisation property *)

(* local circuit generator (each test binary is standalone) covering every
   gate arity the printer emits: bare, one-angle, multi-angle, two-qubit *)
let circuit_gen =
  let open QCheck.Gen in
  let* n = int_range 2 8 in
  let q = int_range 0 (n - 1) in
  let angle = float_range (-7.) 7. in
  let gate =
    let* a = q in
    let* b = q in
    let b = if a = b then (a + 1) mod n else b in
    oneof
      [
        oneofl
          [ Qc.Gate.h a; Qc.Gate.x a; Qc.Gate.t a; Qc.Gate.sdg a ];
        map (fun th -> Qc.Gate.rz th a) angle;
        map (fun th -> Qc.Gate.u3 th 0.1 (-.th) a) angle;
        return (Qc.Gate.cx a b);
        return (Qc.Gate.swap a b);
        map (fun th -> Qc.Gate.rzz th a b) angle;
      ]
  in
  let* gates = list_size (int_range 0 25) gate in
  return (Qc.Circuit.make ~n_qubits:n gates)

let prop_fingerprint_canonical =
  QCheck.Test.make ~count:200
    ~name:"print |> parse preserves the fingerprint"
    (QCheck.make ~print:(Fmt.str "%a" Qc.Circuit.pp) circuit_gen)
    (fun c ->
      let c' = Qasm.Parser.parse (Qasm.Printer.to_string c) in
      String.equal (fp c) (fp c'))

let prop_distinct_circuits_distinct_bytes =
  (* injectivity of the encoding for gate-list differences *)
  QCheck.Test.make ~count:200
    ~name:"distinct circuits give distinct canonical bytes"
    (QCheck.make
       ~print:(fun (a, b) -> Fmt.str "%a / %a" Qc.Circuit.pp a Qc.Circuit.pp b)
       QCheck.Gen.(pair circuit_gen circuit_gen))
    (fun (a, b) ->
      let bytes c =
        Fp.canonical_bytes ~circuit:c ~maqam:tokyo ~router:"codar"
          ~placement:"sabre" ~restarts:8 ~seed:0 ()
      in
      QCheck.assume (not (Qc.Circuit.equal a b));
      not (String.equal (bytes a) (bytes b)))

(* ------------------------------------------------------------------- LRU *)

let record bench =
  let req =
    {
      Service.Protocol.source = `Bench bench;
      arch = "tokyo";
      durations = "sc";
      router = "codar";
      placement = "sabre";
      objective = None;
      metric = None;
      restarts = 2;
      seed = 0;
      collect_stats = false;
    }
  in
  match Service.Engine.spec_of_route_req req with
  | Error msg -> Alcotest.failf "spec: %s" msg
  | Ok spec -> fst (Service.Engine.route spec)

let r_qft4 = lazy (record "qft_4")

let counters_check t ~hits ~misses ~insertions ~evictions ~invalidations =
  let c = Cache.counters t in
  Alcotest.(check (list int))
    "counters [hits;misses;ins;evict;inval]"
    [ hits; misses; insertions; evictions; invalidations ]
    [
      c.Codar.Stats.hits; c.Codar.Stats.misses; c.Codar.Stats.insertions;
      c.Codar.Stats.evictions; c.Codar.Stats.invalidations;
    ]

let test_lru_eviction_order () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:2 () in
  Cache.add t "a" r;
  Cache.add t "b" r;
  (* touch "a": it becomes MRU, so "b" must be the eviction victim *)
  Alcotest.(check bool) "hit a" true (Cache.find t "a" <> None);
  Cache.add t "c" r;
  Alcotest.(check int) "capped at 2" 2 (Cache.length t);
  Alcotest.(check bool) "b evicted" true (Cache.find t "b" = None);
  Alcotest.(check bool) "a kept" true (Cache.find t "a" <> None);
  Alcotest.(check bool) "c kept" true (Cache.find t "c" <> None);
  counters_check t ~hits:3 ~misses:1 ~insertions:3 ~evictions:1
    ~invalidations:0

let test_replace_same_key () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:4 () in
  Cache.add t "k" r;
  Cache.add t "k" r;
  Alcotest.(check int) "replace keeps one entry" 1 (Cache.length t);
  counters_check t ~hits:0 ~misses:0 ~insertions:2 ~evictions:0
    ~invalidations:0

let test_byte_cap_keeps_oversized () =
  let r = Lazy.force r_qft4 in
  (* a byte cap smaller than one entry must keep the newest entry alone
     rather than thrash to empty *)
  let t = Cache.create ~max_bytes:8 ~max_entries:10 () in
  Cache.add t "big" r;
  Alcotest.(check int) "oversized entry survives alone" 1 (Cache.length t);
  Cache.add t "big2" r;
  Alcotest.(check int) "next oversized entry replaces it" 1 (Cache.length t);
  Alcotest.(check bool) "newest wins" true (Cache.find t "big2" <> None)

let test_clear_counts_invalidations () =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:8 () in
  Cache.add t "a" r;
  Cache.add t "b" r;
  Cache.clear t;
  Alcotest.(check int) "empty after clear" 0 (Cache.length t);
  counters_check t ~hits:0 ~misses:0 ~insertions:2 ~evictions:0
    ~invalidations:2

(* ----------------------------------------------------------- persistence *)

let test_persistence_round_trip () =
  let r = Lazy.force r_qft4 in
  let r8 = record "ghz_8" in
  let t = Cache.create ~max_entries:8 () in
  Cache.add t "one" r;
  Cache.add t "two" r8;
  ignore (Cache.find t "one");
  (* "one" is now MRU *)
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cache.save t path;
      match Cache.load ~max_entries:8 path with
      | Error e -> Alcotest.failf "load: %s" (Cache.load_error_to_string e)
      | Ok t' ->
        Alcotest.(check int) "entries survive" 2 (Cache.length t');
        counters_check t' ~hits:0 ~misses:0 ~insertions:0 ~evictions:0
          ~invalidations:0;
        (* byte-identical replay straight out of the loaded cache *)
        let ser x =
          Report.Json.to_string ~indent:0 (Report.Record.to_json x)
        in
        (match Cache.find t' "two" with
        | None -> Alcotest.fail "entry \"two\" lost"
        | Some got ->
          Alcotest.(check string) "record bytes survive disk" (ser r8)
            (ser got)));
  (* recency survives: reload into a 1-entry cache and only the MRU fits *)
  let path2 = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
    (fun () ->
      Cache.save t path2;
      match Cache.load ~max_entries:1 path2 with
      | Error e ->
        Alcotest.failf "truncating load: %s" (Cache.load_error_to_string e)
      | Ok small ->
        Alcotest.(check int) "truncated to cap" 1 (Cache.length small);
        Alcotest.(check bool)
          "the MRU entry is the one kept" true
          (Cache.find small "one" <> None))

(* crash-safe persistence: the checksum header and the typed cold-start
   paths for every way the file can be damaged *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_saved_cache f =
  let r = Lazy.force r_qft4 in
  let t = Cache.create ~max_entries:4 () in
  Cache.add t "k" r;
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Cache.save t path;
      f path)

let test_save_writes_checksum_header () =
  with_saved_cache (fun path ->
      let contents = read_file path in
      Alcotest.(check bool)
        "file starts with the checksum magic" true
        (String.length contents > 18
        && String.sub contents 0 17 = "codar-cache-sum/1");
      (* no temp file left behind by the atomic rename *)
      let dir = Filename.dirname path in
      let leftovers =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > String.length (Filename.basename path)
               && String.sub f 0 (String.length (Filename.basename path))
                  = Filename.basename path)
      in
      Alcotest.(check (list string)) "no .tmp leftovers" [] leftovers)

let expect_corrupt name path =
  match Cache.load ~max_entries:4 path with
  | Error (Cache.Corrupt _) -> ()
  | Error e ->
    Alcotest.failf "%s: expected Corrupt, got %s" name
      (Cache.load_error_to_string e)
  | Ok _ -> Alcotest.failf "%s: damaged file must not load" name

let test_load_detects_byte_flip () =
  with_saved_cache (fun path ->
      let contents = read_file path in
      (* flip one payload byte, past the header line *)
      let header_end = String.index contents '\n' + 1 in
      let i = header_end + ((String.length contents - header_end) / 2) in
      let b = Bytes.of_string contents in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      write_file path (Bytes.to_string b);
      expect_corrupt "byte flip" path)

let test_load_detects_truncation () =
  with_saved_cache (fun path ->
      let contents = read_file path in
      write_file path (String.sub contents 0 (String.length contents - 10));
      expect_corrupt "truncation" path)

let test_load_accepts_legacy_plain_json () =
  (* pre-checksum snapshots have no header; they must still load *)
  with_saved_cache (fun path ->
      let contents = read_file path in
      let header_end = String.index contents '\n' + 1 in
      let payload =
        String.sub contents header_end (String.length contents - header_end)
      in
      write_file path payload;
      match Cache.load ~max_entries:4 path with
      | Error e ->
        Alcotest.failf "legacy load: %s" (Cache.load_error_to_string e)
      | Ok t -> Alcotest.(check int) "legacy entries survive" 1 (Cache.length t))

let test_load_rejects_empty_file () =
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      write_file path "";
      match Cache.load ~max_entries:4 path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "empty file must not load")

let test_load_rejects_garbage () =
  let path = Filename.temp_file "codar-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\":\"wrong/9\",\"entries\":[]}";
      close_out oc;
      match Cache.load ~max_entries:4 path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "wrong schema must not load");
  match Cache.load ~max_entries:4 "/nonexistent/cache.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must not load"

(* ------------------------------------------- fingerprint version bump *)

let test_prebump_snapshot_loads_cold () =
  (* a genuine pre-PR8 (codar-fp/1) cache snapshot: it must load as a
     typed success — old persistence files never crash a daemon — but its
     v1 fingerprint keys must never satisfy a v2 lookup, so the bump
     invalidates cleanly (a recompute, not a stale hit) *)
  let fixture =
    (* runtest executes in the test dir; `dune exec` from the root *)
    List.find_opt Sys.file_exists
      [ "prebump_cache_v1.json"; "test/prebump_cache_v1.json" ]
    |> Option.value ~default:"prebump_cache_v1.json"
  in
  match Cache.load ~max_entries:4 fixture with
  | Error e ->
    Alcotest.failf "pre-bump snapshot must load: %s"
      (Cache.load_error_to_string e)
  | Ok t ->
    Alcotest.(check int) "pre-bump entry survives the load" 1 (Cache.length t);
    (* the snapshot's key is the v1 fingerprint of exactly this request *)
    let v1_key = "09ee161db5252103" in
    (match Cache.find t v1_key with
    | Some r ->
      Alcotest.(check string) "stored record parses typed" "qft_4"
        r.Report.Record.source;
      Alcotest.(check string) "pre-PR8 objective defaults to makespan"
        "makespan" r.Report.Record.objective
    | None -> Alcotest.fail "v1 key lost by the loader");
    let circuit =
      match Workloads.Suite.find "qft_4" with
      | Some e -> Lazy.force e.Workloads.Suite.circuit
      | None -> Alcotest.fail "qft_4 missing from the suite"
    in
    let v2_key =
      Fp.compute ~circuit ~maqam:tokyo ~router:"codar" ~placement:"sabre-1"
        ~restarts:8 ~seed:0 ()
    in
    Alcotest.(check bool) "v2 fingerprint differs from the v1 key" true
      (not (String.equal v1_key v2_key));
    Alcotest.(check bool) "same request misses after the bump" true
      (Cache.find t v2_key = None)

(* ------------------------------------------------------------ key goldens *)

(* Keys persisted by `serve --cache-file` must stay valid: the hex key of
   every suite circuit on Tokyo with the default options, and an MD5 over
   the newline-joined suite keys for each device × objective × stats flag.
   Taken on the Printf-based encoder that preceded the digit writers. *)
let suite_keys =
  [
      ("qft_3", "2c854fe739fdfc19");
      ("ghz_3", "1f8bb27f6bd6af08");
      ("grover_3x3", "83a5c252f51b8c9f");
      ("grover_3", "e6648b0c4831c772");
      ("grover_3x2", "4158fdafbae215e2");
      ("tof_3", "77d76e57fff45956");
      ("qft_4", "b222dc826ef325c0");
      ("bv_4", "9cf234c5d1d3fd1b");
      ("dj_4", "872542165bd61039");
      ("adder_4", "7560e6e338e7a696");
      ("tof_4", "f49a9ad860d684aa");
      ("wstate_4", "a5dadbe4b166132a");
      ("qpe_4", "de5f60dade6d6248");
      ("qft_5", "41d4495bf0c21ef2");
      ("ghz_5", "2a9052b3009367aa");
      ("grover_4", "8a36f9eacc68b9a1");
      ("tof_5", "929c98d04b6e5ef8");
      ("oracle_5", "2c43f6ff3d6f9aa1");
      ("qft_6", "472e345baa4e4a02");
      ("bv_6", "87a71c56d2e127ac");
      ("dj_6", "94988bc576555a58");
      ("adder_6", "8ec2fb3d99e8564b");
      ("qaoa_6", "6433897ea45d83d1");
      ("tof_6", "1c52d1f18ba22b0b");
      ("oracle_6", "85cab44f14c3a6bf");
      ("simon_6", "a02da4253a9a2062");
      ("qpe_6", "d5016eb267f49a36");
      ("qft_7", "d8ef69e2e35e33d3");
      ("qft_8", "d8255867b16f3cb8");
      ("ghz_8", "bd8c1a5b48a9a584");
      ("bv_8", "e39ba2009fbde9aa");
      ("dj_8", "9d133ad888d5448c");
      ("adder_8", "454c8de786f16fe6");
      ("qaoa_8", "4d0ebdd6153cd21e");
      ("tof_8", "c1d40cb268ed6001");
      ("oracle_8", "7527503912fafbdd");
      ("wstate_8", "8edfe5138e8e0024");
      ("simon_8", "00af2ef1a460e377");
      ("qpe_8", "89bb1959932b6f4c");
      ("qft_10", "85ddbb193916a0c5");
      ("bv_10", "8938bf5529d7dc28");
      ("dj_10", "3f6343c0168f323c");
      ("adder_10", "82d8ea27d5a177ea");
      ("qaoa_10", "4bd152beb2846405");
      ("tof_10", "9d3c02ab5e2415fb");
      ("oracle_10", "58539fba24150665");
      ("simon_10", "a05986af6f8217dd");
      ("qft_12", "f7218dc32c9e2c50");
      ("ghz_12", "d8c071ce8a064d33");
      ("bv_12", "db581a018aaea1b5");
      ("dj_12", "7481df2863ecea38");
      ("adder_12", "624b1f990759e4c1");
      ("qaoa_12", "c40f82023f4bd0ad");
      ("oracle_12", "75cd7b398cf5e536");
      ("wstate_12", "e78d9eda85bd0130");
      ("bv_13", "3499fcf6603426c8");
      ("qft_14", "c51ea76a4780ea0d");
      ("ghz_14", "3bfff711d7a528df");
      ("adder_14", "88dee3a8f8cd7cd9");
      ("qaoa_14", "709a349533228e53");
      ("oracle_14", "6d242903abe289a1");
      ("bv_15", "6187612fc0fa241a");
      ("qft_16", "54e9c8b1c8de85f9");
      ("ghz_16", "ed536b10e8e30873");
      ("bv_16", "81c92d5e5cd38b9a");
      ("adder_16", "0ce705985a1a1418");
      ("qaoa_16", "37967fb7cc8a04db");
      ("rand_16_30k", "b8889beea223476c");
      ("ghz_36", "87b34bab2d72833d");
      ("qaoa_36", "ac44b2bccfc88ec6");
      ("rand_36", "ed35a4d8250f83f7");
  ]

let key_digests =
  [
    ("tokyo", "makespan", false, "5398fabc25bae7d74c475b2df2a1dc5f");
    ("tokyo", "makespan", true, "e37bce9b0377ce1d164c74142350b0db");
    ("tokyo", "slack", false, "0ce42efcfed40d02814c2dcc1b8066bf");
    ("tokyo", "slack", true, "b6822118f0ae7b8089b524e65336fcc8");
    ("tokyo", "depth", false, "a913e2f499ea7a407a14b9c73da008aa");
    ("tokyo", "depth", true, "8a75a1032770341b2e9d093875ebd92a");
    ("tokyo", "t2", false, "ae82319d66f851bd47c7b5f360e8f979");
    ("tokyo", "t2", true, "f2caf63a329e9d388cee83df8d1ed1e7");
    ("sycamore", "makespan", false, "12c8e9b840b244a33141a7ffd9aba79e");
    ("sycamore", "makespan", true, "f871ed465dd17d2519430cf6a204480d");
    ("sycamore", "slack", false, "b8a74f19999c48c350abf18ff6d33bba");
    ("sycamore", "slack", true, "7a38066f19b750d3bebcaae7356bd1cb");
    ("sycamore", "depth", false, "81594fd742dffe2d737edb4d2c8221a5");
    ("sycamore", "depth", true, "d12b008f84a5a92af9fe06390130416f");
    ("sycamore", "t2", false, "e1f2959bfa664bc26f0b3f4a3cd0929e");
    ("sycamore", "t2", true, "923b11dca62798312da91a2b706d448c");
  ]

let test_suite_keys () =
  let keys maqam objective collect_stats =
    List.map
      (fun (e : Workloads.Suite.entry) ->
        Fp.compute ~collect_stats ~objective ~circuit:(Lazy.force e.circuit)
          ~maqam ~router:"codar" ~placement:"sabre" ~restarts:8 ~seed:0 ())
      Workloads.Suite.all
  in
  List.iter2
    (fun (e : Workloads.Suite.entry) key ->
      Alcotest.(check string) e.name (List.assoc e.name suite_keys) key)
    Workloads.Suite.all (keys tokyo "makespan" false);
  let sycamore =
    Arch.Maqam.make ~coupling:Arch.Devices.sycamore_54 ~durations:sc
  in
  List.iter
    (fun (device, objective, collect_stats, digest) ->
      let maqam = if device = "tokyo" then tokyo else sycamore in
      Alcotest.(check string)
        (Fmt.str "%s/%s/stats=%b" device objective collect_stats)
        digest
        (Digest.to_hex
           (Digest.string
              (String.concat "\n" (keys maqam objective collect_stats)))))
    key_digests

let () =
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "FNV-1a vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "versioned prefix" `Quick test_versioned_prefix;
          Alcotest.test_case "digit writers" `Quick test_digit_writers;
          Alcotest.test_case "option sensitivity" `Quick test_sensitivity;
          Alcotest.test_case "suite keys" `Quick test_suite_keys;
          QCheck_alcotest.to_alcotest prop_fingerprint_canonical;
          QCheck_alcotest.to_alcotest prop_distinct_circuits_distinct_bytes;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace same key" `Quick test_replace_same_key;
          Alcotest.test_case "oversized entry kept" `Quick
            test_byte_cap_keeps_oversized;
          Alcotest.test_case "clear invalidates" `Quick
            test_clear_counts_invalidations;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "round trip" `Quick test_persistence_round_trip;
          Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
          Alcotest.test_case "checksum header" `Quick
            test_save_writes_checksum_header;
          Alcotest.test_case "detects byte flip" `Quick
            test_load_detects_byte_flip;
          Alcotest.test_case "detects truncation" `Quick
            test_load_detects_truncation;
          Alcotest.test_case "legacy plain JSON loads" `Quick
            test_load_accepts_legacy_plain_json;
          Alcotest.test_case "rejects empty file" `Quick
            test_load_rejects_empty_file;
          Alcotest.test_case "pre-bump snapshot loads cold" `Quick
            test_prebump_snapshot_loads_cold;
        ] );
    ]
