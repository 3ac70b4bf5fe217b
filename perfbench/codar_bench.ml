(* The end-to-end benchmark of the CODAR compiler: QASM text in, verified
   route-record JSON out, timed through the library's public entry points.

   One invocation is one workload and one seed:
   1. set-up, repeated and reported as the interquartile mean: build the devices,
      render every input to QASM bytes, and for daemon-mixed spawn and
      warm a daemon;
   2. a fixed, seeded sequence of requests (its length depends on
      [--seconds] and never on measured time, so every count repeats),
      in process one forked child per pass, or over the daemon's socket;
   3. the output checks, which count against [ok_ratio] and never abort;
   4. one JSON line on stdout: the end-to-end metrics with [--trace 0],
      the per-layer metrics with [--trace 1]. Notes go to stderr.

   The traced run records one span per layer call, keeps the spans in
   memory and writes them at the end as Chrome trace JSON.

     codar_bench.exe --workload W --seed N --seconds S --trace 0|1
                     [--smoke] [--out DIR]
     codar_bench.exe --workload W --setup-only  (one timed set-up)
     codar_bench.exe --serve SOCKET RESULT      (the daemon child) *)

module Json = Report.Json
module Record = Report.Record
module Engine = Service.Engine
module Protocol = Service.Protocol
module Client = Service.Client

let now = Unix.gettimeofday
let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------ measuring *)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> 0.
      in
      scan ())

let smoke = ref false

(* Nearest-rank percentile. A percentile is only meaningful here when at
   least ten samples lie beyond it; the workload sizes guarantee that
   outside smoke runs, and this check keeps it so. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    if (not !smoke) && float_of_int n *. (1. -. p) < 10. then
      invalid_arg
        (Printf.sprintf "p%g of %d samples has fewer than ten beyond it"
           (100. *. p) n);
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Mean of the middle half (between the quartiles): the set-up times of
   fresh processes fall into a fast and a slow group, and a median of a
   few flips between the groups from run to run. *)
let interquartile_mean l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  let lo = n / 4 and hi = n - (n / 4) in
  Array.fold_left ( +. ) 0. (Array.sub a lo (hi - lo)) /. float_of_int (hi - lo)

let geomean l =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. l /. float_of_int (List.length l))

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ----------------------------------------------------------------- spans *)

(* One span per layer call. All spans of one request share its [rid]; the
   request's own span is the parent of its layer spans. *)
type span = {
  sid : int;
  rid : int;
  parent : int;
  name : string;
  t0 : float;
  mutable t1 : float;
  a0 : float;
  mutable a1 : float;
}

let tracing = ref false
let spans = ref []
let open_spans = ref []
let next_sid = ref 0
let rid = ref 0

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let s =
      {
        sid = !next_sid;
        rid = !rid;
        parent;
        name;
        t0 = now ();
        t1 = 0.;
        a0 = Gc.allocated_bytes ();
        a1 = 0.;
      }
    in
    incr next_sid;
    open_spans := s.sid :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        s.a1 <- Gc.allocated_bytes ();
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
      f
  end

(* Per layer: self time (s), self allocation (bytes) and calls. A span's
   self part is its own extent minus its children's. *)
let layer_totals () =
  let child_t = Hashtbl.create 1024 and child_a = Hashtbl.create 1024 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        bump child_t s.parent (s.t1 -. s.t0);
        bump child_a s.parent (s.a1 -. s.a0)
      end)
    !spans;
  let layers = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self_t = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child_t s.sid) ~default:0.
      and self_a = s.a1 -. s.a0 -. Option.value (Hashtbl.find_opt child_a s.sid) ~default:0. in
      let t, a, n = Option.value (Hashtbl.find_opt layers s.name) ~default:(0., 0., 0) in
      Hashtbl.replace layers s.name (t +. self_t, a +. self_a, n + 1))
    !spans;
  layers

(* Total extent of the request spans: the wall time shares refer to. *)
let request_wall () =
  List.fold_left
    (fun acc s -> if s.name = "request" then acc +. (s.t1 -. s.t0) else acc)
    0. !spans

(* Chrome trace-event JSON (chrome://tracing, Perfetto) of the first
   [trace_events] spans; [other] carries the per-layer summary of all of
   them, which trace_diff.py reads. *)
let trace_events = 20_000

let write_trace path other =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans in
  let us t = Json.Float (Float.round ((t -. origin) *. 1e7) /. 10.) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String "codar");
        ("ph", Json.String "X");
        ("ts", us s.t0);
        ("dur", Json.Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.sid);
              ("parent", Json.Int s.parent);
              ("request", Json.Int s.rid);
              ("alloc_mb", Json.Float ((s.a1 -. s.a0) /. 1e6));
            ] );
      ]
  in
  let events = List.rev_map event (List.filter (fun s -> s.sid < trace_events) !spans) in
  let oc = open_out path in
  output_string oc
    (Json.to_string ~indent:0
       (Json.Obj
          [
            ("traceEvents", Json.List events);
            ("displayTimeUnit", Json.String "ms");
            ("otherData", other);
          ]));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------ failure account *)

(* [failed]: requests that produced no reply (exceptions, error replies).
   [wrong]: replies that failed a check. Neither aborts the run. *)
let attempted = ref 0
let failed = ref 0
let wrong = ref 0
let reported = ref 0

let report_problem kind msg =
  incr reported;
  if !reported <= 20 then note "perfbench: %s: %s" kind msg

let fail msg =
  incr failed;
  report_problem "failed" msg

let wrong_output msg =
  incr wrong;
  report_problem "wrong output" msg

exception Wrong of string

(* Run one request; classify what went wrong, if anything. *)
let attempt label f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception Wrong msg ->
    wrong_output (label ^ ": " ^ msg);
    None
  | exception e ->
    fail (label ^ ": " ^ Printexc.to_string e);
    None

(* ---------------------------------------------------------------- inputs *)

(* One compile request: its circuit rendered to QASM text at set-up, the
   device it targets and, for the daemon, its route frame. *)
type op = {
  label : string;
  arch : string;
  maqam : Arch.Maqam.t;
  placement : Placement.strategy;
  qasm : string;
  gates : int;
  frame : string;
}

let default_placement = Option.get (Placement.of_name Protocol.default_placement)

(* Time spent building devices in the latest set-up. *)
let arch_build_s = ref 0.

let maqam_of arch =
  let t0 = now () in
  let maqam =
    match Arch.Devices.by_name arch with
    | Some coupling ->
      Arch.Maqam.make ~coupling ~durations:Arch.Durations.superconducting
    | None -> invalid_arg ("unknown device " ^ arch)
  in
  arch_build_s := !arch_build_s +. (now () -. t0);
  maqam

let route_frame ~arch ~placement qasm =
  Json.to_string ~indent:0
    (Json.Obj
       [
         ("op", Json.String "route");
         ("qasm", Json.String qasm);
         ("arch", Json.String arch);
         ("placement", Json.String (Placement.name placement));
       ])

let make_op ~arch ~maqam ~placement label circuit =
  let qasm = Qasm.Printer.to_string circuit in
  {
    label = label ^ "@" ^ arch;
    arch;
    maqam;
    placement;
    qasm;
    gates = Qc.Circuit.length circuit;
    frame = route_frame ~arch ~placement qasm;
  }

let suite_ops ~arch ~placement entries =
  let maqam = maqam_of arch in
  List.map
    (fun (e : Workloads.Suite.entry) ->
      make_op ~arch ~maqam ~placement e.name (Lazy.force e.circuit))
    entries

(* paper-suite: the 71 on Sycamore-54 plus the 68 that fit Tokyo-20, but
   rand_16_30k: its SABRE placement alone takes ~9 s per device, so one
   pass would fill the run, and a run needs several passes to report the
   median pass. *)
let paper_ops () =
  let all =
    List.filter (fun (e : Workloads.Suite.entry) -> e.name <> "rand_16_30k") Workloads.Suite.all
  in
  let all, tokyo =
    if !smoke then
      let small = List.filter (fun (e : Workloads.Suite.entry) -> e.n_qubits <= 5) all in
      (small, small)
    else (all, List.filter (fun (e : Workloads.Suite.entry) -> e.n_qubits <= 20) all)
  in
  suite_ops ~arch:"sycamore" ~placement:default_placement all
  @ suite_ops ~arch:"tokyo" ~placement:default_placement tokyo

(* large-route: every large-tier entry of at most 128 qubits but the
   ~100k-gate one, on two sparse-backend devices, under degree placement.
   qft_64 is kept although it fails: see README "Known defect". *)
let large_ops () =
  let entries =
    List.filter
      (fun (e : Workloads.Suite.entry) ->
        e.name <> "rand_128_100k"
        && ((not !smoke) || e.name <> "rand_100_20k" && e.name <> "qaoa_100"))
      Workloads.Suite.large
  in
  let devices = if !smoke then [ "heavy-hex-9" ] else [ "heavy-hex-9"; "grid-12x12" ] in
  List.concat_map
    (fun arch -> suite_ops ~arch ~placement:Placement.Degree_weighted entries)
    devices

(* daemon-mixed's warm set: suite circuits of at most 16 qubits and 1k
   gates, on Tokyo. *)
let warm_ops () =
  let max_qubits = if !smoke then 5 else 16 in
  Workloads.Suite.fitting ~max_qubits
  |> List.filter (fun (e : Workloads.Suite.entry) ->
         Qc.Circuit.length (Lazy.force e.circuit) <= 1000)
  |> suite_ops ~arch:"tokyo" ~placement:default_placement

(* daemon-mixed's cold set: fresh seeded circuits, 8-16 qubits and
   100-500 gates, each distinct, so each one misses the cache. *)
let cold_ops ~seed n =
  let maqam = maqam_of "tokyo" in
  List.init n (fun index ->
      let s = Fuzz.Gen.case_seed ~run_seed:seed ~index in
      let rng = Random.State.make [| s |] in
      let n_qubits = 8 + Random.State.int rng 9 in
      let gates = 100 + Random.State.int rng 401 in
      let circuit = Fuzz.Gen.circuit_rng rng (Fuzz.Gen.config ~n_qubits ~gates ()) in
      make_op ~arch:"tokyo" ~maqam ~placement:default_placement
        (Printf.sprintf "cold_%d" index) circuit)

(* ------------------------------------------------------- compile paths *)

(* When tracing, the router's instrumentation counters. *)
let codar_stats : Codar.Stats.t option ref = ref None

let spec_of op circuit =
  {
    Engine.source_name = "<inline>";
    circuit;
    maqam = op.maqam;
    router = `Codar;
    placement = op.placement;
    objectives = [ Objective.makespan ];
    metric = Codar.Portfolio.Makespan;
    restarts = Protocol.default_restarts;
    seed = Protocol.default_seed;
    collect_stats = false;
  }

let reply_frame fp record =
  Protocol.ok_frame ~op:"route" (Protocol.route_payload ~fingerprint:fp record)

(* The default path, one public entry point per layer: what the daemon
   does for a cache miss (Engine.route), plus verification. The record's
   [wall_s] stays 0: a measured value prints to a varying number of
   digits, which would make the emitted bytes and the allocation count
   differ from run to run. No metric comes from [wall_s]. *)
let compile_spec cache (spec : Engine.spec) =
  let { Engine.circuit; maqam; placement; _ } = spec in
  let fp = span "cache.fingerprint" (fun () -> Engine.fingerprint spec) in
  if span "cache" (fun () -> Cache.find cache fp) <> None then
    raise (Wrong "a cold request hit the cache");
  let initial = span "placement" (fun () -> Placement.compute placement ~maqam circuit) in
  let routed =
    span "codar" (fun () ->
        Engine.route_plain ?stats:!codar_stats `Codar maqam initial circuit)
  in
  (match span "schedule.verify" (fun () -> Schedule.Verify.check_all ~maqam ~original:circuit routed) with
  | Ok () -> ()
  | Error e -> raise (Wrong (Fmt.str "verify: %a" Schedule.Verify.pp_error e)));
  let record, frame =
    span "report" (fun () ->
        let record =
          Record.make ~source:spec.source_name ~router:"codar"
            ~placement:(Placement.name placement) ~objective:"makespan" ~wall_s:0.
            ~maqam ~original:circuit routed
        in
        (record, reply_frame fp record))
  in
  span "cache" (fun () -> Cache.add cache fp record);
  (record, frame)

let parse op = span "qasm" (fun () -> Qasm.Parser.parse op.qasm)
let compile cache op = compile_spec cache (spec_of op (parse op))

(* The warm replay: parse again (a daemon re-parses every inline request),
   fingerprint, look up, emit — and the bytes must match the first reply. *)
let replay_spec cache (spec : Engine.spec) expected =
  let fp = span "cache.fingerprint" (fun () -> Engine.fingerprint spec) in
  match span "cache" (fun () -> Cache.find cache fp) with
  | None -> raise (Wrong "a warm request missed the cache")
  | Some record ->
    let frame = span "report" (fun () -> reply_frame fp record) in
    if frame <> expected then raise (Wrong "warm replay differs from the first reply")

let replay cache op expected = replay_spec cache (spec_of op (parse op)) expected

(* Records agree when everything but the measured wall time does. *)
let same_record (a : Record.t) (b : Record.t) =
  Json.equal (Record.to_json { a with wall_s = 0. }) (Record.to_json { b with wall_s = 0. })

(* ------------------------------------------------------------- results *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

let emit metrics =
  let correct = !wrong = 0 in
  print_endline
    (Json.to_string ~indent:0
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int (!failed + !wrong));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x ->
                     ( x.mname,
                       Json.Obj
                         [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
                   metrics) );
          ]))

(* Set up [reps] times and report the interquartile mean. [timed_setup] keeps
   the last result. [spawned_setup] times a fresh process per rep, from
   exec to exit, that only sets up [workload]: the set-up a run really
   pays includes starting the runtime and initialising the modules, which
   builds the fixed devices and their distance tables, and the suite
   generates its circuits on first use. *)
let timed_setup ~reps ~discard f =
  let times = ref [] and last = ref None in
  for i = 1 to reps do
    Option.iter discard !last;
    let t0 = now () in
    let v = f i in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  (interquartile_mean !times, Option.get !last)

let spawned_setup ~workload =
  let args =
    [ Sys.executable_name; "--workload"; workload; "--setup-only" ]
    @ if !smoke then [ "--smoke" ] else []
  in
  let once () =
    let t0 = now () in
    let pid =
      Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
        Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> now () -. t0
    | _ -> failwith "set-up process failed"
  in
  interquartile_mean (List.init (if !smoke then 1 else 21) (fun _ -> once ()))

let ratio (r : Record.t) =
  float_of_int r.weighted_depth /. float_of_int (max 1 r.unrouted_weighted_depth)

(* Quality of the generated code over the distinct inputs. *)
let quality records =
  [
    m "makespan_ratio.geomean" "ratio" (geomean (List.map ratio records));
    m "swaps_total" "count"
      (float_of_int (List.fold_left (fun acc (r : Record.t) -> acc + r.swaps) 0 records));
  ]

(* The layer metrics shared by every workload, from the spans. *)
let layer_metrics () =
  let layers = layer_totals () and wall = request_wall () in
  let get name = Option.value (Hashtbl.find_opt layers name) ~default:(0., 0., 0) in
  let ms name = let t, _, _ = get name in t *. 1e3 in
  let share name = let t, _, _ = get name in if wall > 0. then t /. wall else 0. in
  let alloc name = let _, a, _ = get name in a /. 1e6 in
  let layer ?(sep = ".") l =
    [
      m (l ^ sep ^ "ms") "ms" (ms l);
      m (l ^ sep ^ "share") "ratio" (share l);
      m (l ^ sep ^ "alloc_mb") "MB" (alloc l);
    ]
  in
  ( layers,
    layer "placement" @ layer "codar" @ layer "qasm" @ layer "report"
    @ layer ~sep:"_" "schedule.verify"
    @ [
        m "cache.fingerprint_ms" "ms" (ms "cache.fingerprint");
        m "cache.fingerprint_share" "ratio" (share "cache.fingerprint");
        m "service.frame_ms" "ms" (ms "service.frame");
      ] )

let codar_metrics () =
  let s = Option.value !codar_stats ~default:(Codar.Stats.create ()) in
  [
    m "codar.heuristic_evals" "count" (float_of_int s.heuristic_evals);
    m "codar.swap_rescores" "count" (float_of_int s.swap_rescores);
    m "codar.swap_candidates" "count" (float_of_int s.swap_candidates);
    m "codar.cf_hit_rate" "ratio" (Codar.Stats.cf_hit_rate s);
    m "codar.forced_swaps" "count" (float_of_int s.forced_swaps);
  ]

let arch_metrics ops =
  let couplings =
    List.sort_uniq compare (List.map (fun op -> op.arch) ops)
    |> List.map (fun arch ->
           Arch.Maqam.coupling (List.find (fun op -> op.arch = arch) ops).maqam)
  in
  let sum f = float_of_int (List.fold_left (fun acc c -> acc + f c) 0 couplings) in
  [
    m "arch.build_ms" "ms" (!arch_build_s *. 1e3);
    m "arch.dist_bytes" "B" (sum Arch.Coupling.dist_bytes);
    m "arch.rows_cached" "count" (sum Arch.Coupling.rows_cached);
  ]

let cache_metrics ~hits ~misses ~evictions =
  [
    m "cache.hits" "count" (float_of_int hits);
    m "cache.misses" "count" (float_of_int misses);
    m "cache.evictions" "count" (float_of_int evictions);
    m "cache.hit_rate" "ratio"
      (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
  ]

(* The daemon's round-trip metrics; no service layer runs in process. *)
let service_tails =
  [ "service.rtt_overhead_ms.p50"; "service.hit_ms.p99"; "service.miss_ms.p90" ]

let service_names =
  [
    ("routes_computed", "count");
    ("coalesced", "count");
    ("overloads", "count");
    ("bytes_in", "B");
    ("bytes_out", "B");
    ("wb_stalls", "count");
  ]

(* Trace file and the summary its [otherData] carries. *)
let finish_trace ~out ~workload ~seed ~layers metrics =
  let path = Filename.concat out (Printf.sprintf "trace-%s-%d.json" workload seed) in
  let layer_json =
    Hashtbl.fold
      (fun name (t, a, n) acc ->
        ( name,
          Json.Obj
            [
              ("self_ms", Json.Float (t *. 1e3));
              ("alloc_mb", Json.Float (a /. 1e6));
              ("calls", Json.Int n);
            ] )
        :: acc)
      layers []
    |> List.sort compare
  in
  write_trace path
    (Json.Obj
       [
         ("workload", Json.String workload);
         ("seed", Json.Int seed);
         ("layers", Json.Obj layer_json);
         ("metrics", Json.Obj (List.map (fun x -> (x.mname, Json.Float x.value)) metrics));
       ]);
  note "perfbench: trace written to %s (%d spans)" path !next_sid

(* ------------------------------------------------- in-process workloads *)

(* Warm replays per compiled request. *)
let hits_per_cold = 2

(* What one pass of an in-process workload hands back to the parent. *)
type pass_result = {
  cold_ms : float list;
  hit_ms : float list;
  busy : float;
  ok_requests : int;
  ok_gates : int;
  all_gates : int;
  compiles : int;
  ok_compiles : int;
  alloc : float;
  rss : float;
  records : Record.t list;
  cache : Codar.Stats.cache;
  stats : Codar.Stats.t option;
  pass_spans : span list;
  counts : int * int * int * int * int;  (* attempted, failed, wrong, sids, rid *)
}

(* Run [f] in a forked child and return its marshalled result. The child
   starts from this process's heap and gets fresh physical pages for all
   it writes, so each pass sees a fresh memory layout: ten runs of one
   build, each one process for all passes, spread by 0.25 on gates_per_s;
   one pass's process sets its speed for the whole pass. *)
let in_child f =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (f ()) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v = Marshal.from_channel ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    v

(* One pass: start from an empty cache and compile every request once,
   smallest input first. After each compile, replay [hits_per_cold] warm
   hits, drawn by [rng] from the pending replays of the requests compiled
   so far; the rest end the pass, so every compiled request is replayed
   exactly [hits_per_cold] times. The compile order does not follow the
   seed: the heap state one compile leaves shapes the next one's time, and
   two seeded orders of paper-suite differed by 14%. *)
let run_pass ~rng ops =
  spans := [];
  let cold_ms = ref [] and hit_ms = ref [] and records = ref [] in
  let busy = ref 0. and ok_requests = ref 0 and ok_gates = ref 0 and all_gates = ref 0 in
  let compiles = ref 0 and ok_compiles = ref 0 in
  if !tracing then codar_stats := Some (Codar.Stats.create ());
  let request label gates samples f =
    incr rid;
    all_gates := !all_gates + gates;
    let t = now () in
    let result = attempt label (fun () -> span "request" f) in
    let dt = now () -. t in
    busy := !busy +. dt;
    if result <> None then begin
      samples := (dt *. 1e3) :: !samples;
      incr ok_requests;
      ok_gates := !ok_gates + gates
    end;
    result
  in
  let a0 = Gc.allocated_bytes () in
  let cache = Cache.create ~max_entries:1024 () in
  let pending = Array.make (Array.length ops * hits_per_cold) (ops.(0), "") in
  let n_pending = ref 0 in
  let replay_one () =
    let k = Random.State.int rng !n_pending in
    let op, frame = pending.(k) in
    decr n_pending;
    pending.(k) <- pending.(!n_pending);
    ignore (request op.label op.gates hit_ms (fun () -> replay cache op frame))
  in
  Array.iter
    (fun op ->
      incr compiles;
      (match request op.label op.gates cold_ms (fun () -> compile cache op) with
      | Some (record, frame) ->
        incr ok_compiles;
        records := record :: !records;
        for _ = 1 to hits_per_cold do
          pending.(!n_pending) <- (op, frame);
          incr n_pending
        done
      | None -> ());
      for _ = 1 to min hits_per_cold !n_pending do
        replay_one ()
      done)
    ops;
  while !n_pending > 0 do
    replay_one ()
  done;
  {
    cold_ms = !cold_ms;
    hit_ms = !hit_ms;
    busy = !busy;
    ok_requests = !ok_requests;
    ok_gates = !ok_gates;
    all_gates = !all_gates;
    compiles = !compiles;
    ok_compiles = !ok_compiles;
    alloc = Gc.allocated_bytes () -. a0;
    rss = peak_rss_mb "self";
    records = !records;
    cache = Cache.counters cache;
    stats = !codar_stats;
    pass_spans = !spans;
    counts = (!attempted, !failed, !wrong, !next_sid, !rid);
  }

(* A run of an in-process workload: [passes] passes over [ops], each in a
   forked child of the set-up process. Throughput is the median over
   passes of a pass's gates (or requests) over its summed request times,
   so one slow pass moves one sample, not the result; the geometric
   means pool the samples of all passes. *)
let in_process ~workload ~seed ~passes ~out ops_of =
  let setup_s = spawned_setup ~workload in
  let ops = Array.of_list (ops_of ()) in
  note "perfbench: %s: %d requests per pass, %d passes, set-up %.3f s"
    workload (Array.length ops) passes setup_s;
  Array.stable_sort (fun a b -> compare a.gates b.gates) ops;
  let results =
    List.init passes (fun pass ->
        let r = in_child (fun () -> run_pass ~rng:(Random.State.make [| seed; pass |]) ops) in
        let a, f, w, sids, rids = r.counts in
        attempted := a;
        failed := f;
        wrong := w;
        next_sid := sids;
        rid := rids;
        spans := List.rev_append r.pass_spans !spans;
        r)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let pooled f = List.concat_map f results in
  let per_pass f = median (List.map (fun r -> float_of_int (f r) /. r.busy) results) in
  let gates_per_s = per_pass (fun r -> r.ok_gates) in
  let rss = List.fold_left (fun acc r -> Float.max acc r.rss) (peak_rss_mb "self") results in
  if !tracing then begin
    let stats = Codar.Stats.create () in
    List.iter
      (fun r ->
        Option.iter
          (fun (s : Codar.Stats.t) ->
            stats.heuristic_evals <- stats.heuristic_evals + s.heuristic_evals;
            stats.swap_rescores <- stats.swap_rescores + s.swap_rescores;
            stats.swap_candidates <- stats.swap_candidates + s.swap_candidates;
            stats.cf_recomputes <- stats.cf_recomputes + s.cf_recomputes;
            stats.cf_cache_hits <- stats.cf_cache_hits + s.cf_cache_hits;
            stats.forced_swaps <- stats.forced_swaps + s.forced_swaps)
          r.stats)
      results;
    codar_stats := Some stats;
    let layers, lm = layer_metrics () in
    let metrics =
      lm @ codar_metrics ()
      @ arch_metrics (Array.to_list ops)
      @ cache_metrics
          ~hits:(sum (fun r -> r.cache.hits))
          ~misses:(sum (fun r -> r.cache.misses))
          ~evictions:(sum (fun r -> r.cache.evictions))
      @ List.map (fun n -> m n "ms" 0.) service_tails
      @ List.map (fun (n, u) -> m ("service." ^ n) u 0.) service_names
      @ [
          m "trace.gates_per_s" "gates/s" gates_per_s;
          m "trace.spans" "count" (float_of_int !next_sid);
        ]
    in
    finish_trace ~out ~workload ~seed ~layers metrics;
    metrics
  end
  else
    [
      m "setup_s" "s" setup_s;
      m "gates_per_s" "gates/s" gates_per_s;
      m "requests_per_s" "1/s" (per_pass (fun r -> r.ok_requests));
      m "latency_ms.geomean" "ms" (geomean (pooled (fun r -> r.cold_ms)));
      m "hit_ms.geomean" "ms" (geomean (pooled (fun r -> r.hit_ms)));
      m "alloc_b_per_gate" "B/gate"
        (List.fold_left (fun acc r -> acc +. r.alloc) 0. results
        /. float_of_int (sum (fun r -> r.all_gates)));
      m "peak_rss_mb" "MB" rss;
    ]
    @ quality (List.hd results).records
    @ [
        m "ok_ratio" "ratio"
          (float_of_int (sum (fun r -> r.ok_compiles)) /. float_of_int (sum (fun r -> r.compiles)));
      ]

(* ---------------------------------------------------------- daemon-mixed *)

(* The daemon child: `codar_cli serve` defaults (evented I/O, one pool
   domain, 1024 cache entries). On shutdown it writes its allocated bytes
   and peak RSS to [result]. With one pool domain every route runs on the
   main domain, so [Gc.allocated_bytes] sees all of it. *)
let serve socket_path result =
  let cfg = Service.Server.config ~handle_signals:true ~socket_path () in
  ignore (Service.Server.run cfg);
  let oc = open_out result in
  Printf.fprintf oc "%.0f %f\n" (Gc.allocated_bytes ()) (peak_rss_mb "self");
  close_out oc

type daemon = { pid : int; sock : string; result : string }

let live_daemons = ref []

let kill_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons

let () = at_exit (fun () -> List.iter kill_daemon !live_daemons)

let spawn_daemon ~out k =
  let sock = Filename.concat out (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) k) in
  let result = Filename.concat out (Printf.sprintf "d%d-%d.res" (Unix.getpid ()) k) in
  (try Sys.remove sock with Sys_error _ -> ());
  (try Sys.remove result with Sys_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--serve"; sock; result |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; sock; result } in
  live_daemons := d :: !live_daemons;
  let deadline = now () +. 30. in
  let rec wait () =
    match Client.connect sock with
    | c -> c
    | exception Unix.Unix_error _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
  in
  (d, wait ())

(* Ask the daemon to stop; return its allocated bytes and peak RSS (MB). *)
let stop_daemon d conn =
  (try ignore (Client.request conn {|{"op":"shutdown"}|}) with _ -> ());
  Client.close conn;
  ignore (Unix.waitpid [] d.pid);
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons;
  let ic = open_in d.result in
  let r = Scanf.sscanf (input_line ic) "%f %f" (fun a rss -> (a, rss)) in
  close_in ic;
  (try Sys.remove d.result with Sys_error _ -> ());
  r

let is_ok reply = String.starts_with ~prefix:{|{"ok":true|} reply

let stats_counts conn =
  let reply = Client.request conn {|{"op":"stats"}|} in
  match Json.parse reply with
  | Error e -> failwith ("stats reply: " ^ e)
  | Ok j ->
    fun section key ->
      match Option.bind (Json.member section j) (Json.member key) with
      | Some v -> Option.value (Json.to_int_opt v) ~default:0
      | None -> 0

(* Requests per run per second of [--seconds], and the cold share. *)
let daemon_rate = 300
let cold_every = 8

(* The traced run replays this many requests of the sequence in process,
   layer by layer. *)
let replay_requests = 800

(* Cold replies checked against an in-process Engine.route per run. *)
let cold_checks = 8

let daemon_mixed ~seed ~seconds ~out =
  let n = if !smoke then 96 else max 64 (int_of_float (seconds *. float_of_int daemon_rate)) in
  let n_cold = n / cold_every in
  let rng = Random.State.make [| seed |] in
  (* the sequence: exactly [n_cold] colds at seeded positions, each warm
     request a seeded pick from the warm set *)
  let kinds = shuffle rng (Array.init n (fun i -> i < n_cold)) in
  let setup_s, (d, conn, warm, warm_replies, cold) =
    timed_setup ~reps:(if !smoke then 1 else 5)
      ~discard:(fun (d, conn, _, _, _) -> ignore (stop_daemon d conn))
      (fun k ->
        let d, conn = spawn_daemon ~out k in
        arch_build_s := 0.;
        let warm = Array.of_list (warm_ops ()) in
        let cold = Array.of_list (cold_ops ~seed n_cold) in
        let warm_replies = Array.map (fun op -> Client.request conn op.frame) warm in
        Array.iteri
          (fun i r -> if not (is_ok r) then failwith ("warming " ^ warm.(i).label ^ ": " ^ r))
          warm_replies;
        (d, conn, warm, warm_replies, cold))
  in
  note "perfbench: daemon-mixed: %d requests (%d cold), %d warm circuits, set-up %.3f s"
    n n_cold (Array.length warm) setup_s;
  let next_cold = ref 0 in
  let sequence =
    Array.map
      (fun is_cold ->
        if is_cold then begin
          let i = !next_cold in
          incr next_cold;
          `Cold i
        end
        else `Warm (Random.State.int rng (Array.length warm)))
      kinds
  in
  let frame_of = function `Cold i -> cold.(i).frame | `Warm i -> warm.(i).frame in
  let gates_of = function `Cold i -> cold.(i).gates | `Warm i -> warm.(i).gates in
  let before = stats_counts conn in
  (* two connections in a closed loop, each taking every other request *)
  let replies = Array.make n "" and rtt = Array.make n 0. in
  let errors = Array.make 2 None in
  let drive c () =
    try
      let conn = Client.connect d.sock in
      let i = ref c in
      while !i < n do
        let t = now () in
        replies.(!i) <- Client.request conn (frame_of sequence.(!i));
        rtt.(!i) <- (now () -. t) *. 1e3;
        i := !i + 2
      done;
      Client.close conn
    with e -> errors.(c) <- Some (Printexc.to_string e)
  in
  let t0 = now () in
  let threads = List.init 2 (fun c -> Thread.create (drive c) ()) in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  Array.iter (Option.iter (fun e -> note "perfbench: connection failed: %s" e)) errors;
  let after = stats_counts conn in
  (* checks: every hit byte-identical to the first reply, every reply ok *)
  let hit_ms = ref [] and miss_ms = ref [] in
  let ok_requests = ref 0 and ok_gates = ref 0 in
  Array.iteri
    (fun i req ->
      incr attempted;
      let reply = replies.(i) in
      if reply = "" || not (is_ok reply) then
        fail (Printf.sprintf "request %d: %s" i (if reply = "" then "no reply" else reply))
      else begin
        let good =
          match req with
          | `Warm w ->
            reply = warm_replies.(w)
            || (wrong_output (Printf.sprintf "hit %s differs from its first reply" warm.(w).label);
                false)
          | `Cold _ -> true
        in
        if good then begin
          incr ok_requests;
          ok_gates := !ok_gates + gates_of req;
          match req with
          | `Warm _ -> hit_ms := rtt.(i) :: !hit_ms
          | `Cold _ -> miss_ms := rtt.(i) :: !miss_ms
        end
      end)
    sequence;
  (* a seeded sample of cold replies against the in-process Engine.route *)
  let reply_record reply =
    match Json.parse reply with
    | Ok j -> (
      match Json.member "record" j with
      | Some r -> Record.of_json r
      | None -> Error "no record")
    | Error e -> Error e
  in
  let cold_positions =
    List.filter_map
      (fun i -> match sequence.(i) with `Cold c -> Some (i, c) | `Warm _ -> None)
      (List.init n Fun.id)
  in
  let sample = shuffle rng (Array.of_list cold_positions) in
  Array.iteri
    (fun k (i, c) ->
      match reply_record replies.(i) with
      | Error e -> if is_ok replies.(i) then wrong_output ("cold reply record: " ^ e)
      | Ok r ->
        if k < cold_checks then begin
          let op = cold.(c) in
          let spec = spec_of op (Qasm.Parser.parse op.qasm) in
          let mine, routed = Engine.route spec in
          if not (same_record r mine) then
            wrong_output (op.label ^ ": daemon record differs from Engine.route");
          match Schedule.Verify.check_all ~maqam:op.maqam ~original:spec.circuit routed with
          | Ok () -> ()
          | Error e -> wrong_output (Fmt.str "%s: verify: %a" op.label Schedule.Verify.pp_error e)
        end)
    sample;
  let warm_records =
    Array.to_list warm_replies
    |> List.filter_map (fun r -> Result.to_option (reply_record r))
  in
  let daemon_alloc, daemon_rss = stop_daemon d conn in
  let served_gates =
    Array.fold_left (fun acc op -> acc + op.gates) 0 warm + !ok_gates
  in
  if !tracing then begin
    (* replay a prefix of the same request frames in process, layer by
       layer: warm requests against a cache filled from the daemon's
       first replies, cold ones through the compile path *)
    codar_stats := Some (Codar.Stats.create ());
    let cache = Cache.create ~max_entries:1024 () in
    Array.iteri
      (fun w reply ->
        match reply_record reply with
        | Ok r -> Cache.add cache (Engine.fingerprint (spec_of warm.(w) (Qasm.Parser.parse warm.(w).qasm))) r
        | Error _ -> ())
      warm_replies;
    let replay_hit_ms = ref [] in
    let saved = !attempted in
    Array.iteri
      (fun i req ->
        if i < replay_requests then begin
          incr rid;
          let t = now () in
          let run () =
            span "request" (fun () ->
                let spec =
                  span "qasm" (fun () ->
                      match span "service.frame" (fun () -> Protocol.parse_frame (frame_of req)) with
                      | Ok (_, Protocol.Route r) -> (
                        match Engine.spec_of_route_req r with
                        | Ok spec -> spec
                        | Error e -> failwith e)
                      | _ -> failwith "frame did not parse as a route request")
                in
                match req with
                | `Warm w -> replay_spec cache spec warm_replies.(w)
                | `Cold _ -> ignore (compile_spec cache spec))
          in
          match attempt "replay" run with
          | Some () -> (
            match req with
            | `Warm _ -> replay_hit_ms := ((now () -. t) *. 1e3) :: !replay_hit_ms
            | `Cold _ -> ())
          | None -> ()
        end)
      sequence;
    (* replays are a measurement aid, not requests of the run *)
    attempted := saved;
    let layers, lm = layer_metrics () in
    let delta section key = float_of_int (after section key - before section key) in
    let metrics =
      lm @ codar_metrics ()
      @ arch_metrics (Array.to_list warm @ Array.to_list cold)
      @ cache_metrics
          ~hits:(after "cache" "hits" - before "cache" "hits")
          ~misses:(after "cache" "misses" - before "cache" "misses")
          ~evictions:(after "cache" "evictions" - before "cache" "evictions")
      @ [
          m "service.rtt_overhead_ms.p50" "ms"
            (percentile !hit_ms 0.5 -. percentile !replay_hit_ms 0.5);
          m "service.hit_ms.p99" "ms" (percentile !hit_ms 0.99);
          m "service.miss_ms.p90" "ms" (percentile !miss_ms 0.9);
        ]
      @ List.map (fun (k, u) -> m ("service." ^ k) u (delta "service" k)) service_names
      @ [
          m "trace.gates_per_s" "gates/s" (float_of_int !ok_gates /. wall);
          m "trace.spans" "count" (float_of_int !next_sid);
        ]
    in
    finish_trace ~out ~workload:"daemon-mixed" ~seed ~layers metrics;
    metrics
  end
  else
    [
      m "setup_s" "s" setup_s;
      m "gates_per_s" "gates/s" (float_of_int !ok_gates /. wall);
      m "requests_per_s" "1/s" (float_of_int !ok_requests /. wall);
      m "latency_ms.geomean" "ms" (geomean !miss_ms);
      m "hit_ms.geomean" "ms" (geomean !hit_ms);
      m "alloc_b_per_gate" "B/gate" (daemon_alloc /. float_of_int served_gates);
      m "peak_rss_mb" "MB" daemon_rss;
    ]
    @ quality warm_records
    @ [ m "ok_ratio" "ratio" (float_of_int !ok_requests /. float_of_int n) ]

(* ------------------------------------------------------------------ main *)

(* Seconds one pass of each in-process workload takes on a 2-CPU host:
   [--seconds] buys [--seconds / pass] passes, at least one. *)
let paper_pass_s = 1.
let large_pass_s = 10.

let usage () =
  prerr_endline
    "usage: codar_bench.exe --workload paper-suite|large-route|daemon-mixed \
     --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "--serve"; sock; result ] -> serve sock result
  | _ :: args ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and out = ref ".perfbench" in
    let setup_only = ref false in
    let rec go = function
      | "--workload" :: w :: rest -> workload := w; go rest
      | "--seed" :: s :: rest -> seed := int_of_string s; go rest
      | "--seconds" :: s :: rest -> seconds := float_of_string s; go rest
      | "--trace" :: t :: rest -> tracing := t = "1"; go rest
      | "--smoke" :: rest -> smoke := true; go rest
      | "--setup-only" :: rest -> setup_only := true; go rest
      | "--out" :: d :: rest -> out := d; go rest
      | [] -> ()
      | _ -> usage ()
    in
    (try go args with Failure _ -> usage ());
    if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
    let passes pass_s = max 1 (int_of_float (Float.round (!seconds /. pass_s))) in
    let metrics =
      match !workload with
      | "paper-suite" when !setup_only -> exit (ignore (paper_ops ()); 0)
      | "large-route" when !setup_only -> exit (ignore (large_ops ()); 0)
      | "paper-suite" ->
        in_process ~workload:!workload ~seed:!seed ~passes:(passes paper_pass_s) ~out:!out paper_ops
      | "large-route" ->
        in_process ~workload:!workload ~seed:!seed ~passes:(passes large_pass_s) ~out:!out large_ops
      | "daemon-mixed" -> daemon_mixed ~seed:!seed ~seconds:!seconds ~out:!out
      | _ -> usage ()
    in
    emit metrics
  | [] -> usage ()
