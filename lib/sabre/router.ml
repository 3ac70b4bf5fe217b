type config = {
  extended_size : int;
  extended_weight : float;
  decay_delta : float;
  decay_reset : int;
}

let default_config =
  {
    extended_size = 20;
    extended_weight = 0.5;
    decay_delta = 0.001;
    decay_reset = 5;
  }

exception Stuck of string

(* Growable int buffer: the router's scratch, cleared by resetting [len]
   and reused across steps, so a route allocates only when a buffer first
   outgrows its previous peak. *)
type vec = { mutable data : int array; mutable len : int }

let vec n = { data = Array.make (max 1 n) 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

type state = {
  maqam : Arch.Maqam.t;
  coupling : Arch.Coupling.t;
  config : config;
  n_phys : int;
  table : int array;  (** {!Arch.Coupling.distance_table} *)
  dag : Qc.Dag.t;
  layout : Arch.Layout.t;  (** private copy, swapped in place *)
  record : bool;  (** whether to build the gate list ({!run} only) *)
  mutable out_rev : (Qc.Gate.t * bool) list;
  (* the front: ready nodes in ascending order, ready meaning no
     unfinished predecessor left in [pending] *)
  pending : int array;
  front : vec;
  ready : vec;
  decay : float array;
  mutable swaps_since_reset : int;
  mutable swap_budget : int;
  (* per-SWAP-step scratch, epoch-stamped by [step]: pairs [0, n_front) are
     the front's, the rest the extended set's in BFS order; [pa]/[pb] hold
     their physical endpoints, [pd] the current distance *)
  mutable step : int;
  pa : vec;
  pb : vec;
  pd : vec;
  queue : vec;
  visited : int array;  (** BFS stamp per DAG node *)
  (* incidence: slot [2k] is pair k's [pa] end, [2k+1] its [pb] end; the
     slots at physical p are chained from [head.(p)] through [link] *)
  head : int array;
  head_at : int array;
  link : vec;
  cands : vec;  (** SWAP edges as keys [lo * n_phys + hi] *)
  mutable df : int;  (** [delta]'s result *)
  mutable de : int;
}

let[@inline] dist st a b = st.table.((a * st.n_phys) + b)

let[@inline] phys st q = Arch.Layout.phys_of_log st.layout q

let reset_decay st =
  Array.fill st.decay 0 st.n_phys 1.;
  st.swaps_since_reset <- 0

let fits st g =
  match g with
  | Qc.Gate.Two (_, q1, q2) -> Arch.Coupling.adjacent st.coupling (phys st q1) (phys st q2)
  | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> true

let rec release st = function
  | [] -> ()
  | s :: rest ->
    st.pending.(s) <- st.pending.(s) - 1;
    if st.pending.(s) = 0 then push st.ready s;
    release st rest

let rec push_all v = function
  | [] -> ()
  | x :: rest ->
    push v x;
    push_all v rest

(* Insertion sort, in place: cheap here, since [execute_ready] appends the
   few nodes a batch releases to an already ascending front. *)
let sort v =
  for i = 1 to v.len - 1 do
    let x = v.data.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && v.data.(!j) > x do
      v.data.(!j + 1) <- v.data.(!j);
      decr j
    done;
    v.data.(!j + 1) <- x
  done

(* Execute every front gate that fits, in ascending order; the front
   becomes the unexecuted rest plus the successors this released, kept
   ascending. Returns whether anything ran. *)
let execute_ready st =
  let front = st.front in
  st.ready.len <- 0;
  let kept = ref 0 in
  for k = 0 to front.len - 1 do
    let i = front.data.(k) in
    let g = Qc.Dag.gate st.dag i in
    if fits st g then begin
      if st.record then
        st.out_rev <-
          (Qc.Gate.remap (Arch.Layout.phys_of_log st.layout) g, false) :: st.out_rev;
      release st (Qc.Dag.succs st.dag i)
    end
    else begin
      front.data.(!kept) <- i;
      incr kept
    end
  done;
  let ran = !kept < front.len in
  front.len <- !kept;
  for k = 0 to st.ready.len - 1 do
    push front st.ready.data.(k)
  done;
  sort front;
  ran

let add_pair st q1 q2 =
  let a = phys st q1 and b = phys st q2 in
  push st.pa a;
  push st.pb b;
  push st.pd (dist st a b)

(* Extended set: the nearest successors of the front gates, breadth-first,
   capped at [extended_size] two-qubit gates. *)
let extended_set st =
  let q = st.queue in
  q.len <- 0;
  for k = 0 to st.front.len - 1 do
    push_all q (Qc.Dag.succs st.dag st.front.data.(k))
  done;
  let head = ref 0 and count = ref 0 in
  while !head < q.len && !count < st.config.extended_size do
    let i = q.data.(!head) in
    incr head;
    if st.visited.(i) <> st.step then begin
      st.visited.(i) <- st.step;
      (match Qc.Dag.gate st.dag i with
      | Qc.Gate.Two (_, q1, q2) ->
        add_pair st q1 q2;
        incr count
      | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> ());
      push_all q (Qc.Dag.succs st.dag i)
    end
  done

(* SWAP candidates: every coupling edge at a front pair's qubit, as keys
   [lo * n_phys + hi], so key order is the lexicographic (lo, hi) edge
   order. An edge between two front qubits is listed twice; scoring both
   copies is harmless and cheaper than sorting the list out. *)
let rec add_edges st p = function
  | [] -> ()
  | p' :: rest ->
    push st.cands ((min p p' * st.n_phys) + max p p');
    add_edges st p rest

let candidates st n_front =
  let c = st.cands in
  c.len <- 0;
  for k = 0 to n_front - 1 do
    let a = st.pa.data.(k) and b = st.pb.data.(k) in
    add_edges st a (Arch.Coupling.neighbors st.coupling a);
    add_edges st b (Arch.Coupling.neighbors st.coupling b)
  done

let attach st slot p =
  push st.link (if st.head_at.(p) = st.step then st.head.(p) else -1);
  st.head.(p) <- slot;
  st.head_at.(p) <- st.step

let link_pairs st =
  st.link.len <- 0;
  for k = 0 to st.pa.len - 1 do
    attach st (2 * k) st.pa.data.(k);
    attach st ((2 * k) + 1) st.pb.data.(k)
  done

(* Add to [df]/[de] the distance change of the front/extended pairs with
   an end on [p] when [p] moves to [to_] (and [to_] to [p]), skipping pairs
   whose other end is [skip]. *)
let walk st n_front p to_ skip =
  let s = ref (if st.head_at.(p) = st.step then st.head.(p) else -1) in
  while !s >= 0 do
    let k = !s lsr 1 in
    let o = if !s land 1 = 0 then st.pb.data.(k) else st.pa.data.(k) in
    if o <> skip then begin
      let o = if o = to_ then p else o in
      let d = dist st to_ o - st.pd.data.(k) in
      if k < n_front then st.df <- st.df + d else st.de <- st.de + d
    end;
    s := st.link.data.(!s)
  done

(* The change in ΣF and ΣE that swapping p1 and p2 causes. Only pairs with
   an end on p1 or p2 move: walk p1's chain, then p2's minus the pairs
   also ending on p1 (already counted, and unchanged). *)
let delta st n_front p1 p2 =
  st.df <- 0;
  st.de <- 0;
  walk st n_front p1 p2 (-1);
  walk st n_front p2 p1 p1

(* Disconnected devices only: a pair straddles two components, so every
   candidate's H is undefined (SWAPs never leave a component). Evaluate
   the first candidate's H term by term in the rescanning router's order
   through the raising [Maqam.distance], so the exception — whose message
   names the first unreachable pair met — is the one that router raised. *)
let raise_unreachable st n_front (p1, p2) =
  let moved p = if p = p1 then p2 else if p = p2 then p1 else p in
  let pair k = (st.pa.data.(k), st.pb.data.(k)) in
  let fpairs = List.init n_front pair in
  let epairs = List.rev (List.init (st.pa.len - n_front) (fun k -> pair (n_front + k))) in
  let sum pairs =
    List.fold_left
      (fun acc (a, b) ->
        let a = moved a in
        let b = moved b in
        acc +. float_of_int (Arch.Maqam.distance st.maqam a b))
      0. pairs
  in
  let nf = float_of_int (max 1 (List.length fpairs)) in
  let ne = float_of_int (max 1 (List.length epairs)) in
  let base =
    (sum fpairs /. nf) +. (st.config.extended_weight *. sum epairs /. ne)
  in
  invalid_arg (Fmt.str "Sabre.Router: unreachable pair scored %g" base)

let apply_swap st p1 p2 =
  if st.swap_budget <= 0 then
    raise (Stuck "SABRE: swap budget exhausted — unroutable input?");
  st.swap_budget <- st.swap_budget - 1;
  if st.record then st.out_rev <- (Qc.Gate.swap p1 p2, true) :: st.out_rev;
  Arch.Layout.swap_physical_inplace st.layout p1 p2;
  st.decay.(p1) <- st.decay.(p1) +. st.config.decay_delta;
  st.decay.(p2) <- st.decay.(p2) +. st.config.decay_delta;
  st.swaps_since_reset <- st.swaps_since_reset + 1;
  if st.swaps_since_reset >= st.config.decay_reset then reset_decay st

(* One SWAP step: minimise H = decay · (ΣF/|F| + W·ΣE/|E|) over the
   candidates. ΣF and ΣE are integer sums, taken once per step and then
   corrected per candidate by [delta]; a float sum of integers is exact,
   so H is bit-identical to summing every pair per candidate. Ties go to
   the smallest key: the first strict minimum in edge order. *)
let swap_step st =
  st.step <- st.step + 1;
  st.pa.len <- 0;
  st.pb.len <- 0;
  st.pd.len <- 0;
  for k = 0 to st.front.len - 1 do
    match Qc.Dag.gate st.dag st.front.data.(k) with
    | Qc.Gate.Two (_, q1, q2) -> add_pair st q1 q2
    | Qc.Gate.One _ | Qc.Gate.Barrier _ | Qc.Gate.Measure _ -> ()
  done;
  let n_front = st.pa.len in
  extended_set st;
  candidates st n_front;
  let c = st.cands in
  if c.len = 0 then raise (Stuck "SABRE: no SWAP candidate — disconnected device?");
  let sf = ref 0 and se = ref 0 and unreachable = ref false in
  for k = 0 to st.pd.len - 1 do
    let d = st.pd.data.(k) in
    if d < 0 then unreachable := true;
    if k < n_front then sf := !sf + d else se := !se + d
  done;
  if !unreachable then begin
    let first = ref c.data.(0) in
    for j = 1 to c.len - 1 do
      if c.data.(j) < !first then first := c.data.(j)
    done;
    raise_unreachable st n_front (!first / st.n_phys, !first mod st.n_phys)
  end;
  link_pairs st;
  let nf = float_of_int (max 1 n_front) in
  let ne = float_of_int (max 1 (st.pa.len - n_front)) in
  let best = ref (-1) and best_h = ref Float.infinity in
  for j = 0 to c.len - 1 do
    let key = c.data.(j) in
    let p1 = key / st.n_phys and p2 = key mod st.n_phys in
    delta st n_front p1 p2;
    let base =
      (float_of_int (!sf + st.df) /. nf)
      +. (st.config.extended_weight *. float_of_int (!se + st.de) /. ne)
    in
    (* decay factors are finite and >= 1, where this is [Float.max] *)
    let d1 = st.decay.(p1) and d2 = st.decay.(p2) in
    let h = (if d1 >= d2 then d1 else d2) *. base in
    if !best < 0 || h < !best_h || (h = !best_h && key < !best) then begin
      best := key;
      best_h := h
    end
  done;
  apply_swap st (!best / st.n_phys) (!best mod st.n_phys)

let route ~record ~config ~maqam ~initial circuit =
  let n_physical = Arch.Maqam.n_qubits maqam in
  let n_logical = Qc.Circuit.n_qubits circuit in
  if n_logical > n_physical then
    invalid_arg "Sabre.Router: circuit wider than device";
  if
    Arch.Layout.n_logical initial <> n_logical
    || Arch.Layout.n_physical initial <> n_physical
  then invalid_arg "Sabre.Router: layout size mismatch";
  let coupling = Arch.Maqam.coupling maqam in
  let dag = Qc.Dag.of_circuit circuit in
  let n = Qc.Dag.n_nodes dag in
  let pending = Array.init n (fun i -> List.length (Qc.Dag.preds dag i)) in
  let front = vec (n_logical + 1) in
  Array.iteri (fun i c -> if c = 0 then push front i) pending;
  let pairs = (n_logical / 2) + config.extended_size + 1 in
  let st =
    {
      maqam;
      coupling;
      config;
      n_phys = n_physical;
      table = Arch.Coupling.distance_table coupling;
      dag;
      layout = Arch.Layout.copy initial;
      record;
      out_rev = [];
      pending;
      front;
      ready = vec (n_logical + 1);
      decay = Array.make n_physical 1.;
      swaps_since_reset = 0;
      swap_budget = 10 * (n + 1) * (n_physical + 1);
      step = 0;
      pa = vec pairs;
      pb = vec pairs;
      pd = vec pairs;
      queue = vec 64;
      visited = Array.make n 0;
      head = Array.make n_physical 0;
      head_at = Array.make n_physical 0;
      link = vec (2 * pairs);
      cands = vec (2 * List.length (Arch.Coupling.edges coupling));
      df = 0;
      de = 0;
    }
  in
  while st.front.len > 0 do
    if execute_ready st then reset_decay st else swap_step st
  done;
  st

let final_layout ?(config = default_config) ~maqam ~initial circuit =
  (route ~record:false ~config ~maqam ~initial circuit).layout

let run ?(config = default_config) ~maqam ~initial circuit =
  let st = route ~record:true ~config ~maqam ~initial circuit in
  let n_physical = Arch.Maqam.n_qubits maqam in
  let events, makespan =
    Schedule.Asap.schedule_tagged ~durations:(Arch.Maqam.durations maqam)
      ~n_physical (List.rev st.out_rev)
  in
  {
    Schedule.Routed.events;
    initial;
    final = st.layout;
    makespan;
    n_logical = Qc.Circuit.n_qubits circuit;
  }
