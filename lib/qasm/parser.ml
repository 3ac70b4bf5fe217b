exception Parse_error of int * string

type expr =
  | Num of float
  | Pi
  | Var of string
  | Neg of expr
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr

(* A statement inside a gate-macro body: gate name, parameter expressions,
   formal qubit arguments. *)
type macro_stmt = { m_name : string; m_params : expr list; m_qargs : string list }

type macro = { formals : string list; qformals : string list; body : macro_stmt list }

(* Declared registers, with the last one found kept aside: most programs
   name one register in every operand, and a slice compares without a copy. *)
type regs = {
  what : string;  (* "qreg" or "creg", for messages *)
  tbl : (string, int * int) Hashtbl.t;  (* name -> offset, size *)
  mutable last : string;
  mutable last_reg : int * int;
}

type state = {
  t : Lexer.tape;
  src : string;
  mutable pos : int;  (* next token on the tape *)
  qregs : regs;
  cregs : regs;
  macros : (string, macro) Hashtbl.t;
  mutable n_qubits : int;
  mutable n_clbits : int;
  mutable gates_rev : Qc.Gate.t list;
  mutable stmt_line : int;  (* line of the statement being elaborated *)
  (* operands of the current statement: name token and index (-1: whole
     register), resolved in place to offset and size (-1: one bit) *)
  mutable op_a : int array;
  mutable op_b : int array;
  mutable qv : int array;  (* qubits of one broadcast application *)
}

let[@inline] line st = if st.pos < st.t.n then st.t.line.(st.pos) else 0

let fail st msg = raise (Parse_error (line st, msg))

(* semantic errors surface after the statement's tokens are consumed; report
   them at the statement's own line *)
let fail_stmt st msg = raise (Parse_error (st.stmt_line, msg))

(* kind of the next token, '\000' at the end *)
let[@inline] peek st = if st.pos < st.t.n then Bytes.unsafe_get st.t.kind st.pos else '\000'

let[@inline] advance st = st.pos <- st.pos + 1

(* consume a token, returning its index *)
let[@inline] next st =
  if st.pos >= st.t.n then raise (Parse_error (0, "unexpected end of input"));
  st.pos <- st.pos + 1;
  st.pos - 1

let[@inline] kind st i = Bytes.get st.t.kind i

let[@inline] expect st k what = if kind st (next st) <> k then fail st ("expected " ^ what)

let[@inline] ident st =
  let i = next st in
  if kind st i <> 'a' then fail st "expected identifier";
  i

let text st i = Lexer.text st.t i
let name st = text st (ident st)

let integer st =
  let i = next st in
  if kind st i <> '0' then fail st "expected integer";
  let f = st.t.num.(i) in
  if Float.is_integer f && f >= 0. then int_of_float f
  else fail st "expected non-negative integer"

(* [item]s separated by ',' up to [close] *)
let rec sep_list st item close msg acc =
  let x = item st in
  let k = kind st (next st) in
  if k = ',' then sep_list st item close msg (x :: acc)
  else if k = close then List.rev (x :: acc)
  else fail st msg

(* [s.[off .. off + len - 1]], lower-cased if [lower], equals [w] *)
let[@inline] slice_matches lower s off len w =
  len = String.length w
  &&
  let k = ref 0 in
  while
    !k < len
    && (if lower then Char.lowercase_ascii s.[off + !k] else s.[off + !k]) = w.[!k]
  do
    incr k
  done;
  !k = len

(* the entry of [table] named by a slice *)
let lookup table lower s off len default =
  let k = ref 0 in
  while
    !k < Array.length table && not (slice_matches lower s off len (fst table.(!k)))
  do
    incr k
  done;
  if !k < Array.length table then snd table.(!k) else default

(* --- expressions ------------------------------------------------------ *)

(* one precedence level: [sub] operands joined left to right by [o1]/[o2] *)
let level st o1 mk1 o2 mk2 sub =
  let lhs = ref (sub st) in
  while peek st = o1 || peek st = o2 do
    let o = kind st (next st) in
    let rhs = sub st in
    lhs := if o = o1 then mk1 !lhs rhs else mk2 !lhs rhs
  done;
  !lhs

let rec parse_expr st =
  level st '+' (fun a b -> Add (a, b)) '-' (fun a b -> Sub (a, b)) parse_term

and parse_term st =
  level st '*' (fun a b -> Mul (a, b)) '/' (fun a b -> Div (a, b)) parse_factor

and parse_factor st =
  let i = next st in
  match kind st i with
  | '-' -> Neg (parse_factor st)
  | '0' -> Num st.t.num.(i)
  | 'p' -> Pi
  | 'a' -> Var (text st i)
  | '(' ->
    let e = parse_expr st in
    expect st ')' ")";
    e
  | _ -> fail st "expected expression"

let rec eval env = function
  | Num f -> f
  | Pi -> Float.pi
  | Var v -> (
    match List.assoc_opt v env with
    | Some f -> f
    | None -> raise (Parse_error (0, "unbound parameter " ^ v)))
  | Neg e -> -.eval env e
  | Add (a, b) -> eval env a +. eval env b
  | Sub (a, b) -> eval env a -. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | Div (a, b) -> eval env a /. eval env b

(* --- built-in gate applications --------------------------------------- *)

type builtin =
  | Fixed1 of Qc.Gate.one_qubit
  | Fixed2 of Qc.Gate.two_qubit
  | Angle1 of (float -> Qc.Gate.one_qubit)
  | Angle2 of (float -> Qc.Gate.two_qubit)
  | U2 | U3 | Ccx | Cswap | Cu1 | Crz
  | Macro  (* not a built-in: a user macro or an unknown gate *)

let builtins =
  Qc.Gate.
    [| ("id", Fixed1 I); ("x", Fixed1 X); ("y", Fixed1 Y); ("z", Fixed1 Z);
       ("h", Fixed1 H); ("s", Fixed1 S); ("sdg", Fixed1 Sdg); ("t", Fixed1 T);
       ("tdg", Fixed1 Tdg); ("rx", Angle1 (fun a -> Rx a));
       ("ry", Angle1 (fun a -> Ry a)); ("rz", Angle1 (fun a -> Rz a));
       ("u1", Angle1 (fun a -> U1 a)); ("p", Angle1 (fun a -> U1 a));
       ("u2", U2); ("u3", U3); ("u", U3); ("cx", Fixed2 CX); ("cz", Fixed2 CZ);
       ("swap", Fixed2 Swap); ("rzz", Angle2 (fun a -> Rzz a));
       ("rxx", Angle2 (fun a -> XX a)); ("xx", Angle2 (fun a -> XX a));
       ("ccx", Ccx); ("cswap", Cswap); ("cu1", Cu1); ("cp", Cu1); ("crz", Crz) |]

(* built-in names match in any case *)
let builtin_of s off len = lookup builtins true s off len Macro

(* (parameters, qubits) *)
let arity = function
  | Fixed1 _ -> (0, 1)
  | Angle1 _ -> (1, 1)
  | U2 -> (2, 1)
  | U3 -> (3, 1)
  | Fixed2 _ -> (0, 2)
  | Angle2 _ | Cu1 | Crz -> (1, 2)
  | Ccx | Cswap -> (0, 3)
  | Macro -> (0, 0)

let[@inline] push st g = st.gates_rev <- g :: st.gates_rev

(* Multi-qubit built-ins with no native gate are decomposed. Parameter
   counts were checked against [arity] before this is called. *)
let emit st b params (qv : int array) =
  match (b, params) with
  | Fixed1 k, _ -> push st (Qc.Gate.One (k, qv.(0)))
  | Angle1 k, a :: _ -> push st (Qc.Gate.One (k a, qv.(0)))
  | U2, a :: b :: _ -> push st (Qc.Gate.u2 a b qv.(0))
  | U3, a :: b :: c :: _ -> push st (Qc.Gate.u3 a b c qv.(0))
  | Fixed2 k, _ -> push st (Qc.Gate.Two (k, qv.(0), qv.(1)))
  | Angle2 k, a :: _ -> push st (Qc.Gate.Two (k a, qv.(0), qv.(1)))
  | Ccx, _ -> List.iter (push st) (Qc.Decompose.toffoli qv.(0) qv.(1) qv.(2))
  | Cswap, _ ->
    List.iter (push st) (Qc.Decompose.controlled_swap qv.(0) qv.(1) qv.(2))
  | Cu1, a :: _ -> List.iter (push st) (Qc.Decompose.cphase a qv.(0) qv.(1))
  | Crz, a :: _ ->
    push st (Qc.Gate.rz (a /. 2.) qv.(1));
    push st (Qc.Gate.cx qv.(0) qv.(1));
    push st (Qc.Gate.rz (-.a /. 2.) qv.(1));
    push st (Qc.Gate.cx qv.(0) qv.(1))
  | (Angle1 _ | Angle2 _ | U2 | U3 | Cu1 | Crz | Macro), _ ->
    invalid_arg "Parser.emit"

(* --- gate application (built-in or macro, recursive expansion) -------- *)

(* the gate is named by the slice [off, off + len) of [s] and resolves to
   [b]; its qubits are [qv.(0 .. nq - 1)] *)
let rec apply st s off len b params qv nq =
  match b with
  | Macro -> (
    let name = String.sub s off len in
    match Hashtbl.find_opt st.macros name with
    | None -> fail_stmt st ("unknown gate " ^ name)
    | Some m ->
      if List.length m.formals <> List.length params then
        fail_stmt st (name ^ ": parameter count mismatch");
      if List.length m.qformals <> nq then
        fail_stmt st (name ^ ": qubit count mismatch");
      let penv = List.combine m.formals params in
      let qenv = List.combine m.qformals (Array.to_list (Array.sub qv 0 nq)) in
      List.iter
        (fun s ->
          let sub_params = List.map (eval penv) s.m_params in
          let sub_qubits =
            List.map
              (fun v ->
                match List.assoc_opt v qenv with
                | Some q -> q
                | None -> fail_stmt st ("unbound qubit argument " ^ v))
              s.m_qargs
          in
          let n = String.length s.m_name in
          apply st s.m_name 0 n (builtin_of s.m_name 0 n) sub_params
            (Array.of_list sub_qubits) (List.length sub_qubits))
        m.body)
  | _ ->
    let n_p, n_q = arity b in
    if List.length params <> n_p then
      fail_stmt st (Fmt.str "%s expects %d parameter(s)" (String.sub s off len) n_p);
    if nq <> n_q then
      fail_stmt st (Fmt.str "%s expects %d qubit(s)" (String.sub s off len) n_q);
    emit st b params qv

(* --- operands ---------------------------------------------------------- *)

let parse_operand st k =
  if k = Array.length st.op_a then begin
    let extend a =
      let b = Array.make (2 * k) 0 in
      Array.blit a 0 b 0 k;
      b
    in
    st.op_a <- extend st.op_a;
    st.op_b <- extend st.op_b;
    st.qv <- extend st.qv
  end;
  st.op_a.(k) <- ident st;
  if peek st = '[' then begin
    advance st;
    st.op_b.(k) <- integer st;
    expect st ']' "]"
  end
  else st.op_b.(k) <- -1

(* operands [k..] up to the closing ';', returning the total count *)
let rec parse_operands st k =
  parse_operand st k;
  match kind st (next st) with
  | ',' -> parse_operands st (k + 1)
  | ';' -> k + 1
  | _ -> fail st "expected , or ; after operand"

let find_reg st r i =
  let off = st.t.start.(i) and len = st.t.len.(i) in
  if not (slice_matches false st.src off len r.last) then begin
    let name = String.sub st.src off len in
    match Hashtbl.find r.tbl name with
    | reg ->
      r.last <- name;
      r.last_reg <- reg
    | exception Not_found -> fail_stmt st ("unknown " ^ r.what ^ " " ^ name)
  end;
  r.last_reg

let resolve st r k =
  let off, size = find_reg st r st.op_a.(k) in
  let idx = st.op_b.(k) in
  if idx >= size then
    fail_stmt st (Fmt.str "index out of range for %s %s" r.what (text st st.op_a.(k)));
  st.op_a.(k) <- (if idx < 0 then off else off + idx);
  st.op_b.(k) <- (if idx < 0 then size else -1)

let resolve_operands st =
  let nops = parse_operands st 0 in
  for k = 0 to nops - 1 do
    resolve st st.qregs k
  done;
  nops

(* --- statements -------------------------------------------------------- *)

let parse_params st =
  if peek st <> '(' then []
  else begin
    advance st;
    sep_list st parse_expr ')' "expected , or ) in parameter list" []
  end

let parse_macro_body st =
  let rec loop acc =
    match peek st with
    | '}' ->
      advance st;
      List.rev acc
    | 'a' when slice_matches false st.src st.t.start.(st.pos) st.t.len.(st.pos) "barrier"
      ->
      (* barriers inside macros are ignored (qelib1 has none; some emitters
         add them) *)
      advance st;
      while kind st (next st) <> ';' do
        ()
      done;
      loop acc
    | '\000' -> fail st "unterminated gate body"
    | _ ->
      let m_name = name st in
      let m_params = parse_params st in
      let m_qargs = sep_list st name ';' "expected , or ; in gate body" [] in
      loop ({ m_name; m_params; m_qargs } :: acc)
  in
  loop []

let parse_gate_def st =
  let gate = name st in
  let formals =
    if peek st <> '(' then []
    else begin
      advance st;
      if peek st <> ')' then
        sep_list st name ')' "expected , or ) in gate formals" []
      else begin
        advance st;
        []
      end
    end
  in
  let rec qformals acc =
    let v = name st in
    match peek st with
    | ',' ->
      advance st;
      qformals (v :: acc)
    | '{' ->
      advance st;
      List.rev (v :: acc)
    | _ -> fail st "expected { after gate header"
  in
  let qformals = qformals [] in
  let body = parse_macro_body st in
  Hashtbl.replace st.macros gate { formals; qformals; body }

(* qreg/creg: returns the register's size *)
let declare st r count =
  let i = ident st in
  expect st '[' "[";
  let size = integer st in
  expect st ']' "]";
  expect st ';' ";";
  let name = text st i in
  if Hashtbl.mem r.tbl name then fail_stmt st ("duplicate " ^ r.what ^ " " ^ name);
  Hashtbl.replace r.tbl name (count, size);
  size

let gate_statement st =
  let i = ident st in
  let params = match parse_params st with [] -> [] | es -> List.map (eval []) es in
  let nops = resolve_operands st in
  (* broadcast: registers must share a size; single qubits are repeated *)
  let size = ref (-1) in
  for k = 0 to nops - 1 do
    let s = st.op_b.(k) in
    if s >= 0 then
      if !size < 0 then size := s
      else if s <> !size then fail_stmt st "register size mismatch in broadcast"
  done;
  let s = st.src and off = st.t.start.(i) and len = st.t.len.(i) in
  let b = builtin_of s off len in
  for j = 0 to (if !size < 0 then 1 else !size) - 1 do
    for k = 0 to nops - 1 do
      st.qv.(k) <- (st.op_a.(k) + if st.op_b.(k) < 0 then 0 else j)
    done;
    apply st s off len b params st.qv nops
  done

let barrier st =
  let nops = resolve_operands st in
  let qubits = ref [] in
  for k = nops - 1 downto 0 do
    if st.op_b.(k) < 0 then qubits := st.op_a.(k) :: !qubits
    else
      for q = st.op_a.(k) + st.op_b.(k) - 1 downto st.op_a.(k) do
        qubits := q :: !qubits
      done
  done;
  push st (Qc.Gate.barrier !qubits)

let measure st =
  parse_operand st 0;
  expect st '>' "->";
  parse_operand st 1;
  expect st ';' ";";
  resolve st st.qregs 0;
  resolve st st.cregs 1;
  let qo = st.op_a.(0) and qs = st.op_b.(0) in
  let co = st.op_a.(1) and cs = st.op_b.(1) in
  if qs < 0 && cs < 0 then push st (Qc.Gate.measure qo co)
  else if qs >= 0 && qs = cs then
    for k = 0 to qs - 1 do
      push st (Qc.Gate.measure (qo + k) (co + k))
    done
  else fail_stmt st "measure operands must both be scalars or equal-size registers"

type keyword = Header | Qreg | Creg | Gate | Barrier | Measure | Apply

let keywords =
  [| ("OPENQASM", Header); ("openqasm", Header); ("include", Header);
     ("qreg", Qreg); ("creg", Creg); ("gate", Gate); ("barrier", Barrier);
     ("measure", Measure) |]

let rec parse_statements st =
  st.stmt_line <- line st;
  match peek st with
  | '\000' -> ()
  | 'a' ->
    let i = st.pos in
    let keyword = lookup keywords false st.src st.t.start.(i) st.t.len.(i) Apply in
    if keyword <> Apply then advance st;
    (match keyword with
    | Header ->
      ignore (next st);
      expect st ';' ";"
    | Qreg -> st.n_qubits <- st.n_qubits + declare st st.qregs st.n_qubits
    | Creg -> st.n_clbits <- st.n_clbits + declare st st.cregs st.n_clbits
    | Gate -> parse_gate_def st
    | Barrier -> barrier st
    | Measure -> measure st
    | Apply -> gate_statement st);
    parse_statements st
  | _ -> fail st "expected statement"

(* One tape is kept between parses; a parse that finds it taken (another
   domain or thread is parsing) lexes onto a fresh one. A tape grown past
   [max_kept] tokens is dropped rather than kept. *)
let spare = Atomic.make None
let max_kept = 1 lsl 16

let parse src =
  let t = match Atomic.exchange spare None with Some t -> t | None -> Lexer.create () in
  let regs what = { what; tbl = Hashtbl.create 4; last = ""; last_reg = (0, 0) } in
  Fun.protect
    ~finally:(fun () ->
      Lexer.lex t "";
      if Lexer.capacity t <= max_kept then Atomic.set spare (Some t))
    (fun () ->
      Lexer.lex t src;
      let st =
        {
          t;
          src;
          pos = 0;
          qregs = regs "qreg";
          cregs = regs "creg";
          macros = Hashtbl.create 16;
          n_qubits = 0;
          n_clbits = 0;
          gates_rev = [];
          stmt_line = 1;
          op_a = Array.make 4 0;
          op_b = Array.make 4 0;
          qv = Array.make 4 0;
        }
      in
      parse_statements st;
      Qc.Circuit.make ~n_qubits:st.n_qubits (List.rev st.gates_rev))

let parse_file path = parse (In_channel.with_open_bin path In_channel.input_all)
