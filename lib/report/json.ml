type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    (* shortest representation that round-trips and still parses as a JSON
       number (%h or "inf" never escape this function) *)
    let s = Printf.sprintf "%.12g" f in
    if Float.of_string s = f then s else Printf.sprintf "%.17g" f

let to_string ?(indent = 2) t =
  let b = Buffer.create 256 in
  let pad level =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (level * indent) ' ')
    end
  in
  let rec go level = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape b s
    | List [] -> Buffer.add_string b "[]"
    | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          pad (level + 1);
          go (level + 1) item)
        items;
      pad level;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          pad (level + 1);
          escape b k;
          Buffer.add_string b (if indent > 0 then ": " else ":");
          go (level + 1) v)
        fields;
      pad level;
      Buffer.add_char b '}'
  in
  go 0 t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let output oc t =
  output_string oc (to_string t);
  output_char oc '\n'

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | String x, String y -> String.equal x y
  | List x, List y ->
    List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
         x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Obj _), _ -> false

(* ---------------------------------------------------------------- parsing *)

exception Parse of int * string
(* position, message — internal; [parse] converts to a result *)

let parse_exn s =
  let n = String.length s in
  let fail pos msg = raise (Parse (pos, msg)) in
  let pos = ref 0 in
  (* the byte at [pos] is read only after a bounds check, never boxed *)
  let looking_at c = !pos < n && String.unsafe_get s !pos = c in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if looking_at c then advance ()
    else if !pos < n then
      fail !pos (Printf.sprintf "expected %C, found %C" c s.[!pos])
    else fail !pos (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail !pos (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with Failure _ -> fail !pos "invalid \\u escape"
    in
    pos := !pos + 4;
    v
  in
  (* Decodes escapes; BMP \u escapes are re-encoded as UTF-8 so that
     emitter-escaped control characters round-trip to their raw bytes. *)
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      (* copy the run of plain bytes up to the next quote, backslash or
         control character in one piece *)
      let start = !pos in
      while
        !pos < n
        &&
        let c = String.unsafe_get s !pos in
        c <> '"' && c <> '\\' && Char.code c >= 0x20
      do
        advance ()
      done;
      Buffer.add_substring b s start (!pos - start);
      if !pos >= n then fail !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          advance ();
          Buffer.contents b
        | '\\' ->
          advance ();
          if !pos >= n then fail !pos "unterminated escape";
          let c = s.[!pos] in
          advance ();
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let v = parse_hex4 () in
            if v < 0x80 then Buffer.add_char b (Char.chr v)
            else if v < 0x800 then begin
              Buffer.add_char b (Char.chr (0xc0 lor (v lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (v land 0x3f)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xe0 lor (v lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((v lsr 6) land 0x3f)));
              Buffer.add_char b (Char.chr (0x80 lor (v land 0x3f)))
            end
          | c -> fail (!pos - 1) (Printf.sprintf "invalid escape \\%c" c));
          go ()
        | _ -> fail !pos "raw control character in string"
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
      || text = "-0"
    in
    if not is_float then
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        (* out of int range: fall back to float *)
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail start (Printf.sprintf "invalid number %S" text))
    else
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail start (Printf.sprintf "invalid number %S" text)
  in
  (* Nesting is bounded so hostile input (e.g. 100k copies of '[') gets a
     typed parse error instead of a stack overflow; 256 is far beyond any
     document this library emits. *)
  let max_depth = 256 in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    if !pos >= n then fail !pos "unexpected end of input";
    match s.[!pos] with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> String (parse_string ())
    | '-' | '0' .. '9' -> parse_number ()
    | '[' ->
      advance ();
      skip_ws ();
      if looking_at ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while looking_at ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | '{' ->
      advance ();
      skip_ws ();
      if looking_at '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while looking_at ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | c -> fail !pos (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage after value";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse (pos, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" pos msg)

(* -------------------------------------------------------------- accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
