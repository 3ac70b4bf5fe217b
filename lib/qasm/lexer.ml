exception Lex_error of int * string

type tape = {
  mutable src : string;
  mutable n : int;
  mutable kind : Bytes.t;
  mutable start : int array;
  mutable len : int array;
  mutable line : int array;
  mutable num : float array;
}

let create () =
  { src = ""; n = 0; kind = Bytes.empty; start = [||]; len = [||]; line = [||]; num = [||] }

let capacity t = Bytes.length t.kind

let grow t =
  let cap = max 256 (2 * capacity t) in
  let extend a zero =
    let b = Array.make cap zero in
    Array.blit a 0 b 0 t.n;
    b
  in
  let kind = Bytes.create cap in
  Bytes.blit t.kind 0 kind 0 t.n;
  t.kind <- kind;
  t.start <- extend t.start 0;
  t.len <- extend t.len 0;
  t.line <- extend t.line 0;
  t.num <- extend t.num 0.

let[@inline] push t kind start len line =
  if t.n = capacity t then grow t;
  Bytes.unsafe_set t.kind t.n kind;
  t.start.(t.n) <- start;
  t.len.(t.n) <- len;
  t.line.(t.n) <- line;
  t.n <- t.n + 1

let text t i = String.sub t.src t.start.(i) t.len.(i)

let[@inline] is_digit = function '0' .. '9' -> true | _ -> false

let[@inline] is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' | '.' -> true | _ -> false

(* Up to 15 digits are below 2^53, so the integer converts to the same
   double that float_of_string would read. *)
let max_plain_digits = 15

(* a number runs over digits, dots and exponents with their sign *)
let continues_number src j =
  let d = src.[j] in
  is_digit d || d = '.' || d = 'e' || d = 'E'
  || ((d = '+' || d = '-') && (src.[j - 1] = 'e' || src.[j - 1] = 'E'))

let lex t src =
  t.src <- src;
  t.n <- 0;
  let n = String.length src in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    let at = !i in
    match String.unsafe_get src at with
    | '\n' ->
      incr line;
      i := at + 1
    | ' ' | '\t' | '\r' -> i := at + 1
    | '/' when at + 1 < n && src.[at + 1] = '/' ->
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    | '-' when at + 1 < n && src.[at + 1] = '>' ->
      push t '>' at 2 !line;
      i := at + 2
    | ('(' | ')' | '[' | ']' | '{' | '}' | ',' | ';' | '+' | '-' | '*' | '/') as c
      ->
      push t c at 1 !line;
      i := at + 1
    | '"' -> (
      match String.index_from_opt src (at + 1) '"' with
      | None -> raise (Lex_error (!line, "unterminated string"))
      | Some close ->
        push t '"' (at + 1) (close - at - 1) !line;
        i := close + 1)
    | ('0' .. '9' | '.') as c when c <> '.' || (at + 1 < n && is_digit src.[at + 1]) ->
      let plain = ref true in
      while !i < n && continues_number src !i do
        if not (is_digit src.[!i]) then plain := false;
        incr i
      done;
      let len = !i - at in
      push t '0' at len !line;
      if !plain && len <= max_plain_digits then begin
        let v = ref 0 in
        for j = at to !i - 1 do
          v := (10 * !v) + Char.code src.[j] - Char.code '0'
        done;
        t.num.(t.n - 1) <- float_of_int !v
      end
      else begin
        let text = String.sub src at len in
        match float_of_string_opt text with
        | Some f -> t.num.(t.n - 1) <- f
        | None -> raise (Lex_error (!line, "bad number: " ^ text))
      end
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let len = !i - at in
      let pi =
        len = 2
        && Char.lowercase_ascii src.[at] = 'p'
        && Char.lowercase_ascii src.[at + 1] = 'i'
      in
      push t (if pi then 'p' else 'a') at len !line
    | c -> raise (Lex_error (!line, Fmt.str "unexpected character %C" c))
  done
