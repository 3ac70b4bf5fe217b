(** Tokenizer for the OpenQASM 2.0 subset (motivating examples in the paper
    are written in OpenQASM; ScaffCC/Qiskit emit it).

    The source is lexed in one pass onto a {e token tape}: flat arrays
    indexed by token number, with no token values. A token is its kind, a
    slice [start, start + len) of the source, and the line it starts on.
    A tape is refilled by each {!lex}, so a reader that keeps one allocates
    nothing per token once the tape has grown to fit. *)

exception Lex_error of int * string
(** line, message *)

type tape = private {
  mutable src : string;  (** the source of the last {!lex} *)
  mutable n : int;  (** tokens on the tape *)
  mutable kind : Bytes.t;
      (** ['a'] identifier, ['0'] number, ['p'] [pi] in any case, ['"']
          string (the slice excludes the quotes), ['>'] the arrow [->];
          punctuation [( ) \[ \] { } , ; + - * /] is its own character *)
  mutable start : int array;
  mutable len : int array;
  mutable line : int array;
  mutable num : float array;
      (** the value of a number token. Plain digit strings are converted
          as integers; only the others go through [float_of_string], so
          each value is the double [float_of_string] reads. *)
}

val create : unit -> tape
val capacity : tape -> int

val lex : tape -> string -> unit
(** Refill the tape with the tokens of a source. Strips [//] comments.
    Raises {!Lex_error} on unexpected characters, malformed numbers and
    unterminated strings. *)

val text : tape -> int -> string
(** The source slice of a token. *)
