(** OpenQASM 2.0 reader.

    Supports the subset the mapping literature uses: [OPENQASM]/[include]
    headers, [qreg]/[creg] declarations (multiple registers are flattened in
    declaration order), the qelib1 gate set (applied built-ins below),
    register broadcast, [barrier], [measure], and {e user [gate] macro
    definitions}, which are expanded recursively at application time — so
    ScaffCC/Qiskit output runs without shipping [qelib1.inc].

    Built-ins: [id x y z h s sdg t tdg rx ry rz p u1 u2 u3 u U cx CX cz swap
    rzz rxx ccx cswap cu1 cp crz], matched in any case. Multi-qubit
    built-ins with no native gate ([ccx], [cswap], [cu1]/[cp], [crz]) are
    decomposed via {!Qc.Decompose}.

    {b One pass over a token tape.} The whole source is lexed first, onto
    a {!Lexer.tape} kept between calls, and only then parsed; so a
    {!Lexer.Lex_error} anywhere in the file wins over a {!Parse_error}
    earlier in it. The parser walks the tape by index. Keywords and gate
    names are compared against their source slices, register indices are
    read as ints, and operands go into reused arrays, so a gate costs the
    words of the gate itself and little more. [bench/main.exe smoke]
    fences that at 64 words per gate. Error lines are those of the token
    after the one found wrong, 0 at the end of input; semantic errors
    (unknown register or gate, arity) are reported at the line of the
    statement, and unbound macro parameters at line 0. *)

exception Parse_error of int * string
(** line, message *)

val parse : string -> Qc.Circuit.t
(** Raises {!Parse_error} or {!Lexer.Lex_error}. *)

val parse_file : string -> Qc.Circuit.t
