(** Ground-term evaluation (the reference semantics of the vocabulary).

    Evaluates variable-free terms: literal folding inside assertions
    ([str.++] of literals, [str.replace_all] of literals, ...), the
    [get-value] command under a model, and the trivial-satisfiability
    path of the compiler. String operations follow SMT-LIB 2.6 where it
    defines them ([str.replace] replaces the first occurrence of a whole
    substring; [str.indexof] returns −1 when absent; out-of-range
    [str.at]/[str.substr] yield [""]). *)

type value = V_str of string | V_int of int | V_bool of bool

val term : ?model:(string * value) list -> Ast.term -> (value, string) result
(** Evaluates under an optional variable assignment; unbound variables,
    RegLan-sorted terms and string literals with a character above 0x7f
    (outside the 7-bit alphabet, here and in {!regex}) are errors. The
    compiler folds every literal through here and [check-sat] holds each
    model to every assertion here, so a query naming such a character
    answers [unknown], never a verdict. *)

val regex : Ast.term -> (Qsmt_regex.Syntax.t, string) result
(** Interprets a ground RegLan term as a syntax tree: [str.to_re],
    [re.++], [re.union], [re.*], [re.+], [re.opt], [re.range],
    [re.allchar]. *)

val pp_value : Format.formatter -> value -> unit
(** SMT-LIB literal syntax, as {!Sexp.parse_one} reads it back: a
    string prints as {!Sexp.pp_string} does, a negative numeral as
    [(- n)]. *)
