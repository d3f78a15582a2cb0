(** SMT-LIB rendering of constraints (the compiler's inverse).

    Turns a {!Constr.t} back into standard SMT-LIB text, so workloads
    generated here can be exported and replayed on external solvers
    (z3, cvc5) for cross-validation, and so the front-end's
    script → constraint → script round trip is testable.

    The rendering targets this repository's compiler conventions:
    [Index_of] becomes [(= (str.indexof x sub 0) i)], which compiles
    back to [Index_of] with [first = true]. The paper's form
    ([first = false], "occurs at") is slightly weaker than SMT-LIB's
    "first occurrence at", so its exported script is at least as
    strong as the constraint. {!Constr.Has_length} has no standard
    counterpart (the paper's unary-bit recipe) and is rejected. *)

val escape_string : string -> string
(** SMT-LIB 2.6 string literal body, the form an SMT-LIB lexer reads
    back unchanged: a double quote doubles to [""], and a character
    outside 0x20–0x7e and [\] become [\u{hh}] (a raw backslash could
    start an escape). *)

val str_lit : string -> string
(** The whole literal: {!escape_string} between double quotes. *)

val regex_term : Qsmt_regex.Syntax.t -> string
(** RegLan term text: [re.++]/[re.union]/[re.*]/[re.+]/[re.opt]/
    [re.range]/[re.allchar]/[str.to_re]. *)

val assertions : var:string -> Constr.t -> (string list, string) result
(** The assert command texts constraining [var] (a String constant, or
    an Int constant for {!Constr.Includes}). [Error] for
    {!Constr.Has_length} or an invalid constraint. *)

val script : ?var:string -> Constr.t -> (string, string) result
(** A complete runnable script: set-logic, declaration, assertions,
    [(check-sat)], [(get-value (var))]. Default variable name ["x"]
    (["i"] for Includes). *)
