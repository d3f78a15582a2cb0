(** A small JSON codec: the reader behind [qsmt trace]/[qsmt metrics] and
    the benches' committed baselines, and the writer of the CLI's
    [--json] lines and the Chrome trace export. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** members in document order *)

val parse : string -> (t, string) result
(** Full-document reader (objects, arrays, strings with escapes,
    numbers, literals; insignificant whitespace allowed anywhere, so
    pretty-printed multi-line documents parse too). [\u] escapes outside
    ASCII decode to ['?']. The error names the offending byte offset
    where one applies. *)

val to_string : t -> string
(** One-line rendering with no whitespace. Integral numbers below [1e15]
    print without a fraction; other numbers print with 9 significant
    digits, and non-finite ones as [null]. Strings escape quotes,
    backslashes and control characters. *)
