(** Seven-bit ASCII codec (paper §4, "binary variables").

    The paper represents each character of the target string by 7 QUBO
    variables — the 7-bit ASCII code, most significant bit first — so a
    string of length [n] uses [7 n] variables. This module is the [bin] /
    [f] pair of functions from the paper plus the inverse decoding used to
    read annealer samples back as text. *)

val bits_per_char : int
(** [7]. *)

val char_to_bits : char -> bool array
(** [char_to_bits c] is the 7-bit encoding of [c], MSB first: ['a'] (97 =
    1100001) encodes to [|true; true; false; false; false; false; true|].
    @raise Invalid_argument if [c] is outside 7-bit ASCII (code > 127). *)

val bits_to_char : bool array -> char
(** Inverse of {!char_to_bits}.
    @raise Invalid_argument if the array is not 7 long. *)

val encode : string -> Bitvec.t
(** [encode s] is the paper's [f]: the concatenation of the per-character
    encodings, a bit vector of length [7 * String.length s]. *)

val decode : Bitvec.t -> string
(** [decode bits] reads 7 bits per character, MSB first.
    @raise Invalid_argument if the length is not a multiple of 7. *)

val decode_sub : Bitvec.t -> pos:int -> string
(** [decode_sub bits ~pos] decodes one character starting at bit offset
    [pos] and returns it as a 1-character string. *)

val var_of : char_index:int -> bit:int -> int
(** [var_of ~char_index:j ~bit:i] is the QUBO variable index [7 j + i] of
    bit [i] (MSB first, [0 <= i < 7]) of character [j]. *)

val fits : string -> bool
(** Every character is 7-bit ASCII (code <= 127): the strings {!encode}
    accepts. *)

val is_printable : char -> bool
(** Codes 32-126. *)

val clamp_printable : char -> char
(** [clamp_printable c] is [c] if printable, otherwise a deterministic
    printable stand-in ('?'). Used only for display of unconstrained
    sample bits; solvers never rely on it. *)
