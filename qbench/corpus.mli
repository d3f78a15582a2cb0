(** Seeded SMT-LIB corpus of the query benchmark.

    Every script is rendered here from a stdlib [Random.State] seeded by
    the workload seed; nothing in this library depends on the program
    under test, so a change to the solver cannot change the inputs it
    is measured on. Each check command carries the verdict its generator
    planted and the assertions in force, which is what the benchmark's
    known-answer gate grades answers against. *)

type workload = Anneal | Static | Session

val workloads : workload list
val workload_name : workload -> string
val workload_of_string : string -> workload option

type verdict = Sat | Unsat

type check = {
  active : string list;
      (** the assertion terms in force at this check (assumptions
          included), as SMT-LIB text *)
  expect : verdict;  (** the planted verdict *)
}

type script = {
  label : string;  (** the deck slot the script fills, e.g. ["palindrome/8"] *)
  text : string;  (** the SMT-LIB script *)
  checks : check list;
      (** one per [check-sat] / [check-sat-assuming], in script order *)
}

val deck_size : workload -> int
(** Scripts per deck. A deck holds every slot of the workload once:
    the kinds and lengths are fixed, the contents come from the seed. *)

val generate : workload -> seed:int -> decks:int -> script array
(** [decks] consecutive decks drawn from one seeded stream. *)

val render : script array -> string
(** The corpus as one byte string: labels, scripts and planted
    verdicts. Two corpora are the same input iff their renderings are
    equal. *)
