(** Unified observability for the solve pipeline.

    One event vocabulary replaces the ad-hoc records the layers grew
    independently (a per-stage timing record, bench-side TTS math,
    hand-rolled hardware stats printing): monotonic spans with
    parent/child nesting, named counters, streaming histograms, and
    point events, all pushed through a pluggable sink. Three sinks are
    built in:

    - {!null} — disabled. Every operation starts with one physical
      comparison against this handle and returns; instrumented hot paths
      pay nothing measurable when telemetry is off.
    - {!collector} — in-memory event buffer, what tests read back.
    - {!jsonl} / {!with_jsonl} — streaming JSONL writer, what the CLI's
      [--trace FILE] and CI artifacts use. One event per line,
      timestamps non-decreasing: they are read from {!Mclock}, the
      process-wide monotone clock, so a stepped system clock can never
      produce an out-of-order trace.

    Handles are domain-safe: a single mutex orders sink writes and
    aggregate updates, and span ids come from an atomic counter, so the
    portfolio's concurrent members can all log into one trace. Aggregates
    (counters, histogram moments, per-name span totals) are maintained on
    the handle for every non-null sink, which is what the CLI's
    [--metrics] summary table prints without needing to re-read the
    event stream.

    Event vocabulary (the names instrumented code emits) is documented in
    DESIGN.md §Telemetry. Reading a trace back — validation, replay,
    export — is [Qsmt_trace.Trace], which documents the trace
    contract. *)

type t
(** A telemetry handle: sink + aggregate state. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type event = {
  ts : float;  (** seconds since the handle was created, non-decreasing *)
  ev : string;  (** event name, e.g. ["span.begin"], ["sa.sweep"] *)
  span : int;  (** owning span id, [-1] when none *)
  parent : int;  (** parent span id, [-1] when none *)
  fields : (string * value) list;
}

(* ------------------------------------------------------------------ *)
(** {1 Handles} *)

val null : t
(** The disabled handle. All operations are no-ops; {!enabled} is
    [false]. This is the default everywhere a [?telemetry] argument is
    omitted. *)

val enabled : t -> bool
(** [false] only for {!null}. Instrumentation sites with a per-iteration
    cost hoist this check out of their loops. *)

val keeps_events : t -> bool
(** [true] for {!collector} and {!jsonl} handles, the sinks that keep
    the event stream. {!aggregate_only} and {!null} drop point events,
    so a site emitting one per iteration (a sweep trajectory) checks
    this once and skips building events no sink keeps. *)

val collector : unit -> t
(** In-memory sink; read back with {!events}. *)

val aggregate_only : unit -> t
(** Enabled handle that keeps counters / histograms / span totals but
    discards the event stream — what [--metrics] without [--trace]
    uses. *)

val jsonl : out_channel -> t
(** Streams each event to the channel as one JSON object per line. The
    caller owns the channel; call {!flush} before closing it. *)

val with_jsonl : string -> (t -> 'a) -> 'a
(** [with_jsonl path f] opens [path], runs [f] with a {!jsonl} handle,
    then flushes (appending counter / histogram summary events) and
    closes — also on exception. *)

(* ------------------------------------------------------------------ *)
(** {1 Spans} *)

type span
(** A started span. Copies of the value are cheap and immutable. *)

val no_span : span
(** The absent parent (also what {!span} returns on {!null}). *)

val span : t -> ?parent:span -> string -> span
(** Starts a span and emits [span.begin]. *)

val finish : t -> span -> unit
(** Emits [span.end] with a [dur_s] field and folds the duration into the
    per-name span aggregate. Finishing {!no_span} or a span of a
    different handle is a no-op. *)

val with_span : t -> ?parent:span -> string -> (span -> 'a) -> 'a
(** [with_span t name f] brackets [f] in {!span}/{!finish}; the span is
    finished also when [f] raises. *)

(* ------------------------------------------------------------------ *)
(** {1 Counters, histograms, point events} *)

val count : t -> string -> int -> unit
(** [count t name n] adds [n] to the named counter. Aggregate-only: no
    event is emitted until {!flush}, so counting in a loop is cheap. *)

val observe : t -> string -> float -> unit
(** Streaming histogram: folds the observation into running
    count/min/max/mean/variance (Welford) plus p50/p90/p99 quantile
    estimates (P² markers: O(1) memory, deterministic, exact for the
    first five observations). Summarised at {!flush}. *)

val gauge : t -> string -> float -> unit
(** [gauge t name x] sets the named gauge to its latest value
    (last-write-wins; e.g. [pool.utilization], [sa.sweeps_per_s]).
    Emitted as one [gauge] event per name at {!flush}. *)

val emit : t -> ?span:span -> string -> (string * value) list -> unit
(** A point event (e.g. one [sa.sweep] of an energy trajectory). *)

val flush : t -> unit
(** Emits one [counter] event per counter and one [hist] event per
    histogram (then clears neither — flushing twice re-emits totals),
    and flushes the channel for {!jsonl} handles. No-op on {!null}. *)

(* ------------------------------------------------------------------ *)
(** {1 Reading aggregates back} *)

val events : t -> event list
(** Events recorded so far, oldest first. Empty unless the handle is a
    {!collector}. *)

val counters : t -> (string * int) list
(** Counter totals, sorted by name. *)

type hist_summary = {
  h_count : int;
  h_min : float;
  h_max : float;
  h_mean : float;
  h_stddev : float;
  h_p50 : float;  (** median estimate; exact when [h_count <= 5] *)
  h_p90 : float;
  h_p99 : float;
}

val histograms : t -> (string * hist_summary) list
(** Histogram summaries, sorted by name. *)

val gauges : t -> (string * float) list
(** Latest gauge values, sorted by name. *)

val span_totals : t -> (string * int * float) list
(** Per span name: (name, finished count, total seconds), sorted by
    name. *)

val find_counter : t -> string -> int option

(* ------------------------------------------------------------------ *)
(** {1 Snapshot} *)

type snapshot = {
  snap_elapsed_s : float;  (** seconds since the handle was created *)
  snap_phase : string option;  (** most recently begun still-open span *)
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_hists : (string * hist_summary) list;
  snap_spans : (string * int * float) list;
  snap_open_spans : (string * int) list;  (** open span count per name *)
}
(** A consistent cut of every aggregate, all lists sorted by name. *)

val snapshot : t -> snapshot
(** Takes the handle's lock once and reads all aggregates atomically —
    safe to call from a progress-reporter domain while samplers are
    emitting. On {!null} returns an empty snapshot. *)

(* ------------------------------------------------------------------ *)
(** {1 Resource probes} *)

val with_gc_probe : t -> ?span:span -> (unit -> 'a) -> 'a
(** [with_gc_probe t f] samples [Gc.quick_stat] around [f] and records
    the delta: counters [gc.minor_collections] / [gc.major_collections],
    histograms [gc.minor_words] / [gc.major_words] / [gc.promoted_words],
    gauge [gc.heap_words], and one [gc.delta] point event. On OCaml 5
    the word counts are domain-local, so multi-domain phases report the
    orchestrating domain's share. No-op on {!null}. *)

(* ------------------------------------------------------------------ *)
(** {1 JSON emitters}

    The trace writer's own value encoders, shared with
    [Qsmt_trace.Json.to_string] so every JSON the program writes escapes
    and rounds the same way. *)

val buf_add_json_string : Buffer.t -> string -> unit
(** Appends a quoted JSON string: quotes, backslashes and control
    characters escaped, other bytes verbatim. *)

val buf_add_json_float : Buffer.t -> float -> unit
(** Appends [x] with 9 significant digits, or [null] when it is not
    finite (JSON has no inf/nan literals). *)
