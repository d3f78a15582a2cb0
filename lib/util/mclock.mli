(** Monotone process clock for interval timing.

    [Unix.gettimeofday] is wall time: NTP slews, manual clock steps and
    leap smearing can move it backwards mid-measurement, turning a bench
    interval negative or wildly wrong. The OCaml runtime this repository
    pins (no [mtime]-style C stubs available) exposes no raw
    [CLOCK_MONOTONIC], so this module provides the guarantee instead:
    readings are clamped to be non-decreasing across the whole process,
    so intervals are never negative and a backwards clock step costs at
    most the stalled interval, not a corrupted one. Benches, span
    durations (and so stage times), portfolio budgets, CDCL times and
    trace timestamps all read {!now} rather than calling
    [Unix.gettimeofday] directly. *)

val now : unit -> float
(** Seconds since the first load of this module, non-decreasing across
    all domains. Resolution is that of [Unix.gettimeofday] (~1µs). *)
