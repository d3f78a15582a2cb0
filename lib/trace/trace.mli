(** Offline readers of a JSONL telemetry trace (what a
    {!Qsmt_util.Telemetry.jsonl} handle writes): validation, metrics
    replay, Chrome trace-event export, and the Prometheus rendering the
    CLI's [qsmt metrics] and [--metrics-out] print.

    Every reader checks the same contract and reports its first breach
    as ["line N: …"], naming the offending line:
    - every non-empty line is a JSON object with a string ["ev"] and a
      numeric ["ts"];
    - timestamps never decrease;
    - the span stream balances and nests: every [span.begin] carries a
      fresh id and an open (or absent) parent, and every [span.end]
      closes an open id with a matching name and no still-open
      children.

    Spans still open at end of input are the one breach the readers
    treat differently: {!validate} rejects them, {!replay} reports them,
    and {!to_chrome} leaves them out. *)

val validate : in_channel -> (int, string) result
(** The number of events, or the first breach of the contract —
    including a span still open at end of input. *)

val replay : in_channel -> (Qsmt_util.Telemetry.snapshot, string) result
(** Rebuilds a snapshot: counters, gauges and histogram summaries from
    the flush-emitted summary events (last flush wins), span totals
    re-accumulated from the [span.end] stream, spans still open at end
    of input as [snap_open_spans], and the most recently begun of them
    as [snap_phase]. A trace cut short (a crashed run) still replays.
    What [qsmt metrics TRACE] prints. *)

val to_chrome : in_channel -> out_channel -> (int, string) result
(** Converts a trace to Chrome trace-event JSON (loadable in Perfetto /
    chrome://tracing): closed spans become ["X"] complete events with
    lanes ("tid"s) assigned so overlapping spans land on separate rows,
    point events become instants on their owning span's lane, and
    counter/gauge summaries become ["C"] counter tracks. Returns the
    number of trace events written; nothing is written on an error. *)

val expose : Qsmt_util.Telemetry.snapshot -> string
(** Prometheus text exposition: metric names are the event vocabulary
    sanitised to [[a-zA-Z0-9_]] with a [qsmt_] prefix; counters get
    [_total], histograms render as summaries with
    [quantile="0.5"|"0.9"|"0.99"] lines plus [_sum]/[_count]/[_min]/
    [_max], span totals as [qsmt_span_seconds_total{span="…"}], open
    spans as [qsmt_open_spans{span="…"}]. Output order is
    deterministic (sorted by name). *)
