(** Epoch reads without epoch barriers.

    [let s0 = Snapshot.take () in ...work...; let d = Snapshot.delta
    ~before:s0 ~after:(Snapshot.take ())] attributes every sample to
    exactly one epoch, with no quiescence requirement — the pattern
    the CLI and bench use instead of [Metrics.reset] bracketing.  A
    snapshot is an immutable deep copy; taking one costs one pass over
    the registry under its mutex. *)

type t

val take : unit -> t
(** Consistent deep copy of the live registry. *)

val delta : before:t -> after:t -> t
(** Per-cell difference: counters and histogram buckets/count/sum
    subtract; gauges keep the [after] level (they are levels, not
    flows); histogram min/max come from [after] — exact when [before]
    had no samples, conservative otherwise.  Families or cells born
    after [before] pass through unchanged. *)

val families : t -> Metrics.family list

(** {1 Point reads} *)

val counter : ?labels:Metrics.labels -> t -> string -> float
(** Cell value, or the sum across all cells when [labels] is omitted;
    [0.] for missing families. *)

val gauge : ?labels:Metrics.labels -> t -> string -> float

val hist_data : ?labels:Metrics.labels -> t -> string -> Metrics.histdata option

val hist_stats : ?labels:Metrics.labels -> t -> string -> Metrics.hstats option

(** {1 Tables}

    The JSON files ([--metrics-out]) and the text tables ([--stats],
    [isecustom stats]) read the same family lists: counter families
    with at least one cell (label cells summed), split by [unit_s]
    into counts and seconds timers, and histogram families with at
    least one sample (label cells merged). *)

val telemetry_json : t -> string
(** [{"counters": {...ints...}, "timers": {...seconds...}}].  Always
    valid JSON: empty tables serialise to [{}], names are escaped, and
    a non-finite timer becomes [null]. *)

val histograms_json : t -> string
(** [{name: {count,sum,min,max,p50,p90,p99}}]; [{}] when empty. *)

val pp_telemetry : Format.formatter -> t -> unit
(** Two-column text dump of the counters, then the timers in seconds. *)

val pp_histograms : Format.formatter -> t -> unit
(** Text table: count, p50, p90, p99 and max per histogram. *)
