(** Hierarchical execution tracing: nested spans recording where
    wall-clock time goes inside a run.

    [with_span "rms.bnb" ~attrs f] times [f] and records a span whose
    parent is the span enclosing it on the same domain, so spans nest
    into a per-run tree (enumerate → select → curve → schedulability).
    Tracing is off by default; with tracing off and no metric to feed,
    [with_span] is one atomic load and a tail call.

    Domain safety: each domain accumulates completed spans in a
    domain-local buffer; {!Parallel} workers adopt the spawning
    domain's current span as their root parent ({!adopt}) and merge
    their buffers into the global trace at join ({!flush_local}), so
    worker spans appear under the span that launched the parallel
    region.

    Export: a span tree ({!pp_tree}) or Chrome [trace_event] JSON
    ({!to_chrome_json}, {!write_chrome}) loadable in [about:tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  attrs : (string * string) list;
  t_start : float;  (** seconds, relative to the trace epoch *)
  t_end : float;
  domain : int;  (** numeric id of the recording domain *)
}

val set_enabled : bool -> unit
(** Turn tracing on or off.  Turning it on (re)sets the trace epoch. *)

val enabled : unit -> bool

val with_span :
  ?attrs:(string * string) list ->
  ?timer:string ->
  ?hist:string ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span ?timer ?hist name f] runs [f] inside a named span — the
    one timing call of the pipeline.  The clock is read once before and
    once after [f] (also when [f] raises), and that one duration feeds
    the span (when tracing is on), the seconds counter [timer]
    ([Obs.Metrics.inc_s]) and the histogram [hist]
    ([Obs.Metrics.observe]).  With tracing disabled and neither [timer]
    nor [hist] given, this is just [f ()]. *)

val current : unit -> int option
(** Id of the innermost open span on this domain, if any. *)

val adopt : int option -> (unit -> 'a) -> 'a
(** [adopt parent f] runs [f] with its span stack rooted at [parent] —
    the bridge {!Parallel} uses to connect worker spans to the caller's
    tree.  [adopt None] just runs [f]. *)

val flush_local : unit -> unit
(** Merge this domain's completed-span buffer into the global trace.
    Must be called on a worker domain before it terminates; harmless
    anywhere else. *)

val spans : unit -> span list
(** All completed spans (flushing this domain first), in start order. *)

val reset : unit -> unit
(** Drop all recorded spans and restart the trace epoch.  Spans still
    open, and unflushed buffers of other live domains, survive into the
    new epoch — reset between parallel regions, not inside one. *)

type tree = { span : span; children : tree list }

val tree : unit -> tree list
(** Completed spans as a forest, children in start order.  A span whose
    parent is still open (or was dropped) roots its own tree. *)

val pp_tree : Format.formatter -> unit -> unit
(** Indented rendering of {!tree} with per-span durations. *)

val to_chrome_json : unit -> string
(** Chrome [trace_event] JSON: one complete ("ph":"X") event per span,
    [tid] = recording domain, timestamps in microseconds. *)

val write_chrome : string -> unit
(** Write {!to_chrome_json} to a file. *)
