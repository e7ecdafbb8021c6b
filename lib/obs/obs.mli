(** Structured observability for the attack pipeline: spans, counters,
    gauges and progress, routed to a pluggable sink.

    A long-running campaign — 10k-trace acquisitions, per-coefficient
    extend-and-prune sweeps, full NTRU key completion — is a black box
    without per-stage visibility.  This module provides it without
    perturbing a single bit of any result:

    - {b Spans} are timed, nestable, labelled regions
      ([Obs.span t "recover.mantissa_low" ~fields:[...] f]).  A span
      event is emitted when the region closes, carrying the enclosing
      span path, so the sink sees a deterministic tree.
    - {b Counters} and {b gauges}
      ([Obs.count t "dema.guesses" n], [Obs.gauge t "survivors" x])
      are emitted as discrete metric events at deterministic points —
      instrumented code accumulates privately (e.g. in an [Atomic])
      and emits one event per sweep, never one per element.
    - {b Progress} ([Obs.progress t "shards" k ~total]) is a live,
      lossy channel for rate/ETA display.  It may be called from any
      domain; sinks that render it serialise internally, and the
      {!Jsonl} sink ignores it entirely so event logs stay
      deterministic.

    {b Determinism contract.}  Span/count/gauge events must only be
    emitted from the domain that owns the context; worker domains
    restrict themselves to private accumulators and {!progress}.  Code
    that fans work out (e.g. [Fullkey]) gives each task a {!buffered}
    child context and {!drain}s the children in task order after the
    join, so the merged event stream is a pure function of the inputs
    (modulo the recorded durations).  With the {!null} context every
    operation is a branch on an immediate — no clock reads, no
    allocation beyond the closure the caller already built.

    {b Clocks.}  Span durations come from the context clock (ns);
    {!Pretty} rate/ETA arithmetic from the sink clock (s).  Both are
    injected — library code paths never call the wall clock themselves,
    so tests drive fake clocks and stay reproducible. *)

type level = Error | Info | Debug
(** Severity of an event; a context records events at or below its own
    verbosity ([Error] < [Info] < [Debug]). *)

val level_name : level -> string
val level_of_string : string -> level option

(** Structured labels attached to events: coefficient index, mantissa
    part, shard id, backend name, ... *)
type field = Int of int | Float of float | Str of string | Bool of bool

type fields = (string * field) list

type event =
  | Span of {
      name : string;
      path : string list;  (** enclosing span names, outermost first *)
      level : level;
      fields : fields;
      elapsed_ns : int64;
    }
  | Count of {
      name : string;
      path : string list;
      level : level;
      fields : fields;
      n : int;
    }
  | Gauge of {
      name : string;
      path : string list;
      level : level;
      fields : fields;
      v : float;
    }

type sink = {
  emit : event -> unit;
      (** Called with ordered events from the owning domain. *)
  progress : label:string -> total:int option -> int -> unit;
      (** Live progress; may be called concurrently from any domain. *)
  flush : unit -> unit;
}

(** {1 Contexts} *)

type t

val null : t
(** The zero-cost default: every operation is a no-op and no clock is
    ever read. *)

val make : ?level:level -> ?clock:(unit -> int64) -> sink -> t
(** Root context over a sink.  [level] defaults to [Info]; [clock]
    (nanoseconds, monotonic-enough) defaults to a gettimeofday-based
    reading and should be overridden with a fake in tests. *)

val enabled : t -> bool
(** [false] exactly for {!null} — lets instrumentation skip building
    expensive fields. *)

val level_enabled : t -> level -> bool
(** Whether an event at this level would be recorded. *)

val span : ?level:level -> ?fields:fields -> t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a timed, named region and emits a
    [Span] event when it closes (also on exception).  Nested spans see
    the extended path. *)

val count : ?level:level -> ?fields:fields -> t -> string -> int -> unit
(** Emit one [Count] event (a flushed counter total or delta). *)

val gauge : ?level:level -> ?fields:fields -> t -> string -> float -> unit
(** Emit one [Gauge] event (an instantaneous measurement). *)

val progress : ?total:int -> t -> string -> int -> unit
(** [progress t label k] reports [k] units of [label] done (of [total]
    when known).  Safe from any domain; never recorded by {!Jsonl}. *)

val buffered : t -> t
(** A child context that queues its events instead of emitting them;
    progress still passes straight through to the sink.  [buffered
    null] is {!null}.  The child is single-owner: exactly one task may
    use it, and {!drain} must run on the parent's domain. *)

val drain : into:t -> t -> unit
(** Append a buffered child's queued events to [into] in emission
    order.  Draining a non-buffered or {!null} child is a no-op. *)

(** {1 Sinks} *)

module Pretty : sig
  val create :
    ?clock:(unit -> float) ->
    ?out:out_channel ->
    ?min_interval:float ->
    unit ->
    sink
  (** Human-readable progress on [out] (default [stderr]): spans print
      as one line with their duration and fields, progress as an
      in-place [\r] line with rate and — when the total is known — ETA.
      [clock] (seconds) drives all rate/ETA arithmetic and display
      throttling ([min_interval], default 0.1 s); the default clock is
      gettimeofday, tests inject a fake.  All rendering is serialised
      by an internal mutex. *)
end

module Jsonl : sig
  val schema : string
  (** ["falcon-down/obs/v1"] — stamped on every record. *)

  val sink : ?write:(string -> unit) -> ?flush:(unit -> unit) -> unit -> sink
  (** Core constructor over a line writer.  Every event becomes one
      schema-versioned JSON line ([record]); [flush] runs after each
      [Span] record so completed spans are durable — a crash can tear
      at most the final line, which {!read_string} tolerates (the
      tracestore CRC policy applied to logs). *)

  val to_channel : out_channel -> sink
  val to_buffer : Buffer.t -> sink

  val record : seq:int -> event -> Json.t
  (** The wire form of one event: [{"schema";"seq";"type";"name";
      "path";"level";"fields"} + {"elapsed_ns"|"value"}]. *)

  val read_string : string -> Json.t list
  (** Parse a JSONL log.  A partial {e final} line (unterminated, or
      terminated but cut mid-record by a crash) is dropped silently;
      a malformed earlier line raises [Failure] naming the line. *)

  val read_file : string -> Json.t list

  val validate : Json.t list -> (unit, string) result
  (** Schema check of a parsed log: every record carries the
      {!schema} tag, a contiguous [seq] starting at 0, a known type,
      a non-empty name, a string-list path, a valid level, scalar
      fields, and the per-type payload ([elapsed_ns >= 0] for spans,
      integer [value] for counters, numeric or null [value] for
      gauges). *)
end

module Json = Json
(** The JSON tree this library serialises with (also re-used by
    [Assess]). *)
