(** The scoring seam: which statistic turns traces into per-guess scores.

    A {!selection} names {e which} distinguisher scores a sweep: Pearson
    DEMA (Eq. 1) or a profiled template store.  {!Ctx.t} carries a
    [selection].

    {b One engine.}  Every statistic is an instance of {!S}, and one
    driver in [Dema] runs them all: it owns the candidate chunking, the
    domain pool, top-k selection and the [dema.*] observability events,
    and feeds the instance per-part column segments in global trace
    order.  In-memory traces are a one-segment feed, a trace store is
    its shards, and a sequential campaign is the same fold with a
    tester looking between segments.  The registered instances live in
    [Dema] ([Dema.distinguisher], [Dema.absolute]).

    {b The contract} ({!S}).  An instance splits its work three ways:
    - a {e plan} per sweep, which resolves the parts, declares the
      trace-sample columns each part needs, and accumulates the
      candidate-independent running totals (column moments, trace
      count, the absolute statistic's digest class sums) as segments
      are {e prepared};
    - a {e prepared segment}: the candidate-independent work on one
      batch of traces (prep tables for split models, class-score tables
      for templates), computed once and shared read-only by every
      candidate chunk;
    - an {e accumulator} per candidate chunk, folded with prepared
      segments and finalised against the plan.  An instance whose plan
      holds every sum it scores from (the absolute statistic) keeps
      only the guesses there, and its [finalize] reads every segment
      prepared so far; the drivers fold every prepared segment into
      every accumulator, so the two readings agree.

    Determinism is part of the contract: every accumulator (and every
    plan total) receives its additions in global trace order, so scores are bit-identical however
    the traces are split into segments and the candidates into chunks —
    which is what lets in-memory, store-backed and sequential sweeps
    agree bit for bit at every [jobs]. *)

type selection =
  | Pearson
      (** the correlation distinguisher, run on the fused register-tiled
          kernel (its scalar loop is the tests' reference,
          [Dema.pearson Scalar]) *)
  | Profiled of Profile.store
      (** template log-likelihood scoring against a trained
          {!Profile.store} (GALACTICS-style profiled attack) *)

val name : selection -> string
(** ["pearson"] or ["profiled"] — the one vocabulary of the obs
    [backend] field and the [Assess.Matrix] distinguisher axis. *)

val names : string list
(** The vocabulary, in declaration order. *)

val has_gap_test : selection -> bool
(** Whether sequential stopping can decide on this selection: the
    stopping testers ({!Sequential.Decision}) are Fisher-z gap tests on
    correlations, so only the Pearson selection has one. *)

val require_gap_test : what:string -> selection -> unit
(** The one check every sequential entry point makes: raises
    [Invalid_argument], prefixed with [what], when {!has_gap_test} is
    false. *)

(** A distinguisher statistic (plan / prepare / fold / finalize). *)
module type S = sig
  val name : string

  type 'k plan

  val plan : parts:(int * 'k Hypothesis.Model.t) list -> 'k plan
  (** One sweep over an ordered part set; part sample indices are
      absolute trace positions.  Raises if a part cannot be scored
      (e.g. [Failure] for a sample the template store does not
      profile). *)

  val needs : 'k plan -> int list list
  (** Per part (in [plan] order), the absolute sample columns every
      segment must supply for that part, in order.  Pearson needs
      exactly the part's own column; a profiled instance needs its
      template's points of interest. *)

  val terms : 'k plan -> int
  (** The per-guess terms a finalised score sums, over the segments
      prepared so far: parts x traces for Pearson and the profiled
      statistic, the digest classes of every part for the absolute one.
      The driver's [dema.flops_est] is guesses x terms x 6. *)

  type 'k seg

  val prepare : 'k plan -> (float array array * 'k array) array -> 'k seg
  (** One segment: element [j] holds part [j]'s column segments (one
      [float array] per entry of [needs], all of one equal length) and
      the matching known operands.  Does the segment's
      candidate-independent work and advances the plan's running
      totals, so segments must be prepared once each, in global trace
      order, on one domain.  Raises [Invalid_argument] on a ragged or
      mis-shaped segment. *)

  type 'k acc

  val acc : 'k plan -> int array -> 'k acc
  (** Zeroed per-guess state for one chunk of candidates. *)

  val fold : 'k acc -> 'k seg -> unit
  (** Fold one prepared segment into a chunk's state.  Touches only the
      accumulator, so distinct chunks fold the same segment
      concurrently. *)

  val finalize : 'k plan -> parts:int list -> 'k acc -> float array
  (** Per-guess scores (positionally matching the [acc] guesses) over
      every segment folded so far, against the plan's totals over the
      segments prepared so far, combining the per-part scores of
      [parts] — indices into the plan's part list — in that order.  The
      whole plan in plan order is the sweep's own score; any ordered
      subset scores exactly as a one-shot sweep whose plan holds just
      those parts in that order, because each per-(part, guess) term
      depends only on that part's accumulators.  Pure: finalising
      twice, or at a look mid-stream, yields the scores of the
      equivalent one-shot sweep. *)
end
