(** Differential EM analysis engine: the Pearson-correlation
    distinguisher of Eq. (1), and every other ranking statistic, run by
    one driver.

    {b One engine.}  Each statistic is one {!Distinguisher.S} instance
    — Pearson ({!distinguisher} on a Pearson selection), profiled
    templates ([Profiled]) and the calibrated absolute-level exponent
    statistic ({!absolute}).  The driver folds an instance over a
    {e feed} of (per-part column segments, known operands): in-memory
    traces are a one-segment feed ({!rank}, {!rank_absolute}), a trace
    store is its shards ({!Stream.rank}), and a sequential campaign
    pulls segments and looks between them ({!rank_until},
    {!Stream.rank_until}).  A fixed budget is the same fold with no
    looks.  The driver owns candidate chunking, [jobs], top-k selection,
    the [dema.*] observability events and the degenerate-rank warning;
    the instance's candidate-independent work (column moments, split
    model prep tables, template class-score tables) runs once per
    segment and is shared read-only by every candidate chunk.

    {b Determinism.}  All rankings are selected under the strict total
    order {!compare_scored} (higher score first, exact ties broken by
    the smaller guess value), so the returned list is a pure function of
    the candidate {e multiset} — reordering the candidate sequence, or
    sweeping it in parallel chunks, yields bit-identical output.  Every
    instance accumulator receives its additions in global trace order,
    so in-memory, store-backed and exhausted sequential sweeps over the
    same traces agree bit for bit at every [jobs] and prefetch
    setting.

    {b Parallelism.}  The sweeps run [ctx.jobs] workers (default
    {!Parallel.default_jobs}, i.e. 1): candidates are read lazily in
    512-candidate chunks across a fixed-size domain pool, each chunk
    keeps a local top-k, and the partial top-ks are merged in chunk
    order — O(top + jobs x chunk) live per-candidate state, so the
    2{^25}-candidate spaces are never materialised.

    {b Execution context.}  Every entry point accepts [?ctx]
    ({!Ctx.t}, default {!Ctx.default}), which bundles [jobs], the
    {!Distinguisher.selection} scoring the sweep and an observability
    context.  Instrumentation is observationally transparent: with any
    sink attached the returned rankings are bit-identical to the
    uninstrumented path at every [jobs].

    {b Selections.}  [Pearson] runs the fused kernel; its scalar
    reference ({!pearson} [Scalar]) scores bit-identically and is what
    the tests compare against.  A [Profiled] selection scores guesses
    by template log-likelihood instead of correlation, averaged over
    traces.  {!rank_absolute} and
    {!corr_time} have no profiled form and ignore it; the sequential
    sweeps reject it with [Invalid_argument]
    ({!Distinguisher.require_gap_test}). *)

type scored = { guess : int; corr : float }

val compare_scored : scored -> scored -> int
(** Strict total order: descending score, ties by ascending guess. *)

val rank :
  ?ctx:Ctx.t ->
  traces:float array array ->
  parts:(int * 'k Hypothesis.Model.t) list ->
  known:'k array ->
  top:int ->
  int Seq.t ->
  scored list
(** [rank ~traces ~parts ~known ~top candidates] scores every candidate
    guess by the sum over [parts] of the absolute correlation between the
    modelled leakage [HW (model guess known.(d))] and the trace column at
    the part's sample index, streaming the candidate sequence with
    O(top) memory per domain.  Returns the [top] best, sorted by
    {!compare_scored}.  A part's {!Hypothesis.Model.t} predicts the
    integer intermediate of a trace whose known operand is [y].

    Pearson scoring runs the fused kernel
    ({!Stats.Pearson.Batch.Fused}), which generates hypothesis
    intermediates on the fly inside register tiles — no per-guess
    vectors, no [G x D] block; {!Hypothesis.Model.Split} models
    additionally hoist the known-operand digest into a per-segment prep
    table. *)

val rank_absolute :
  ?ctx:Ctx.t ->
  traces:float array array ->
  parts:(int * 'k Hypothesis.Model.t) list ->
  known:'k array ->
  top:int ->
  alpha:float ->
  baseline:float ->
  int Seq.t ->
  scored list
(** Like {!rank} but with a calibrated absolute-level distinguisher: each
    guess is scored by the negative mean squared residual between the
    measured samples and [baseline + alpha * HW(model guess y)].  Unlike
    Pearson correlation this is {e not} invariant under constant shifts
    of the predicted Hamming weight, which is what disambiguates exponent
    hypotheses that differ by a per-trace constant (see
    {!Recover.attack_exponent}).  [alpha] and [baseline] come from
    {!Calibrate.estimate} — i.e. from the same traces, not from a
    profiling device.  The statistic is the {!absolute} instance, the
    same under every selection. *)

(** {1 Sequential early-stopping sweeps}

    The adaptive campaign engine: the same distinguisher statistics,
    accumulated batch by batch, with a {!Sequential.Decision} tester
    looking at the top-1 vs runner-up correlation gap after each batch
    and stopping the sweep as soon as the leader separates at the
    requested confidence.

    {b Determinism.}  A sweep fed to exhaustion scores bit-identically
    to the fixed-budget sweeps, and at {e every intermediate look} the
    scalar and fused Pearson kernels agree bitwise (same additions into
    per-candidate accumulators in global trace order, same finalisation
    epilogue), candidate-chunk parallelism touches disjoint state, and
    all decisions run on the owner domain — so stop points, winners and
    the returned ranking are bit-identical across [jobs] and prefetch
    settings. *)

(** Incremental per-candidate scoring state: the Pearson instance over
    a chunked candidate array whose accumulators persist across batch
    folds and can be finalised at any look without a reset.  The driver
    behind {!rank_until} / {!Stream.rank_until}, and [Fullkey]'s
    per-coefficient decision sweeps. *)
module Sweep : sig
  type 'k t

  val create :
    backend:Stats.Pearson.Batch.backend ->
    parts:'k Hypothesis.Model.t list ->
    int array ->
    'k t
  (** One sweep over a fixed candidate array (at least two candidates —
      a runner-up must exist) and a list of part models, scored by the
      {!pearson} instance of [backend].  Parts may live on different
      views, so each supplies its own known operands at fold time. *)

  val n : 'k t -> int
  (** Traces folded so far. *)

  val fold : ?jobs:int -> 'k t -> (float array * 'k array) array -> unit
  (** One batch: element [j] is part [j]'s (column segment, known
      operands), all of one equal length.  Raises [Invalid_argument] on
      a ragged or mis-sized batch. *)

  val scores : ?jobs:int -> 'k t -> float array
  (** Per-candidate sum over parts of |r| over everything folded so
      far, with the fixed-budget sweeps' exact epilogue. *)

  val ranking : ?jobs:int -> 'k t -> top:int -> scored list
  (** Top-[top] of {!scores} under {!compare_scored}. *)

  val leaders : ?jobs:int -> 'k t -> Sequential.Campaign.leaders
  (** Top-1 vs runner-up under {!compare_scored}, reported as mean |r|
      over parts (so the statistic lives in [0,1] like a single
      correlation — what the Fisher-z decision rules expect). *)
end

type until = {
  ranking : scored list;  (** the ranking at the stopping point *)
  stop : Sequential.Decision.stop option;
      (** [None]: the budget ran out before the leader separated *)
  n_traces : int;  (** traces actually consumed *)
  looks : int;
}

val rank_until :
  ?ctx:Ctx.t ->
  spec:Sequential.Decision.spec ->
  ?batch:int ->
  traces:float array array ->
  parts:(int * 'k Hypothesis.Model.t) list ->
  known:'k array ->
  top:int ->
  int Seq.t ->
  until
(** In-memory adaptive {!rank}: traces are fed in batches of [?batch]
    (default 64) and the sweep stops as soon as the tester fires.  Fed
    to exhaustion (tester never fires) the ranking equals {!rank}'s
    bitwise.  This is how [Assess.Metrics] measures traces-to-decision
    on an experiment already held in memory. *)

(** Streaming engine over an on-disk {!Tracestore} campaign: the same
    distinguishers without ever materialising the corpus.  Shards are
    decoded on the domain pool (one shard per work unit, so peak memory
    is bounded by [jobs] decoded shards plus the extracted columns /
    accumulators) and combined in shard order.

    {b Determinism.}  Column extraction is arithmetic-free and each
    shard is one driver segment, so every instance replays the in-memory
    sweep's additions in global trace order and {!Stream.rank} is
    {e bit-identical} to the in-memory {!rank} over the same traces, at
    every [jobs] and selection, with prefetch on or off.  {!Stream.evolution} merges
    {!Stats.Welford.Cov} accumulators in shard order (Chan's formula):
    deterministic at every [jobs], and equal to a prefix rescan up to
    floating-point reassociation (1e-9 in the property tests).

    {b Corrupt shards.}  All entry points raise [Failure] if the store's
    sample width does not match its ring size.  A shard the reader
    cannot produce — its own [`Fail] policy raised, or its [`Skip]
    policy returned [None] — is a {e data error} by default
    ([?on_corrupt] = [`Fail]): the sweep fails naming the shard index
    rather than silently analysing a shrunken campaign.  Passing
    [~on_corrupt:`Skip] drops such shards from the analysis; each drop
    is counted on the ["dema.shards_skipped"] observability counter
    (emitted only when non-zero).

    {b Prefetch.}  With [ctx.jobs = 1] and [?prefetch] [true] (the default),
    a helper domain reads and decodes shard [i+1] while shard [i] is
    being consumed, overlapping IO/decode with scoring; results are
    still consumed strictly in shard order.  With [jobs > 1] the domain
    pool already overlaps shards and the flag is ignored. *)
module Stream : sig
  (** How the stream turns a store's records back into traces.  The
      [check] half validates the store's meta (ring size vs sample
      width) before any shard is read; the [decode] half rebuilds one
      trace.  Both run on worker domains and must be pure.  Every entry
      point defaults to {!falcon_codec}, so existing callers are
      bitwise unchanged; non-FALCON {!Target}s supply their own. *)
  type codec = {
    check : Tracestore.meta -> unit;
    decode : Tracestore.meta -> Tracestore.record -> Leakage.trace;
  }

  val falcon_codec : codec
  (** The historical path: width must equal
      [n * Leakage.events_per_coeff], records decode through
      {!Leakage.of_record} (FFT(c) recomputed from salt+message). *)

  val gather :
    samples:int array ->
    known:(Leakage.trace -> 'k) ->
    Leakage.trace array ->
    float array array * 'k array
  (** One decoded batch's [|batch| x |samples|] window rows and known
      operands, in batch order — the per-shard step of {!extract}. *)

  val extract :
    ?ctx:Ctx.t ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    samples:int list ->
    known:(Leakage.trace -> 'k) ->
    float array array * 'k array
  (** One streaming pass assembling the narrow [D x |samples|] column
      matrix and the known-operand array, in global trace order. *)

  val rank :
    ?ctx:Ctx.t ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    parts:(int * 'k Hypothesis.Model.t) list ->
    known:(Leakage.trace -> 'k) ->
    top:int ->
    int Seq.t ->
    scored list
  (** Store-backed {!rank}: part sample indices are {e absolute} trace
      sample positions (e.g. from [Leakage.sample_of]); [known] maps a
      trace to the operand fed to the part models.  The campaign is
      never concatenated: each shard contributes one segment of the
      columns the selection needs (the part's own column for Pearson,
      its template's points of interest for [Profiled]), folded in
      shard order — bit-identical to the in-memory {!rank} on the
      extracted corpus. *)

  (** Pull-based shard feed for adaptive campaigns. *)
  type feed = {
    next : unit -> Leakage.trace array option;
        (** next non-empty decoded shard in shard order, truncated at
            the cap; [None] once the campaign (or the cap) is exhausted *)
    close : unit -> unit;
        (** join any in-flight decode; call when abandoning the feed
            early (idempotent, [Fun.protect ~finally] material) *)
    total : int;  (** the capped campaign budget the feed will deliver *)
    skipped : unit -> int;  (** corrupt shards dropped so far *)
  }

  val shard_feed :
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    ?max_traces:int ->
    Tracestore.Reader.t ->
    feed
  (** Decode shards strictly in shard order, one pull at a time, with
      one decode kept in flight on a helper domain when [?prefetch]
      (the default).  The delivered trace sequence is independent of
      [prefetch].  Unpulled shards are never decoded — the property
      adaptive campaigns stop early on.  Raises [Failure] naming the
      shard on a corrupt shard under [`Fail]. *)

  val rank_until :
    ?ctx:Ctx.t ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    spec:Sequential.Decision.spec ->
    ?max_traces:int ->
    Tracestore.Reader.t ->
    parts:(int * 'k Hypothesis.Model.t) list ->
    known:(Leakage.trace -> 'k) ->
    top:int ->
    int Seq.t ->
    until
  (** Store-backed adaptive {!rank}: shards are decoded strictly in
      shard order, one at a time (with one decode kept in flight when
      [?prefetch], the default), fed to an incremental sweep, and the
      pull stops at the stopping point — unread shards are never
      decoded.  [?max_traces] caps the campaign (the budget an
      equivalent fixed run would use; also the baseline for the
      [seq.traces_saved] counter).  Batches are shard-sized, so looks
      land on shard boundaries; fed to exhaustion the ranking equals
      {!Stream.rank}'s bitwise.  Corrupt-shard policy as above
      ([`Skip] drops the shard from the campaign and counts it). *)

  val evolution :
    ?ctx:Ctx.t ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    sample:int ->
    model:(int -> 'k -> int) ->
    known:(Leakage.trace -> 'k) ->
    guess:int ->
    (int * float) list
  (** Correlation-vs-trace-count checkpoints, one per shard boundary
      (Fig. 4 e-h at campaign scale): running accumulators instead of
      prefix rescans.  Raises [Failure] on a store holding no traces —
      an empty campaign is a data error, not an empty evolution. *)
end

val corr_time :
  ?ctx:Ctx.t ->
  traces:float array array ->
  model:(int -> 'k -> int) ->
  known:'k array ->
  guesses:int array ->
  unit ->
  float array array
(** Correlation-versus-time matrix (one row per guess) — Fig. 4 (a-d):
    {!Stats.Pearson.corr_matrix} over each guess's {!hyp_vector}, under
    every selection.  No traces give one empty row per guess; raises
    [Invalid_argument] unless [known] has one operand per trace. *)

val evolution :
  traces:float array array ->
  sample:int ->
  model:(int -> 'k -> int) ->
  known:'k array ->
  guess:int ->
  step:int ->
  (int * float) list
(** Correlation at [sample] as a function of the trace count —
    Fig. 4 (e-h). *)

val hyp_vector : model:(int -> 'k -> int) -> known:'k array -> int -> float array
(** The modelled leakage vector (Hamming weights as floats) of one guess. *)

val pearson : Stats.Pearson.Batch.backend -> (module Distinguisher.S)
(** The Pearson DEMA instance on one kernel.  [Batched] is what the
    [Pearson] selection runs; [Scalar] is the per-guess reference loop,
    bit-identical to it and kept for the parity tests. *)

val distinguisher : Distinguisher.selection -> (module Distinguisher.S)
(** The registered instance behind a selection: {!pearson} [Batched],
    or template log-likelihood scoring from a [Profiled] store's POI
    columns. *)

val absolute : alpha:float -> baseline:float -> (module Distinguisher.S)
(** The calibrated absolute-level instance behind {!rank_absolute}. *)
