(** Differential EM analysis engine: the Pearson-correlation
    distinguisher of Eq. (1), and every other ranking statistic, run by
    one driver.

    {b One engine.}  Each statistic is one {!Distinguisher.S} instance
    — Pearson ({!distinguisher} on a Pearson selection), profiled
    templates ({!distinguisher} on a [Profiled] selection) and the
    calibrated absolute-level exponent statistic ({!absolute}).  The
    profiled statistic keeps one running total per (part, guess), to
    which every trace adds its template class table's entry; the
    absolute one folds every trace into the class of its part's digest
    of the known operand and rescores each guess over those classes.
    The driver folds an instance over a
    {e feed} of (per-part column segments, known operands): in-memory
    traces are a one-segment feed ({!rank}, {!rank_absolute}), a trace
    store is its shards ({!Stream.rank}), and a sequential campaign
    pulls segments and looks between them ({!rank_until},
    {!Stream.rank_until}).  A fixed budget is the same fold with no
    looks.  The driver owns candidate chunking, [jobs], top-k selection,
    the [dema.*] observability events and the degenerate-rank warning;
    the instance's candidate-independent work (column moments, split
    model prep tables, template class-score tables, digest class sums)
    runs once per segment and is shared read-only by every candidate
    chunk.

    {b Determinism.}  All rankings are selected under the strict total
    order {!compare_scored} (higher score first, exact ties broken by
    the smaller guess value), so the returned list is a pure function of
    the candidate {e multiset} — reordering the candidate sequence, or
    sweeping it in parallel chunks, yields bit-identical output.  Every
    instance accumulator (and the absolute statistic's class sums)
    receives its additions in global trace order,
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
    vectors, no [G x D] block.  {!Hypothesis.Model.Split} and
    {!Hypothesis.Model.Product} models hoist the known-operand digest
    into a per-segment prep table, and products are multiplied and
    popcounted inline by a C tile
    ({!Stats.Pearson.Batch.Fused.fold_product}). *)

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
    {!Recover.sign_exponent_multi}).  [alpha] and [baseline] come from
    {!Calibrate.estimate} — i.e. from the same traces, not from a
    profiling device.  The statistic is the {!absolute} instance, the
    same under every selection.  It scores guesses over the classes of
    each part's digest of the known operand (the [prep] of a split or
    product model; a plain model gives every trace its own class), so
    a sweep costs guesses x classes, not guesses x traces; emits the
    [dema.classes] count. *)

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
    per-coefficient decision sweeps — whose folded accumulators also
    yield that unit's extend and prune rankings ({!scores} [?parts]),
    so a stopped unit's candidates are never scored a second time. *)
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

  val guesses : 'k t -> int array
  (** The candidate array the sweep was created on; {!scores} are
      positional over it.  Shared, not copied: do not mutate. *)

  val fold : ?jobs:int -> 'k t -> (float array * 'k array) array -> unit
  (** One batch: element [j] is part [j]'s (column segment, known
      operands), all of one equal length.  Raises [Invalid_argument] on
      a ragged or mis-sized batch. *)

  val scores : ?jobs:int -> ?parts:int list -> 'k t -> float array
  (** Per-candidate sum of |r| over everything folded so far, with the
      fixed-budget sweeps' exact epilogue, summed over [?parts] —
      indices into the [create] part list, in the order given (default:
      every part in creation order).  A subset scores bit-identically
      to a {!rank} whose [parts] are those parts in that order over the
      same traces ({!Distinguisher.S.finalize}), so one sweep serves
      every ordered part subset a caller ranks on.  Raises
      [Invalid_argument] on an index outside the part list. *)

  val ranking : ?jobs:int -> ?parts:int list -> 'k t -> top:int -> scored list
  (** Top-[top] of {!scores} under {!compare_scored}. *)

  val leaders : ?jobs:int -> 'k t -> Sequential.Campaign.leaders
  (** Top-1 vs runner-up under {!compare_scored} over {e every} part in
      creation order, reported as mean |r| over parts (so the statistic
      lives in [0,1] like a single correlation — what the Fisher-z
      decision rules expect). *)
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
    every [jobs] and selection, with prefetch on or off.
    {!Stream.evolution} is the in-memory {!evolution}'s one pass over
    the gathered columns, so its checkpoints are bit-identical to the
    in-memory values at the same trace counts.

    {b Corrupt shards.}  All entry points raise [Failure] if the store's
    sample width does not match its ring size.  The reader is a strict
    loader ({!Tracestore.Reader.load_shard} raises on any corrupt or
    unreadable shard), and [?on_corrupt] here is the only corrupt-shard
    policy in the library.  By default ([`Fail]) such a shard is a
    {e data error}: the sweep re-raises the reader's [Failure], which
    names the shard index, rather than silently analysing a shrunken
    campaign.  Passing [~on_corrupt:`Skip] drops such shards from the
    analysis; each drop is counted on the ["dema.shards_skipped"]
    observability counter (emitted only when non-zero).

    {b Empty shards} (a manifest entry of zero traces) contribute no
    segment and no checkpoint, at every [jobs] and prefetch setting.

    {b Prefetch.}  With [ctx.jobs = 1] every entry point drains the one
    in-order shard loop behind {!Stream.shard_feed}: with [?prefetch]
    [true] (the default) a helper domain reads and decodes shard [i+1]
    while shard [i] is being consumed, overlapping IO/decode with
    scoring, and results are still consumed strictly in shard order.
    With [jobs > 1] the domain pool already overlaps shards and the flag
    is ignored. *)
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

  val map_shards :
    ?ctx:Ctx.t ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    (Leakage.trace array -> 'a) ->
    'a list
  (** [f] on every non-empty decoded shard, in shard order: the one
      pass under {!extract}, {!rank} and {!evolution}.  At [jobs > 1]
      [f] runs on the domain pool, so it must be pure; the results
      depend on neither [jobs] nor [prefetch].  With a sink, it counts
      the store's shards, bytes and traces once. *)

  val extract :
    ?ctx:Ctx.t ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    ?codec:codec ->
    Tracestore.Reader.t ->
    samples:int list ->
    known:(Leakage.trace -> 'k) ->
    float array array * 'k array
  (** One {!map_shards} pass assembling the narrow [D x |samples|]
      column matrix and the known-operand array, in global trace order. *)

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
      (the default).  This is the one in-order shard loop: the
      single-job passes of every other entry point drain it too.  The
      delivered trace sequence is independent of [prefetch].  Unpulled
      shards are never decoded — the property adaptive campaigns stop
      early on.  Raises [Failure] naming the shard on a corrupt shard
      under [`Fail]. *)

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
    model:'k Hypothesis.Model.t ->
    known:(Leakage.trace -> 'k) ->
    guess:int ->
    (int * float) list
  (** Correlation-vs-trace-count checkpoints, one at the end of every
      non-empty shard (Fig. 4 e-h at campaign scale).  Shards are
      decoded on the pool at [jobs > 1]; each contributes its sample
      column and known operands, and {!Stats.Pearson.evolution} makes
      its one pass over them in trace order, so every checkpoint is bit
      for bit the in-memory {!evolution} value at that trace count.
      Raises [Failure] on a store holding no traces —
      an empty campaign is a data error, not an empty evolution.  The
      model is the same {!Hypothesis.Model.t} the ranking sweeps take,
      evaluated through {!Hypothesis.Model.apply}. *)
end

val corr_time :
  ?ctx:Ctx.t ->
  traces:float array array ->
  model:'k Hypothesis.Model.t ->
  known:'k array ->
  guesses:int array ->
  unit ->
  float array array
(** Correlation-versus-time matrix (one row per guess) — Fig. 4 (a-d):
    {!Stats.Pearson.corr_matrix} over each guess's {!hyp_vector}, under
    every selection.  [model] is any {!Hypothesis.Model.t} (e.g. the
    [Recover.p_*] stage models), evaluated through
    {!Hypothesis.Model.apply}.  No traces give one empty row per guess; raises
    [Invalid_argument] unless [known] has one operand per trace. *)

val evolution :
  traces:float array array ->
  sample:int ->
  model:'k Hypothesis.Model.t ->
  known:'k array ->
  guess:int ->
  step:int ->
  (int * float) list
(** Correlation at [sample] as a function of the trace count —
    Fig. 4 (e-h): {!Stats.Pearson.evolution} at every [step] traces and
    at the whole set ({!Stats.Pearson.steps}). *)

val hyp_vector : model:'k Hypothesis.Model.t -> known:'k array -> int -> float array
(** The modelled leakage vector of one guess: the Hamming weight of
    [Hypothesis.Model.apply model guess y] for every known operand [y],
    as floats. *)

val pearson : Stats.Pearson.Batch.backend -> (module Distinguisher.S)
(** The Pearson DEMA instance on one kernel.  [Batched] is what the
    [Pearson] selection runs; [Scalar] is the per-guess reference loop,
    bit-identical to it and kept for the parity tests. *)

val distinguisher : Distinguisher.selection -> (module Distinguisher.S)
(** The registered instance behind a selection: {!pearson} [Batched],
    or template log-likelihood scoring from a [Profiled] store's POI
    columns. *)

val absolute : alpha:float -> baseline:float -> (module Distinguisher.S)
(** The calibrated absolute-level instance behind {!rank_absolute}.
    Its plan keeps, per part and digest class in order of first
    appearance, the count, a pivot (the class's first sample) and the
    sums of [t - pivot] and its square, added in global trace order; a
    guess's class term is [S2 + d * (n * d - 2 * S1)] with
    [d = baseline + alpha * HW - pivot].  Parts whose digests are all
    distinct, and plain parts, score exactly as the per-trace sum of
    squared residuals.  Its per-guess state is empty: [finalize] reads
    every segment prepared so far. *)
