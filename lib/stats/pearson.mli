(** Pearson-correlation distinguisher kernels (Eq. (1) of the paper).

    A trace set is a [D x T] matrix [traces] (D traces of T samples); a
    hypothesis set is a [G x D] matrix [hyps] (for each of G guesses, the
    modelled leakage of every trace).  All kernels are allocation-light
    single-pass formulations so that the attack scales to the paper's
    10k-trace experiments. *)

val corr : float array -> float array -> float
(** Plain correlation of two equal-length vectors; 0 if either is
    constant. *)

type col_stats = { col : float array; sum : float; var_n : float }
(** One trace column (fixed time sample across all traces) with its sum
    and n-scaled variance precomputed — the per-sweep invariant of a
    candidate enumeration.  Immutable once built: hoist it out of the
    per-guess loop and share it read-only across worker domains. *)

val column_stats : float array array -> int -> col_stats
(** [column_stats traces sample] extracts column [sample] of the [D x T]
    trace matrix and its moments in one pass. *)

val corr_with : col_stats -> float array -> float
(** [corr_with c h] is the Pearson correlation between hypothesis vector
    [h] and the precomputed column, paying only the [h]-dependent terms
    per call; 0 if either side is constant.  Bit-identical to
    [corr c.col h]. *)

val corr_matrix : traces:float array array -> hyps:float array array -> float array array
(** [corr_matrix ~traces ~hyps] is the [G x T] matrix of correlations
    between each guess's modelled leakage and each time sample — the
    paper's correlation-vs-time plots (Fig. 4 a-d). *)

val corr_at_sample : traces:float array array -> hyps:float array array -> sample:int -> float array
(** Correlations of every guess against one time sample (length G). *)

val evolution :
  traces:float array array ->
  hyp:float array ->
  sample:int ->
  step:int ->
  (int * float) list
(** [evolution ~traces ~hyp ~sample ~step] is the correlation of [hyp]
    against sample [sample] computed over the first [d] traces for
    [d = step, 2*step, ...] — the paper's correlation-vs-measurement
    plots (Fig. 4 e-h). *)

(** Streaming per-column correlation tracker: one {!Welford.Cov}
    accumulator per trace column, fed one trace (hypothesis value +
    sample row) at a time.  Correlation-vs-trace-count curves become a
    sequence of {!corr} checkpoints on a single growing tracker — no
    prefix rescans — and partial trackers built per shard merge in shard
    order into the whole-campaign statistic (Chan's formula, associative
    up to floating-point reassociation). *)
module Streaming : sig
  type t

  val create : width:int -> t
  (** Track [width] trace columns against one hypothesis stream. *)

  val add : t -> hyp:float -> float array -> unit
  (** [add t ~hyp row] folds one trace: its modelled leakage [hyp] and
      its [width] measured samples.  Raises [Invalid_argument] on a
      width mismatch. *)

  val count : t -> int
  val width : t -> int

  val corr : t -> int -> float
  (** Correlation at column [j] over everything folded so far. *)

  val corr_all : t -> float array

  val merge : t -> t -> t
  (** Combine disjoint partial trackers; neither input is mutated. *)
end

(** Batched hypothesis-block distinguisher kernel.

    A [hyp_block] is a [G x D] block of modelled leakage vectors (row r =
    guess r) backed by one flat [Bigarray], so a sweep fills a single
    reusable buffer instead of allocating one [hyp_vector] per guess.
    {!corr_block} scores the whole block against one precomputed trace
    column in a fused pass: per-row hypothesis moments and block-of-rows
    dot products, register-blocked four rows at a time and cache-blocked
    over the trace dimension.

    {b Determinism contract.}  Each row's three accumulators receive
    exactly the floating-point additions of {!corr_with}, in the same
    trace order; blocking only interleaves updates of distinct
    accumulators.  Hence [corr_block c b] is {e bit-identical} to
    [Array.map (corr_with c) rows] for every block size, and
    {!corr_matrix_blocked} is bit-identical to {!corr_matrix} — enforced
    by [test/test_pearson_batch.ml]. *)
module Batch : sig
  type backend = Scalar | Batched
  (** The two Pearson kernels: the reference per-guess loop and the
      fused register-tiled kernel.  Production sweeps run [Batched]; the
      tests compare it against [Scalar] bit for bit. *)

  type hyp_block

  val create : rows:int -> cols:int -> hyp_block
  (** Fresh block with room for [rows] guesses of [cols] traces each;
      all [rows] rows are initially declared valid (contents zero). *)

  val rows : hyp_block -> int
  (** Number of valid rows (see {!set_rows}); kernels score only these. *)

  val cols : hyp_block -> int
  val capacity : hyp_block -> int

  val set_rows : hyp_block -> int -> unit
  (** Declare how many leading rows hold live hypotheses — the idiom for
      a reusable scratch block whose final chunk is short.  Raises
      [Invalid_argument] outside [0 .. capacity]. *)

  val set : hyp_block -> int -> int -> float -> unit
  val get : hyp_block -> int -> int -> float

  val unsafe_set : hyp_block -> int -> int -> float -> unit
  (** Unchecked {!set} for hot fill loops ({!Attack.Hypothesis.Block});
      the caller must have validated the shape once up front. *)

  val of_rows : ?cols:int -> float array array -> hyp_block
  (** Pack scalar hypothesis vectors into a block (testing / bench).
      [cols] defaults to the first row's length and must be given for an
      empty pack whose column count matters. *)

  val row : hyp_block -> int -> float array
  (** Copy row [r] back out as a scalar hypothesis vector. *)

  val corr_block : ?dblock:int -> col_stats -> hyp_block -> float array
  (** [corr_block c b] is the per-row Pearson correlation against the
      precomputed column, bit-identical to [corr_with c] on each row.
      [dblock] is the trace-dimension cache tile (default 2048 samples =
      16 kB of column data); it affects performance only, never the
      result.  Raises [Invalid_argument] if the column length differs
      from the block's columns or [dblock < 1]. *)

  (** Fused hypothesis/correlation kernel: no hypothesis block at all.
      A row generator (or a precomputed per-trace table plus an integer
      evaluator) produces the modelled {e integer} intermediate on the
      fly and the register tile computes [float (popcount v)] inline, so
      a sweep materialises neither per-guess [hyp_vector]s nor a
      [G x D] block.

      The accumulator state survives across {!fold} calls: a streaming
      sweep feeds the campaign one shard segment at a time (in shard
      order) and finalises once with the whole-campaign column moments.

      {b Determinism contract.}  Per row, the sum / sum-of-squares /
      cross-term accumulators receive exactly the additions of
      {!corr_with} on [hyp_vector]'s floats, in global trace order:
      {!corr} is bit-identical to the scalar path for every tiling,
      segmentation and entry point ([fold] vs [fold_split]), provided
      [eval g prepped.(i)] equals the generated intermediate exactly
      (they are integers, so "exactly" is ordinary equality).  A
      multi-column accumulator shares one set of hypothesis moments
      across its columns — bit-identical to scoring each column
      separately, because the shared accumulators see the very same
      additions. *)
  module Fused : sig
    type t

    val create : rows:int -> ncols:int -> t
    (** Accumulator for [rows] guesses scored against [ncols] trace
        columns (consecutive sweep parts sharing one model).  Raises
        [Invalid_argument] if [rows < 0] or [ncols < 1]. *)

    val rows : t -> int
    val ncols : t -> int

    val fold : t -> gen:(int -> int -> int) -> cols:float array array -> len:int -> unit
    (** [fold t ~gen ~cols ~len] accumulates one segment of [len]
        traces: [gen r i] is the modelled integer intermediate of guess
        row [r] at segment-local trace [i], and [cols] holds this
        segment of each scored column.  Raises [Invalid_argument] on a
        column-count or length mismatch. *)

    val fold_split :
      t ->
      eval:(int -> int -> int) ->
      guesses:int array ->
      prepped:int array ->
      cols:float array array ->
      len:int ->
      unit
    (** Split-model fast path: row [r] of the segment is
        [eval guesses.(r) prepped.(i)] with the guess hoisted out of the
        inner loop — use with {!Attack.Hypothesis.Model} prep tables.
        Bit-identical to the equivalent {!fold}. *)

    val corr : t -> index:int -> n:int -> sum_t:float -> var_t:float -> float array
    (** Per-row correlations of column [index], finalised with the
        whole-sweep column moments ([n] traces, column sum and n-scaled
        variance) — exactly {!corr_with}'s epilogue.  Does not reset the
        accumulator. *)
  end

  val corr_matrix_blocked : traces:float array array -> hyp_block -> float array array
  (** [G x T] correlation matrix of every block row against every time
      sample — the blocked {!corr_matrix} for the Fig. 4 sweeps, with
      per-sample column statistics hoisted across the guess loop.
      Bit-identical to {!corr_matrix} on the same hypotheses. *)
end

val best_sample : float array -> int * float
(** Index and value of the entry with the largest absolute value. *)

val rank_guesses : float array -> int array
(** Guess indices sorted by decreasing absolute correlation. *)
