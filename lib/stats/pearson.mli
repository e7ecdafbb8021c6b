(** Pearson correlation, Eq. (1) of the paper: one batched kernel and
    its scalar references.

    A trace set is a [D x T] matrix [traces] (D traces of T samples); a
    hypothesis set is a [G x D] matrix [hyps] (for each of G guesses, the
    modelled leakage of every trace).  {!Batch.Fused} is the kernel the
    attack sweeps run; {!corr}, {!corr_with}, {!corr_matrix} and
    {!evolution} are the single-pass scalar formulations it is tested
    against bit for bit, and the ones the Fig. 4 reports use directly. *)

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
    paper's correlation-vs-time plots (Fig. 4 a-d).  Row [g] is
    bit-identical to [corr hyps.(g)] on each extracted column.  With no
    traces ([D = 0]) it is [G] empty rows.  Raises [Invalid_argument] if
    a hypothesis row's length is not [D]. *)

val evolution :
  traces:float array array ->
  hyp:float array ->
  sample:int ->
  at:int list ->
  (int * float) list
(** [evolution ~traces ~hyp ~sample ~at] is the correlation of [hyp]
    against sample [sample] over the first [d] traces, for each
    checkpoint [d] of [at] — the paper's correlation-vs-measurement
    plots (Fig. 4 e-h).  One pass: the five raw sums of {!corr} take
    their additions in trace order and are read off at each checkpoint,
    so the value at [d] is bit for bit [corr] over the first [d]
    traces.  Raises [Invalid_argument] unless [hyp] has one entry per
    trace and [at] rises strictly within [1 .. D]. *)

val steps : step:int -> int -> int list
(** [steps ~step d] is the checkpoint list [step, 2*step, ...], ending
    with [d] itself: every [step] traces and the whole set.  Raises
    [Invalid_argument] if [step < 1]. *)

(** The batched Pearson kernel: {!Fused}, the single-column tile every
    production sweep scores with, and the {!backend} switch that selects
    it or the scalar reference loop. *)
module Batch : sig
  type backend = Scalar | Batched
  (** The two Pearson kernels: the reference per-guess loop and the
      fused register-tiled kernel.  Production sweeps run [Batched]; the
      tests compare it against [Scalar] bit for bit. *)

  (** Fused hypothesis/correlation tile: [G] guesses scored against one
      trace column.  A precomputed per-trace prep table is combined with
      each guess into the modelled {e integer} intermediate on the fly
      and a four-row register tile computes [float (popcount v)] inline,
      so a sweep never materialises a hypothesis vector and the hot loop
      allocates nothing.

      Two entries, one tile shape: {!fold_product} for the product
      family [v = g * p] (the extend-phase mantissa products), a C tile
      with the multiply and the hardware popcount inline, and
      {!fold_split} for any other integer evaluator, an OCaml tile that
      pays one indirect call per (guess, trace) pair.
      A model with no prep digest runs {!fold_split} over an index table
      (entry [i] is [i]) with [eval] reading the known operand itself.

      The accumulator state survives across folds: a streaming sweep
      feeds the campaign one shard segment at a time (in shard order)
      and finalises once with the whole-campaign column moments.

      {b Determinism contract.}  Per row, the sum / sum-of-squares /
      cross-term accumulators receive exactly the additions of
      {!corr_with} on [hyp_vector]'s floats, in global trace order:
      {!corr} is bit-identical to the scalar path for every tiling,
      segmentation and entry, provided the intermediates are the same
      integers ([fold_product] and [fold_split ~eval:( * )] are
      interchangeable bit for bit).  Enforced by
      [test/test_pearson_batch.ml]. *)
  module Fused : sig
    type t

    val create : rows:int -> t
    (** Zeroed accumulator for [rows] guesses.  Raises
        [Invalid_argument] if [rows < 0]. *)

    val fold_split :
      t ->
      eval:(int -> int -> int) ->
      guesses:int array ->
      prepped:int array ->
      col:float array ->
      len:int ->
      unit
    (** [fold_split t ~eval ~guesses ~prepped ~col ~len] accumulates one
        segment of [len] traces: row [r] at segment-local trace [i] is
        [eval guesses.(r) prepped.(i)], with the guess hoisted out of
        the inner loop — use with {!Attack.Hypothesis.Model} prep
        tables — and [col] holds this segment of the scored column.
        Raises [Invalid_argument] if [len < 0], [col] or [prepped] is
        shorter than [len], or there is not one guess per row. *)

    val fold_product :
      t -> guesses:int array -> prepped:int array -> col:float array -> len:int -> unit
    (** [fold_product t ~guesses ~prepped ~col ~len] is
        [fold_split t ~eval:( * ) ~guesses ~prepped ~col ~len], run by
        the C tile of [tile_stubs.c] with the hardware popcount:
        bit-identical accumulators, no allocation.  Raises
        [Invalid_argument] like {!fold_split}, and if some product
        [guesses.(r) * prepped.(i)] has bit 62 set (the inputs
        [Bitops.popcount] refuses); [t] is then unspecified. *)

    val fold_class_product :
      acc:float array ->
      tbl:float array ->
      nclass:int ->
      guesses:int array ->
      prepped:int array ->
      len:int ->
      unit
    (** [fold_class_product ~acc ~tbl ~nclass ~guesses ~prepped ~len] is
        the profiled sweep's product tile: for [i = 0 .. len-1] in order,
        [acc.(r)] gets [tbl.(i * nclass + min h (nclass - 1))] added,
        [h] the Hamming weight of [guesses.(r) * prepped.(i)].  The same
        C file and the same bits as the OCaml loop over [eval = ( * )].
        Raises [Invalid_argument] if [len < 0], [nclass < 1], [acc] and
        [guesses] differ in length, [prepped] is shorter than [len] or
        [tbl] than [len * nclass], or a product has bit 62 set ([acc] is
        then unspecified). *)

    val corr : t -> n:int -> sum_t:float -> var_t:float -> float array
    (** Per-row correlations, finalised with the whole-sweep column
        moments ([n] traces, column sum and n-scaled variance) — exactly
        {!corr_with}'s epilogue.  Does not reset the accumulator. *)
  end
end
