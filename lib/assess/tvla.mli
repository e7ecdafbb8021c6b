(** Test Vector Leakage Assessment: streaming per-sample Welch t-tests.

    The standard detection methodology (Goodwill et al., with the
    centered-second-order refinement of Schneider–Moradi): split a
    campaign into two populations, compute Welch's t statistic per
    sample point, and flag first-order leakage wherever |t| exceeds
    {!threshold} = 4.5 (the conventional ~1e-5 two-sided significance
    level).  Population moments come from {!Stats.Welford.Moments}
    accumulators folded chunk-by-chunk over the entry stream on the
    {!Parallel} pool and combined with Pébay's merge in chunk order.

    {b Determinism.}  Chunk boundaries are a fixed function of the
    entry sequence ({!default_chunk} entries per chunk, regardless of
    [jobs]), and the merge is a left fold in chunk order, so the result
    is bit-identical at every [jobs] {e and} between the in-memory
    ({!of_entries}) and store-backed ({!of_store}) forms of the same
    campaign — floats survive the store round-trip exactly (IEEE-754
    bit patterns), so both paths fold the same numbers through the same
    tree.

    Every entry point also takes [?ctx] ({!Attack.Ctx.t}) for [jobs] and
    observability; the t statistics are bit-identical with any sink
    attached. *)

type side = A | B

type result = {
  width : int;
  n_a : int;  (** population sizes after classification *)
  n_b : int;
  mean_a : float array;  (** per-sample class means (for centering) *)
  mean_b : float array;
  t1 : float array;  (** first-order Welch t per sample *)
  t2 : float array;
      (** centered-second-order t per sample: class comparison of
          (x - mu)^2, using E = m2/n and Var = m4/n - (m2/n)^2 from the
          same single-pass accumulator *)
}

val threshold : float
(** 4.5 — the conventional TVLA detection threshold. *)

val default_chunk : int
(** 256 — entries per accumulator chunk on every path. *)

val assess :
  ?ctx:Attack.Ctx.t ->
  ?chunk:int ->
  width:int ->
  classify:(int -> 'a -> side option) ->
  samples:('a -> float array) ->
  'a Seq.t ->
  result
(** Generic engine: [classify] maps (global entry index, entry) to a
    population ([None] drops the entry), [samples] extracts the trace
    row, which must have exactly [width] samples ([Invalid_argument]
    otherwise).  Empty populations yield t = 0 everywhere. *)

val fixed_vs_random : int -> Campaign.entry -> side option
(** Fixed class vs random class — the leakage-detection test. *)

val random_vs_random : int -> Campaign.entry -> side option
(** The random class split by acquisition-index parity — a null test
    whose detections are false positives of the procedure itself. *)

val of_entries :
  ?ctx:Attack.Ctx.t ->
  ?chunk:int ->
  classify:(int -> Campaign.entry -> side option) ->
  Campaign.entry array ->
  result

val of_store :
  ?ctx:Attack.Ctx.t ->
  ?chunk:int ->
  classify:(int -> Campaign.entry -> side option) ->
  Tracestore.Reader.t ->
  result
(** Bit-identical to {!of_entries} on the same campaign (see above). *)

(** {1 Bivariate second order}

    A univariate test cannot see a 2-share masking whose shares leak at
    {e different} samples — each share's marginal distribution is
    secret-independent.  The standard bivariate move: test the product
    of the {e centered} samples of each share pair, with per-class
    means from a first {!assess} pass. *)

val pair_stats :
  ?ctx:Attack.Ctx.t ->
  ?chunk:int ->
  pairs:(int * int) array ->
  mean_a:float array ->
  mean_b:float array ->
  classify:(int -> 'a -> side option) ->
  samples:('a -> float array) ->
  'a Seq.t ->
  float array
(** Welch t of the centered cross-product per pair, one t per pair. *)

val pairs_of_entries :
  ?ctx:Attack.Ctx.t ->
  ?chunk:int ->
  pairs:(int * int) array ->
  mean_a:float array ->
  mean_b:float array ->
  classify:(int -> Campaign.entry -> side option) ->
  Campaign.entry array ->
  float array

(** {1 Reading a t-trace} *)

val max_abs : ?lo:int -> ?hi:int -> float array -> int * float
(** [(sample, |t|)] of the largest-magnitude statistic in the inclusive
    range (clamped to the array); [(lo, 0.)] when the range is empty. *)
