(** Profiled Gaussian templates over points of interest.

    The GALACTICS BLISS attack (arXiv 2109.09461) breaks countermeasures
    that defeat unprofiled CPA by {e profiling}: on a cloned device with
    a known key, record traces, estimate one multivariate-Gaussian
    template per leakage class of each targeted intermediate, and score
    attack traces by class log-likelihood instead of correlation.  This
    module is that pipeline's math and persistence layer — it knows
    nothing about schemes, contexts or sweeps (see {!Distinguisher} and
    [Dema] for the scoring seam it plugs into).

    {b Classes.}  A class is the predicted leakage level of an
    intermediate — the Hamming weight (or Hamming distance) that the
    unprofiled distinguisher would correlate against — so the same
    {!Hypothesis.Model} part sets drive both the unprofiled and the
    profiled attack, and profiling truth is just the model applied to
    the known operand and the {e true} guess.

    {b Windows.}  Trace layouts here are periodic (one soft-float
    multiply every [Leakage.events_per_mul] samples, one coefficient
    every [Leakage.events_per_coeff]); a template is keyed by the
    {e window-relative} offset of the sample it scores and stores its
    points of interest window-relatively too.  One store therefore
    serves every unit of a campaign: a part at absolute sample [s] uses
    the template at offset [s mod window] translated to window base
    [s - s mod window].

    {b Pipeline} (two passes over the profiling set, streamable):
    pass 1 accumulates per-(template, class) means and variances over
    the whole window and selects the points of interest by SNR
    (between-class variance of the class means over pooled within-class
    variance — the one-way ANOVA form of the Welch t-test pass);
    pass 2 accumulates the pooled within-class covariance at the POIs.
    Finalisation runs Fisher LDA — whiten the pooled covariance
    (cyclic-Jacobi eigendecomposition), diagonalise the between-class
    scatter in the whitened basis, keep the top [ndim] directions — so
    the projected pooled covariance is the identity and the
    log-likelihood of class [c] reduces to
    [-0.5 * ||W^T (x - grand) - pm_c||^2] plus a constant.

    All of it is deterministic: fixed sweep orders, fixed
    tie-breaking, no RNG. *)

type spec = {
  window : int;  (** periodic trace layout length the templates key on *)
  nclass : int;  (** leakage classes (Hamming levels), e.g. 65 for 64-bit words *)
  npoi : int;  (** points of interest per template (clamped to [window]) *)
  ndim : int;  (** LDA output dimensions (clamped to [npoi] and classes-1) *)
}

val default_spec : window:int -> spec
(** [nclass = 65], [npoi = 8], [ndim = 3]. *)

type template = {
  target : int;  (** window-relative sample this template scores *)
  pois : int array;  (** window-relative points of interest, ascending *)
  counts : int array;  (** per-class profiling observations, length [nclass] *)
  grand : float array;  (** grand mean at the POIs *)
  means : float array array;  (** per-class POI means; absent classes hold [grand] *)
  proj : float array array;  (** [npoi x r] LDA projection [W] *)
  pmeans : float array array;  (** per-class projected means [W^T (mean_c - grand)] *)
}

type store = {
  window : int;
  nclass : int;
  trained : int;  (** pass-1 observations the store was built from *)
  templates : template array;  (** ascending by [target] *)
}

(** {1 Training} *)

val train :
  spec ->
  targets:int array ->
  ((base:int -> target:int -> cls:int -> float array -> unit) -> unit) ->
  store
(** [train spec ~targets feed] builds one template per distinct window
    offset in [targets].  [feed add] is called exactly twice (pass 1
    then pass 2) and must replay the same observations; each [add]
    records that the trace [samples] (full row) contains, at window base
    [base], an intermediate of class [cls] for the template at
    window-relative offset [target].  Streaming-friendly: nothing is
    retained across observations but fixed-size moment accumulators.

    Raises [Invalid_argument] on malformed specs, out-of-range [cls],
    unknown [target] or a window overrunning the trace, and [Failure]
    when a template ends with fewer than two observed classes (a
    class-constant intermediate cannot be profiled). *)

val train_plan :
  spec ->
  plan:(int * int * ('a -> int)) list ->
  (('a -> float array -> unit) -> unit) ->
  store
(** [train_plan spec ~plan observations] is {!train} over a profiling
    plan of [(base, target, value)] entries, the one form every
    profiling caller takes: the templates are the distinct [target]s of
    [plan], and each observation [x] with trace row [samples] (passed
    as [f x samples] by [observations f]) adds, entry by entry in plan
    order, the class [Bitops.popcount (value x)] — the Hamming weight of
    the true intermediate — at window base [base] for the template at
    [target].  [observations] runs once per pass and must replay the
    same observations. *)

val eigenvalues : float array array -> float array
(** Eigenvalues of a symmetric matrix (cyclic Jacobi, the solver the
    LDA whitening runs), descending.  Deterministic; exposed for the
    solver's property test. *)

(** {1 Scoring} *)

type point = {
  tpl : template;
  abs_pois : int array;  (** POIs translated to absolute trace samples *)
}

val covers : store -> sample:int -> bool

val point : store -> sample:int -> point
(** Resolve the template scoring absolute sample [sample].  Raises
    [Failure] naming the offset when the store holds no template for
    [sample mod window] — profiled attacks over un-profiled samples are
    a configuration error, not a silent fallback. *)

val class_table : store -> template -> float array array -> len:int -> float array
(** [class_table store tpl cols ~len] is the per-class log-likelihood
    score table (up to one shared constant) of a segment of [len]
    traces, given [cols.(k)], the traces' values at [tpl.pois.(k)].  It
    is row-major: trace [i], class [c] at [i * store.nclass + c].  A
    class observed in profiling scores [-0.5 * ||u - pm_c||^2], [u] the
    trace's LDA projection; a class never observed scores the max over
    observed [c'] of [s(c') - 0.5 * (c - c')^2], so a rare-but-legal
    class degrades smoothly instead of vetoing a candidate outright.
    That max is searched nearest-first and cut off exactly once no
    farther class can beat it; every entry is bit-identical to the
    per-trace score vector the table replaced, NaN candidates ignored
    as before.  Allocates nothing per trace.  Raises [Invalid_argument]
    unless there is one column per POI, each at least [len] long. *)

(** {1 Persistence}

    Same discipline as the [lib/tracestore] shards: versioned magic,
    every declared length validated against the bytes remaining before
    anything is allocated, and a trailing CRC-32 over the payload so
    truncation or corruption yields a descriptive [Failure] naming the
    offending field and byte offset. *)

val magic : string

val encode : store -> string
val decode : string -> store
(** Raises [Failure] on malformed input, and on a template training
    never produces: no points of interest, fewer than two observed
    classes, or an LDA dimension outside [1 .. min npoi (observed - 1)]
    — the message names the template's target. *)

val save : string -> store -> unit
val load : string -> store
(** [save]/[load] wrap {!encode}/{!decode} in file IO; [load] raises
    [Failure] on malformed content and [Sys_error] on IO failure. *)

val describe : store -> string
(** One-line human summary (window, templates, classes, training size). *)
