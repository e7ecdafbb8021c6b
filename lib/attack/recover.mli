(** Per-coefficient key recovery: the divide-and-conquer of Section III-B
    and the extend-and-prune of Section III-C.

    The unit of attack is one soft-float multiplication with a secret
    operand and a known, per-trace-varying operand.  A {!view} holds the
    16-sample leakage window of that multiplication across D traces, plus
    the known operands.  The two mantissa halves, then sign and exponent,
    are recovered separately and reassembled ({!coefficient}).  Each
    phase correlates against {!Hypothesis.Model.t} models of the
    multiply's intermediates, pinned by the test suite to the values
    [Fpr.mul_emit] emits. *)

type view = {
  traces : float array array;  (** D x 16 window samples *)
  known : Fpr.t array;  (** known operand of each trace *)
}

(** {1 The unit layout} *)

type component = [ `Re | `Im ]

type mul = {
  f : component;  (** the FFT(f) component that is the secret operand *)
  c : component;  (** the FFT(c) component that is the known operand *)
}

val layout : mul array
(** The one table of where a secret value leaks: a coefficient's four
    real multiplications, in [Fft.mul_emit]'s order (c_re x f_re),
    (c_im x f_im), (c_re x f_im), (c_im x f_re), each leaking in the 16
    samples from its {!window_start}.  Every driver cuts its windows
    with {!views_for}. *)

val window_start : coeff:int -> mul:int -> int
(** The first sample of multiplication [mul]'s window in a signing
    trace: [coeff * Leakage.events_per_coeff + mul * events_per_mul]. *)

val component_muls : component -> int list
(** The two multiplications a secret component enters, in table order:
    f_re muls 0 and 3, f_im muls 1 and 2 — the view order of
    {!views_for}. *)

val mul_known : Fpr.t * Fpr.t -> int -> Fpr.t
(** [mul_known (c_re, c_im) mul] — the known operand of a
    multiplication, given the coefficient's FFT(c) component pair. *)

val component_of : Fft.t -> coeff:int -> component -> Fpr.t
(** One component of point [coeff] of a transform: of FFT(f) for a
    {!mul}'s [f], of FFT(c) for its [c]. *)

val views_for : Leakage.trace array -> coeff:int -> component:component -> view list
(** The windows of the {!component_muls} of a secret component, cut out
    of full signing traces, each with its traces' known operands.  Joint
    attacks over both windows use all available information. *)

val sample : Fpr.label -> int
(** Sample index of a multiplication event inside a window. *)

(** {1 Leakage models (predicted intermediates)}

    The attacked multiply's events are written once, in [Fpr.mul_emit]'s
    order ({!Leakage.mul_event_order}), as functions of the guessed
    slice of the secret operand and a small digest of the known one
    (its significand halves B and A, its sign or its exponent).  Every
    model is read off them: a Hamming-weight model is its event, a bus
    Hamming-distance model its event XOR the event before it.  So
    [apply m guess y] is the value [Fpr.mul_emit y secret] emits at the
    model's label (its bus transition under [`Hd]) when [guess] is the
    matching slice of the secret, and the test suite checks every model
    against the emitter, not against a second copy of the arithmetic.

    Every model is a {!Hypothesis.Model.t}, the one form the ranking
    sweeps, the profiled trainer, {!Target} and the correlation plots
    ({!Dema.corr_time}, {!Dema.evolution}) take.  The known operand is
    digested once per sweep ([prep]) and the candidate loop runs on
    plain ints ([eval]) inside the fused Pearson kernel; the four
    partial products [p_w00], [p_w10], [p_w01] and [p_w11] are
    {!Hypothesis.Model.Product} values, multiplied inline by the
    kernel.  Integer arithmetic throughout, so rankings are
    bit-identical on either Pearson kernel. *)

val p_sign : Fpr.t Hypothesis.Model.t
(** guess = secret sign bit; predicted sign of the product. *)

val p_exp : Fpr.t Hypothesis.Model.t
(** guess = secret biased exponent; predicted e = ex + ey - 2100. *)

val p_w00 : Fpr.t Hypothesis.Model.t
(** guess = D (secret low 25 bits); predicted D x B. *)

val p_w10 : Fpr.t Hypothesis.Model.t
(** guess = D; predicted D x A. *)

val p_z1a : Fpr.t Hypothesis.Model.t
(** guess = D; predicted (DB >> 25) + (DA mod 2^25). *)

val p_w01 : Fpr.t Hypothesis.Model.t
(** guess = E (secret high 28 bits); predicted E x B. *)

val p_w11 : Fpr.t Hypothesis.Model.t
(** guess = E; predicted E x A. *)

val p_z1 : d:int -> Fpr.t Hypothesis.Model.t
(** guess = E, given the recovered low half [d]; predicted z1a + (EB
    mod 2^25). *)

val p_zhigh : d:int -> Fpr.t Hypothesis.Model.t
(** guess = E, given [d]; predicted high-word accumulation
    EA + (EB >> 25) + (DA >> 25) + (z1 >> 25). *)

type leakage = [ `Hw | `Hd ]
(** Which device model the hypothesis models are matched against:
    the idealized Hamming-weight probe (the default, matching
    [Leakage.default_emitter]) or bus Hamming-distance
    ([Leakage.hd_emitter]: one shared write-back register, so sample j
    leaks [HW(v_(j-1) lxor v_j)]).  Every component attack takes it as
    a [?leakage] argument, [`Hw] by default; under [`Hd] every model is
    its event XOR the one before it. *)

val calibration_points : leakage -> (Fpr.label * (Fpr.t -> int)) list
(** The load events {!Calibrate.estimate} regresses on, as (label, word
    of the known operand): [`Hw] the low and high 32-bit words at
    [Load_x_lo] and [Load_x_hi]; [`Hd] the low word's transition into
    the high word, [word_lo lxor word_hi], at [Load_x_hi]. *)

val sign_exponent_parts :
  leakage:leakage -> mant:int -> Fpr.t array -> (Fpr.label * int Hypothesis.Model.t) list
(** The parts {!sign_exponent_multi} scores on one view whose known
    operands are the array, given the recovered 52-bit mantissa
    [mant], as models over the view's trace index.  The guess packs
    [(sign lsl 11) lor exponent].  [`Hw]: Exp_sum, Sign_xor and
    Result_hi, whose model leaves out the guess-free top mantissa bits
    ({!hi20}); [`Hd]: the Exp_sum, Sign_xor, Result_lo and Result_hi
    transitions. *)

val hi20 : mant:int -> Fpr.t -> int
(** The top 20 bits of the product's mantissa, given the secret's
    mantissa [mant]: the guess-free field of the result's high word. *)

(** {2 Stage part sets}

    The (event label, split model) lists each mantissa phase correlates
    against, per leakage family — the single source the fixed and the
    adaptive full-key drivers, the FALCON profiling plan
    ({!Target.Falcon}) and the assessment metrics build their part
    lists from.  First component: the extend stage; second:
    the prune stage. *)

type stage = (Fpr.label * Fpr.t Hypothesis.Model.t) list

val low_stages : leakage -> stage * stage
(** Low 25-bit phase.  [`Hw]: extend on w00+w10, prune on z1a; [`Hd]:
    the w00 transition needs the secret high word's load and drops out,
    so extend on the w10 transition, prune on the z1a transition. *)

val high_stages : d:int -> leakage -> stage * stage
(** High 28-bit phase given the recovered low half [d]: extend on
    w01+w11, prune on z1+zhigh (transitions thereof under [`Hd]). *)

val mantissa_low_width : int
(** 25 — the guess width of the low phase ({!low_stages} candidates). *)

(** {1 Component attacks}

    An attack over several views raises [Invalid_argument], naming the
    counts, when the views hold different numbers of traces. *)

val attack_sign : view -> int * float
(** Recovered sign bit and its correlation at the sign sample (the
    correct guess correlates positively). *)

val sign_exponent_multi :
  ?ctx:Ctx.t ->
  ?leakage:leakage ->
  mant:int ->
  view list ->
  int * int * Dema.scored list
(** Joint recovery of (sign, biased exponent) with the calibrated
    absolute-level distinguisher over the exponent register, the sign XOR
    and the result's high-word store, given the recovered mantissa.
    Needs far fewer traces for the sign bit than the plain differential
    {!attack_sign} (which follows the paper's Fig. 4(a) method). *)

type mantissa_result = {
  winner : int;
  extend : Dema.scored list;  (** ranking after the multiplication phase *)
  pruned : Dema.scored list;  (** re-ranking on the intermediate addition *)
}

val mantissa_low_multi :
  ?ctx:Ctx.t ->
  ?leakage:leakage ->
  ?top:int ->
  candidates:int Seq.t ->
  view list ->
  mantissa_result
(** Joint over the given windows (a single window is [\[ v \]]).
    Extend on the partial products D x B and D x A, prune on the
    intermediate addition z1a.  Candidates are 25-bit values.  Under
    [~leakage:`Hd] the stage swaps to the matched bus-transition models
    (extend on the w10 transition, prune on the z1a transition). *)

val attack_mantissa_low_naive :
  ?ctx:Ctx.t ->
  ?top:int ->
  candidates:int Seq.t ->
  view ->
  Dema.scored list
(** The straight differential attack on the multiplication only — the
    baseline whose exact-tie false positives motivate the paper. *)

val mantissa_high_multi :
  ?ctx:Ctx.t ->
  ?leakage:leakage ->
  ?top:int ->
  candidates:int Seq.t ->
  d:int ->
  view list ->
  mantissa_result
(** Same for the high 28 bits (top bit fixed to 1), pruning on the
    high-word accumulation, with the already-recovered low half [d]. *)

(** {1 Whole coefficient} *)

type strategy =
  | Exhaustive
      (** paper-scale enumeration: 2^25 + 2^27 hypotheses per coefficient *)
  | Eval_sampled of { rng : Stats.Rng.t; decoys : int; truth : Fpr.t }
      (** evaluation mode: truth + alias class + decoys (see DESIGN.md) *)

val sampled_candidates :
  rng:Stats.Rng.t -> decoys:int -> truth:Fpr.t -> int array * int array
(** The [Eval_sampled] candidate sets of one coefficient: (low 25-bit,
    high 28-bit) {!Hypothesis.sampled} sets around [truth]'s mantissa
    halves, both drawn from [rng] (high first).  What {!coefficient}
    ranks, and what the adaptive full-key driver's decision sweeps
    score. *)

val coefficient_top : int
(** 32 — the extend survivors {!coefficient} keeps per mantissa half:
    enough that the truth cannot be displaced by its own alias class
    (up to ~25 exact ties at small D) plus noise. *)

val coefficient :
  ?ctx:Ctx.t ->
  ?leakage:leakage ->
  strategy:strategy ->
  view list ->
  Fpr.t
(** Run all component attacks jointly over the given windows (typically
    {!views_for}) and reassemble the 64-bit value: the low mantissa
    half ({!mantissa_low_multi}, top 32), the high half's extend ranking
    (top 32, on the extend stage of {!high_stages} with the recovered
    low half), then {!finish_coefficient}.  The high half's extend and
    prune run under one [recover.mantissa_high] span, as the low half's
    run under [recover.mantissa_low].  [?ctx] ({!Ctx.t}, here and
    on every ranking entry point above) sets the worker-domain count of
    the underlying candidate sweeps (see {!Dema}), the distinguisher and
    the observability context; the output is bit-identical at every
    [jobs] and with any sink attached. *)

val finish_coefficient :
  ?ctx:Ctx.t ->
  ?leakage:leakage ->
  low:mantissa_result ->
  high_extend:Dema.scored list ->
  view list ->
  Fpr.t
(** The tail of {!coefficient}, given the low half's extend-and-prune
    result and the high half's extend ranking: prune the high
    survivors on the combined evidence with [d = low.winner] (the prune
    stage of {!high_stages} needs it), then recover sign and exponent
    ({!sign_exponent_multi}) and reassemble.  [coefficient] computes
    both rankings with {!Dema.rank} on [views]; the adaptive full-key
    driver ({!Fullkey.recover_f_fft_store} [?stop]) takes them from the
    decision sweeps it folded on the same traces, which score
    bit-identically, so both paths recover the same value. *)
