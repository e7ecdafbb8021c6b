(** End-to-end attack: from EM traces of signing operations to a forged
    signature (Sections III and IV).

    Pipeline: per-coefficient divide-and-conquer recovers every value of
    FFT(f); the inverse FFT (one-to-one, Section III-A) yields the
    private element f; g = f h mod q follows from the public key; the
    NTRU equation gives (F, G); the rebuilt secret key signs arbitrary
    messages. *)

type result = {
  f_fft : Fft.t;  (** recovered FFT(f) bit patterns *)
  f : int array;  (** rounded inverse transform *)
  keypair : Ntru.Ntrugen.keypair option;
      (** full private key, when f is invertible and the NTRU solve
          succeeds — i.e. when the recovered f is the right one *)
}

val recover_f_fft :
  ?ctx:Ctx.t ->
  ?leakage:Recover.leakage ->
  traces:Leakage.trace array ->
  n:int ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  Fft.t
(** Attack every (coefficient, component) of FFT(f) on its
    {!Recover.views_for}; the strategy is keyed by the unit's first
    multiplication ({!Recover.component_muls}): mul 0 for the real part,
    mul 1 for the imaginary part.

    [ctx.jobs] fans the 2n independent per-coefficient attacks out
    across a domain pool (leftover parallelism flows into the candidate
    sweeps); the recovered transform is bit-identical at every [jobs]
    provided [strategy] is pure per (coeff, mul) — e.g. builds any RNG
    it uses from a (coeff, mul)-derived seed.

    [?ctx] also carries the distinguisher and an observability
    context: each task runs under a buffered child context whose events
    ("fullkey.task" spans labelled with coefficient and component, and
    everything the per-coefficient attack emits) are drained in task
    order after the join — the merged event stream is deterministic at
    every [jobs], and all results stay bit-identical with any sink. *)

val recover_key :
  ?ctx:Ctx.t ->
  ?leakage:Recover.leakage ->
  traces:Leakage.trace array ->
  h:int array ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  result

val recover_f_fft_store :
  ?ctx:Ctx.t ->
  ?on_corrupt:[ `Fail | `Skip ] ->
  ?prefetch:bool ->
  ?leakage:Recover.leakage ->
  ?stop:Sequential.Decision.spec ->
  ?max_traces:int ->
  ?stop_report:(Sequential.Campaign.summary -> unit) ->
  reader:Tracestore.Reader.t ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  Fft.t
(** Out-of-core {!recover_f_fft} over a {!Tracestore} campaign.  Each
    streaming pass ({!Dema.Stream.map_shards}) reads and decodes every
    shard once and cuts many (coefficient, component) units' views from
    it with {!Recover.views_for}; the per-coefficient attacks then run
    on each unit's views.  At a fixed budget a pass takes as many whole
    coefficients as fit in 8 decoded shards' worth of floats, so a
    campaign of up to about 8 shards is read once and a larger one in
    proportionally more passes; peak memory is those views plus one
    decoded shard per domain.  Bit-identical to the in-memory path over
    the same traces, at every [jobs].  [on_corrupt] (default [`Fail])
    and [prefetch] (default [true]) are forwarded to each pass: by
    default a corrupt shard fails the whole recovery loudly, naming the
    shard; [`Skip] drops it and counts it in [dema.shards_skipped] once
    per pass.  Prefetch runs only at [ctx.jobs = 1]: at [jobs > 1] the
    pass already decodes shards on the domain pool, and a helper domain
    on top would oversubscribe the cores.

    {b Adaptive budgets.}  With [?stop], one pass runs with 2n live
    units: each still-undecided (coefficient, component) buffers its
    views of every batch (up to D x 2n x 32 floats in all) and folds
    two incremental decision sweeps (low mantissa half on
    [w00; w10; z1a], high half on [w01; w11], over the strategy's
    candidate sets); a unit stops — and is retired from all later
    batches — once the {e weaker} of its two top-1 vs runner-up gaps
    passes the sequential test.  Its low extend-and-prune result and
    high extend ranking are then read off those sweeps
    ({!adaptive_rankings}), and only {!Recover.finish_coefficient} —
    the high prune and sign/exponent — scans its buffered prefix; the
    value equals {!Recover.coefficient} on that prefix.  [?max_traces]
    caps the campaign; [?stop_report] receives the per-unit traces-used
    summary.  Stop points and the recovered transform are bit-identical
    across [jobs] and prefetch settings.  Raises [Invalid_argument]
    if [?stop] is combined with an [Exhaustive] strategy (the 2^25
    space cannot be re-scored at every look) or with [~leakage:`Hd]
    (every usable high-half bus transition takes the recovered d, so
    there is no d-free decision sweep), and if [?max_traces] is passed
    without [?stop] (a fixed budget reads every stored trace, so there
    is nothing to cap); [?stop_report] is called only with [?stop].

    [?leakage] (default [`Hw]) selects the hypothesis models the
    per-coefficient attacks are matched against (see
    {!Recover.leakage}); attack a
    bus-HD campaign ([Leakage.hd_emitter]) with [~leakage:`Hd]. *)

val recover_key_store :
  ?ctx:Ctx.t ->
  ?on_corrupt:[ `Fail | `Skip ] ->
  ?prefetch:bool ->
  ?leakage:Recover.leakage ->
  ?stop:Sequential.Decision.spec ->
  ?max_traces:int ->
  ?stop_report:(Sequential.Campaign.summary -> unit) ->
  reader:Tracestore.Reader.t ->
  h:int array ->
  (coeff:int -> mul:int -> Recover.strategy) ->
  result
(** [recover_key] reading from a trace store.  Raises [Failure] if the
    store's ring size disagrees with the public key, or (by default) if
    any shard is corrupt — pass [~on_corrupt:`Skip] to drop bad shards
    from the campaign instead. *)

val adaptive_rankings :
  (coeff:int -> mul:int -> Recover.strategy) ->
  coeff:int ->
  component:[ `Re | `Im ] ->
  Leakage.trace array ->
  Recover.mantissa_result * Dema.scored list
(** [adaptive_rankings strategy ~coeff ~component prefix] — what the
    adaptive driver ({!recover_f_fft_store} [?stop]) hands
    {!Recover.finish_coefficient} for a unit whose decision sweeps have
    folded [prefix]: the low half's extend-and-prune result and the high
    half's extend ranking (top {!Recover.coefficient_top} each), read
    off the sweeps' accumulators.  Equal, corr values included, to
    {!Recover.mantissa_low_multi} and the [extend] of
    {!Recover.mantissa_high_multi} at that top on the unit's views of
    [prefix].  Raises [Invalid_argument] on an [Exhaustive] strategy. *)

val component_muls : [ `Re | `Im ] -> int list
(** {!Recover.component_muls}. *)

val mul_known : Fpr.t * Fpr.t -> int -> Fpr.t
(** {!Recover.mul_known}. *)

val sampled_strategy :
  seed:int -> Fft.t -> coeff:int -> mul:int -> Recover.strategy
(** [sampled_strategy ~seed f_fft] — the truth-aware evaluation
    strategy every full-key driver runs: [Eval_sampled] with 512 random
    decoys around the secret operand of multiplication [mul] at [coeff]
    ({!Recover.layout}: re for mul 0, im for mul 1), its RNG seeded [seed + 7 coeff + mul].  Pure per (coeff,
    mul), so recovery is bit-identical at every [jobs].  [attack_cli
    run] passes its experiment seed; every crack passes 0.  The
    candidate sets contain the truth, so a recovery under this strategy
    evaluates the attack rather than running it blind: a caller needs
    the secret FFT(f) to build it. *)

val count_correct : Fft.t -> truth:Fft.t -> int
(** Number of bit-exact coefficient matches (out of 2n values). *)

val forge :
  keypair:Ntru.Ntrugen.keypair -> seed:string -> string -> Falcon.Scheme.signature
(** Sign an arbitrary message with the recovered key. *)
