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
(** Attack every (coefficient, component) of FFT(f): the real part leaks
    through multiplication 0 (c_re x f_re), the imaginary part through
    multiplication 1 (c_im x f_im).

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
(** Out-of-core {!recover_f_fft} over a {!Tracestore} campaign: each
    (coefficient, component) task makes one streaming pass extracting
    only its two 16-sample windows, so peak memory is bounded by one
    decoded shard per domain plus O(traces) extracted window floats —
    never the whole campaign.  Bit-identical to the in-memory path over
    the same traces, at every [jobs].  [on_corrupt] (default [`Fail])
    and [prefetch] (default [true]) are forwarded to
    {!Dema.Stream.extract}: by default a corrupt shard fails the whole
    recovery loudly.  Prefetch runs only at [ctx.jobs = 1]: at
    [jobs > 1] the fan-out already overlaps that many streaming passes,
    and a helper domain per pass would oversubscribe the cores.

    {b Adaptive budgets.}  With [?stop], the recovery becomes a single
    streaming pass with 2n live units: each still-undecided
    (coefficient, component) buffers its windows from every batch and
    folds two incremental decision sweeps (low mantissa half on
    [w00; w10; z1a], high half on [w01; w11], over the strategy's
    candidate sets); a unit stops — and is retired from all later
    batches — once the {e weaker} of its two top-1 vs runner-up gaps
    passes the sequential test, and the unchanged per-coefficient
    attack then runs on its buffered prefix.  [?max_traces] caps the
    campaign; [?stop_report] receives the per-unit traces-used summary.
    Stop points and the recovered transform are bit-identical across
    [jobs] and prefetch settings.  Raises [Invalid_argument]
    if [?stop] is combined with an [Exhaustive] strategy (the 2^25
    space cannot be re-scored at every look) or with [~leakage:`Hd]
    (every usable high-half bus transition takes the recovered d, so
    there is no d-free decision sweep); [?max_traces] and
    [?stop_report] are meaningful only with [?stop].

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

val component_muls : [ `Re | `Im ] -> int list
(** The two multiplications a secret component leaks through: f_re in
    (c_re x f_re) and (c_im x f_re) — muls 0 and 3; f_im in muls 1 and
    2.  The view order of {!Recover.views_for} and of the streaming
    extraction. *)

val mul_known : Fpr.t * Fpr.t -> int -> Fpr.t
(** [mul_known (c_re, c_im) mul] — the known operand of a
    multiplication, given the coefficient's FFT(c) component pair. *)

val count_correct : Fft.t -> truth:Fft.t -> int
(** Number of bit-exact coefficient matches (out of 2n values). *)

val forge :
  keypair:Ntru.Ntrugen.keypair -> seed:string -> string -> Falcon.Scheme.signature
(** Sign an arbitrary message with the recovered key. *)
