(** Electromagnetic-measurement simulator.

    The paper measures a Cortex-M4 running FALCON's reference software
    with a near-field EM probe; the software floating-point emulation
    executes one architecturally visible intermediate per instruction, and
    the probe voltage correlates with the Hamming weight of the value
    being written (the standard datapath leakage model used by the
    paper's own DEMA distinguisher, Eq. (1)).

    This module substitutes the probe: it runs the instrumented signing
    computation and renders every intermediate of the
    FFT(c) (.) FFT(f) stage as one trace sample
    [baseline + alpha * HW(value) + N(0, noise_sigma^2)].
    The physics enters only through the signal-to-noise ratio, which is
    an explicit knob — see DESIGN.md for the substitution argument.

    Every simulated sample in the repository — FALCON signing under
    every emitter, the single-multiply campaigns under every
    countermeasure and condition, HQC, NTT — is drawn by one function,
    {!render}: capture paths only compute a noiseless signal and hand it
    over.

    Beyond the idealized Hamming-weight probe, {!emitter} selects
    register-transfer device models: Hamming-{e distance} leakage over a
    configurable {!Register_file} (sample = transitions of the registers
    written), a {!Pipeline} overlap mixer (sample = weighted sum of the
    leakage of all co-resident stages), and per-trace acquisition
    {!jitter} (random phase offset + clock drift).  All are seedable and
    deterministic.  See DESIGN.md §14. *)

type model = Tracestore.model_meta = {
  alpha : float;  (** volts per Hamming-weight unit *)
  noise_sigma : float;  (** Gaussian noise, same unit *)
  baseline : float;
}
(** The noise model, and the record a trace store's manifest keeps of
    it: one type, so a model goes to {!Tracestore.Writer.create} and
    comes back from a store's meta as is. *)

val default_model : model
(** alpha 1.0, noise 2.0, baseline 10 — SNR comparable to a noisy
    near-field setup (thousands of traces for 1-bit targets). *)

val clean_model : model
(** Noise-free; for layout tests. *)

(** {1 Trace layout}

    One complex coefficient of the pointwise product costs 4 instrumented
    real multiplications (16 events each) and 2 additions (3 events):
    70 samples.  Coefficient k of an n-point FFT occupies samples
    [70k, 70k+70). *)

val events_per_mul : int  (** 16 *)

val events_per_add : int  (** 3 *)

val events_per_coeff : int  (** 70 *)

val mul_event_order : Fpr.label array
(** The 16 labels of a multiplication window in [Fpr.mul_emit]'s
    emission order: sample j of a window holds event j, and under bus
    Hamming distance it leaks the transition from event j - 1. *)

val mul_event_offset : Fpr.label -> int
(** Offset of a multiplication event inside its 16-sample window; raises
    [Invalid_argument] for addition labels. *)

val sample_of : coeff:int -> mul:int -> Fpr.label -> int
(** Absolute sample index of a multiplication event: [mul] in 0..3 selects
    among (c_re x f_re), (c_im x f_im), (c_re x f_im), (c_im x f_re). *)

(** {1 Register-transfer device models} *)

(** A named register file with an update schedule.  Writing value [v] to
    register [r] leaks [HD(r_old, v)] = popcount of the transition; the
    value is truncated to the register's width first. *)
module Register_file : sig
  type spec = {
    names : string array;  (** register names; index is the register id *)
    widths : int array;  (** bit widths in [1, 64], same length as names *)
    schedule : Fpr.label -> int;  (** which register an event writes *)
  }

  val bus : spec
  (** A single shared 64-bit write-back bus: every intermediate crosses
      the same register, so event j leaks the transition between
      consecutive architecturally visible values.  This is the spec the
      HD hypothesis models in [Attack.Recover] are matched against, and
      the one [`Hd] attacks and benches assume. *)

  val datapath : spec
  (** A split datapath (separate load / multiplier / accumulator /
      exponent / flag / result registers) for experimentation; the stock
      HD attack models do {e not} match it. *)

  val check_spec : spec -> unit
  (** Raises [Invalid_argument] on an empty file, length-mismatched
      arrays or widths outside [1, 64]. *)

  type t

  val create : spec -> t
  (** Fresh file with all registers zero; validates the spec. *)

  val reset : t -> unit

  val write : t -> Fpr.label -> int -> int
  (** [write t label v] routes [v] through the schedule, updates the
      register and returns the Hamming distance of the transition. *)
end

(** Pipeline-overlap mixer: each output sample is the weighted sum of
    the leakage of every stage resident at that clock,
    [out.(j) = sum_s weight_s *. in.(j - latency_s)]. *)
module Pipeline : sig
  type stage = { latency : int; weight : float }
  type t = stage array

  val default : t
  (** Three stages at latencies 0/1/2 with weights 1.0/0.5/0.25. *)

  val check : t -> unit
  (** Raises [Invalid_argument] on an empty pipeline, negative latency
      or non-finite weight. *)

  val mix : t -> float array -> float array
end

type jitter = {
  max_shift : int;  (** per-trace phase offset drawn uniformly from [-max_shift, max_shift] *)
  drift : float;  (** per-trace clock drift slope drawn uniformly from [-drift, drift] *)
}

val no_jitter : jitter

type kind =
  | Hw  (** idealized Hamming-weight probe (the historical model) *)
  | Hd of Register_file.spec  (** Hamming distance over a register file *)
  | Pipelined of Register_file.spec * Pipeline.t
      (** HD leakage mixed across co-resident pipeline stages *)

type emitter = { kind : kind; jitter : jitter }

val default_emitter : emitter
(** [{ kind = Hw; jitter = no_jitter }] — the idealized probe. *)

val hd_emitter : emitter
(** HD over {!Register_file.bus}, zero jitter. *)

val pipelined_emitter : emitter
(** {!Register_file.bus} through {!Pipeline.default}, zero jitter. *)

val check : model -> emitter -> unit
(** Raises [Invalid_argument] unless alpha and baseline are finite, the
    noise sigma is finite and [>= 0], and the emitter's register file,
    pipeline and jitter knobs are well formed.  Every capture stream
    calls it when it is created, so a recording refuses a bad model
    before its store is written. *)

val draw_jitter : jitter -> Stats.Rng.t -> int * float
(** Draw one trace's (offset, drift slope).  A knob that is off consumes
    {e no} RNG draws, so [no_jitter] leaves the noise stream untouched. *)

val misalign : offset:int -> drift:float -> float array -> float array
(** Apply acquisition distortion to a noiseless signal: sample j reads
    the signal at [j - (offset + round (drift *. j))]; out-of-range
    positions see zero signal.  [misalign ~offset:0 ~drift:0.] returns
    the input unchanged (physically equal). *)

val render : model -> jitter -> Stats.Rng.t -> float array -> float array
(** The one renderer.  [render model jitter rng signal] takes one
    trace's noiseless signal — each sample's leakage in model units
    (HW, HD, or a pipeline mix of them) — draws the per-trace jitter
    ({!draw_jitter}, nothing when off), {!misalign}s, then renders every
    sample as [baseline + alpha * s + N(0, noise_sigma^2)], drawing the
    noise in sample order.  [signal] is consumed: with no jitter drawn
    it is rendered in place and returned. *)

val hw_trace : model -> Stats.Rng.t -> int array -> float array
(** [hw_trace model rng values] is [render model no_jitter rng] over
    the Hamming weights of [values]: the idealized probe over a sequence
    of intermediates. *)

(** {1 Single-multiply traces (per-coefficient experiments, Fig. 3/4)} *)

val mul_values : known:Fpr.t -> secret:Fpr.t -> int array
(** The 16 architecturally visible intermediates of one soft-float
    multiply with the signing operand order (known FFT(c) value first,
    secret FFT(f) value second), unrendered. *)

val bus_hd : int array -> int array
(** Transition weights of a value sequence crossing the shared
    write-back bus ({!Register_file.bus} semantics on label-free event
    streams): element j is [popcount (v.(j-1) lxor v.(j))], with the bus
    starting at zero. *)

val mul_trace : model -> Stats.Rng.t -> known:Fpr.t -> secret:Fpr.t -> float array
(** {!hw_trace} of {!mul_values}: 16 HW samples. *)

(** {1 Full signing traces} *)

type trace = {
  samples : float array;  (** length 70 * n *)
  c_fft : Fft.t;
      (** the known input FFT(c): on capture, the one the signer
          multiplied ({!Falcon.Scheme.sign_observed}); recomputable from
          salt||msg, which is what {!of_record} does *)
  msg : string;
  signature : Falcon.Scheme.signature;
}

val capture :
  ?emitter:emitter ->
  model -> seed:int -> Falcon.Scheme.secret_key -> count:int -> trace array
(** Capture [count] signing operations of distinct messages.  The signer
    consumes its own ChaCha20 randomness; measurement noise (and any
    jitter draws) come from the [seed]ed experiment RNG.  [emitter]
    (default {!default_emitter}) selects the device model: each signing
    event's leakage is written into the trace's signal as it is
    emitted, then {!render} draws the samples.  Each trace's FFT(c) is
    the one signing computed, not a second hash and transform; digests
    of the captured stream (samples, FFT(c), salt, body) are pinned in
    [test/test_leakage.ml]. *)

val capture_stream :
  ?emitter:emitter ->
  model -> seed:int -> Falcon.Scheme.secret_key -> unit -> trace
(** One-at-a-time capture for out-of-core campaigns: each call signs the
    next message and returns its trace, carrying the probe and signer
    RNG state across calls, so
    [Array.init count (capture_stream m ~seed sk)] is the same stream as
    [capture m ~seed sk ~count] without ever holding more than one trace
    — append each to a {!Tracestore.Writer} as it is produced.  Raises
    [Invalid_argument] from {!check} when created. *)

(** {1 Trace-store records}

    A measurement campaign and the key-recovery analysis are separate
    steps in practice; a campaign is persisted as a sharded
    {!Tracestore}, whose records carry only the public part of each
    trace.  The known input FFT(c) is {e recomputed} from the stored
    public salt+message when a record is read back — exactly the
    information a real adversary keeps. *)

val to_record : trace -> Tracestore.record
(** Strip a trace to its storable public part (message, salt, signature
    body, raw samples). *)

val of_record : n:int -> Tracestore.record -> trace
(** Rebuild a full trace from a stored record, recomputing FFT(c) from
    the salt and message. *)

val raw_of_record : Tracestore.record -> trace
(** Rebuild a trace {e without} the FALCON-specific FFT(c) recompute:
    samples and strings are carried verbatim and [c_fft] is left empty
    (length 0).  The decode path of non-FALCON {!Attack.Target} codecs,
    whose known operands live in the record's [msg] field. *)
