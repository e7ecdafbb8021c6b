(** Fixed-vs-random acquisition campaigns for leakage assessment.

    TVLA methodology needs a corpus of single-multiply traces in which
    every trace is labelled {e fixed} (secret operand held at one value)
    or {e random} (fresh secret per trace), with the known operand always
    fresh.  This module generates such campaigns for the unprotected
    multiply and both countermeasures, in memory or straight into a
    {!Tracestore} (class label in the record [msg], known operand in
    [salt]), and carries the per-defense facts the assessment and the
    evaluation matrix need: trace width, overhead factors, the
    first-order {e assessed region} and the masking share pairs.

    One sequential RNG stream drives class choice, operand draws and
    measurement noise, so a campaign is a pure function of
    [(defense, noise, secret, count, seed)] — the in-memory and recorded
    forms of the same campaign are bit-identical. *)

type defense = [ `None | `Masking | `Shuffle ]

val all : defense list
(** In evaluation-matrix order: none, masking, shuffle. *)

val name : defense -> string
val of_name : string -> defense
(** Raises [Failure] on an unknown name. *)

val width : defense -> int
(** Samples per trace: 16 unprotected/shuffled, 21 masked. *)

val overhead_factor : defense -> float
(** Event-count overhead vs the unprotected multiply (1.0 baseline). *)

val dilution : defense -> int
(** Shuffle degree (1 when not shuffling). *)

val assessed_region : defense -> int * int
(** Inclusive sample range over which the defense claims (or the
    baseline exhibits) first-order secret dependence: the secret
    datapath [2..11] for the unprotected multiply, the shuffled slots
    [4..9], and the mask + share datapaths [0..13] for masking — the
    recombination tail a masked implementation must eventually compute
    is deliberately outside. *)

val share_pairs : defense -> (int * int) array
(** Matching (share-1, share-2) sample pairs for the bivariate
    second-order test; empty unless masking. *)

val attack_window : defense -> float array -> float array
(** The 16-sample window an attacker feeds to {!Attack.Recover}: the
    whole trace, except for masked traces where it is the first 16
    samples (the attacker assumes the unprotected layout). *)

val values : defense -> Stats.Rng.t -> known:Fpr.t -> secret:Fpr.t -> int array
(** The unrendered intermediate values of one protected (or not)
    multiplication, in emission order — the input both device models
    (Hamming weight, bus Hamming distance) render from.  The RNG drives
    the countermeasure (mask draws, permutation). *)

(** {1 Acquisition conditions}

    The model x alignment axis of the evaluation matrix ({!Matrix}):
    device model ([`Hw] idealized Hamming-weight probe, [`Hd] bus
    Hamming-distance — see {!Leakage.Register_file.bus}), per-trace
    clock {!Leakage.jitter}, and whether the analysis runs the
    {!Align} realignment pass before attacking. *)

type condition = {
  kind : [ `Hw | `Hd ];
  jitter : Leakage.jitter;
  realign : bool;
}

val baseline_condition : condition
(** [`Hw], no jitter, no realignment: the idealized probe. *)

val default_jitter : Leakage.jitter
(** max_shift 2, no drift — the jitter the named "+jitter" conditions
    apply (2 samples is enough to destroy an unaligned 16-sample-window
    attack while keeping the realignment search cheap). *)

val standard_conditions : condition list
(** The four named points of the model x alignment axis: [hw], [hd],
    [hd+jitter], [hd+jitter+realign]. *)

val condition_name : condition -> string
val condition_of_name : string -> condition
(** [kind("hw"|"hd")]["+jitter"]["+realign"]; parsing maps "+jitter" to
    {!default_jitter}.  Raises [Failure] on an unknown name. *)

val trace_under :
  condition ->
  defense ->
  Leakage.model ->
  Stats.Rng.t ->
  known:Fpr.t ->
  secret:Fpr.t ->
  float array
(** One campaign trace under an acquisition condition: the defense's
    intermediate {!values} turned into the condition's device-model
    signal (Hamming weight or bus Hamming distance) and drawn by
    {!Leakage.render} under the condition's jitter — the one path for
    every defense and condition.  The [realign] flag is carried for the
    analysis side and does not affect generation. *)

val random_operand : Stats.Rng.t -> Fpr.t
(** Uniform operand in the attack's working range: random sign, biased
    exponent in [1015, 1031), uniform 52-bit mantissa. *)

val secret_operand : Stats.Rng.t -> Fpr.t
(** Like {!random_operand} but rejecting the (probability 2^-25)
    degenerate case of an all-zero low mantissa half, which the
    mantissa attack cannot rank. *)

type cls = Fixed | Random
type entry = { cls : cls; known : Fpr.t; samples : float array }

val iter :
  ?p_fixed:float ->
  ?condition:condition ->
  defense ->
  noise:float ->
  secret:Fpr.t ->
  count:int ->
  seed:int ->
  (entry -> unit) ->
  unit
(** Generate [count] traces one at a time (memory stays flat), calling
    the consumer in acquisition order.  Each trace is fixed-class with
    probability [p_fixed] (default 0.5; 1.0 yields an all-fixed attack
    campaign); [?condition] (default {!baseline_condition}) selects the
    device model and jitter.  Raises [Invalid_argument] if [noise <= 0] or
    [count < 0]. *)

val generate :
  ?p_fixed:float ->
  ?condition:condition ->
  defense ->
  noise:float ->
  secret:Fpr.t ->
  count:int ->
  seed:int ->
  entry array
(** {!iter} collected in order. *)

val load_template : condition -> known:Fpr.t -> (int * float) array
(** The matched-alignment template of an undefended window: samples 0
    and 1 load the two halves of the known operand (secret-independent
    by construction), rendered through the condition's device model at
    the default alpha/baseline.  Two points are enough to pin a trace's
    absolute offset — see {!Align.estimate_matched}. *)

val realign_entries :
  ?ctx:Attack.Ctx.t ->
  condition ->
  defense ->
  entry array ->
  entry array * Align.stats
(** The analysis-side half of a condition: realign a campaign before
    attacking.  A no-op (same array, {!Align.zero_stats}) when the
    condition does not ask for realignment.  Undefended campaigns use
    per-trace matched-template alignment on the known-operand load
    samples — the only scheme that works on 16-sample windows; masked
    and shuffled campaigns have no static template (random shares,
    per-trace event order) and fall back to blind
    {!Align.realign_rows}, which honestly fails to help there.
    Deterministic and [jobs]-independent. *)

(** {1 Store form} *)

val to_record : entry -> Tracestore.record
val of_record : Tracestore.record -> entry
(** Raises [Failure] naming the offending field on records that are not
    campaign entries (bad class tag, wrong salt length). *)

val sidecar_name : string
(** ["assess.fda"] — the campaign sidecar stored next to the manifest,
    carrying defense name, fixed secret and seed. *)

val record_store :
  ?p_fixed:float ->
  dir:string ->
  defense ->
  noise:float ->
  secret:Fpr.t ->
  count:int ->
  seed:int ->
  shard_traces:int ->
  unit ->
  unit
(** Generate and record a campaign as a trace store plus sidecar,
    through {!Attack.Target.record}.  Raises like {!iter} (before [dir]
    is created) and [Tracestore.Writer]. *)

val open_store : string -> defense * Fpr.t * int * Tracestore.Reader.t
(** [(defense, secret, seed, reader)] of a recorded campaign.  Raises
    [Failure] on a missing/malformed sidecar or if the store width does
    not match the declared defense. *)

val seq_of_store : Tracestore.Reader.t -> entry Seq.t
(** Lazy entry stream in acquisition order (one decoded shard live). *)
