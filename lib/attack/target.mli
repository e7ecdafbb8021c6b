(** First-class attack targets: one distinguisher stack, N schemes.

    The pipeline below the hypothesis layer — trace store, streaming
    Pearson rank, sequential early stopping, SR/GE/MTD metrics — is
    scheme-agnostic.  A {!S} packages what code holding a packed
    [(module S)] needs of a scheme:

    - a {b victim recorder} ({!S.record_store} captures under a
      {!Leakage.emitter} and writes a sharded campaign plus ground-truth
      sidecars through the one {!record} loop) with the store
      {!Dema.Stream.codec} that decodes it back;
    - a {b profiling plan} ({!S.profile_window}, {!S.profile_parts})
      that {!profile} trains templates over;
    - an {b end-to-end driver} ({!S.recover_store}) producing a
      canonical {!outcome} whose [witness] string is bit-exact
      comparable across configurations.

    How a scheme enumerates and ranks its key units is its own
    business.  {!Falcon} delegates to the multi-phase extend-and-prune
    driver of {!Recover}/{!Fullkey} unchanged, so rankings, stops and
    recovered keys are bit-identical to those entry points.  {!Hqc}
    attacks the HQC sparse polynomial multiplication victim of arXiv
    2601.07634 (see {!Hqc_} [lib/hqc]): a secret-dependent
    rotate-and-accumulate schedule whose per-unit winners are the
    secret support positions, recovered in chained order with the
    already-won prefix folded into the hypothesis models; its chained
    enumerator is part of its own signature. *)

type leakage = Recover.leakage

type outcome = {
  target : string;  (** {!S.name} of the instance that produced it *)
  success : bool;
      (** recovered key material matches the store's ground-truth
          sidecar — for FALCON the whole §IV chain: the keypair
          rebuilt, f equals the sidecar's f, and a forgery on a fixed
          message verifies under the store's public key *)
  witness : string;
      (** canonical encoding of the recovered key material — bit-exact
          comparable across [jobs] x prefetch x leakage *)
  units : int;  (** attacked units (2n for FALCON, weight for HQC) *)
  units_ok : int;
      (** units whose recovered value matches the sidecar's ground
          truth: bit-exact FFT(f) values ({!Fullkey.count_correct}) for
          FALCON, support positions for HQC *)
  traces : int;  (** campaign traces consumed (max over units) *)
  stop : Sequential.Campaign.summary option;
      (** per-unit early-stopping summary, when [?stop] was given *)
}

val check_options :
  ?ctx:Ctx.t ->
  stop:Sequential.Decision.spec option ->
  max_traces:int option ->
  unit ->
  unit
(** The target-independent refusal of option combinations a store
    crack cannot run, checked before any I/O.  Raises
    [Invalid_argument], naming the [attack_cli crack] flags, for
    [max_traces] without [stop] (a fixed budget reads every stored
    trace) and for [stop] under a [ctx] backend with no sequential gap
    test ({!Distinguisher.has_gap_test}).  Every {!S.recover_store}
    calls it first; a target adds its own refusals after it, still
    before any I/O ({!Falcon} refuses [stop] under [`Hd]). *)

val record :
  ctx:Ctx.t -> Tracestore.Writer.t -> traces:int -> (unit -> Tracestore.record) -> unit
(** The one recorder: append [traces] records drawn from [next] to the
    writer inside a [tracestore.record] span (reporting progress when
    the [ctx]'s sink is enabled), then close it.  Every
    {!S.record_store}, [Assess.Campaign.record_store] and
    [trace_cli append] write through it. *)

module type S = sig
  val name : string

  val profile_window : n:int -> int
  (** Periodic window length this target's {!Profile} template stores
      key on: every sample the profiled distinguisher scores sits at a
      stable window-relative offset, so one store serves every unit.
      FALCON uses the 16-sample multiplication window (the shape of
      the {!Recover.view} slices its phases rank over); HQC uses the
      per-unit accumulator word block. *)

  val profile_parts :
    leakage:leakage ->
    n:int ->
    dir:string ->
    (int * int * (Leakage.trace -> int)) list
  (** The profiling plan over a recorded campaign in [dir] (ground
      truth from the sidecars): every [(base, target, value)] triple
      declares that each trace carries, in the window starting at
      absolute sample [base], an intermediate at window-relative
      offset [target] whose true value is [value trace] — the attack's
      own hypothesis models applied to the {e true} guess, so
      profiling truth and attack hypotheses share one source.  Covers
      every offset the profiled recovery consults (for FALCON: both
      mantissa phases of every coefficient and multiplication).
      Raises [Failure] on missing/corrupt sidecars. *)

  val codec : Dema.Stream.codec
  (** decode for {!Dema.Stream} entry points over this target's
      stores *)

  val record_store :
    ?ctx:Ctx.t ->
    ?emitter:Leakage.emitter ->
    dir:string ->
    n:int ->
    traces:int ->
    noise:float ->
    seed:int ->
    shard_traces:int ->
    unit ->
    unit
  (** Generate a fresh victim, record a sharded campaign into [dir]
      through {!record} (the [ctx]'s sink gets the [tracestore.record]
      span and progress) and write the target's ground-truth sidecar
      files next to the manifest.  [?emitter] (default
      {!Leakage.default_emitter}) is the device model the victim is
      captured under; a target refuses one it cannot simulate.  Raises
      [Invalid_argument] on a bad emitter or noise model before [dir]
      is created. *)

  val recover_store :
    ?ctx:Ctx.t ->
    ?leakage:leakage ->
    ?stop:Sequential.Decision.spec ->
    ?max_traces:int ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    dir:string ->
    Tracestore.Reader.t ->
    outcome
  (** Recover the secret from a recorded campaign ([dir] locates the
      sidecars; the reader streams the traces).  Deterministic: the
      [witness] (and stop points, with [?stop]) are bit-identical
      across [jobs] and prefetch.  [?max_traces] caps an adaptive
      campaign.  Raises [Invalid_argument] from {!check_options}, or
      for a combination this target cannot run, before reading
      anything, [Failure] naming [dir] on a store that holds no traces
      (before any sidecar read: an empty campaign is a data error, not
      a recovery of nothing), and [Failure] on missing/corrupt
      sidecars. *)
end

module Falcon : S
(** The FALCON mantissa/coefficient attack behind the target
    interface, and the only [attack_cli crack --store] driver for
    FALCON.  [recover_store] refuses [?stop] under [`Hd] before any
    read (its decision sweeps have no d-free Hamming-distance part set)
    and delegates to {!Fullkey.recover_key_store} with
    [Fullkey.sampled_strategy ~seed:0] over the sidecar's FFT(f)
    (per-unit seed [coeff*7 + mul], 512 decoys), then forges with the
    rebuilt key ({!Fullkey.forge}, verified under [public.key]) to
    decide [success]; the [witness] is the hex dump of the recovered
    FFT(f) bit patterns. *)

module Hqc : sig
  include S

  val known_of_trace : Leakage.trace -> int
  (** the per-trace dense input word [u] the part models read *)

  val guess_count : unit_index:int -> prev:int array -> int

  val guess_space : unit_index:int -> prev:int array -> int Seq.t
  (** Unit [unit_index]'s candidate support positions, ascending:
      above the last of [prev] (the winners of units
      [0..unit_index-1]) and leaving room for the remaining larger
      positions.  [guess_count] is its length. *)

  val parts :
    leakage:leakage ->
    unit_index:int ->
    prev:int array ->
    (int * int Hypothesis.Model.t) list
  (** The (absolute sample index, model) part set ranking unit
      [unit_index]'s guess space: one split model per accumulator
      word, with the [prev] prefix folded in under [`Hw]. *)

  val profile_plan :
    leakage:leakage -> int array -> (int * int * (int -> int)) list
  (** [profile_plan ~leakage secret]: [(base, target, value)] triples
      over the known input word — the {!parts} of every unit, chained
      on the true prefix of the support [secret] and applied to its
      true position.  {!profile_parts} reads it off each trace's
      word; in-memory trainers apply it to {!Hqc_.u_of_record}. *)
end
(** The HQC rotate-and-accumulate victim ([lib/hqc]).  Units are the
    {!Hqc_.Params.weight} secret support positions, recovered in
    chained ascending order.  [witness] is {!Hqc_.encode_secret} of
    the recovered support.  [record_store] captures under
    {!Leakage.default_emitter} (accumulator-word HW) or
    {!Leakage.hd_emitter} (the bus transition words) and refuses any
    other emitter. *)

val all : (module S) list
val names : string list
val find : string -> (module S) option
(** Registry for CLI dispatch ([trace_cli record --target falcon|hqc]). *)

val of_meta : Tracestore.meta -> (module S) option
(** The registered target whose {!S.codec} accepts a store's manifest:
    FALCON stores have width 70n, HQC stores n 32 and width 12; [None]
    for any other store (e.g. a [trace_cli record-tvla] campaign).  How
    [attack_cli crack] and [profile] pick the target of a store. *)

val profile :
  ?ctx:Ctx.t ->
  ?leakage:leakage ->
  ?on_corrupt:[ `Fail | `Skip ] ->
  ?prefetch:bool ->
  ?npoi:int ->
  ?ndim:int ->
  ?max_traces:int ->
  (module S) ->
  dir:string ->
  Tracestore.Reader.t ->
  Profile.store
(** Train a profiled-template store on a cloned-device campaign with
    known key: stream the store twice (moments + POI selection, then
    pooled covariance — see {!Profile.train_plan}) over the target's
    {!S.profile_parts} plan, classing each observation by the Hamming
    weight of its true intermediate.  Scheme-generic — the same
    function trains FALCON and HQC stores.  [?leakage] defaults to
    [`Hw]; [?on_corrupt]/[?prefetch] are {!Dema.Stream.shard_feed}'s;
    [?npoi]/[?ndim] override
    {!Profile.default_spec}.  Deterministic: shard order is the trace
    order, so the store is bit-identical across [jobs] and
    prefetch. *)
