(** Attack-success metrics: success rate, partial guessing entropy and
    minimum traces to disclosure, estimated over N independently seeded
    attack experiments.

    Each experiment attacks the low mantissa half of the fixed secret
    with {!Attack.Recover.mantissa_low_multi} over a disjoint slice of
    the campaign's fixed-class traces, ranking the full evaluation
    candidate set ({!Attack.Hypothesis.sampled}: truth + its alias
    class + decoys) so the truth's 1-based rank is always defined:

    - {b SR}: fraction of experiments ranking the truth first;
    - {b GE}: mean rank of the truth ({e partial} guessing entropy —
      over the sampled candidate set, not the full 2^25 space; also
      reported in bits);
    - {b MTD}: the paper's "measurements needed" — the smallest trace
      count from which the truth's |correlation| at the first low-half
      decision part (the DxB partial product; its bus transition into
      DxA under bus-HD) stays above the 99.99 % significance threshold
      ({!Stats.Signif.traces_to_significance} over a
      {!Attack.Dema.evolution} series), reported per cell as the lower
      median over experiments ([None] = the median experiment never
      disclosed within budget);
    - {b MTD-at-confidence}: the {e measured} traces-to-decision of the
      sequential early-stopping tester ({!Sequential.Decision}, Fisher-z
      top-1 vs runner-up gap with alpha-spending, at
      [alpha = 1e-4]) run via {!Attack.Dema.rank_until} over the same
      candidate set and the low-half decision parts
      ({!Attack.Recover.low_stages}, extend then prune) — i.e. the
      trace count at which the adaptive campaign engine would actually
      stop, not an oracle figure that presumes the truth.  Reported as
      lower median + found count, like MTD.  [None] = the tester never
      reached confidence within the experiment's budget.

    {!of_entries} (FALCON) and {!run_hqc} (HQC) share one experiment
    driver: it fans the experiments out on the {!Parallel} pool (each
    is a pure function of its arguments and index, so results are
    bit-identical at every [jobs]), keeps the candidate sweep inside
    each experiment sequential, drains each experiment's buffered obs
    context in experiment order and aggregates the per-experiment
    (rank, mtd, mtd_conf) into one {!outcome}.  The per-experiment attack goes through
    {!Attack.Recover.mantissa_low_multi} and therefore inherits the
    fused {!Stats.Pearson.Batch} kernel, bit-identical to the scalar
    reference.

    [?ctx] ({!Attack.Ctx.t}) bundles [jobs], the distinguisher and an
    observability context; since each experiment's events (FALCON's
    "metrics.experiment" spans included) are drained in experiment
    order, the event stream is deterministic and every figure
    bit-identical with any sink. *)

type config = {
  defense : Campaign.defense;
  noise : float;  (** noise sigma of the simulated probe *)
  budget : int;  (** traces per experiment *)
  experiments : int;
  decoys : int;  (** random decoy hypotheses per candidate set *)
  seed : int;
}

type outcome = {
  experiments : int;
  success : int;
  success_rate : float;
  guessing_entropy : float;  (** mean 1-based rank of the truth *)
  ge_bits : float;  (** log2 of the above *)
  mtd : int option;  (** median traces-to-disclosure *)
  mtd_found : int;  (** experiments that disclosed within budget *)
  mtd_conf : int option;  (** median measured traces-to-decision *)
  mtd_conf_found : int;  (** experiments whose tester stopped in budget *)
  ranks : int array;  (** per-experiment truth ranks *)
  mtds : int option array;  (** per-experiment traces-to-disclosure *)
  mtd_confs : int option array;  (** per-experiment traces-to-decision *)
}

val derived_seed : int -> int
(** Candidate-set seed derived from a campaign seed — the convention
    {!run} and {!of_store} share so the two paths agree. *)

val profile_entries :
  ?ctx:Attack.Ctx.t ->
  ?condition:Campaign.condition ->
  defense:Campaign.defense ->
  truth:Fpr.t ->
  Campaign.entry array ->
  Attack.Profile.store
(** Train a window-16 profiled-template store on the fixed class of a
    cloned-device campaign with known [truth] (same condition as the
    victim campaign, different secret/seed), covering exactly the
    low-stage intermediates {!of_entries}'s profiled ranking scores.
    Hand the result to {!of_entries} as
    [~ctx:(Attack.Ctx.with_backend (Profiled store) ctx)].  Under a
    profiled context {!of_entries} reports MTD as winner stability (the
    smallest checkpoint from which the profiled ranking keeps the truth
    first through the full budget) and MTD-at-confidence as [None] —
    the sequential gap testers are correlation statistics with no
    profiled analogue. *)

val of_entries :
  ?ctx:Attack.Ctx.t ->
  ?condition:Campaign.condition ->
  defense:Campaign.defense ->
  truth:Fpr.t ->
  experiments:int ->
  decoys:int ->
  seed:int ->
  Campaign.entry array ->
  outcome
(** Slice the campaign's fixed-class entries into [experiments]
    consecutive blocks and attack each.  The sequential tester behind
    the MTD-at-confidence column runs at the nominal level [1e-4]: a
    one-sided Fisher-z test of the top-1 vs runner-up gap, alpha-spent
    across looks, with no family-wise guarantee.

    [?condition] (default {!Campaign.baseline_condition}) is the
    analysis half of the acquisition condition the entries were
    generated under: [`Hd] swaps every distinguisher to the matched
    bus-transition models of [Attack.Recover.low_stages `Hd] (the w10
    and z1a transitions extend/prune, the w10 transition for the MTD
    series and both for the sequential tester), and [realign]
    runs {!Align.realign_rows} over the whole fixed class (max shift =
    the condition's jitter bound, fill = the default model baseline)
    before slicing.  Raises [Invalid_argument] on a degenerate secret
    or nonsensical parameters, [Failure] when the fixed class is too
    small for the requested experiment count. *)

val run : ?ctx:Attack.Ctx.t -> ?condition:Campaign.condition -> config -> outcome
(** Generate an all-fixed campaign of [budget * experiments] traces
    (secret drawn from the config seed) under [?condition] and evaluate
    it under the same condition. *)

type hqc_config = { noise : float; budget : int; experiments : int; seed : int }

val run_hqc : ?ctx:Attack.Ctx.t -> hqc_config -> outcome
(** The same SR/GE/MTD vocabulary over the HQC rotate-and-accumulate
    victim ({!Attack.Target.Hqc}).  Each experiment draws a fresh sparse
    secret and [budget] simulated traces, then runs the chained per-unit
    ranking conditioned on the true prefix: the full-key rank is 1 iff
    every support position tops its own ranking (so SR is the full
    secret-recovery rate), otherwise the first failing unit's truth
    position.  MTD and MTD-at-confidence watch the first unit of the
    chain.  Candidate sets are the complete per-unit position ranges —
    no decoy sampling, hence no [decoys] knob.  Deterministic in [seed]
    at every [jobs]. *)

val of_store : ?ctx:Attack.Ctx.t -> experiments:int -> decoys:int -> string -> outcome
(** Evaluate a recorded campaign directory ({!Campaign.record_store});
    uses the sidecar's defense/secret, and {!derived_seed} of its seed
    for the candidate sets.  Bit-identical to {!of_entries} on the
    in-memory form of the same campaign. *)
