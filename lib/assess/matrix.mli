(** The countermeasure evaluation matrix: {defense} x {noise sigma} x
    {trace budget} x {acquisition condition}, one {!cell} per
    combination, each carrying the attack metrics ({!Metrics.outcome}),
    the TVLA detection summary over the defense's assessed region (max
    first- and second-order |t|, plus the random-vs-random null
    statistic), and the countermeasure cost columns (event-count
    overhead, shuffle dilution).  The condition axis
    ({!Campaign.condition}) sweeps the device model (Hamming weight vs
    bus Hamming distance), clock jitter, and whether the {!Align}
    realignment pass runs before analysis — the model x alignment view
    of the same grid.  The distinguisher axis (["pearson"] vs
    ["profiled"]) evaluates every grid point unprofiled and under a
    profiled template store trained on a cloned device (same
    acquisition knobs, different secret and seed — see
    {!Metrics.profile_entries}), so the matrix reports profiled MTD
    per countermeasure next to the unprofiled curve; both cells of one
    grid point attack the exact same victim campaign.  Serialises to a
    machine-readable JSON report
    (schema {!schema}) and a flat CSV; {!validate} checks a parsed
    report against the schema so emitted files can be verified end to
    end. *)

type cell = {
  target : string;  (** which {!Attack.Target} instance the cell evaluates *)
  defense : Campaign.defense;
  sigma : float;
  budget : int;
  condition : Campaign.condition;
  distinguisher : string;  (** ["pearson"] or ["profiled"] *)
  outcome : Metrics.outcome;
  max_t1 : float;  (** max first-order |t| over the assessed region *)
  max_t1_sample : int;
  max_t2 : float;
      (** max second-order statistic: centered-second-order per sample,
          and for masking also the bivariate share-pair test *)
  rvr_max_t1 : float;  (** random-vs-random null check (expect < 4.5) *)
  first_order_leak : bool;  (** [max_t1 > Tvla.threshold] *)
  overhead : float;
  dilution : int;
}

type report = {
  seed : int;
  experiments : int;
  decoys : int;
  targets : string list;
  defenses : Campaign.defense list;
  sigmas : float list;
  budgets : int list;
  conditions : Campaign.condition list;
  distinguishers : string list;
  cells : cell list;
      (** row-major: target, then (for FALCON) defense, sigma, budget,
          condition, distinguisher; non-FALCON targets contribute a
          sigma x budget x distinguisher sub-grid with no defense and
          the baseline condition *)
}

val schema : string
(** ["falcon-down/assess-matrix/v5"]. *)

val known_distinguishers : string list
(** [["pearson"; "profiled"]] — the valid distinguisher axis values. *)

val grid_size :
  target:string ->
  defenses:'a list ->
  sigmas:'b list ->
  budgets:'c list ->
  conditions:'d list ->
  distinguishers:'e list ->
  int
(** Cell count one target contributes to a report with those axes:
    the full defense x sigma x budget x condition x distinguisher
    product for ["falcon"], sigma x budget x distinguisher for any
    other target.  {!run} and {!validate} share this definition. *)

val run :
  ?ctx:Attack.Ctx.t ->
  ?targets:string list ->
  ?defenses:Campaign.defense list ->
  ?conditions:Campaign.condition list ->
  ?distinguishers:string list ->
  ?progress:(cell -> unit) ->
  sigmas:float list ->
  budgets:int list ->
  experiments:int ->
  decoys:int ->
  seed:int ->
  unit ->
  report
(** Evaluate the full grid (targets default to [["falcon"]] — with
    that default, and baseline conditions, every figure is
    bit-identical to the pre-target-axis matrix at the same seed;
    defenses default to {!Campaign.all},
    conditions to [[{!Campaign.baseline_condition}]],
    distinguishers to [["pearson"]] — with those defaults every figure
    is bit-identical to the pre-condition-axis and pre-distinguisher-axis
    matrix at the same seed).  Each grid point derives its own
    deterministic seed from [seed] and its position; the distinguisher
    axis is the innermost loop and shares the grid point's seed, so
    profiled and unprofiled cells attack the same victim campaign
    (profiled cells additionally train on a cloned campaign derived
    from that seed).  Under a non-baseline condition both the
    generated campaign and the analysis follow the condition (HD
    hypothesis models, realignment pass — see {!Metrics.of_entries}),
    including the TVLA sweep, which assesses the realigned traces when
    the condition realigns.  [progress] fires after each finished
    cell.  Raises [Invalid_argument] on an empty axis, an unknown
    distinguisher name, non-positive sigma or a budget below 8. *)

val tiny :
  ?ctx:Attack.Ctx.t ->
  ?targets:string list ->
  ?conditions:Campaign.condition list ->
  ?distinguishers:string list ->
  ?progress:(cell -> unit) ->
  seed:int ->
  unit ->
  report
(** The smoke-test preset: full defense axis, one sigma (0.5), one
    budget (200), 2 experiments, 24 decoys — seconds, not minutes. *)

val to_json : report -> Json.t
val to_csv : report -> string

val validate : Json.t -> (unit, string) result
(** Structural schema check of a parsed report: schema tag, non-empty
    axes, known target names, parseable condition names, cell count =
    the sum of per-target {!grid_size}s, per-cell field presence, types
    and ranges (known target, SR in [0,1], GE >= 1, mtd null or in
    [1, budget], finite t statistics, overhead/dilution >= 1). *)
