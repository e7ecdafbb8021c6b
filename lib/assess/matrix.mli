(** The countermeasure evaluation matrix: {target} x {defense} x
    {noise sigma} x {trace budget} x {acquisition condition} x
    {distinguisher}, one {!cell} per point of {!grid}, each carrying
    the attack metrics ({!Metrics.outcome}), the TVLA detection summary
    over the defense's assessed region (max first- and second-order
    |t|, plus the random-vs-random null statistic), and the
    countermeasure cost columns (event-count overhead, shuffle
    dilution).  The condition axis ({!Campaign.condition}) sweeps the
    device model (Hamming weight vs bus Hamming distance), clock
    jitter, and whether the {!Align} realignment pass runs before
    analysis — the model x alignment view of the same grid.  The
    distinguisher axis (["pearson"] vs ["profiled"]) evaluates every
    grid point unprofiled and under a profiled template store trained
    on a cloned device (same acquisition knobs, different secret and
    seed — see {!Metrics.profile_entries}), so the matrix reports
    profiled MTD per countermeasure next to the unprofiled curve; both
    cells of one grid point attack the exact same victim campaign.

    Each target plugs in through one evaluator (which axes it spans,
    its attack outcome, its TVLA columns, its profiled clone), and one
    loop walks the grid for all of them.  Each cell column is declared
    once; the JSON report (schema {!schema}), the flat CSV and
    {!validate} are all read off that table, so emitted files can be
    verified end to end. *)

type point = {
  target : string;  (** which {!Attack.Target} instance the cell evaluates *)
  defense : Campaign.defense;
  sigma : float;
  budget : int;
  condition : Campaign.condition;
  distinguisher : string;  (** ["pearson"] or ["profiled"] *)
  seed : int;
      (** [seed + 1009 * idx], [idx] counting the grid points the
          targets span, in report order; the distinguishers of one
          point share it *)
}
(** One cell's coordinates on the grid. *)

type tvla = {
  max_t1 : float;  (** max first-order |t| over the assessed region *)
  max_t1_sample : int;
  max_t2 : float;
      (** max second-order statistic: centered-second-order per sample,
          and for masking also the bivariate share-pair test *)
  rvr_max_t1 : float;  (** random-vs-random null check (expect < 4.5) *)
}

type cell = { point : point; outcome : Metrics.outcome; tvla : tvla }

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
  cells : cell list;  (** in {!grid} order *)
}

val schema : string
(** ["falcon-down/assess-matrix/v5"]. *)

val known_distinguishers : string list
(** [["pearson"; "profiled"]] — the valid distinguisher axis values. *)

val grid :
  targets:string list ->
  defenses:Campaign.defense list ->
  sigmas:float list ->
  budgets:int list ->
  conditions:Campaign.condition list ->
  distinguishers:string list ->
  seed:int ->
  point list
(** The cells of a report, in order: target, defense, sigma, budget,
    condition, distinguisher (row-major).  Each target spans the axes
    its evaluator names: FALCON every defense and condition, HQC only
    defense ["none"] under condition ["hw"] (its sigma x budget x
    distinguisher sub-grid).  {!run} evaluates this list and
    {!validate} compares a report's cells with it.  Raises
    [Invalid_argument] on an empty axis, an unknown target or
    distinguisher, a sigma that is not positive and finite, a budget
    below 8, or a target with no point on the axes (HQC without
    ["hw"] on the condition axis). *)

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
(** Evaluate every point of {!grid} (targets default to
    [["falcon"]], defenses to {!Campaign.all}, conditions to
    [[{!Campaign.baseline_condition}]], distinguishers to
    [["pearson"]]), each through its target's evaluator: the attack
    outcome ({!Metrics.run} or {!Metrics.run_hqc} at the point's
    seed), the TVLA columns (at seed + 17) and, for a profiled cell,
    the template store of a cloned device (at seed + 4099), so the
    profiled and unprofiled cells of one point attack the same victim
    campaign.  Under a non-baseline condition both the generated
    campaign and the analysis follow the condition (HD hypothesis
    models, realignment pass — see {!Metrics.of_entries}), including
    the TVLA sweep, which assesses the realigned traces when the
    condition realigns.  A cell's distinguisher is its label's: the
    [ctx] lends only its jobs and observability, never its backend.
    [progress] fires after each finished cell.  Raises
    [Invalid_argument] from {!grid} before any cell runs. *)

val first_order_leak : cell -> bool
(** [max_t1 > Tvla.threshold]. *)

val to_json : report -> Json.t
val to_csv : report -> string
(** The same columns as the cells of {!to_json}, in the same order;
    [null] is an empty field. *)

val validate : Json.t -> (unit, string) result
(** Schema check of a parsed report: schema tag, typed axes that
    {!grid} accepts, and cells that are exactly that grid, in order —
    each cell's coordinates (and the overhead/dilution of its defense)
    equal to its grid point's, every other column present and in range
    (experiments = the report's, SR in [0,1], GE >= 1, mtd and
    mtd_conf null or in [1, budget], found counts in [0, experiments],
    finite t statistics). *)
