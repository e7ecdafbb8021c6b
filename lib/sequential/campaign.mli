(** Adaptive early-stopping campaign driver.

    Feeds trace batches (typically one decoded {!Tracestore} shard at a
    time — the streaming engine in [Attack.Dema.Stream] builds the feed)
    into a set of independent scoring {e units} — one per coefficient,
    or a single unit for a whole-ranking campaign.  After each batch,
    units whose look is due report their top-1 / runner-up correlations
    and a per-unit {!Decision.tester} decides [Continue] or [Stop]; a
    stopped unit is {e retired} and the active set re-packed, so later
    batches fold only undecided work.

    {b Determinism.}  Folds run on a worker pool but each unit's state
    is touched only by its own folds, which arrive in batch order;
    leaders are pure reads; all decisions execute on the owner domain in
    unit order.  Given deterministic units, stop points and winners are
    bit-identical at every [jobs] and every scoring backend. *)

type leaders = {
  winner : int;  (** unit's current best guess (its own encoding) *)
  best : float;  (** leader's correlation statistic, in [[-1, 1]] *)
  runner_up : float;  (** second-best competing correlation *)
}

type 'b unit_ = {
  fold : 'b -> unit;
      (** accumulate one batch; called once per batch, in order, but
          possibly from any domain — must touch only unit-local state *)
  leaders : unit -> leaders;
      (** finalise scores over everything folded so far; pure read *)
}

type result = {
  stop : Decision.stop option;  (** [None] = budget exhausted undecided *)
  n_traces : int;  (** traces folded into this unit *)
  looks : int;
  history : (int * float) list;  (** stopping curve, [(n, gap z)] *)
}

type summary = {
  units : int;
  stopped : int;  (** units that stopped early *)
  looks : int;  (** total looks across units *)
  total_traces : int;  (** the fixed budget the feed was sized for *)
  traces_used : int array;  (** per unit *)
  traces_saved : int;  (** sum over stopped units of [total - used] *)
}

val summarize : total:int -> result array -> summary

val run :
  ?jobs:int ->
  ?obs:Obs.t ->
  spec:Decision.spec ->
  total:int ->
  feed:(unit -> 'b option) ->
  length:('b -> int) ->
  'b unit_ array ->
  result array
(** Pull batches from [feed] until it is exhausted or every unit has
    stopped.  [total] is the fixed budget an equivalent non-adaptive
    run would consume (e.g. [Reader.total_traces], capped by
    [--max-traces]) — it only feeds the saved-traces accounting and the
    [seq.campaign] span, never the control flow.  [length] reports a
    batch's trace count.

    Emits [seq.looks], [seq.stopped_early] and [seq.traces_saved]
    counters plus, at Debug level, a [seq.unit] span per unit carrying
    its [seq.gap] stopping-curve gauges.  The span's fields are
    [unit], [stopped], [n_traces] and [looks], plus [winner] (the stop's
    winner, stopped units only) and [boundary] (the {!Decision.z_crit}
    of the unit's last look, units that looked at least once).  Raises
    [Invalid_argument] on an empty unit array. *)
