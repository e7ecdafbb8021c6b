(** Sequential decision rules for adaptive trace budgets.

    A campaign looks at the evidence repeatedly — at every batch
    boundary past a trace floor — and stops buying traces for a hypothesis
    set as soon as the leader's correlation separates from the
    runner-up's at the requested confidence.  Repeated looks inflate
    the false-stop rate of a naive fixed-level test, so every look k
    of a tester spends [alpha * 2^-k] (the levels sum to [alpha]).
    What each look computes is a one-sided Fisher-z test of the top-1
    vs runner-up gap at that nominal level.  The level is per tester:
    a campaign runs one tester per unit ({!Campaign.run}), each
    spending the full [alpha], so even the union bound over a FALCON-n
    key is [2n * alpha].  That bound does not hold in practice either
    (a stop can pick a wrong winner well above the nominal rate); a
    family-wise guarantee is open (ROADMAP, "Sequential stopping that
    keeps its alpha promise").

    Everything here is pure integer/float arithmetic on the numbers the
    caller passes in: a tester fed the same (n, r1, r2) sequence stops
    at the same look with the same verdict on every run, every worker
    count and every scoring backend — the determinism contract the
    campaign driver builds on. *)

type stop = {
  winner : int;  (** candidate index / guess the campaign settled on *)
  n_traces : int;  (** traces consumed when the decision fired *)
  confidence : float;
      (** nominal level of the tester that fired, [1 - alpha] — a
          per-unit nominal value, not a guaranteed family-wise one *)
}

type t = Continue | Stop of stop

type spec = {
  alpha : float;
  min_traces : int;  (** no look before this floor (and never below 4) *)
}

val spec : ?min_traces:int -> alpha:float -> unit -> spec
(** Validated constructor ([min_traces] defaults to 8).  Raises
    [Invalid_argument] on alpha outside (0,1) or [min_traces < 4]. *)

val z_crit : spec -> look:int -> float
(** The boundary of look [look] (1-based): [probit (1 - alpha_k)] at
    the look's spent level [alpha_k = alpha * 2^-look].  A look stops
    when its standardised gap reaches it ({!check}). *)

(** {1 Per-unit tester}

    One tester per retired-independently unit of work (a coefficient, a
    ranking).  Mutable: it tracks how many looks it has taken (= how
    much alpha it has spent) and the standardised-gap history — the
    unit's stopping curve. *)

type tester

val tester : spec -> tester

val looks : tester -> int
(** Looks taken so far (= alpha-spending index). *)

val history : tester -> (int * float) list
(** [(n, z)] per look in chronological order: the stopping curve. *)

val due : tester -> int
(** Trace count at which this tester's next look is due: the
    [min_traces] floor.  The driver looks at most once per batch once
    [n >= due t]. *)

val check : tester -> n:int -> winner:int -> r1:float -> r2:float -> t
(** One look at [n] traces with leader correlation [r1] and runner-up
    [r2].  Returns [Continue] without consuming a look while
    [n < min_traces] (or [n <= 3], where the z transform is
    uninformative); otherwise spends the next alpha increment and
    tests the top-1 vs runner-up correlation gap on the Fisher z scale
    ({!Stats.Signif.corr_gap_z}) one-sided against the look's
    {!z_crit}.  [winner] is echoed into the {!stop} payload. *)
