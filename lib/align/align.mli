(** Streaming static trace realignment (DESIGN.md section 14).

    Acquisition jitter ({!Leakage.jitter}) slides whole traces by an
    integer sample offset, which destroys the sample-to-intermediate
    correspondence every correlation distinguisher relies on.  This
    module undoes the static part of that distortion before analysis
    with the classic two-pass cross-correlation scheme:

    + every trace is aligned {e relative} to one sharp anchor trace
      (trace 0), searching [+-2*max_shift] — relative shifts between
      two jittered traces span twice the jitter bound;
    + the reference is rebuilt as the mean of the pass-1-aligned
      windows (sharp and low-noise, unlike a mean over misaligned
      rows, which smears the landscape into uselessness — this
      victim's mean trace anticorrelates with itself at lags around
      +-2) and every relative shift is re-estimated against it;
    + the shared unknown offset (trace 0's own shift) is anchored out:
      acquisition jitter is zero-mean, so it is the negated rounded
      mean relative shift over the whole campaign.  Final per-trace
      shifts are clamped to [[-max_shift, +max_shift]].

    A constant offset common to every trace is unobservable without a
    golden reference; the zero-mean assumption is the price of blind
    static alignment.

    Everything here is deterministic: no RNG, pure per-trace shift
    estimation, so results are bit-identical at every [jobs] and
    prefetch setting.  Realigning an already-aligned campaign is a
    no-op (every estimated shift is 0 and the input rows are returned
    physically unchanged). *)

type stats = {
  traces : int;  (** traces examined *)
  shifted : int;  (** traces with a non-zero applied shift *)
  max_abs_shift : int;  (** largest |shift| applied *)
  mean_abs_shift : float;  (** mean |shift| over all traces *)
  shards_skipped : int;  (** corrupt shards dropped (store pass only) *)
}

val zero_stats : stats

val default_window : max_shift:int -> width:int -> int * int
(** [(2*max_shift, width - 1 - 2*max_shift)] — the widest inclusive
    window whose every relative-shift candidate stays in bounds.
    Raises [Invalid_argument] if the result is shorter than 2
    samples. *)

val widest_max_shift : up_to:int -> width:int -> int option
(** The largest [max_shift <= up_to] whose {!default_window} fits a
    [width]-sample trace, or [None] if none does (a negative [up_to],
    or [width < 2]). *)

val reference_of_rows : window:int * int -> float array array -> float array
(** Mean of the rows over the inclusive [window].  Raises
    [Invalid_argument] on an empty row set or an out-of-bounds
    window.  Only a sound reference for rows already aligned — see the
    module preamble. *)

val estimate :
  reference:float array -> lo:int -> max_shift:int -> float array -> int
(** The shift [s] in [[-max_shift, max_shift]] maximising the Pearson
    correlation between [reference] and [row.(lo+s .. lo+s+len-1)]
    ([len] the reference length).  Candidates are visited in the order
    0, -1, +1, -2, +2, ... and only a strictly greater score replaces
    the incumbent, so ties resolve toward the smallest |shift|;
    candidates whose segment leaves the row are skipped (the clamp the
    max-shift test pins), and degenerate correlations (zero variance)
    never win.  A trace recorded with misalignment offset [s] is
    corrected by shifting by [s] (see {!Leakage.misalign}:
    [out.(j) = in.(j - s)], so [corrected.(j) = out.(j + s)]). *)

val estimate_matched :
  template:(int * float) array -> max_shift:int -> float array -> int
(** Matched-template shift estimation for traces in which the absolute
    level of a few samples is predictable — [(j, level)] meaning sample
    [j] of the properly aligned trace should measure [level].  Returns
    the shift [s] in [[-max_shift, max_shift]] minimising the mean
    squared residual between [row.(j + s)] and [level] over the
    template points that stay in bounds; candidates with no in-bounds
    point are skipped, and ties resolve toward the smallest |shift| as
    in {!estimate}.  Unlike blind cross-correlation this pins the
    {e absolute} offset per trace (no anchor assumption) and remains
    sound on windows far too narrow for a landscape reference — a
    16-sample multiplication window carries too little landscape for
    {!realign_rows}, but its first two samples load the known operand,
    whose predicted levels make a 2-point template. *)

val shift_samples : fill:float -> shift:int -> float array -> float array
(** Translate: [out.(j) = row.(j + shift)], out-of-range samples set to
    [fill].  [shift = 0] returns the input array itself. *)

val realign_rows :
  ?ctx:Attack.Ctx.t ->
  ?max_shift:int ->
  ?window:int * int ->
  fill:float ->
  float array array ->
  float array array * stats
(** In-memory two-pass realignment of a whole campaign (the bootstrap
    uses {e all} rows).  [?window] defaults to {!default_window} and
    must keep [2*max_shift] margin at each edge; [max_shift] defaults
    to 3.  Rows whose final shift is 0 are returned physically
    unchanged.  Instrumented as an ["align.realign"] span with
    ["align.shifts_applied"] / ["align.max_shift"] counters on the
    context's {!Obs} sink. *)

val realign_matched :
  ?ctx:Attack.Ctx.t ->
  ?max_shift:int ->
  fill:float ->
  templates:(int * float) array array ->
  float array array ->
  float array array * stats
(** Per-trace matched-template realignment: row [i] is shifted by
    [estimate_matched ~template:templates.(i)] (one template per row —
    the predictable levels usually depend on the trace's known
    operand).  No bootstrap, no anchoring: each trace is pinned
    independently, so the scheme works on arbitrarily narrow windows
    and realigning an aligned campaign is a no-op.  Deterministic and
    [jobs]-independent; instrumented as an ["align.realign_matched"]
    span with the same counters as {!realign_rows}. *)

val realign_store :
  ?ctx:Attack.Ctx.t ->
  ?on_corrupt:[ `Fail | `Skip ] ->
  ?prefetch:bool ->
  ?max_shift:int ->
  ?window:int * int ->
  ?reference_traces:int ->
  src:string ->
  dst:string ->
  unit ->
  stats
(** Out-of-core two-pass realignment of a {!Tracestore} campaign of
    any target (FALCON, HQC or a record-tvla campaign): records are
    decoded verbatim, with no FFT(c) recompute, and only their samples
    move.  The bootstrap reference is built in memory from the first
    [?reference_traces] (default 64) stored traces; the store then
    streams twice through {!Attack.Dema.Stream.shard_feed} (honouring
    [?on_corrupt] / [?prefetch] exactly as the analysis
    readers do) — once to estimate every relative shift (a few bytes
    per trace held in memory, so the out-of-core property survives)
    and, after anchoring, once to write the corrected campaign to a
    fresh store at [dst] with the same metadata, the store's recorded
    baseline as fill.  [dst] is created only after the first pass, so
    a source refused for a corrupt shard leaves nothing behind.  Every
    other file of [src] (the key and campaign sidecars: [public.key],
    [secret.key], [hqc.key], [assess.fda]) is copied so the realigned
    store remains attackable in place of the original.  An empty
    source store yields an empty destination store and {!zero_stats}.
    Deterministic: the destination bytes are a pure function of the
    source store (plus shard boundaries), independent of [jobs] and
    [prefetch].  Instrumented as an ["align.realign_store"] span with
    the same counters as {!realign_rows}. *)
