(** Self-calibration of the leakage scale from known intermediates.

    The attack is non-profiled (no second device, no chosen keys), but
    the victim's own traces contain operations on fully public data: the
    loads of the FFT(c) operand words inside the attacked multiply.
    Regressing the measured samples at those two instants against the
    Hamming weights of the known words recovers the per-bit amplitude
    alpha and the baseline offset beta of the measurement chain, which
    the absolute-level exponent distinguisher ({!Dema.rank_absolute})
    needs. *)

val estimate :
  traces:float array array ->
  known:Fpr.t array ->
  lo_sample:int ->
  hi_sample:int ->
  float * float
(** [(alpha, baseline)] over the known-operand load samples of every
    trace ([lo_sample]/[hi_sample] carry the low/high 32-bit words of
    the known operand) — the Hamming-weight probe's calibration. *)

val estimate_hd :
  traces:float array array ->
  known:Fpr.t array ->
  hi_sample:int ->
  float * float
(** Bus-HD calibration: at the high-word load the shared write-back
    register transitions from the known low word to the known high word,
    so the sample regresses against [HW(word_lo lxor word_hi)]. *)
