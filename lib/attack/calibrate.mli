(** Self-calibration of the leakage scale from known intermediates.

    The attack is non-profiled (no second device, no chosen keys), but
    the victim's own traces contain operations on fully public data: the
    loads of the FFT(c) operand words inside the attacked multiply.
    Regressing the measured samples at those instants against the
    Hamming weights of what they predict recovers the per-bit amplitude
    alpha and the baseline offset beta of the measurement chain, which
    the absolute-level exponent distinguisher ({!Dema.rank_absolute})
    needs. *)

val estimate :
  traces:float array array ->
  known:Fpr.t array ->
  (int * (Fpr.t -> int)) list ->
  float * float
(** [(alpha, baseline)] of the least-squares fit of every trace's
    sample at each point's index against the Hamming weight of the
    point's word of the trace's known operand.  The points come from
    the load events ({!Recover.calibration_points}): under the
    Hamming-weight probe the low and high 32-bit words at their loads,
    under bus HD the low word's transition into the high word at the
    high word's load. *)
