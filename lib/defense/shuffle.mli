(** Hiding by shuffling (Section V-B).

    The order of the four partial-product computations inside the
    schoolbook multiplier carries no data dependency, so an
    implementation can execute them (and the two carry additions) in a
    fresh random order per signature.  A vertical attack that assumes a
    fixed sample-to-operation mapping then correlates each hypothesis
    against a mixture of different intermediates, diluting the
    correlation by roughly the shuffle degree and multiplying the trace
    requirement by its square. *)

val values : Stats.Rng.t -> known:Fpr.t -> secret:Fpr.t -> int array
(** One multiply's event values in the standard 16-sample layout, with
    the mantissa partial products (positions of w00/w10/w01/w11) and the
    two intermediate additions independently permuted per execution
    (shuffle draws from the rng).  A trace is their rendering through
    {!Leakage.render}, as [Assess.Campaign.trace_under] does. *)

val dilution : int
(** Shuffle degree of the partial products (4). *)
