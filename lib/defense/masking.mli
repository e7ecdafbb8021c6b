(** First-order Boolean masking of the attacked multiplication.

    Section V-B of the paper: "the most popular techniques for
    side-channel mitigation is hiding and masking ... a masked
    implementation does not yet exist for FALCON — such an implementation
    can be considered by the FALCON team."  This module provides one for
    the computation the attack targets, so the repository can quantify
    how the proposed countermeasure kills the attack and what it costs.

    The secret significand is processed as two Boolean shares
    [y1 = y xor r], [y2 = r] for a fresh random 53-bit mask r per
    execution.  Each partial product of the schoolbook multiplication is
    computed per share and the shares are only recombined arithmetically
    at the end; every architecturally visible intermediate is therefore
    independent of the secret on its own (first-order security in the
    probing model for the multiplication datapath; the final recombined
    product is the value any implementation must eventually form and is
    emitted last, as [Unmasked_result]). *)

type event = {
  index : int;  (** event position inside the masked multiply *)
  value : int;  (** intermediate value (share-dependent) *)
}

val events_per_mul : int
(** 21: 2 mask draws + 2x8 per-share mantissa events + recombination,
    exponent, sign — the masking overhead over the 16 unprotected
    events. *)

val mul_emit :
  rng:Stats.Rng.t -> emit:(event -> unit) -> Fpr.t -> Fpr.t -> Fpr.t
(** [mul_emit ~rng ~emit x y] computes the same product as
    {!Fpr.mul} (x known, y secret) while emitting only share-dependent
    intermediates; the mask is drawn from [rng]. *)

val overhead_factor : float
(** Event-count overhead of the masked multiply vs the unprotected one
    (proxy for the cycle overhead the paper asks to be reported). *)

val values : Stats.Rng.t -> known:Fpr.t -> secret:Fpr.t -> int array
(** The {!events_per_mul} event values of one masked multiply in index
    order, the mask drawn from the rng first.  A trace is their
    rendering through {!Leakage.render} (HW or bus HD, with any jitter),
    as [Assess.Campaign.trace_under] does. *)
