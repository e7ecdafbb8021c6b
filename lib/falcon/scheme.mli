(** The FALCON signature scheme: key generation (Algorithm 1), signing
    (Algorithm 2) and verification, wired together from the substrate
    libraries.

    Signing exposes an optional event sink on the
    FFT(c) (.) FFT(f) coefficient-wise product — the exact computation
    the DAC'21 attack measures; the leakage simulator installs a probe
    there the same way the EM probe sits over the multiplier of the
    Cortex-M4. *)

type secret_key = {
  params : Params.t;
  kp : Ntru.Ntrugen.keypair;
  basis : Fft.Vec.t array array;  (** [[g, -f], [G, -F]] in the FFT domain *)
  f_fft : Fft.t;  (** FFT(f): the values the attack recovers *)
  big_f_fft : Fft.Vec.t;  (** FFT(F) *)
  tree : Tree.t;
}

type public_key = { params : Params.t; h : int array }

type signature = { salt : string; body : string }

exception Signing_failed of string

val keygen : n:int -> seed:string -> secret_key * public_key
(** Deterministic in [seed] (the entropy source of NTRUGen). *)

val secret_of_keypair : Ntru.Ntrugen.keypair -> secret_key
(** Rebuild a full signing key (basis FFTs + FALCON tree) from the four
    NTRU polynomials — used both by {!keygen} and by the attacker after
    key recovery. *)

val public_of_secret : secret_key -> public_key

val sign : rng:Prng.t -> secret_key -> string -> signature
(** Sign a message; fresh salt from [rng].  Raises {!Signing_failed} if
    100 sampling rounds produce no acceptable signature (does not happen
    for honest keys). *)

val sign_observed :
  emit_cf:(int -> Fpr.event -> unit) ->
  rng:Prng.t ->
  secret_key ->
  string ->
  signature * Fft.t
(** {!sign} with a probe on the attacked product: [emit_cf] observes
    every soft-float intermediate of the FFT(c) (.) FFT(f) multiply
    ({!Fft.mul_emit}), keyed by coefficient index.  Also returns the
    FFT(c) that was multiplied, so a capture need not recompute it from
    the salt and message.  Same signature and RNG draws as {!sign}. *)

val verify : public_key -> string -> signature -> bool

val signature_norm_sq : public_key -> string -> signature -> int option
(** ||(s1, s2)||^2 of a valid-shaped signature (diagnostics). *)
