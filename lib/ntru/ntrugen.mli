(** NTRU key generation for FALCON (Algorithm 1 of the paper).

    Samples the private polynomials f, g from a discrete Gaussian, checks
    invertibility and the Gram-Schmidt norm bound, solves the NTRU
    equation f G - g F = q over the tower of rings (NTRUSolve with Babai
    reduction), and computes the public key h = g f^{-1} mod q.

    The attack consumes this module twice: once to create the victim key,
    and once more after recovering f to re-derive (g, F, G) — the step
    that turns the side-channel leakage into a full signing key. *)

type keypair = {
  n : int;
  f : int array;  (** private element, coefficients in [-127, 127] *)
  g : int array;  (** private element *)
  big_f : int array;  (** F of the NTRU equation *)
  big_g : int array;  (** G of the NTRU equation *)
  h : int array;  (** public key, h = g f^{-1} mod q, in [0, q) *)
}

val sigma_fg : int -> float
(** Key-sampling standard deviation 1.17 sqrt(q / 2n). *)

val gauss_sample : Prng.t -> sigma:float -> int
(** Discrete Gaussian over Z (CDF inversion, 10-sigma tail cut). *)

val solve : int array -> int array -> (int array * int array) option
(** [solve f g] returns integer polynomials (F, G) with f G - g F = q in
    Z[x]/(x^n + 1), or [None] when the tower hits a non-coprime resultant
    pair or the reduced solution does not fit native ints.  The result is
    Babai-reduced against (f, g). *)

val verify_ntru : int array -> int array -> int array -> int array -> bool
(** Exact check of f G - g F = q. *)

val gs_norm_ok : int array -> int array -> bool
(** FALCON's key-quality bound: both ||(g, -f)|| and
    ||q (f-bar, g-bar) / (f f-bar + g g-bar)|| must stay below
    1.17 sqrt q. *)

val keygen : n:int -> seed:string -> keypair
(** Full key generation; deterministic in [seed].  Like FALCON's
    reference, it draws candidates until one passes every check. *)

val recover_from_f : n:int -> f:int array -> h:int array -> keypair option
(** The post-attack step: given the recovered f and the public h, derive
    g = f h mod q (centered), then F, G via {!solve}.  [None] if f is not
    invertible, the centered g is implausible, or the solver fails. *)
