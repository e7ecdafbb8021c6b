(** Fast Fourier transform over FALCON's emulated floating point.

    FALCON works in the ring R_n = Z[x]/(x^n + 1) (n a power of two) and
    evaluates polynomials at the complex roots of x^n = -1, turning ring
    multiplication into a coefficient-wise product — the operation the
    DAC'21 attack eavesdrops on.

    Representation: a coefficient-domain polynomial is an [Fpr.t array]
    of length n; its FFT is the record {!type-t} holding the n evaluation
    points in {e tree order}: the order produced by the recursive
    factorisation x^m - e^{i.theta} = (x^{m/2} - e^{i.theta/2})
    (x^{m/2} + e^{i.theta/2}).  Tree order makes {!split} and {!merge}
    (the Gentleman-Sande style half-size projections used by FALCON's
    ffSampling) purely local: entries [2u] and [2u+1] are the values at a
    point pair (v, -v), and the sequence of squared points v^2 is exactly
    the tree order of size n/2.

    One implementation, the kernel {!Vec}, computes over unboxed
    [float array]s, and every add/sub/mul/div (and halving) in it goes
    through {!Fpr}'s guard ({!Fpr.fadd} etc.): the host FPU where it is
    bit-identical to FALCON's reference soft-float, {!Fpr.Soft} on the
    bits elsewhere.  Signing ([Falcon.Scheme], the ffSampling tree, the
    key's basis) runs on {!Vec}.  The boxed {!type-t} over {!Fpr.t} is
    the public boundary the attack, the benchmark and the tests read:
    its functions convert to {!Vec}, compute there and convert back.
    Only {!mul_emit}, the leaking product, stays on boxed values, running
    the instrumented soft core step by step. *)

(** {1 The unboxed kernel} *)

module Vec : sig
  type t = { re : float array; im : float array }
  (** [re.(k) + i im.(k)] is the value at the k-th tree-ordered root,
      as host floats; both arrays have the same power-of-two length. *)

  val length : t -> int

  val fft : float array -> t
  val ifft : t -> float array
  val fft_of_int : int array -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val adj : t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val mulconst : t -> float -> t
  val split : t -> t * t
  val merge : t -> t -> t
  val norm_sq : t -> float

  val round_to_int : float array -> int array
  (** {!Fpr.rint} of each value. *)
end
(** The same operations as the boxed functions below, with the same
    bits: [of_vec (Vec.f (to_vec a))] is [f a] for every [f]. *)

(** {1 The boxed boundary} *)

type t = { re : Fpr.t array; im : Fpr.t array }
(** FFT-domain polynomial: [re.(k) + i im.(k)] is the value at the k-th
    tree-ordered root.  Both arrays have the same power-of-two length. *)

val to_vec : t -> Vec.t
val of_vec : Vec.t -> t
(** Bit-exact conversions between the boundary and the kernel. *)

val length : t -> int
val zero : int -> t
val copy : t -> t

val fft : Fpr.t array -> t
(** Forward transform of a real coefficient vector (length a power of two,
    at least 2). *)

val ifft : t -> Fpr.t array
(** Inverse transform; returns the real parts of the coefficients (for
    the transform of a real polynomial the imaginary parts vanish up to
    rounding). *)

val fft_of_int : int array -> t
(** [fft (Array.map Fpr.of_int p)]. *)

val round_to_int : Fpr.t array -> int array
(** Round each coefficient to the nearest integer (ties to even). *)

val tree_points : int -> (Fpr.t * Fpr.t) array
(** [tree_points n] is the array of n/2 points v_u such that FFT entries
    [2u] and [2u+1] of a size-n transform sit at (v_u, -v_u).  The
    twiddle table behind it is built once. *)

(** {1 Pointwise ring operations in the FFT domain} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val adj : t -> t
(** Complex conjugate — the FFT of the adjoint polynomial
    f*(x) = f(1/x) mod x^n + 1. *)

val mul : t -> t -> t
val div : t -> t -> t
val mulconst : t -> Fpr.t -> t

val mul_emit : emit:(int -> Fpr.event -> unit) -> t -> t -> t
(** Instrumented pointwise multiplication: the callback receives the
    coefficient index alongside each soft-float leakage event.  Each
    complex coefficient product executes 4 instrumented real
    multiplications and 2 instrumented additions, exactly the structure
    of Fig. 2 of the paper.  It runs on boxed values and the soft core,
    and its result has the bits of {!mul}'s. *)

(** {1 Half-size projections (for ffSampling and ffLDL)} *)

val split : t -> t * t
(** [split f] is [(f0, f1)] with f(x) = f0(x^2) + x f1(x^2), both in the
    FFT domain of size n/2. *)

val merge : t * t -> t
(** Inverse of {!split}. *)

(** {1 Convenience} *)

val mul_ring : int array -> int array -> int array
(** Negacyclic product of two integer polynomials computed through the
    FFT and rounded back — exact as long as coefficients stay well below
    2^53 / n. *)

val norm_sq : t -> Fpr.t
(** Sum over coefficients of |value|^2 / n — equals the squared Euclidean
    norm of the coefficient vector (Parseval). *)
