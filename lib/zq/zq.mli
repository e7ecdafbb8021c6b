(** Arithmetic modulo FALCON's prime q = 12289 and the negacyclic
    number-theoretic transform over Z_q[x]/(x^n + 1).

    FALCON verifies signatures (and computes the public key h = g/f) with
    integer arithmetic mod q; only signing uses the floating-point FFT.
    The paper's section V-C contrasts the side-channel behaviour of the
    two transforms, so the NTT here also has an instrumented variant. *)

val q : int
(** 12289 = 3 * 2^12 + 1; supports negacyclic transforms up to n = 2048. *)

(** {1 Scalar arithmetic} *)

val reduce : int -> int
(** Reduce any int (possibly negative) to [\[0, q)]. *)

val add : int -> int -> int
val sub : int -> int -> int
val mul : int -> int -> int
val pow : int -> int -> int
val inv : int -> int
(** Modular inverse; raises [Invalid_argument] on 0. *)

val center : int -> int
(** Representative in [(-q/2, q/2\]]. *)

(** {1 Polynomials in Z_q[x]/(x^n + 1)} *)

val ntt : int array -> int array
(** Forward negacyclic NTT (power-of-two length dividing 2048);
    input entries reduced mod q; output in bit-reversed order. *)

val intt : int array -> int array
(** Inverse of {!ntt}. *)

val mul_poly : int array -> int array -> int array
(** Negacyclic product via NTT. *)

val add_poly : int array -> int array -> int array
val sub_poly : int array -> int array -> int array

val inv_poly : int array -> int array option
(** Inverse in the ring, when every NTT coefficient is non-zero. *)

val of_centered : int array -> int array
(** Map possibly-negative coefficients into [\[0, q)]. *)

val norm_sq_centered : int array -> int
(** Sum of squares of the centered representatives — the quantity checked
    against the signature bound beta^2. *)
