(** Polynomials over arbitrary-precision integers in Z[x]/(x^m + 1).

    The NTRU equation solver walks the tower
    Z[x]/(x^n+1) -> Z[x]/(x^(n/2)+1) -> ... -> Z through field norms, and
    coefficients roughly double in size at each descent, so all ring
    arithmetic here is over {!Bignum.t}. *)

type t = Bignum.t array
(** Coefficient vector, length a power of two (length 1 = plain Z). *)

val of_int_poly : int array -> t
val to_int_poly_opt : t -> int array option
(** [None] when any coefficient overflows a native int. *)

val zero : int -> t
val equal : t -> t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Schoolbook negacyclic product. *)

val shift_coeffs : t -> int -> t
(** Multiply every coefficient by 2^k (k >= 0). *)

val galois_conjugate : t -> t
(** a(x) -> a(-x): negate odd-index coefficients. *)

val field_norm : t -> t
(** N(a) of length m/2 with N(a)(x^2) = a(x) * a(-x); multiplicative. *)

val lift : t -> t
(** a(x) -> a(x^2): double the length by interleaving zeros. *)

val max_bit_length : t -> int
(** Largest coefficient magnitude in bits (0 for the zero polynomial). *)

val pp : Format.formatter -> t -> unit
