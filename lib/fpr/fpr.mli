(** FALCON's emulated IEEE-754 binary64 floating point ("FPEMU").

    FALCON's reference implementation ships its own constant-time software
    floating point; the DAC'21 attack targets the intermediate values of
    that very code: the 25/28 split-mantissa schoolbook multiplication,
    the exponent addition and the sign XOR.  This module reimplements that
    arithmetic over plain integers and exposes every architecturally
    visible intermediate through an {!emit} callback so the leakage
    simulator can sample it.

    A value of type {!t} is the raw binary64 bit pattern.  Since OCaml's
    native [float] is IEEE-754 binary64, the integer soft core ({!Soft})
    is property-tested bit-for-bit against the host FPU (see
    [test/test_fpr.ml]); only finite values with biased exponents in
    FALCON's working range are supported (no subnormals, infinities or
    NaNs — FALCON's own emulation has the same contract).

    Only {!mul_emit} and {!add_emit} leak: they are the FPEMU model the
    attack targets and always run the soft core.  The non-emitting
    {!add}, {!sub}, {!mul} and {!div} compute on the host FPU when both
    operands and the result are normal with a biased exponent in
    [\[2, 0x7FD\]], and fall back to {!Soft} otherwise; a property test
    pins them to {!Soft} bit for bit over the whole exponent range. *)

type t = int64
(** Binary64 bit pattern: bit 63 sign, bits 62-52 biased exponent,
    bits 51-0 mantissa. *)

(** {1 Leakage events}

    Every instrumented operation reports the intermediate values it
    writes, in program order, mirroring the reference [fpr.c].  Labels
    follow the paper's notation: in the attacked multiplication [x * y]
    the first operand x is known (derived from the hashed message) and
    the second operand y is secret (the key); the 53-bit significands
    split as [y = E*2^25 + D] (secret) and [x = A*2^25 + B] (known),
    with D, B the low 25 bits and E, A the high 28 bits. *)

type label =
  | Load_x_lo  (** low 32-bit word of the first (known) operand *)
  | Load_x_hi  (** high 32-bit word of the first (known) operand *)
  | Load_y_lo  (** low 32-bit word of the second (secret) operand *)
  | Load_y_hi  (** high 32-bit word of the second (secret) operand *)
  | Mant_w00  (** partial product D x B (secret low x known low, 50 bits) *)
  | Mant_w10  (** partial product D x A (secret low x known high, 53 bits) *)
  | Mant_z1a
      (** intermediate addition (DB >> 25) + (DA mod 2^25) — the paper's
          low-half prune target, a function of D and knowns only *)
  | Mant_w01  (** partial product E x B (secret high x known low, 53 bits) *)
  | Mant_z1   (** intermediate addition z1a + (EB mod 2^25) *)
  | Mant_w11  (** partial product E x A (secret high x known high, 56 bits) *)
  | Mant_zhigh  (** high-word accumulation w11 + carries *)
  | Mant_norm  (** normalised 55-bit product with sticky bit *)
  | Exp_sum
      (** exponent addition: the register value e_x + e_y - 2100 as a
          32-bit two's-complement word *)
  | Sign_xor  (** sign bit s_x xor s_y *)
  | Result_lo  (** low 32-bit word of the stored result *)
  | Result_hi  (** high 32-bit word of the stored result (sign, exponent, top mantissa bits) *)
  | Add_align  (** addition: smaller operand after exponent alignment *)
  | Add_sum  (** addition: raw significand sum/difference *)
  | Add_norm  (** addition: normalised significand *)

type event = { label : label; value : int; width : int }

type emit = event -> unit

val no_emit : emit
val label_name : label -> string

(** {1 Constants and conversions} *)

val zero : t
val one : t

val of_float : float -> t
val to_float : t -> float

val of_int : int -> t
(** Exact for |i| < 2^53, correctly rounded beyond. *)

val scaled : int -> int -> t
(** [scaled i sc] is the correctly rounded value [i * 2^sc]. *)

val sign_bit : t -> int
val biased_exponent : t -> int
val mantissa : t -> int
(** The 52 stored mantissa bits (without the implicit leading 1). *)

val make : sign:int -> exp:int -> mant:int -> t
(** Reassemble a bit pattern from the three fields (no rounding). *)

val is_zero : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val half : t -> t
val double : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Host-FPU arithmetic where it provably equals the soft core (both
    operands and the result normal, biased exponent in [\[2, 0x7FD\]]);
    {!Soft} otherwise.  Bit-identical to {!Soft} on every input. *)

val inv : t -> t
(** [div one x]. *)

val sqrt : t -> t
(** {!Soft.sqrt}. *)

val add_emit : emit:emit -> t -> t -> t
val mul_emit : emit:emit -> t -> t -> t
(** The leaking entries: the soft core reporting every intermediate, in
    program order, to [emit].  The only instrumented arithmetic. *)

(** The integer soft core: the reference {!add}/{!sub}/{!mul}/{!div}
    are tested against, and (through {!add_emit}/{!mul_emit}) the
    leakage model.  Results at or below [2^-1021] flush to a signed
    zero. *)
module Soft : sig
  val add : t -> t -> t
  (** [add_emit ~emit:no_emit]. *)

  val sub : t -> t -> t
  val mul : t -> t -> t
  (** [mul_emit ~emit:no_emit]. *)

  val div : t -> t -> t
  val sqrt : t -> t
end

(** {1 Rounding to integers} *)

val rint : t -> int
(** Round to nearest, ties to even. *)

val floor : t -> int
val trunc : t -> int

(** {1 Comparisons} *)

val lt : t -> t -> bool
val equal : t -> t -> bool

(** {1 Special functions} *)

val expm_p63 : t -> t -> int64
(** [expm_p63 x ccs] is [round (ccs * exp (-x) * 2^63)] for [x >= 0],
    [0 <= ccs <= 1]; used by the Bernoulli-exponential sampler. *)

val pp : Format.formatter -> t -> unit
(** Hex bit pattern and decimal value, e.g. [0xC06017BC8036B580 (-128.742...)]. *)
