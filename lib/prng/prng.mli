(** ChaCha20-based deterministic pseudo-random generator.

    FALCON's reference implementation expands a SHAKE-seeded key through
    ChaCha20 to drive its Gaussian samplers; this module provides the
    same construction (IETF ChaCha20 block function, RFC 7539). *)

type t

val create : key:string -> nonce:string -> t
(** [create ~key ~nonce] with a 32-byte key and 12-byte nonce. *)

val of_seed : string -> t
(** Derive key and nonce from arbitrary seed bytes through SHAKE-256 —
    how FALCON seeds its signing PRNG from the RNG-salt. *)

val block : key:string -> nonce:string -> counter:int -> string
(** Raw 64-byte ChaCha20 block, the RFC 7539 entry point (exposed for
    its test vectors).  A generator runs the same block function, but
    refills its own buffer in place, allocating nothing per block. *)

val byte : t -> int
val u64 : t -> int64

val bits : t -> int -> int
(** Uniform [w]-bit value, [0 <= w <= 62]. *)

val uniform_below : t -> int -> int
(** Unbiased uniform draw in [\[0, n)] by rejection. *)
