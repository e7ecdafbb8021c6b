(** Deterministic pseudo-random number generator - xoshiro256 "starstar" -
    used for
    experiment reproducibility: measurement noise, random decoy
    hypotheses, and workload generation.  Not used inside the FALCON
    scheme itself (which uses {!Prng.Chacha20} seeded from SHAKE). *)

type t
(** The 256-bit state, kept as four unboxed 64-bit lanes: a draw
    allocates nothing.  Streams are pinned by reference outputs in
    [test/test_stats.ml]. *)

val create : seed:int -> t
(** [create ~seed] expands [seed] through SplitMix64 into the 256-bit
    xoshiro state. *)

val copy : t -> t

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform in [\[0, n)]; [n > 0]. *)

val bits : t -> int -> int
(** [bits t w] is a uniform [w]-bit value, [0 <= w <= 62]. *)

val float01 : t -> float
(** Uniform in [\[0, 1)] with 53-bit resolution. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box-Muller normal deviate. *)

val add_gaussian : t -> mu:float -> sigma:float -> float array -> unit
(** [add_gaussian t ~mu ~sigma a] adds successive deviates to [a.(0)],
    [a.(1)], ... in order, in place: [a.(j) +. g_j] where [g_j] is bit
    for bit the [j]-th of [Array.length a] calls of {!gaussian}, which
    also leave the generator in the same state.  The trace renderer's
    noise: no separate noise array is allocated. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
