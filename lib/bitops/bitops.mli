(** Word-level bit utilities shared by the soft-float, the leakage
    simulator and the attack engine.

    Values are OCaml native [int]s (63-bit); every function documents the
    width it assumes.  Hamming weight is the leakage model's primitive. *)

val popcount : int -> int
(** [popcount x] is the number of set bits in the 63-bit value [x].
    [x] must be non-negative.  Allocation-free native-int SWAR, never
    boxed [Int64] arithmetic: it is the per-(guess, trace) primitive of
    the split-model tiles and the scalar reference loops.  The product
    model's tiles count bits with the hardware instruction instead
    ([Stats.Pearson.Batch.Fused.fold_product] and [fold_class_product],
    in C) and refuse the same negative products. *)

val popcount64 : int64 -> int
(** Hamming weight of a full 64-bit word. *)

val hamming_distance : int -> int -> int
(** [hamming_distance a b] is [popcount (a lxor b)]. *)

val bit_length : int -> int
(** [bit_length x] is the position of the highest set bit plus one
    (so [bit_length 0 = 0], [bit_length 1 = 1], [bit_length 4 = 3]).
    [x] must be non-negative. *)

val bits : int -> lo:int -> width:int -> int
(** [bits x ~lo ~width] extracts [width] bits of [x] starting at bit
    [lo] (little-endian bit numbering). *)

val mask : int -> int
(** [mask w] is [2^w - 1] for [0 <= w <= 62]. *)

val parity : int -> int
(** [parity x] is [popcount x land 1]. *)

val brev : int -> bits:int -> int
(** [brev x ~bits] reverses the lowest [bits] bits of [x]. *)
