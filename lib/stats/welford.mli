(** Single-pass mean/variance accumulator (Welford's algorithm). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val variance : t -> float
(** Unbiased sample variance; 0 when fewer than two observations. *)

val stddev : t -> float
val merge : t -> t -> t
(** Combine two accumulators (Chan's parallel formula). *)

(** Single-pass accumulator for the first four central moments
    (Pébay's generalisation of Welford/Chan).  [merge] combines two
    disjoint partial accumulators into exactly the moments of the
    concatenated stream, and merging with an empty accumulator returns
    (a copy of) the other side bit-for-bit.  Used by the TVLA engine
    ([Assess.Tvla]) for centered-second-order t-tests, where the
    variance of the centered-square variable is [central4 - central2^2]. *)
module Moments : sig
  type t

  val create : unit -> t
  val copy : t -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  val variance : t -> float
  (** Unbiased sample variance; 0 when fewer than two observations. *)

  val stddev : t -> float

  val central2 : t -> float
  (** Biased (population) central moments [m_k / n]; 0 when empty. *)

  val central3 : t -> float
  val central4 : t -> float

  val merge : t -> t -> t
  (** Pébay's parallel combination.  Neither input is mutated; when one
      side is empty the other is returned unchanged (as a copy). *)
end
