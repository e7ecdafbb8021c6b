(** The FALCON tree: ffLDL* decomposition of the Gram matrix of the
    secret basis (Algorithm 1, lines 4-8) and fast Fourier sampling over
    it (Algorithm 2, line 6).

    The tree halves the FFT size at every level; each internal node
    stores the LDL coefficient L10, and the leaves store the per-
    coordinate Gaussian widths sigma / sqrt(D_ii) used by SamplerZ.

    Building and sampling run on the unboxed FFT kernel {!Fft.Vec}, so
    every value is bit-identical to FALCON's soft-float. *)

type t =
  | Leaf of float  (** sampling sigma for one integer coordinate *)
  | Node of { l10 : Fft.Vec.t; left : t; right : t }

val build : sigma:float -> Fft.Vec.t array array -> t
(** [build ~sigma b] for the 2x2 FFT-domain basis
    [b = [|[|g; -f|]; [|G; -F|]|]]: computes the Gram matrix B B* and
    recursively LDL-decomposes it down to scalar leaves. *)

val leaves : t -> float list
(** All leaf sigmas (for the key-quality invariants
    sigma_min <= leaf <= sigma_max). *)

val depth : t -> int

val sample :
  Prng.t -> sigma_min:float -> t -> Fft.Vec.t * Fft.Vec.t -> Fft.Vec.t * Fft.Vec.t
(** ffSampling: given the target centre (t0, t1), return (z0, z1) — FFTs
    of integer polynomials — distributed as spherical Gaussians around
    the centre with covariance shaped by the tree. *)
