(** Hypothesis spaces for the differential attack.

    The paper enumerates all 2^25 guesses for the low mantissa half and
    all 2^27 for the high half on a workstation; this repository supports
    the same exhaustive enumeration ({!exhaustive}, streamed so memory
    stays flat) and, for routine runs on one CPU core, an evaluation
    mode ({!sampled}) whose candidate set contains the true value, its
    complete multiplication-alias class (the exact-tie false positives
    the extend phase cannot distinguish) and uniform random decoys.
    Pearson ranking treats every hypothesis independently, so the sampled
    set exercises the identical extend-and-prune decision logic — see
    DESIGN.md section 2. *)

val shift_aliases : width:int -> ?lo:int -> int -> int list
(** [shift_aliases ~width v] is every [v'] in [\[lo, 2^width)] with
    [v' = v * 2^k] or [v = v' * 2^k] (k >= 1) — the values whose products
    [v' * b] have exactly the Hamming weight of [v * b] for every [b].
    [lo] defaults to 0 (set it to 2^(width-1) for ranges with a fixed
    top bit). *)

val sampled :
  Stats.Rng.t -> width:int -> ?lo:int -> truth:int -> decoys:int -> unit -> int array
(** Evaluation candidate set: [truth], its alias class, single-bit and
    +/-1 neighbours, and [decoys] uniform values in [\[lo, 2^width)];
    deduplicated and shuffled. *)

(** A leakage model as a first-class value.  [apply m guess y] is the
    modelled integer intermediate of a trace whose known operand is [y];
    the predicted leakage is its Hamming weight.

    A {!split} model additionally exposes the factorisation
    [apply g y = eval g (prep y)]: [prep] digests the known operand once
    (bit-slices of its significand, its exponent, a packed tuple...),
    [eval] combines it with the guess using integer arithmetic only.
    A {!product} model is the split whose [eval] is [( * )] — the
    extend-phase partial products of the paper's mantissa attack — and
    is scored by {!Stats.Pearson.Batch.Fused.fold_product} (and by
    [fold_class_product] under templates), C tiles that multiply and
    count bits inline.  The sweep engines precompute [prep] over the
    known operands once per segment; split models drive
    {!Stats.Pearson.Batch.Fused.fold_split} with [eval] on plain
    [int]s, and {!fn} models drive it over an index table, calling the
    model on the known operand for every guess.  All forms must agree
    exactly (integers), which makes every backend bit-identical. *)
module Model : sig
  type 'k t =
    | Fn of (int -> 'k -> int)
    | Split of ('k -> int) * (int -> int -> int)
    | Product of ('k -> int)

  val fn : (int -> 'k -> int) -> 'k t
  (** Wrap a plain model function. *)

  val split : prep:('k -> int) -> eval:(int -> int -> int) -> 'k t
  (** [split ~prep ~eval] — the caller asserts
      [eval g (prep y) = apply g y] for all inputs. *)

  val product : ('k -> int) -> 'k t
  (** [product prep] is the model [apply g y = g * prep y]. *)

  val apply : 'k t -> int -> 'k -> int
  (** Evaluate on the original operand type. *)

  val contramap : ('j -> 'k) -> 'k t -> 'j t
  (** Precompose the known-operand side (e.g. index into a view's
      operand array); a split model stays split, a product a
      product. *)
end

val exhaustive : width:int -> ?lo:int -> unit -> int Seq.t
(** All values of [\[lo, 2^width)], lazily. *)

val count : width:int -> ?lo:int -> unit -> int

val range : lo:int -> hi:int -> int Seq.t
(** All values of [\[lo, hi)], lazily; empty when [hi <= lo].  The
    arbitrary-bounds enumerator for guess spaces that are not power-of-two
    sized (e.g. {!Target} position candidates). *)

val range_count : lo:int -> hi:int -> int
(** [Seq.length (range ~lo ~hi)] without forcing the sequence. *)
