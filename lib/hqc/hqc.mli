(** HQC sparse polynomial multiplication victim (arXiv 2601.07634).

    HQC decapsulation multiplies a public dense ring element [u] by the
    secret sparse element [y] of fixed Hamming weight [w]: in the
    circulant representation the product is accumulated one secret
    support position at a time,

      acc_j = acc_(j-1)  XOR  rot(u, p_j),      j = 0 .. w-1,

    where [p_0 < p_1 < ... < p_(w-1)] are the secret positions.  The
    schedule is secret-{e dependent}: each accumulator update leaks the
    Hamming weight of the new accumulator word (HW probe) or the
    popcount of the word-wise transition [acc_(j-1) xor acc_j =
    rot(u, p_j)] (bus-HD probe).  With [u] known per trace, correlating
    a guessed rotation against either leakage recovers the positions one
    at a time — the same extend-and-prune shape as the FALCON mantissa
    attack, with the already-recovered prefix folded into the
    hypothesis.

    This module is the {e victim} half only — parameters, key
    generation, the instrumented accumulator, trace capture into
    {!Tracestore} records, and the integer model primitives.  The
    attacker half (hypothesis models as {!Attack.Hypothesis.Model}
    values, the chained per-unit ranking driver) lives in
    {!Attack.Target.Hqc}, keeping this library free of [attack]
    dependencies.

    The scaled-down parameter set keeps every intermediate inside an
    OCaml [int] (the split-model prep digest packs a word and the full
    [u] into 48 bits) while preserving the attack's structure: a 32-bit
    ring processed as two 16-bit accumulator words, secret weight 6. *)

module Params : sig
  val n_bits : int
  (** ring size (bits of [u] and [y]); also the store's [n] field — 32,
      a power of two inside the {!Tracestore} codec's accepted range *)

  val word_bits : int  (** accumulator word width — 16 *)

  val words : int  (** words per ring element — [n_bits / word_bits] = 2 *)

  val weight : int  (** secret support weight [w] — 6 *)

  val width : int
  (** samples per trace: one per (update, word) — [weight * words] = 12 *)
end

type secret = int array
(** Strictly increasing support positions in [\[0, n_bits)], length
    {!Params.weight}. *)

val check_secret : secret -> unit
(** Raises [Invalid_argument] unless strictly increasing, in range and
    of weight length. *)

val keygen : seed:int -> secret
(** Uniform fixed-weight secret (sorted support), deterministic in
    [seed]. *)

val rotate : int -> int -> int
(** [rotate u r]: left-rotation of the [n_bits]-bit value [u] by [r]. *)

val word : int -> int -> int
(** [word w v]: the [w]-th {!Params.word_bits}-bit word of [v]. *)

val accumulator : secret -> prefix_len:int -> int -> int
(** [accumulator y ~prefix_len u] is [acc_(prefix_len-1)]: the XOR of
    [rot u y.(j)] over [j < prefix_len] (0 when [prefix_len = 0]). *)

type emitter = [ `Hw | `Hd ]
(** Probe model: accumulator-word Hamming weight, or the bus
    Hamming-distance of the accumulator update (whose transition value
    is exactly [rot(u, p_j)], making the HD hypothesis prefix-free). *)

val intermediates : emitter -> secret -> u:int -> int array
(** The {!Params.width} architecturally visible intermediates of one
    accumulation, sample [(j * words) + w] covering word [w] of update
    [j]: the new accumulator word under [`Hw], the transition word under
    [`Hd]. *)

(** {1 Capture into Tracestore records}

    A record stores the raw samples plus the known input [u] as 8
    little-endian bytes in [msg] ([salt] and [body] stay empty) — the
    exact information a real adversary keeps.  Decode through
    {!Leakage.raw_of_record}; no FFT is involved. *)

val encode_u : int -> string
val decode_u : string -> int option

val u_of_record : Tracestore.record -> int
(** Raises [Failure] on a malformed [msg] field. *)

val u_of_trace : Leakage.trace -> int
(** Same, from a decoded trace ([msg] carried verbatim). *)

val capture_stream :
  ?emitter:emitter ->
  Leakage.model ->
  seed:int ->
  secret ->
  unit ->
  Tracestore.record
(** One-at-a-time capture: each call draws a fresh uniform [u], runs the
    accumulator and renders the Hamming weight of every intermediate
    through the one renderer ({!Leakage.hw_trace}, no jitter).  RNG
    state carries across calls, so an incremental campaign equals a
    batch capture sample-for-sample.  Raises [Invalid_argument] from
    {!Leakage.check} on a bad model when created. *)

(** {1 Ground-truth sidecar} *)

val key_file : string
(** ["hqc.key"] — the store sidecar holding the victim's secret
    support. *)

val encode_secret : secret -> string
val decode_secret : string -> secret option

(** {1 Hypothesis-model primitives}

    Integer [prep]/[eval] pairs for {!Attack.Hypothesis.Model.split}:
    [prep] digests the known [u] once per sweep, [eval] combines it with
    a guessed position.  Exactness: for all [u], [g], [prefix],

    [eval_acc ~word g (prep_acc ~prefix ~word u)
       = word w (accumulator (prefix @ [g]) u)]

    — the packed digest is [word w (acc_prefix) * 2^n_bits + u], 48 bits,
    well inside OCaml's 63-bit [int]. *)

val prep_acc : prefix:secret -> word:int -> int -> int
val eval_acc : word:int -> int -> int -> int

val m_acc : prefix:secret -> word:int -> int -> int -> int
(** Plain-function form: [m_acc ~prefix ~word g u] is word [w] of the
    accumulator after folding [prefix] then the guessed position [g]
    over [u] — the [`Hw] intermediate. *)

val m_rot : word:int -> int -> int -> int
(** [`Hd] form: [m_rot ~word g u = word w (rotate u g)] — the bus
    transition of update [j], independent of the prefix. *)
