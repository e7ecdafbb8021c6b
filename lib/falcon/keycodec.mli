(** Binary encodings of keys and signatures.

    Follows the layout style of the FALCON submission: a one-byte header
    carrying the object type and log2(n), then fixed-width big-endian
    bit-packed fields.

    - public key: [0x00 lor logn], then n x 14-bit coefficients of h;
    - secret key: [0x50 lor logn], one byte of per-key field widths
      (w_fg in the high nibble, w_FG in the low nibble), then f, g with
      w_fg signed bits per coefficient and F, G with w_FG;
    - signature: [0x30 lor logn], the 40-byte salt, the compressed body.

    All decoders are total: malformed input returns [None]. *)

val encode_public : Scheme.public_key -> string
val decode_public : string -> Scheme.public_key option

val encode_secret : Ntru.Ntrugen.keypair -> string
val decode_secret : string -> Ntru.Ntrugen.keypair option
(** The public key h is recomputed from (f, g) on decode.  The input
    must end with the byte that holds the last bit of G: trailing bytes
    give [None], as a wrong length does for the other two decoders. *)

val encode_signature : Params.t -> Scheme.signature -> string
val decode_signature : Params.t -> string -> Scheme.signature option

val public_bytes : int -> int
(** Encoded public-key length for ring size n. *)
