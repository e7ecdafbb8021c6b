(** Append-only sharded on-disk trace corpus.

    A measurement campaign at paper scale (10k+ traces of 70n samples)
    does not have to fit in RAM: this module stores it as a directory of
    fixed-size binary {e shards} plus a {e manifest} carrying per-shard
    trace counts, the sample width, leakage-model metadata and CRC32
    checksums.  A {!Writer} appends traces during acquisition (buffering
    at most one shard); a {!Reader} loads the corpus one shard at a
    time with shard-level corruption detection.  The reader is strict:
    whether a corrupt shard fails an analysis or is dropped from it is
    decided by the caller ([Attack.Dema.Stream]'s [?on_corrupt]), never
    here.

    The layer is deliberately ignorant of the FALCON attack: a trace is
    a {!record} of public strings plus raw samples.  [Leakage] converts
    to and from its richer trace type (recomputing the known input
    FFT(c) from the stored salt and message).  A store is the one
    campaign format in the repository, so there is exactly one binary
    trace format and one validation path.

    {b Validation.}  Every declared length is checked against the
    bytes actually present before anything is allocated (a store
    shard's file length against its manifest entry before the file is
    read), and every failure is a [Failure]
    whose message names the offending field, its byte offset, and (for
    store shards) the shard index — never [End_of_file] or
    [Out_of_memory].  See DESIGN.md section 8 for the byte-level
    layout. *)

type record = {
  msg : string;  (** signed message (public) *)
  salt : string;  (** signature salt (public) *)
  body : string;  (** compressed signature body (public) *)
  samples : float array;  (** raw EM samples, [width] of them *)
}

type model_meta = { alpha : float; noise_sigma : float; baseline : float }
(** Leakage-model parameters recorded at acquisition time so an offline
    analysis knows the campaign's SNR. *)

type meta = {
  n : int;  (** ring size of the victim (power of two in [2, 1024]) *)
  width : int;  (** samples per trace *)
  shard_traces : int;  (** target traces per full shard *)
  model : model_meta;
}

type shard_entry = {
  count : int;  (** traces in this shard *)
  bytes : int;  (** total shard file size *)
  crc : int;  (** CRC32 of the shard payload *)
}

val shard_name : int -> string
(** [shard_name i] is ["shard-%04d.fdt"], the file name of shard [i]
    inside a store directory. *)

val manifest_name : string
(** ["manifest.fdm"]. *)

module Crc32 : sig
  val digest : Bytes.t -> pos:int -> len:int -> int
  (** Standard CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected) of
      bytes [\[pos, pos + len)], returned as a non-negative int in
      [0, 2^32).  Raises [Invalid_argument] when [pos < 0], [len < 0]
      or [pos + len] exceeds the buffer. *)

  val digest_string : string -> int
end

(** {1 Single-shard codec}

    A shard file is self-contained: header (magic, ring size, sample
    width, trace count), the trace records, and a trailing CRC32 of the
    record payload.  The {!Writer} flushes every shard through
    [write_file]; [read_file] decodes one shard file on its own. *)

module Shard : sig
  val write_file : string -> n:int -> width:int -> record array -> shard_entry
  (** Encode and write one shard; returns its manifest entry.  Raises
      [Invalid_argument] if a record's sample count differs from
      [width], [Sys_error] on I/O failure. *)

  val read_file : string -> int * int * record array
  (** [read_file path] is [(n, width, records)].  Raises [Failure] with
      field/offset diagnostics on any malformation (bad magic, field
      out of range, truncation, CRC mismatch, trailing garbage). *)
end

(** {1 Acquisition} *)

module Writer : sig
  type t

  val create :
    dir:string -> n:int -> width:int -> shard_traces:int -> model:model_meta -> t
  (** Start a new store in [dir] (created if missing).  Raises
      [Failure] if [dir] already contains a manifest — append-only
      stores are extended with {!open_append}, never overwritten. *)

  val open_append : string -> t
  (** Reopen an existing store for appending.  Existing shard files are
      never rewritten: new traces go to fresh shards (so the shard
      before the append boundary may hold fewer than [shard_traces]
      traces).  Raises [Failure] if the manifest is missing or
      malformed. *)

  val meta : t -> meta

  val append : t -> record -> unit
  (** Buffer one trace; flushes a shard to disk whenever [shard_traces]
      are pending.  Raises [Invalid_argument] on a sample-count
      mismatch or after [close]. *)

  val total_traces : t -> int
  (** Traces in flushed shards plus pending ones. *)

  val close : t -> unit
  (** Flush the partial tail shard (if any) and atomically write the
      manifest (temp file + rename).  Idempotent. *)
end

(** {1 Analysis} *)

module Reader : sig
  type t

  val open_store : string -> t
  (** Open a store for reading; validates the manifest eagerly (a
      corrupt manifest raises [Failure]).  Shards are not touched until
      loaded.  The handle is immutable and safe to share across
      domains.  Each shard file is read whole into one heap buffer and
      decoded from there. *)

  val meta : t -> meta
  val shard_count : t -> int

  val total_traces : t -> int
  (** Sum of manifest per-shard counts (including shards that turn out
      to be corrupt when loaded). *)

  val entry : t -> int -> shard_entry

  val load_shard : t -> int -> record array
  (** Strict single-shard load: reads, CRC-checks and parses shard [i],
      validating size, count and checksum against the manifest.  The
      file's length is compared with the manifest's byte size before
      its buffer is allocated, so a grown or replaced shard is refused
      without reading it.  Raises [Failure] (naming the shard index and
      byte offset) on any corruption. *)

  val to_seq : t -> record Seq.t
  (** Lazy record stream in shard order; at most one decoded shard is
      live at any point of the traversal.  Each shard goes through
      {!load_shard}, so a corrupt shard raises its [Failure] when the
      traversal reaches it — there is no skipping here.  Analyses that
      may drop corrupt shards read through [Attack.Dema.Stream]
      instead. *)
end

val verify : string -> meta * (int * (int, string) result) list
(** [verify dir] opens the manifest strictly and strictly loads every
    shard through {!Reader.load_shard}, returning per-shard outcomes in
    order: [Ok count] or [Error diagnostic].  The store is never
    modified. *)
