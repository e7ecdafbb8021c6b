type record = {
  msg : string;
  salt : string;
  body : string;
  samples : float array;
}

type model_meta = { alpha : float; noise_sigma : float; baseline : float }

type meta = {
  n : int;
  width : int;
  shard_traces : int;
  model : model_meta;
}

type shard_entry = { count : int; bytes : int; crc : int }

let shard_magic = "FDSHARD1"
let manifest_magic = "FDMANIF1"
let manifest_name = "manifest.fdm"
let shard_name i = Printf.sprintf "shard-%04d.fdt" i
let shard_path dir i = Filename.concat dir (shard_name i)
let manifest_path dir = Filename.concat dir manifest_name

(* Validation ceilings: a wild length field must be refused by
   comparison, not by attempting the allocation. *)
let max_string_field = 1 lsl 20
let max_traces = 10_000_000
let max_width = 1 lsl 24
let max_shards = 1 lsl 20

module Crc32 = struct
  (* CRC-32 (IEEE 802.3), reflected, slicing-by-8 on plain 63-bit ints.
     Row k of the flat 8x256 table is the CRC of a byte followed by k
     zero bytes, so one step folds 8 input bytes with 8 lookups. *)
  let table =
    let t = Array.make (8 * 256) 0 in
    for i = 0 to 255 do
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      t.(i) <- !c
    done;
    for k = 1 to 7 do
      for i = 0 to 255 do
        let c = t.(((k - 1) * 256) + i) in
        t.((k * 256) + i) <- t.(c land 0xFF) lxor (c lsr 8)
      done
    done;
    t

  let digest b ~pos ~len =
    if pos < 0 || len < 0 || pos > Bytes.length b - len then
      invalid_arg "Tracestore.Crc32.digest: pos/len outside the buffer";
    (* indices are masked to [0, 2048), so the lookups skip the check *)
    let[@inline] t k i = Array.unsafe_get table ((k lsl 8) lor i) in
    let c = ref 0xFFFFFFFF in
    let i = ref pos in
    let stop8 = pos + (len land lnot 7) in
    while !i < stop8 do
      let w = Bytes.get_int64_le b !i in
      let lo = (Int64.to_int w land 0xFFFFFFFF) lxor !c in
      let hi = Int64.to_int (Int64.shift_right_logical w 32) in
      c :=
        t 7 (lo land 0xFF)
        lxor t 6 ((lo lsr 8) land 0xFF)
        lxor t 5 ((lo lsr 16) land 0xFF)
        lxor t 4 (lo lsr 24)
        lxor t 3 (hi land 0xFF)
        lxor t 2 ((hi lsr 8) land 0xFF)
        lxor t 1 ((hi lsr 16) land 0xFF)
        lxor t 0 (hi lsr 24);
      i := !i + 8
    done;
    for j = stop8 to pos + len - 1 do
      c := t 0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

  let digest_string s =
    digest (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)
end

let fail ~ctx fmt =
  Printf.ksprintf (fun s -> failwith (Printf.sprintf "Tracestore: %s: %s" ctx s)) fmt

(* ---- binary primitives over a bounds-checked cursor ----

   The [Bytes.get_*] reads below are only reached behind an explicit
   bounds check ([need], or the size guards of the decoders), so a
   malformed image fails with a diagnostic, never with the
   [Invalid_argument] of an out-of-range read. *)

type cursor = { b : Bytes.t; mutable pos : int; limit : int }

let get_i32 b pos = Int32.to_int (Bytes.get_int32_be b pos)
let get_f64 b pos = Int64.float_of_bits (Bytes.get_int64_be b pos)

let need ~ctx cur what bytes =
  if bytes < 0 || bytes > cur.limit - cur.pos then
    fail ~ctx "truncated: %s needs %d bytes at offset %d but only %d remain" what
      bytes cur.pos (cur.limit - cur.pos)

let read_i32 ~ctx cur what =
  need ~ctx cur what 4;
  let v = get_i32 cur.b cur.pos in
  cur.pos <- cur.pos + 4;
  v

let read_f64 ~ctx cur what =
  need ~ctx cur what 8;
  let v = get_f64 cur.b cur.pos in
  cur.pos <- cur.pos + 8;
  v

let read_string ~ctx cur what =
  let off = cur.pos in
  let len = read_i32 ~ctx cur (what ^ " length") in
  if len < 0 || len > max_string_field then
    fail ~ctx "%s length %d at offset %d out of range [0, %d]" what len off
      max_string_field;
  need ~ctx cur what len;
  let s = Bytes.sub_string cur.b cur.pos len in
  cur.pos <- cur.pos + len;
  s

let set_i32 b pos v = Bytes.set_int32_be b pos (Int32.of_int v)
let set_f64 b pos v = Bytes.set_int64_be b pos (Int64.bits_of_float v)

(* [set_string b pos s] writes [s] length-prefixed at [pos] and returns
   the offset after it. *)
let set_string b pos s =
  let len = String.length s in
  set_i32 b pos len;
  Bytes.blit_string s 0 b (pos + 4) len;
  pos + 4 + len

(* [check] sees the file length before the buffer exists, so a file
   it refuses costs no heap. *)
let read_whole ?(check = ignore) ~ctx path =
  match open_in_bin path with
  | exception Sys_error m -> fail ~ctx "cannot read: %s" m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let len = in_channel_length ic in
          check len;
          let b = Bytes.create len in
          really_input ic b 0 len;
          b)

let write_whole path b =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc b)

(* ---- per-trace record codec ---- *)

let read_record ~ctx ~width cur i =
  let msg = read_string ~ctx cur (Printf.sprintf "trace %d message" i) in
  let salt = read_string ~ctx cur (Printf.sprintf "trace %d salt" i) in
  let body = read_string ~ctx cur (Printf.sprintf "trace %d signature body" i) in
  let off = cur.pos in
  let slen = read_i32 ~ctx cur (Printf.sprintf "trace %d sample count" i) in
  if slen <> width then
    fail ~ctx "trace %d sample count %d at offset %d (want the declared width %d)" i
      slen off width;
  need ~ctx cur (Printf.sprintf "trace %d samples" i) (8 * slen);
  let base = cur.pos in
  let samples = Array.create_float slen in
  for j = 0 to slen - 1 do
    samples.(j) <- get_f64 cur.b (base + (8 * j))
  done;
  cur.pos <- base + (8 * slen);
  { msg; salt; body; samples }

(* ---- shard codec ----

   offset 0   magic "FDSHARD1"
          8   ring size n          (int32 be)
          12  sample width         (int32 be)
          16  trace count          (int32 be)
          20  records...
          end-4  CRC32 of bytes [20, end-4)  (int32 be)

   The CRC covers the record payload only, so header fields stay
   structurally checkable (and a store shard's count is cross-checked
   against the manifest rather than hidden behind a checksum error). *)

let shard_header = 20

let check_magic ~ctx b want =
  let got = Bytes.sub_string b 0 (String.length want) in
  if got <> want then fail ~ctx "bad magic %S (want %S)" got want

let check_n ~ctx ~off n =
  if n < 2 || n > 1024 || n land (n - 1) <> 0 then
    fail ~ctx "ring size %d at offset %d is not a power of two in [2, 1024]" n off

let check_width ~ctx ~off width =
  if width < 1 || width > max_width then
    fail ~ctx "sample width %d at offset %d out of range [1, %d]" width off max_width

let check_count ~ctx ~off count =
  if count < 0 || count > max_traces then
    fail ~ctx "trace count %d at offset %d out of range [0, %d]" count off max_traces

(* A record's encoded size: three length-prefixed strings, the sample
   count and the samples. *)
let record_bytes ~width r =
  16 + String.length r.msg + String.length r.salt + String.length r.body + (8 * width)

let encode_shard ~n ~width records =
  Array.iteri
    (fun i r ->
      if Array.length r.samples <> width then
        invalid_arg
          (Printf.sprintf "Tracestore: record %d has %d samples, shard width is %d" i
             (Array.length r.samples) width))
    records;
  let crc_off =
    Array.fold_left (fun acc r -> acc + record_bytes ~width r) shard_header records
  in
  let out = Bytes.create (crc_off + 4) in
  Bytes.blit_string shard_magic 0 out 0 8;
  set_i32 out 8 n;
  set_i32 out 12 width;
  set_i32 out 16 (Array.length records);
  let pos =
    Array.fold_left
      (fun pos r ->
        let pos = set_string out pos r.msg in
        let pos = set_string out pos r.salt in
        let pos = set_string out pos r.body in
        set_i32 out pos width;
        let base = pos + 4 in
        for j = 0 to width - 1 do
          set_f64 out (base + (8 * j)) r.samples.(j)
        done;
        base + (8 * width))
      shard_header records
  in
  assert (pos = crc_off);
  let crc = Crc32.digest out ~pos:shard_header ~len:(crc_off - shard_header) in
  set_i32 out crc_off crc;
  (out, crc)

let decode_shard ?expect ~ctx b =
  let size = Bytes.length b in
  if size < shard_header + 4 then
    fail ~ctx "truncated: %d bytes is below the %d-byte shard minimum" size
      (shard_header + 4);
  check_magic ~ctx b shard_magic;
  let hdr = { b; pos = 8; limit = shard_header } in
  let n = read_i32 ~ctx hdr "ring size" in
  check_n ~ctx ~off:8 n;
  let width = read_i32 ~ctx hdr "sample width" in
  check_width ~ctx ~off:12 width;
  let count = read_i32 ~ctx hdr "trace count" in
  check_count ~ctx ~off:16 count;
  (match expect with
  | Some e when count <> e.count ->
      fail ~ctx
        "header declares %d traces at offset 16 but the manifest records %d — \
         manifest/shard disagreement"
        count e.count
  | _ -> ());
  let crc_off = size - 4 in
  let stored = get_i32 b crc_off land 0xFFFFFFFF in
  let computed = Crc32.digest b ~pos:shard_header ~len:(crc_off - shard_header) in
  if computed <> stored then
    fail ~ctx
      "payload CRC mismatch over bytes [%d, %d): stored %08x, computed %08x — \
       bit-level corruption"
      shard_header crc_off stored computed;
  (match expect with
  | Some e when stored <> e.crc ->
      fail ~ctx "payload CRC %08x at offset %d does not match the manifest CRC %08x"
        stored crc_off e.crc
  | _ -> ());
  let cur = { b; pos = shard_header; limit = crc_off } in
  let records = Array.init count (fun i -> read_record ~ctx ~width cur i) in
  if cur.pos <> crc_off then
    fail ~ctx "%d bytes of trailing garbage after the last record at offset %d"
      (crc_off - cur.pos) cur.pos;
  (n, width, records)

module Shard = struct
  let write_file path ~n ~width records =
    let bytes, crc = encode_shard ~n ~width records in
    write_whole path bytes;
    { count = Array.length records; bytes = Bytes.length bytes; crc }

  let read_file path = decode_shard ~ctx:path (read_whole ~ctx:path path)
end

(* ---- manifest codec ----

   offset 0   magic "FDMANIF1"
          8   n (4) | width (4) | shard_traces (4)
          20  alpha (8) | noise_sigma (8) | baseline (8)   (float bits be)
          44  shard count (4)
          48  per shard: count (4) | bytes (4) | crc (4)
          end-4  CRC32 of bytes [8, end-4)

   The manifest is small and rewritten atomically on every Writer.close,
   so its CRC covers everything after the magic. *)

let encode_manifest meta entries =
  let crc_off = 48 + (12 * List.length entries) in
  let out = Bytes.create (crc_off + 4) in
  Bytes.blit_string manifest_magic 0 out 0 8;
  set_i32 out 8 meta.n;
  set_i32 out 12 meta.width;
  set_i32 out 16 meta.shard_traces;
  set_f64 out 20 meta.model.alpha;
  set_f64 out 28 meta.model.noise_sigma;
  set_f64 out 36 meta.model.baseline;
  set_i32 out 44 (List.length entries);
  List.iteri
    (fun i e ->
      let off = 48 + (12 * i) in
      set_i32 out off e.count;
      set_i32 out (off + 4) e.bytes;
      set_i32 out (off + 8) e.crc)
    entries;
  set_i32 out crc_off (Crc32.digest out ~pos:8 ~len:(crc_off - 8));
  out

let decode_manifest ~ctx b =
  let size = Bytes.length b in
  if size < 52 then
    fail ~ctx "truncated: %d bytes is below the 52-byte manifest minimum" size;
  check_magic ~ctx b manifest_magic;
  let crc_off = size - 4 in
  let stored = get_i32 b crc_off land 0xFFFFFFFF in
  let computed = Crc32.digest b ~pos:8 ~len:(crc_off - 8) in
  if computed <> stored then
    fail ~ctx "manifest CRC mismatch over bytes [8, %d): stored %08x, computed %08x"
      crc_off stored computed;
  let cur = { b; pos = 8; limit = crc_off } in
  let n = read_i32 ~ctx cur "ring size" in
  check_n ~ctx ~off:8 n;
  let width = read_i32 ~ctx cur "sample width" in
  check_width ~ctx ~off:12 width;
  let shard_traces = read_i32 ~ctx cur "shard trace target" in
  if shard_traces < 1 || shard_traces > max_traces then
    fail ~ctx "shard trace target %d at offset 16 out of range [1, %d]" shard_traces
      max_traces;
  let alpha = read_f64 ~ctx cur "model alpha" in
  let noise_sigma = read_f64 ~ctx cur "model noise sigma" in
  let baseline = read_f64 ~ctx cur "model baseline" in
  let off_sc = cur.pos in
  let shard_count = read_i32 ~ctx cur "shard count" in
  if shard_count < 0 || shard_count > max_shards then
    fail ~ctx "shard count %d at offset %d out of range [0, %d]" shard_count off_sc
      max_shards;
  if crc_off - cur.pos <> 12 * shard_count then
    fail ~ctx "manifest body holds %d bytes at offset %d but %d shard entries need %d"
      (crc_off - cur.pos) cur.pos shard_count (12 * shard_count);
  let entries =
    List.init shard_count (fun i ->
        let what w = Printf.sprintf "shard %d %s" i w in
        let off = cur.pos in
        let count = read_i32 ~ctx cur (what "count") in
        check_count ~ctx ~off count;
        let bytes = read_i32 ~ctx cur (what "byte size") in
        if bytes < shard_header + 4 then
          fail ~ctx "shard %d byte size %d at offset %d is below the shard minimum" i
            bytes (off + 4);
        let crc = read_i32 ~ctx cur (what "crc") land 0xFFFFFFFF in
        { count; bytes; crc })
  in
  ({ n; width; shard_traces; model = { alpha; noise_sigma; baseline } }, entries)

let read_manifest dir =
  let path = manifest_path dir in
  decode_manifest ~ctx:path (read_whole ~ctx:path path)

(* ---- acquisition ---- *)

module Writer = struct
  type t = {
    dir : string;
    w_meta : meta;
    mutable entries : shard_entry list;  (* newest first *)
    mutable pending : record list;  (* newest first *)
    mutable pending_count : int;
    mutable closed : bool;
  }

  let create ~dir ~n ~width ~shard_traces ~model =
    let ctx = dir in
    check_n ~ctx ~off:0 n;
    check_width ~ctx ~off:0 width;
    if shard_traces < 1 then
      invalid_arg "Tracestore.Writer.create: shard_traces must be >= 1";
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
    else if not (Sys.is_directory dir) then
      fail ~ctx "not a directory — cannot create a trace store here";
    if Sys.file_exists (manifest_path dir) then
      fail ~ctx "already a trace store (manifest present); use open_append";
    {
      dir;
      w_meta = { n; width; shard_traces; model };
      entries = [];
      pending = [];
      pending_count = 0;
      closed = false;
    }

  let open_append dir =
    let m, entries = read_manifest dir in
    {
      dir;
      w_meta = m;
      entries = List.rev entries;
      pending = [];
      pending_count = 0;
      closed = false;
    }

  let meta t = t.w_meta

  let flush t =
    if t.pending_count > 0 then begin
      let records = Array.of_list (List.rev t.pending) in
      let idx = List.length t.entries in
      let entry =
        Shard.write_file (shard_path t.dir idx) ~n:t.w_meta.n ~width:t.w_meta.width
          records
      in
      t.entries <- entry :: t.entries;
      t.pending <- [];
      t.pending_count <- 0
    end

  let append t r =
    if t.closed then invalid_arg "Tracestore.Writer.append: writer is closed";
    if Array.length r.samples <> t.w_meta.width then
      invalid_arg
        (Printf.sprintf "Tracestore.Writer.append: trace has %d samples, store width is %d"
           (Array.length r.samples) t.w_meta.width);
    t.pending <- r :: t.pending;
    t.pending_count <- t.pending_count + 1;
    if t.pending_count = t.w_meta.shard_traces then flush t

  let total_traces t =
    t.pending_count + List.fold_left (fun acc e -> acc + e.count) 0 t.entries

  let close t =
    if not t.closed then begin
      flush t;
      let tmp = manifest_path t.dir ^ ".tmp" in
      write_whole tmp (encode_manifest t.w_meta (List.rev t.entries));
      Sys.rename tmp (manifest_path t.dir);
      t.closed <- true
    end
end

(* ---- analysis ---- *)

module Reader = struct
  type t = { dir : string; r_meta : meta; entries : shard_entry array }

  let open_store dir =
    let m, entries = read_manifest dir in
    { dir; r_meta = m; entries = Array.of_list entries }

  let meta t = t.r_meta
  let shard_count t = Array.length t.entries

  let total_traces t =
    Array.fold_left (fun acc e -> acc + e.count) 0 t.entries

  let entry t i = t.entries.(i)

  let load_shard t i =
    if i < 0 || i >= shard_count t then
      invalid_arg
        (Printf.sprintf "Tracestore.Reader.load_shard: shard %d of %d" i (shard_count t));
    let path = shard_path t.dir i in
    let ctx = Printf.sprintf "shard %d (%s)" i path in
    let e = t.entries.(i) in
    let b =
      read_whole ~ctx path ~check:(fun len ->
          if len <> e.bytes then
            fail ~ctx "file is %d bytes but the manifest records %d — truncated or replaced"
              len e.bytes)
    in
    let n, width, records = decode_shard ~expect:e ~ctx b in
    if n <> t.r_meta.n then
      fail ~ctx "ring size %d does not match the store's %d" n t.r_meta.n;
    if width <> t.r_meta.width then
      fail ~ctx "sample width %d does not match the store's %d" width t.r_meta.width;
    records

  let to_seq t =
    Seq.concat (Seq.init (shard_count t) (fun i -> Array.to_seq (load_shard t i)))
end

let verify dir =
  let r = Reader.open_store dir in
  ( Reader.meta r,
    List.init (Reader.shard_count r) (fun i ->
        match Reader.load_shard r i with
        | records -> (i, Ok (Array.length records))
        | exception Failure msg -> (i, Error msg)) )
