(* Sharded trace-store: roundtrips, append-only growth, and the three
   corruption fixtures (truncation, bit-flip, manifest/shard count
   disagreement) — each of which must be reported with the shard index
   and a byte offset.  The reader is strict: it never skips a shard. *)

let width = 24

let mk_record i =
  {
    Tracestore.msg = Printf.sprintf "message %d" i;
    salt = Printf.sprintf "salt-%d" i;
    body = Printf.sprintf "signature body %d" i;
    samples = Array.init width (fun j -> float_of_int ((i * 100) + j) /. 7.);
  }

let model = { Tracestore.alpha = 1.0; noise_sigma = 0.5; baseline = 10.0 }

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_store ?(count = 8) ?(shard_traces = 3) f =
  let dir = Filename.temp_dir "fd_store_test" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16 ~width ~shard_traces ~model
      in
      for i = 0 to count - 1 do
        Tracestore.Writer.append w (mk_record i)
      done;
      Tracestore.Writer.close w;
      f dir)

let contains msg frag =
  let fl = String.length frag and ml = String.length msg in
  let rec scan i = i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1)) in
  scan 0

let check_failure name ~mentions f =
  match f () with
  | _ -> Alcotest.failf "%s: corruption accepted" name
  | exception Failure msg ->
      List.iter
        (fun frag ->
          if not (contains msg frag) then
            Alcotest.failf "%s: %S does not mention %S" name msg frag)
        mentions

let patch_file path pos bytes =
  let fd = open_out_gen [ Open_binary; Open_wronly ] 0 path in
  Fun.protect
    ~finally:(fun () -> close_out fd)
    (fun () ->
      seek_out fd pos;
      output_string fd bytes)

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let test_crc32_vector () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926
    (Tracestore.Crc32.digest_string "123456789")

let test_roundtrip_multi_shard () =
  with_store @@ fun dir ->
  let r = Tracestore.Reader.open_store dir in
  let m = Tracestore.Reader.meta r in
  Alcotest.(check int) "n" 16 m.Tracestore.n;
  Alcotest.(check int) "width" width m.Tracestore.width;
  Alcotest.(check int) "shard target" 3 m.Tracestore.shard_traces;
  Alcotest.(check (float 0.)) "model noise" 0.5 m.Tracestore.model.noise_sigma;
  Alcotest.(check int) "shards" 3 (Tracestore.Reader.shard_count r);
  Alcotest.(check int) "total" 8 (Tracestore.Reader.total_traces r);
  Alcotest.(check int) "tail shard count" 2 (Tracestore.Reader.entry r 2).count;
  let back = Array.of_seq (Tracestore.Reader.to_seq r) in
  Alcotest.(check int) "records streamed" 8 (Array.length back);
  Array.iteri
    (fun i (rec_ : Tracestore.record) ->
      let want = mk_record i in
      Alcotest.(check string) "msg" want.msg rec_.msg;
      Alcotest.(check string) "salt" want.salt rec_.salt;
      Alcotest.(check string) "body" want.body rec_.body;
      Alcotest.(check bool) "samples bit-exact" true (rec_.samples = want.samples))
    back;
  (* each shard loads on its own, with the manifest's count *)
  Alcotest.(check (list int)) "per-shard loads" [ 3; 3; 2 ]
    (List.init (Tracestore.Reader.shard_count r) (fun i ->
         Array.length (Tracestore.Reader.load_shard r i)))

let test_verify_clean () =
  with_store @@ fun dir ->
  let _, results = Tracestore.verify dir in
  Alcotest.(check int) "all shards checked" 3 (List.length results);
  List.iter
    (function
      | _, Ok _ -> ()
      | i, Error e -> Alcotest.failf "clean shard %d reported corrupt: %s" i e)
    results

let test_append_only_growth () =
  with_store @@ fun dir ->
  let before = (Tracestore.Reader.entry (Tracestore.Reader.open_store dir) 2).crc in
  let w = Tracestore.Writer.open_append dir in
  Alcotest.(check int) "resumes at 8" 8 (Tracestore.Writer.total_traces w);
  for i = 8 to 11 do
    Tracestore.Writer.append w (mk_record i)
  done;
  Tracestore.Writer.close w;
  let r = Tracestore.Reader.open_store dir in
  Alcotest.(check int) "total" 12 (Tracestore.Reader.total_traces r);
  (* the short tail shard was not rewritten: same checksum, and the new
     traces landed in fresh shards after it *)
  Alcotest.(check int) "tail untouched" before (Tracestore.Reader.entry r 2).crc;
  Alcotest.(check int) "new shards appended" 5 (Tracestore.Reader.shard_count r);
  let back = Array.of_seq (Tracestore.Reader.to_seq r) in
  Alcotest.(check string) "order preserved" "message 11" back.(11).Tracestore.msg

let test_create_refuses_existing () =
  with_store @@ fun dir ->
  check_failure "create over existing store" ~mentions:[ "already a trace store" ]
    (fun () -> Tracestore.Writer.create ~dir ~n:16 ~width ~shard_traces:3 ~model)

let test_truncated_shard () =
  with_store @@ fun dir ->
  let path = Filename.concat dir (Tracestore.shard_name 1) in
  let size = file_size path in
  let whole =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic size)
  in
  let oc = open_out_bin path in
  output_string oc (String.sub whole 0 (size - 10));
  close_out oc;
  let r = Tracestore.Reader.open_store dir in
  check_failure "truncated shard" ~mentions:[ "shard 1"; "truncated or replaced" ]
    (fun () -> Tracestore.Reader.load_shard r 1);
  (* other shards stay readable *)
  Alcotest.(check int) "shard 0 intact" 3
    (Array.length (Tracestore.Reader.load_shard r 0))

let test_bitflip_crc_mismatch () =
  with_store @@ fun dir ->
  let path = Filename.concat dir (Tracestore.shard_name 0) in
  patch_file path 40 "\xff";
  let r = Tracestore.Reader.open_store dir in
  check_failure "bit-flipped payload" ~mentions:[ "shard 0"; "CRC mismatch"; "20" ]
    (fun () -> Tracestore.Reader.load_shard r 0);
  (* the reader is strict: iterating the store reaches the corrupt shard
     and raises the same diagnostic — skipping is the caller's decision
     (Attack.Dema.Stream's on_corrupt), never the reader's *)
  let records = Tracestore.Reader.to_seq r in
  check_failure "to_seq over a bit-flipped shard"
    ~mentions:[ "shard 0"; "CRC mismatch" ]
    (fun () -> Seq.iter ignore records);
  Alcotest.(check int) "shard 1 intact" 3
    (Array.length (Tracestore.Reader.load_shard r 1))

let test_count_disagreement () =
  with_store @@ fun dir ->
  (* rewrite the header trace count (byte 16, outside the payload CRC)
     from 3 to 2: a structurally valid shard that contradicts the
     manifest *)
  let path = Filename.concat dir (Tracestore.shard_name 0) in
  patch_file path 16 "\x00\x00\x00\x02";
  let r = Tracestore.Reader.open_store dir in
  check_failure "count disagreement"
    ~mentions:
      [ "shard 0"; "header declares 2 traces at offset 16"; "manifest records 3" ]
    (fun () -> Tracestore.Reader.load_shard r 0)

let test_deep_validation_behind_crc () =
  (* corrupt a record length field and then forge a matching CRC: the
     checksum no longer objects, so the record parser itself must refuse
     the wild length by validation, naming field and offset *)
  with_store @@ fun dir ->
  let path = Filename.concat dir (Tracestore.shard_name 0) in
  patch_file path 20 "\x7f";
  let size = file_size path in
  let b =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let b = Bytes.create size in
        really_input ic b 0 size;
        b)
  in
  let crc = Tracestore.Crc32.digest b ~pos:20 ~len:(size - 24) in
  let tail = Bytes.create 4 in
  Bytes.set_int32_be tail 0 (Int32.of_int crc);
  patch_file path (size - 4) (Bytes.to_string tail);
  (* read the shard standalone: with no manifest cross-check, the forged
     CRC passes and the record parser is the last line of defence *)
  check_failure "wild length behind forged CRC"
    ~mentions:[ "message length"; "offset 20"; "out of range" ]
    (fun () -> Tracestore.Shard.read_file path)

let test_manifest_corruption () =
  with_store @@ fun dir ->
  let path = Filename.concat dir Tracestore.manifest_name in
  patch_file path 30 "\xff";
  check_failure "corrupt manifest" ~mentions:[ "manifest"; "CRC" ] (fun () ->
      Tracestore.Reader.open_store dir)

let test_writer_rejects_width_mismatch () =
  let dir = Filename.temp_dir "fd_store_test" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w = Tracestore.Writer.create ~dir ~n:16 ~width ~shard_traces:4 ~model in
      (match
         Tracestore.Writer.append w
           { (mk_record 0) with samples = Array.make (width - 1) 0. }
       with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "short trace accepted");
      Tracestore.Writer.close w)

let test_grown_shard_refused_before_reading () =
  (* a shard grown by 8 MB is refused on its length alone: the file is
     never read into a heap buffer *)
  with_store @@ fun dir ->
  let path = Filename.concat dir (Tracestore.shard_name 1) in
  let size = file_size path in
  Out_channel.with_open_gen [ Open_binary; Open_append ] 0 path (fun oc ->
      output_string oc (String.make (8 lsl 20) '\000'));
  let r = Tracestore.Reader.open_store dir in
  let before = Gc.allocated_bytes () in
  check_failure "grown shard"
    ~mentions:[ "shard 1"; Printf.sprintf "manifest records %d" size ]
    (fun () -> Tracestore.Reader.load_shard r 1);
  let grew = Gc.allocated_bytes () -. before in
  if grew > float_of_int (256 lsl 10) then
    Alcotest.failf "refusing the grown shard allocated %.0f bytes" grew

(* ---- mutation: the shard decoder refuses damaged bytes loudly ----

   One two-trace shard (~500 bytes) in a one-shard store.  Every prefix
   of it and every single-byte xor must make [load_shard] raise
   [Failure] naming the shard — never [Invalid_argument], [End_of_file],
   [Out_of_memory] or any other exception, and never a silent load. *)
let with_one_shard f =
  with_store ~count:2 ~shard_traces:2 @@ fun dir ->
  let path = Filename.concat dir (Tracestore.shard_name 0) in
  let orig = In_channel.with_open_bin path In_channel.input_all in
  let r = Tracestore.Reader.open_store dir in
  f ~orig ~load:(fun bytes ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      match Tracestore.Reader.load_shard r 0 with
      | _ -> Error "accepted"
      | exception Failure msg when contains msg "shard 0 (" -> Ok ()
      | exception Failure msg -> Error (Printf.sprintf "Failure %S does not name the shard" msg)
      | exception e -> Error ("raised " ^ Printexc.to_string e))

let test_every_truncation_refused () =
  with_one_shard @@ fun ~orig ~load ->
  for len = 0 to String.length orig - 1 do
    match load (String.sub orig 0 len) with
    | Ok () -> ()
    | Error why -> Alcotest.failf "shard cut to %d bytes: %s" len why
  done

let test_single_byte_xor_refused () =
  with_one_shard @@ fun ~orig ~load ->
  QCheck.Test.check_exn ~rand:(Random.State.make [| 17 |])
    (QCheck.Test.make ~count:400 ~name:"single-byte xor refused naming the shard"
       QCheck.(pair (int_bound (String.length orig - 1)) (int_range 1 255))
       (fun (off, x) ->
         let b = Bytes.of_string orig in
         Bytes.set b off (Char.chr (Char.code orig.[off] lxor x));
         match load (Bytes.to_string b) with
         | Ok () -> true
         | Error why -> QCheck.Test.fail_reportf "byte %d xor 0x%02x: %s" off x why))

let test_single_shard_file_roundtrip () =
  let path = Filename.temp_file "fd_shard" ".fdt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let records = Array.init 5 mk_record in
      let entry = Tracestore.Shard.write_file path ~n:16 ~width records in
      Alcotest.(check int) "entry count" 5 entry.Tracestore.count;
      Alcotest.(check int) "entry bytes" (file_size path) entry.Tracestore.bytes;
      let n, w, back = Tracestore.Shard.read_file path in
      Alcotest.(check int) "n" 16 n;
      Alcotest.(check int) "width" width w;
      Alcotest.(check bool) "records" true (back = records))

(* The bytewise table CRC the library's digest must equal: one table
   lookup per byte. *)
let crc32_table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_bytewise b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc32_table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let seeded_bytes ~seed len =
  let rng = Stats.Rng.create ~seed in
  Bytes.init len (fun _ -> Char.chr (Stats.Rng.bits rng 8))

let test_crc32_offsets_and_lengths () =
  let b = seeded_bytes ~seed:32 88 in
  let bad = ref [] in
  for pos = 0 to 7 do
    for len = 0 to 80 do
      if Tracestore.Crc32.digest b ~pos ~len <> crc32_bytewise b ~pos ~len then
        bad := Printf.sprintf "pos %d len %d" pos len :: !bad
    done
  done;
  Alcotest.(check (list string)) "every (pos, len) = bytewise" [] (List.rev !bad);
  let big = seeded_bytes ~seed:1 (1 lsl 20) in
  let len = Bytes.length big in
  Alcotest.(check int) "1 MiB = bytewise" (crc32_bytewise big ~pos:0 ~len)
    (Tracestore.Crc32.digest big ~pos:0 ~len);
  Alcotest.(check int) "1 MiB golden" 610436849 (Tracestore.Crc32.digest big ~pos:0 ~len)

let test_crc32_bounds () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Tracestore.Crc32.digest: pos/len outside the buffer")
        (fun () -> ignore (Tracestore.Crc32.digest b ~pos ~len)))
    [ (-1, 4); (0, -1); (13, 4); (0, 17); (max_int, 1) ];
  Alcotest.(check int) "empty tail digest" 0 (Tracestore.Crc32.digest b ~pos:16 ~len:0)

let suite =
  [
    Alcotest.test_case "crc32 test vector" `Quick test_crc32_vector;
    Alcotest.test_case "multi-shard roundtrip" `Quick test_roundtrip_multi_shard;
    Alcotest.test_case "verify clean store" `Quick test_verify_clean;
    Alcotest.test_case "append-only growth" `Quick test_append_only_growth;
    Alcotest.test_case "create refuses existing store" `Quick
      test_create_refuses_existing;
    Alcotest.test_case "truncated shard reported" `Quick test_truncated_shard;
    Alcotest.test_case "bit-flip fails CRC with offsets" `Quick
      test_bitflip_crc_mismatch;
    Alcotest.test_case "manifest/shard count disagreement" `Quick
      test_count_disagreement;
    Alcotest.test_case "validation behind a forged CRC" `Quick
      test_deep_validation_behind_crc;
    Alcotest.test_case "manifest corruption is fatal" `Quick test_manifest_corruption;
    Alcotest.test_case "writer rejects width mismatch" `Quick
      test_writer_rejects_width_mismatch;
    Alcotest.test_case "single shard file roundtrip" `Quick
      test_single_shard_file_roundtrip;
    Alcotest.test_case "grown shard refused before reading" `Quick
      test_grown_shard_refused_before_reading;
    Alcotest.test_case "every truncation refused" `Quick test_every_truncation_refused;
    Alcotest.test_case "single-byte xor refused" `Quick test_single_byte_xor_refused;
    Alcotest.test_case "crc32 offsets and lengths" `Quick test_crc32_offsets_and_lengths;
    Alcotest.test_case "crc32 refuses out-of-bounds ranges" `Quick test_crc32_bounds;
  ]
