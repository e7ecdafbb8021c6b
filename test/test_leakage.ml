let sk16 = lazy (fst (Falcon.Scheme.keygen ~n:16 ~seed:"leakage test key"))

let test_layout_constants () =
  Alcotest.(check int) "events per mul" 16 Leakage.events_per_mul;
  Alcotest.(check int) "events per add" 3 Leakage.events_per_add;
  Alcotest.(check int) "events per coeff" 70 Leakage.events_per_coeff;
  Alcotest.(check int) "w00 offset" 4 (Leakage.mul_event_offset Fpr.Mant_w00);
  Alcotest.(check int) "z1a offset" 6 (Leakage.mul_event_offset Fpr.Mant_z1a);
  Alcotest.(check int) "sign offset" 13 (Leakage.mul_event_offset Fpr.Sign_xor);
  Alcotest.(check int) "sample_of"
    ((3 * 70) + (2 * 16) + 4)
    (Leakage.sample_of ~coeff:3 ~mul:2 Fpr.Mant_w00);
  Alcotest.check_raises "addition label rejected"
    (Invalid_argument "Leakage.mul_event_offset: not a multiplication event") (fun () ->
      ignore (Leakage.mul_event_offset Fpr.Add_sum))

let test_mul_trace_clean_is_hw () =
  let rng = Stats.Rng.create ~seed:1 in
  let known = Fpr.of_float 9828.6796875 and secret = Fpr.of_float (-67.33887) in
  let tr = Leakage.mul_trace Leakage.clean_model rng ~known ~secret in
  Alcotest.(check int) "length" 16 (Array.length tr);
  (* cross-check a few samples against directly computed intermediates *)
  let events = ref [] in
  ignore (Fpr.mul_emit ~emit:(fun e -> events := e :: !events) known secret);
  let events = Array.of_list (List.rev !events) in
  Array.iteri
    (fun i (e : Fpr.event) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "sample %d = HW" i)
        (float_of_int (Bitops.popcount e.value))
        tr.(i))
    events

let test_mul_trace_noise_statistics () =
  let rng = Stats.Rng.create ~seed:2 in
  let model = { Leakage.alpha = 1.0; noise_sigma = 2.0; baseline = 10.0 } in
  let known = Fpr.of_float 3.25 and secret = Fpr.of_float 1.5 in
  let w = Stats.Welford.create () in
  let clean =
    Leakage.mul_trace Leakage.clean_model (Stats.Rng.create ~seed:3) ~known ~secret
  in
  for _ = 1 to 2000 do
    let tr = Leakage.mul_trace model rng ~known ~secret in
    Stats.Welford.add w (tr.(0) -. 10. -. clean.(0))
  done;
  Alcotest.(check bool) "noise mean ~ 0" true (Float.abs (Stats.Welford.mean w) < 0.2);
  Alcotest.(check bool) "noise sigma ~ 2" true
    (Float.abs (Stats.Welford.stddev w -. 2.) < 0.15)

let test_capture_shape () =
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture Leakage.default_model ~seed:9 sk ~count:3 in
  Alcotest.(check int) "count" 3 (Array.length traces);
  Array.iter
    (fun (t : Leakage.trace) ->
      Alcotest.(check int) "trace length" (16 * 70) (Array.length t.samples);
      Alcotest.(check int) "c_fft size" 16 (Fft.length t.c_fft))
    traces;
  Alcotest.(check bool) "messages differ" true (traces.(0).msg <> traces.(1).msg)

let test_capture_signatures_valid () =
  let sk = Lazy.force sk16 in
  let pk = Falcon.Scheme.public_of_secret sk in
  let traces = Leakage.capture Leakage.default_model ~seed:10 sk ~count:3 in
  Array.iter
    (fun (t : Leakage.trace) ->
      Alcotest.(check bool) "victim signature verifies" true
        (Falcon.Scheme.verify pk t.msg t.signature))
    traces

let test_capture_c_fft_matches_salt () =
  (* the attacker can recompute the known input from public data *)
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture Leakage.default_model ~seed:11 sk ~count:2 in
  Array.iter
    (fun (t : Leakage.trace) ->
      let c = Falcon.Hash.to_point ~n:16 (t.signature.Falcon.Scheme.salt ^ t.msg) in
      let cf = Fft.fft_of_int c in
      Alcotest.(check bool) "c_fft recomputable" true
        (cf.Fft.re = t.c_fft.Fft.re && cf.Fft.im = t.c_fft.Fft.im))
    traces

let test_capture_determinism () =
  let sk = Lazy.force sk16 in
  let a = Leakage.capture Leakage.default_model ~seed:12 sk ~count:2 in
  let b = Leakage.capture Leakage.default_model ~seed:12 sk ~count:2 in
  Alcotest.(check bool) "same seed, same traces" true
    (a.(0).samples = b.(0).samples && a.(1).samples = b.(1).samples)

let test_capture_window_consistency () =
  (* a captured window must equal the clean re-computation of the same
     multiply up to noise *)
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture Leakage.default_model ~seed:13 sk ~count:5 in
  Array.iter
    (fun (t : Leakage.trace) ->
      for k = 0 to 3 do
        let secret = sk.f_fft.Fft.re.(k) and known = t.c_fft.Fft.re.(k) in
        let clean =
          Leakage.mul_trace Leakage.clean_model (Stats.Rng.create ~seed:0) ~known ~secret
        in
        let lo = k * 70 in
        for i = 0 to 15 do
          let diff = t.samples.(lo + i) -. 10. -. clean.(i) in
          if Float.abs diff > 12. then
            Alcotest.failf "window mismatch coeff %d sample %d: %.1f" k i diff
        done
      done)
    traces

(* Digest of everything a capture hands back: sample bits, FFT(c) bits,
   salt and signature body.  The goldens were taken from the all-soft
   arithmetic, before add/sub/mul/div moved onto the FPU where it is
   exact, so they pin the whole acquisition stream (signer, noise RNG,
   emitters, FFT(c)) bit for bit. *)
let capture_digest (traces : Leakage.trace array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (t : Leakage.trace) ->
      Array.iter (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f)) t.samples;
      Array.iter (Buffer.add_int64_le b) t.c_fft.Fft.re;
      Array.iter (Buffer.add_int64_le b) t.c_fft.Fft.im;
      Buffer.add_string b t.signature.Falcon.Scheme.salt;
      Buffer.add_string b t.signature.Falcon.Scheme.body)
    traces;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_capture_goldens () =
  let sk = Lazy.force sk16 in
  let model = Leakage.default_model in
  Alcotest.(check string) "FALCON-16, default emitter"
    "8b5e2835ca55854ffaabf7b40623c11d"
    (capture_digest (Leakage.capture model ~seed:9 sk ~count:3));
  let emitter =
    { Leakage.hd_emitter with jitter = { max_shift = 2; drift = 0.01 } }
  in
  Alcotest.(check string) "FALCON-16, bus HD + jitter"
    "3a62485309af15f558f7cce12b211240"
    (capture_digest (Leakage.capture ~emitter model ~seed:9 sk ~count:3));
  let sk64 = fst (Falcon.Scheme.keygen ~n:64 ~seed:"leakage golden 64") in
  Alcotest.(check string) "FALCON-64, one trace"
    "3cbb72aaf1cada466fd55a37116dbf2e"
    (capture_digest (Leakage.capture model ~seed:4 sk64 ~count:1))

(* The register-transfer emitters the goldens above leave out: pipeline
   mixing over the bus, and Hamming distance over the split datapath
   (whose per-register state differs from the bus). *)
let test_capture_goldens_register_transfer () =
  let sk = Lazy.force sk16 in
  let model = Leakage.default_model in
  Alcotest.(check string) "FALCON-16, pipelined bus"
    "ebf9f1c48b8eff5ae80d8b4bce8871c7"
    (capture_digest
       (Leakage.capture ~emitter:Leakage.pipelined_emitter model ~seed:9 sk ~count:3));
  let emitter =
    { Leakage.kind = Hd Leakage.Register_file.datapath; jitter = Leakage.no_jitter }
  in
  Alcotest.(check string) "FALCON-16, datapath HD"
    "0e0149e9a08d81a9e2156e706e5c0b93"
    (capture_digest (Leakage.capture ~emitter model ~seed:9 sk ~count:3))

let suite =
  [
    Alcotest.test_case "layout constants" `Quick test_layout_constants;
    Alcotest.test_case "clean mul trace = HW sequence" `Quick test_mul_trace_clean_is_hw;
    Alcotest.test_case "noise statistics" `Slow test_mul_trace_noise_statistics;
    Alcotest.test_case "capture shape" `Quick test_capture_shape;
    Alcotest.test_case "captured signatures verify" `Quick test_capture_signatures_valid;
    Alcotest.test_case "c_fft recomputable from public data" `Quick test_capture_c_fft_matches_salt;
    Alcotest.test_case "capture deterministic" `Quick test_capture_determinism;
    Alcotest.test_case "capture window consistency" `Quick test_capture_window_consistency;
    Alcotest.test_case "capture goldens" `Quick test_capture_goldens;
    Alcotest.test_case "capture goldens, register transfer" `Quick
      test_capture_goldens_register_transfer;
  ]

(* A captured trace set is kept on disk as a trace-store shard
   (Leakage.to_record, Tracestore.Shard.write_file); these cases check
   that reading one back refuses what is not such a file. *)

let check_read_failure name path ~mentions =
  match Tracestore.Shard.read_file path with
  | _ -> Alcotest.failf "%s: malformed file accepted" name
  | exception Failure msg ->
      List.iter
        (fun frag ->
          if
            not
              (let fl = String.length frag and ml = String.length msg in
               let rec scan i =
                 i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1))
               in
               scan 0)
          then Alcotest.failf "%s: %S does not mention %S" name msg frag)
        mentions

let with_fixture f =
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture Leakage.default_model ~seed:34 sk ~count:2 in
  let path = Filename.temp_file "fd_fixture" ".fdt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore
        (Tracestore.Shard.write_file path ~n:16 ~width:(16 * Leakage.events_per_coeff)
           (Array.map Leakage.to_record traces));
      f path)

let test_load_rejects_garbage () =
  with_fixture @@ fun path ->
  Out_channel.with_open_bin path (fun oc -> output_string oc "NOT A TRACE FILE, NOT AT ALL");
  check_read_failure "garbage" path ~mentions:[ path; "bad magic" ]

let test_load_bitflipped_count_rejected () =
  (* flip the top bit of the header trace-count field (byte 16, after
     8 bytes of magic + ring size + sample width): the declared count
     becomes wild, and the read must refuse it by validation — not by
     attempting the allocation *)
  with_fixture @@ fun path ->
  let fd = open_out_gen [ Open_binary; Open_wronly ] 0 path in
  seek_out fd 16;
  output_char fd '\x7f';
  close_out fd;
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  check_read_failure "bit-flipped count" path
    ~mentions:[ "trace count"; "out of range"; "offset 16" ];
  let grew = Gc.allocated_bytes () -. before in
  if grew > 65536. then Alcotest.failf "refusal allocated %.0f bytes" grew

let test_load_refuses_fdtrace1 () =
  (* the retired pre-store "FDTRACE1" layout (OCaml binary ints, no
     CRC) is not a shard file: it is refused by its magic, naming the
     file, rather than parsed by guesswork *)
  with_fixture @@ fun path ->
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "FDTRACE1";
      output_binary_int oc 16;
      output_binary_int oc 1;
      List.iter
        (fun s ->
          output_binary_int oc (String.length s);
          output_string oc s)
        [ "message"; "salt"; "body" ];
      output_binary_int oc (16 * Leakage.events_per_coeff);
      output_string oc (String.make (8 * 16 * Leakage.events_per_coeff) '\000'));
  check_read_failure "FDTRACE1 file" path ~mentions:[ path; "bad magic"; "FDTRACE1" ]

let suite =
  suite
  @ [
      Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
      Alcotest.test_case "bit-flipped count field rejected" `Quick
        test_load_bitflipped_count_rejected;
      Alcotest.test_case "FDTRACE1 file refused" `Quick test_load_refuses_fdtrace1;
    ]
