let test_params_falcon512 () =
  let p = Falcon.Params.falcon_512 in
  Alcotest.(check int) "n" 512 p.n;
  Alcotest.(check int) "logn" 9 p.logn;
  (* Published FALCON-512 constants. *)
  Alcotest.(check bool) "sigma" true (Float.abs (p.sigma -. 165.736617183) < 0.02);
  Alcotest.(check bool) "sigma_min" true (Float.abs (p.sigma_min -. 1.277833697) < 1e-4);
  Alcotest.(check bool) "beta_sq" true (abs (p.beta_sq - 34034726) < 10000);
  Alcotest.(check int) "sig_bytelen" 666 p.sig_bytelen

let test_params_falcon1024 () =
  let p = Falcon.Params.falcon_1024 in
  Alcotest.(check bool) "sigma" true (Float.abs (p.sigma -. 168.388571447) < 0.02);
  Alcotest.(check bool) "sigma_min" true (Float.abs (p.sigma_min -. 1.298280334) < 1e-4)

let test_params_invalid () =
  Alcotest.check_raises "n = 48" (Invalid_argument "Params.make: n must be a power of two in [2, 1024]")
    (fun () -> ignore (Falcon.Params.make 48))

let test_hash_to_point () =
  let c = Falcon.Hash.to_point ~n:64 "some salted message" in
  Alcotest.(check int) "length" 64 (Array.length c);
  Array.iter (fun v -> Alcotest.(check bool) "range" true (v >= 0 && v < Zq.q)) c;
  let c2 = Falcon.Hash.to_point ~n:64 "some salted message" in
  Alcotest.(check bool) "deterministic" true (c = c2);
  let c3 = Falcon.Hash.to_point ~n:64 "another salted message" in
  Alcotest.(check bool) "input-sensitive" true (c <> c3)

let test_hash_to_point_uniformity () =
  (* aggregate across many hashes; coefficient mean should approach q/2 *)
  let acc = Stats.Welford.create () in
  for i = 1 to 50 do
    Array.iter
      (fun v -> Stats.Welford.add acc (float_of_int v))
      (Falcon.Hash.to_point ~n:64 (Printf.sprintf "m%d" i))
  done;
  Alcotest.(check bool) "mean ~ q/2" true
    (Float.abs (Stats.Welford.mean acc -. (float_of_int Zq.q /. 2.)) < 150.)

let test_codec_roundtrip () =
  let rng = Stats.Rng.create ~seed:99 in
  for _ = 1 to 50 do
    let n = 64 in
    let s2 = Array.init n (fun _ -> Stats.Rng.int_below rng 600 - 300) in
    match Falcon.Codec.compress ~slen:120 s2 with
    | None -> Alcotest.fail "compress failed on typical vector"
    | Some body -> begin
        Alcotest.(check int) "fixed length" 120 (String.length body);
        match Falcon.Codec.decompress ~n body with
        | None -> Alcotest.fail "decompress failed"
        | Some s2' -> Alcotest.(check bool) "roundtrip" true (s2 = s2')
      end
  done

let test_codec_overflow () =
  (* too many large coefficients cannot fit *)
  let s2 = Array.make 64 2000 in
  Alcotest.(check bool) "oversized rejected" true
    (Falcon.Codec.compress ~slen:80 s2 = None);
  (* coefficient out of range *)
  Alcotest.(check bool) "huge coefficient rejected" true
    (Falcon.Codec.compress ~slen:1000 [| 5000 |] = None)

let test_codec_malformed () =
  Alcotest.(check bool) "truncated" true (Falcon.Codec.decompress ~n:64 "\x00\x01" = None);
  (* -0 is non-canonical: sign=1 low7=0 unary stop immediately *)
  let minus_zero = "\xc0" (* bits 1 1000000 0... wait: sign=1, 0000000, then 1 *) in
  ignore minus_zero;
  let bits_to_string bits =
    let len = (List.length bits + 7) / 8 in
    let b = Bytes.make len '\000' in
    List.iteri
      (fun i bit ->
        if bit = 1 then
          Bytes.set b (i / 8)
            (Char.chr (Char.code (Bytes.get b (i / 8)) lor (1 lsl (7 - (i mod 8))))))
      bits;
    Bytes.to_string b
  in
  (* one coefficient encoding -0 : sign 1, seven zero bits, unary stop 1 *)
  let enc = bits_to_string [ 1; 0; 0; 0; 0; 0; 0; 0; 1 ] in
  Alcotest.(check bool) "minus zero rejected" true (Falcon.Codec.decompress ~n:1 enc = None);
  (* non-zero padding must be rejected: +1 then a stray 1 bit *)
  let enc2 = bits_to_string [ 0; 0; 0; 0; 0; 0; 0; 1; 1; 0; 0; 0; 0; 0; 1 ] in
  Alcotest.(check bool) "stray padding bit rejected" true
    (Falcon.Codec.decompress ~n:1 enc2 = None)

let kp16 = lazy (Falcon.Scheme.keygen ~n:16 ~seed:"falcon test key 16")
let kp64 = lazy (Falcon.Scheme.keygen ~n:64 ~seed:"falcon test key 64")

let test_tree_leaves_in_range () =
  let sk, _ = Lazy.force kp64 in
  let ls = Falcon.Tree.leaves sk.tree in
  Alcotest.(check int) "leaf count = 2n" (2 * 64) (List.length ls);
  List.iter
    (fun s ->
      Alcotest.(check bool) "leaf in [sigma_min, sigma_max]" true
        (s >= sk.params.sigma_min -. 1e-9 && s <= Sampler.sigma_max +. 1e-9))
    ls;
  Alcotest.(check int) "depth" 7 (Falcon.Tree.depth sk.tree)

let test_sign_verify_roundtrip () =
  let sk, pk = Lazy.force kp64 in
  let rng = Prng.of_seed "signer rng" in
  List.iter
    (fun msg ->
      let sg = Falcon.Scheme.sign ~rng sk msg in
      Alcotest.(check bool) ("verify " ^ msg) true (Falcon.Scheme.verify pk msg sg))
    [ "hello falcon"; ""; "a much longer message that exercises hashing across blocks ..." ]

let test_verify_rejects_tampering () =
  let sk, pk = Lazy.force kp64 in
  let rng = Prng.of_seed "tamper rng" in
  let msg = "pay alice 10" in
  let sg = Falcon.Scheme.sign ~rng sk msg in
  Alcotest.(check bool) "wrong message" false (Falcon.Scheme.verify pk "pay mallory 10" sg);
  let bad_salt = { sg with Falcon.Scheme.salt = String.map (fun c -> Char.chr (Char.code c lxor 1)) sg.salt } in
  Alcotest.(check bool) "tampered salt" false (Falcon.Scheme.verify pk msg bad_salt);
  let body = Bytes.of_string sg.body in
  Bytes.set body 3 (Char.chr (Char.code (Bytes.get body 3) lxor 0x10));
  let bad_body = { sg with Falcon.Scheme.body = Bytes.to_string body } in
  Alcotest.(check bool) "tampered body" false (Falcon.Scheme.verify pk msg bad_body)

let test_verify_rejects_wrong_key () =
  let sk, _ = Lazy.force kp64 in
  let _, pk2 = Falcon.Scheme.keygen ~n:64 ~seed:"a different key" in
  let rng = Prng.of_seed "wrongkey rng" in
  let sg = Falcon.Scheme.sign ~rng sk "msg" in
  Alcotest.(check bool) "other key rejects" false (Falcon.Scheme.verify pk2 "msg" sg)

let test_signature_norm_plausible () =
  let sk, pk = Lazy.force kp64 in
  let rng = Prng.of_seed "norm rng" in
  let sg = Falcon.Scheme.sign ~rng sk "norm check" in
  match Falcon.Scheme.signature_norm_sq pk "norm check" sg with
  | None -> Alcotest.fail "norm unavailable"
  | Some norm ->
      Alcotest.(check bool) "norm below bound" true (norm <= pk.params.beta_sq);
      (* expected around 2n sigma^2 *)
      let expect = 2. *. 64. *. (sk.params.sigma ** 2.) in
      Alcotest.(check bool) "norm in expected ballpark" true
        (float_of_int norm > expect /. 8. && float_of_int norm < expect *. 3.)

let test_salts_differ () =
  let sk, _ = Lazy.force kp16 in
  let rng = Prng.of_seed "salt rng" in
  let a = Falcon.Scheme.sign ~rng sk "m" in
  let b = Falcon.Scheme.sign ~rng sk "m" in
  Alcotest.(check bool) "fresh salts" true (a.salt <> b.salt)

let test_emit_cf_observes_multiply () =
  let sk, _ = Lazy.force kp16 in
  let rng = Prng.of_seed "emit rng" in
  let count = Array.make 16 0 in
  let sg, c_fft =
    Falcon.Scheme.sign_observed
      ~emit_cf:(fun k _ -> count.(k) <- count.(k) + 1)
      ~rng sk "m"
  in
  Array.iter (fun c -> Alcotest.(check int) "events per coefficient" 70 c) count;
  (* the probe changes nothing: same signature as the plain signer, and
     the FFT(c) handed back is the one the salt and message give *)
  let plain = Falcon.Scheme.sign ~rng:(Prng.of_seed "emit rng") sk "m" in
  Alcotest.(check bool) "same signature as sign" true (sg = plain);
  let c = Falcon.Hash.to_point ~n:16 (sg.salt ^ "m") in
  Alcotest.(check bool) "FFT(c) of salt||msg" true (c_fft = Fft.fft_of_int c)

let test_sign_deterministic_given_rng () =
  let sk, _ = Lazy.force kp16 in
  let a = Falcon.Scheme.sign ~rng:(Prng.of_seed "det") sk "m" in
  let b = Falcon.Scheme.sign ~rng:(Prng.of_seed "det") sk "m" in
  Alcotest.(check bool) "same rng, same signature" true (a.salt = b.salt && a.body = b.body)

let test_recovered_key_signs () =
  (* secret_of_keypair over a key recovered from (f, h) must produce
     signatures the original public key accepts — the forgery step. *)
  let sk, pk = Lazy.force kp16 in
  match Ntru.Ntrugen.recover_from_f ~n:16 ~f:sk.kp.f ~h:pk.h with
  | None -> Alcotest.fail "recovery failed"
  | Some kp' ->
      let sk' = Falcon.Scheme.secret_of_keypair kp' in
      let rng = Prng.of_seed "forge rng" in
      let sg = Falcon.Scheme.sign ~rng sk' "forged message" in
      Alcotest.(check bool) "forged signature verifies" true
        (Falcon.Scheme.verify pk "forged message" sg)

let suite =
  [
    Alcotest.test_case "params FALCON-512" `Quick test_params_falcon512;
    Alcotest.test_case "params FALCON-1024" `Quick test_params_falcon1024;
    Alcotest.test_case "params invalid" `Quick test_params_invalid;
    Alcotest.test_case "hash_to_point" `Quick test_hash_to_point;
    Alcotest.test_case "hash_to_point uniformity" `Slow test_hash_to_point_uniformity;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec overflow" `Quick test_codec_overflow;
    Alcotest.test_case "codec malformed" `Quick test_codec_malformed;
    Alcotest.test_case "tree leaves in range" `Quick test_tree_leaves_in_range;
    Alcotest.test_case "sign/verify roundtrip" `Quick test_sign_verify_roundtrip;
    Alcotest.test_case "verify rejects tampering" `Quick test_verify_rejects_tampering;
    Alcotest.test_case "verify rejects wrong key" `Quick test_verify_rejects_wrong_key;
    Alcotest.test_case "signature norm plausible" `Quick test_signature_norm_plausible;
    Alcotest.test_case "fresh salts" `Quick test_salts_differ;
    Alcotest.test_case "emit_cf observes the multiply" `Quick test_emit_cf_observes_multiply;
    Alcotest.test_case "deterministic given rng" `Quick test_sign_deterministic_given_rng;
    Alcotest.test_case "recovered key forges" `Quick test_recovered_key_signs;
  ]
