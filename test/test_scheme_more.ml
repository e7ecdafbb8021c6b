(* Scheme-level coverage at larger parameters and distributional checks
   on the Fourier sampler. *)

let test_sign_verify_n128 () =
  let sk, pk = Falcon.Scheme.keygen ~n:128 ~seed:"n128 key" in
  let rng = Prng.of_seed "n128 rng" in
  let sg = Falcon.Scheme.sign ~rng sk "message at n=128" in
  Alcotest.(check bool) "verifies" true (Falcon.Scheme.verify pk "message at n=128" sg);
  Alcotest.(check bool) "wrong msg fails" false (Falcon.Scheme.verify pk "other" sg)

let test_sign_verify_falcon512 () =
  (* the paper's parameter set, end to end *)
  let sk, pk = Falcon.Scheme.keygen ~n:512 ~seed:"falcon-512 full" in
  let rng = Prng.of_seed "512 rng" in
  let sg = Falcon.Scheme.sign ~rng sk "FALCON-512 message" in
  Alcotest.(check int) "salt is 320 bits" 40 (String.length sg.salt);
  Alcotest.(check int) "body length" (666 - 40 - 1) (String.length sg.body);
  Alcotest.(check bool) "verifies" true (Falcon.Scheme.verify pk "FALCON-512 message" sg);
  match Falcon.Scheme.signature_norm_sq pk "FALCON-512 message" sg with
  | None -> Alcotest.fail "no norm"
  | Some norm -> Alcotest.(check bool) "norm below 34034726-ish" true (norm <= pk.params.beta_sq)

let test_ffsampling_integrality () =
  (* z returned by the Fourier sampler must be the FFT of an integer
     vector: inverse transform within 1e-6 of integers *)
  let sk, _ = Falcon.Scheme.keygen ~n:32 ~seed:"integrality" in
  let rng = Prng.of_seed "integrality rng" in
  let t0 = Fft.Vec.fft_of_int (Array.init 32 (fun i -> (i mod 7) - 3)) in
  let t1 = Fft.Vec.fft_of_int (Array.init 32 (fun i -> (i mod 5) - 2)) in
  let z0, z1 = Falcon.Tree.sample rng ~sigma_min:sk.params.sigma_min sk.tree (t0, t1) in
  List.iter
    (fun z ->
      Array.iter
        (fun v ->
          if Float.abs (v -. Float.round v) > 1e-6 then
            Alcotest.failf "non-integer coefficient %.9f" v)
        (Fft.Vec.ifft z))
    [ z0; z1 ]

let test_ffsampling_centered () =
  (* sampling around the centre (t0, t1): mean of z - t stays near 0 and
     per-coordinate deviation is of the order sigma/gs-norm ~ O(1) *)
  let sk, _ = Falcon.Scheme.keygen ~n:16 ~seed:"centered" in
  let rng = Prng.of_seed "centered rng" in
  let t0 = Fft.Vec.fft_of_int (Array.make 16 3) in
  let t1 = Fft.Vec.fft_of_int (Array.make 16 (-2)) in
  let acc = Stats.Welford.create () in
  for _ = 1 to 50 do
    let z0, z1 = Falcon.Tree.sample rng ~sigma_min:sk.params.sigma_min sk.tree (t0, t1) in
    let d0 = Fft.Vec.ifft (Fft.Vec.sub z0 t0) and d1 = Fft.Vec.ifft (Fft.Vec.sub z1 t1) in
    Array.iter (Stats.Welford.add acc) d0;
    Array.iter (Stats.Welford.add acc) d1
  done;
  Alcotest.(check bool) "mean deviation near zero" true
    (Float.abs (Stats.Welford.mean acc) < 0.5);
  Alcotest.(check bool) "bounded spread" true (Stats.Welford.stddev acc < 10.)

let test_signature_norms_concentrate () =
  let sk, pk = Falcon.Scheme.keygen ~n:64 ~seed:"norm stats" in
  let rng = Prng.of_seed "norm stats rng" in
  let acc = Stats.Welford.create () in
  for i = 1 to 15 do
    let msg = Printf.sprintf "msg %d" i in
    let sg = Falcon.Scheme.sign ~rng sk msg in
    match Falcon.Scheme.signature_norm_sq pk msg sg with
    | Some norm -> Stats.Welford.add acc (float_of_int norm)
    | None -> Alcotest.fail "norm unavailable"
  done;
  (* expected ~ 2 n sigma^2 *)
  let expect = 2. *. 64. *. (sk.params.sigma ** 2.) in
  Alcotest.(check bool) "mean norm in [expect/4, expect]" true
    (Stats.Welford.mean acc > expect /. 4. && Stats.Welford.mean acc < expect)

let test_params_sweep () =
  let prev_beta = ref 0 in
  List.iter
    (fun n ->
      let p = Falcon.Params.make n in
      Alcotest.(check int) "salt" 40 p.salt_len;
      Alcotest.(check bool) "sigma_min in sampler range" true
        (p.sigma_min > 1.0 && p.sigma_min < Sampler.sigma_max);
      Alcotest.(check bool) "beta_sq grows with n" true (p.beta_sq > !prev_beta);
      Alcotest.(check bool) "sig_bytelen covers salt + header" true
        (p.sig_bytelen > p.salt_len + 1);
      prev_beta := p.beta_sq)
    [ 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]

let test_keygen_rejects_bad_n () =
  Alcotest.check_raises "n = 3"
    (Invalid_argument "Params.make: n must be a power of two in [2, 1024]") (fun () ->
      ignore (Falcon.Scheme.keygen ~n:3 ~seed:"x"))

let test_public_of_secret () =
  let sk, pk = Falcon.Scheme.keygen ~n:16 ~seed:"pub of sec" in
  let pk' = Falcon.Scheme.public_of_secret sk in
  Alcotest.(check bool) "same h" true (pk'.h = pk.h)

(* Digest of two signatures (salt and body) and of the FFT(c) each
   multiplied, on a seeded key.  The goldens were taken before signing
   moved onto unboxed floats, so they pin keygen's basis and tree, the
   hash-to-point, the FFT, ffSampling and compression bit for bit. *)
let signature_digest n =
  let sk, _ = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "signature golden %d" n) in
  let rng = Prng.of_seed (Printf.sprintf "signature golden rng %d" n) in
  let b = Buffer.create 4096 in
  List.iter
    (fun msg ->
      let sg, c_fft =
        Falcon.Scheme.sign_observed ~emit_cf:(fun _ _ -> ()) ~rng sk msg
      in
      Buffer.add_string b sg.salt;
      Buffer.add_string b sg.body;
      Array.iter (Buffer.add_int64_le b) c_fft.Fft.re;
      Array.iter (Buffer.add_int64_le b) c_fft.Fft.im)
    [ "first message"; "second message" ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_signature_goldens () =
  List.iter
    (fun (n, expect) ->
      Alcotest.(check string) (Printf.sprintf "n = %d" n) expect (signature_digest n))
    [ (16, "66ac4f62278dee47aaf0011ff5718b2e"); (64, "3400faffbe5ba6ab45512fccff7de7b9"); (512, "3b9f99167af01cc56cfb3a2785db3d61"); (1024, "428f649077660fd16a77951db53d9e1d") ]

let suite =
  [
    Alcotest.test_case "sign/verify n=128" `Quick test_sign_verify_n128;
    Alcotest.test_case "sign/verify FALCON-512" `Slow test_sign_verify_falcon512;
    Alcotest.test_case "ffSampling integrality" `Quick test_ffsampling_integrality;
    Alcotest.test_case "ffSampling centered" `Slow test_ffsampling_centered;
    Alcotest.test_case "signature norms concentrate" `Slow test_signature_norms_concentrate;
    Alcotest.test_case "params sweep" `Quick test_params_sweep;
    Alcotest.test_case "keygen rejects bad n" `Quick test_keygen_rejects_bad_n;
    Alcotest.test_case "public_of_secret" `Quick test_public_of_secret;
    Alcotest.test_case "signature goldens, n = 16..1024" `Quick test_signature_goldens;
  ]
