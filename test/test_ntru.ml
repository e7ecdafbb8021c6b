let rng = Stats.Rng.create ~seed:1337

let random_small_poly n range =
  Array.init n (fun _ -> Stats.Rng.int_below rng (2 * range) - range)

let bp = Ntru.Bigpoly.of_int_poly

let test_bigpoly_mul () =
  (* (1 + x) * (1 - x) = 1 - x^2 in Z[x]/(x^4+1) *)
  let a = bp [| 1; 1; 0; 0 |] and b = bp [| 1; -1; 0; 0 |] in
  let p = Ntru.Bigpoly.mul a b in
  Alcotest.(check bool) "product" true (Ntru.Bigpoly.equal p (bp [| 1; 0; -1; 0 |]));
  (* wraparound: x^3 * x = -1 *)
  let x3 = bp [| 0; 0; 0; 1 |] and x = bp [| 0; 1; 0; 0 |] in
  Alcotest.(check bool) "negacyclic" true
    (Ntru.Bigpoly.equal (Ntru.Bigpoly.mul x3 x) (bp [| -1; 0; 0; 0 |]))

let test_galois_conjugate () =
  let a = bp [| 1; 2; 3; 4 |] in
  Alcotest.(check bool) "a(-x)" true
    (Ntru.Bigpoly.equal (Ntru.Bigpoly.galois_conjugate a) (bp [| 1; -2; 3; -4 |]))

let test_field_norm_definition () =
  (* lift (N(f)) must equal f(x) * f(-x) *)
  List.iter
    (fun n ->
      let f = bp (random_small_poly n 20) in
      let lhs = Ntru.Bigpoly.lift (Ntru.Bigpoly.field_norm f) in
      let rhs = Ntru.Bigpoly.mul f (Ntru.Bigpoly.galois_conjugate f) in
      Alcotest.(check bool) (Printf.sprintf "N def n=%d" n) true
        (Ntru.Bigpoly.equal lhs rhs))
    [ 2; 4; 8; 16 ]

let test_field_norm_multiplicative () =
  let n = 8 in
  let f = bp (random_small_poly n 10) and g = bp (random_small_poly n 10) in
  let lhs = Ntru.Bigpoly.field_norm (Ntru.Bigpoly.mul f g) in
  let rhs = Ntru.Bigpoly.mul (Ntru.Bigpoly.field_norm f) (Ntru.Bigpoly.field_norm g) in
  Alcotest.(check bool) "N(fg) = N(f)N(g)" true (Ntru.Bigpoly.equal lhs rhs)

let test_gauss_sample_moments () =
  let prng = Prng.of_seed "gauss moments" in
  let sigma = 4.05 in
  let w = Stats.Welford.create () in
  for _ = 1 to 20000 do
    Stats.Welford.add w (float_of_int (Ntru.Ntrugen.gauss_sample prng ~sigma))
  done;
  Alcotest.(check bool) "mean ~ 0" true (Float.abs (Stats.Welford.mean w) < 0.15);
  Alcotest.(check bool) "sigma ~ 4.05" true
    (Float.abs (Stats.Welford.stddev w -. sigma) < 0.15)

let test_solve_small_sizes () =
  List.iter
    (fun n ->
      (* keep sampling until the solver accepts; verify the NTRU equation *)
      let prng = Prng.of_seed (Printf.sprintf "solve %d" n) in
      let sigma = Ntru.Ntrugen.sigma_fg n in
      let rec go k =
        if k = 0 then Alcotest.failf "no solvable (f,g) found at n=%d" n
        else begin
          let f = Array.init n (fun _ -> Ntru.Ntrugen.gauss_sample prng ~sigma) in
          let g = Array.init n (fun _ -> Ntru.Ntrugen.gauss_sample prng ~sigma) in
          match Ntru.Ntrugen.solve f g with
          | None -> go (k - 1)
          | Some (big_f, big_g) ->
              Alcotest.(check bool)
                (Printf.sprintf "fG - gF = q at n=%d" n)
                true
                (Ntru.Ntrugen.verify_ntru f g big_f big_g)
        end
      in
      go 30)
    [ 2; 4; 8; 16; 32 ]

let test_solve_reduced_coefficients () =
  (* Babai reduction should keep F, G in the same ballpark as f, g. *)
  let n = 32 in
  let prng = Prng.of_seed "reduced" in
  let sigma = Ntru.Ntrugen.sigma_fg n in
  let rec go k =
    if k = 0 then Alcotest.fail "no solvable pair"
    else begin
      let f = Array.init n (fun _ -> Ntru.Ntrugen.gauss_sample prng ~sigma) in
      let g = Array.init n (fun _ -> Ntru.Ntrugen.gauss_sample prng ~sigma) in
      match Ntru.Ntrugen.solve f g with
      | None -> go (k - 1)
      | Some (big_f, big_g) ->
          let mx p = Array.fold_left (fun a c -> max a (abs c)) 0 p in
          Alcotest.(check bool) "F bounded" true (mx big_f < 5000);
          Alcotest.(check bool) "G bounded" true (mx big_g < 5000)
    end
  in
  go 30

let test_keygen_end_to_end () =
  let kp = Ntru.Ntrugen.keygen ~n:16 ~seed:"keygen test" in
  Alcotest.(check int) "n" 16 kp.n;
  Alcotest.(check bool) "NTRU equation" true
    (Ntru.Ntrugen.verify_ntru kp.f kp.g kp.big_f kp.big_g);
  (* h f = g mod q *)
  let hf = Zq.mul_poly kp.h (Zq.of_centered kp.f) in
  Alcotest.(check bool) "h f = g (mod q)" true (hf = Zq.of_centered kp.g);
  Alcotest.(check bool) "gs norm ok" true (Ntru.Ntrugen.gs_norm_ok kp.f kp.g)

let test_keygen_deterministic () =
  let a = Ntru.Ntrugen.keygen ~n:8 ~seed:"det" in
  let b = Ntru.Ntrugen.keygen ~n:8 ~seed:"det" in
  Alcotest.(check bool) "same keys" true (a.f = b.f && a.g = b.g && a.h = b.h);
  let c = Ntru.Ntrugen.keygen ~n:8 ~seed:"det2" in
  Alcotest.(check bool) "different seed differs" true (a.f <> c.f || a.g <> c.g)

let test_recover_from_f () =
  let kp = Ntru.Ntrugen.keygen ~n:16 ~seed:"recover" in
  match Ntru.Ntrugen.recover_from_f ~n:16 ~f:kp.f ~h:kp.h with
  | None -> Alcotest.fail "recovery failed"
  | Some rec_kp ->
      Alcotest.(check bool) "g recovered" true (rec_kp.g = kp.g);
      Alcotest.(check bool) "F recovered" true (rec_kp.big_f = kp.big_f);
      Alcotest.(check bool) "NTRU equation holds" true
        (Ntru.Ntrugen.verify_ntru rec_kp.f rec_kp.g rec_kp.big_f rec_kp.big_g)

let test_recover_wrong_f_fails () =
  let kp = Ntru.Ntrugen.keygen ~n:16 ~seed:"wrong f" in
  let f_bad = Array.copy kp.f in
  f_bad.(0) <- f_bad.(0) + 1;
  (* with a wrong f, the derived g is no longer small, so recovery must
     reject (or at the very least not reproduce the true g) *)
  match Ntru.Ntrugen.recover_from_f ~n:16 ~f:f_bad ~h:kp.h with
  | None -> ()
  | Some rec_kp ->
      Alcotest.(check bool) "not the real key" true (rec_kp.g <> kp.g)

let test_sigma_fg_values () =
  Alcotest.(check bool) "n=512" true (Float.abs (Ntru.Ntrugen.sigma_fg 512 -. 4.05) < 0.01);
  Alcotest.(check bool) "monotone" true
    (Ntru.Ntrugen.sigma_fg 64 > Ntru.Ntrugen.sigma_fg 512)

(* Digests taken before key generation and the NTRU solve moved onto
   Fft.Vec: the same seed must give the same key bits. *)
let key_digest kp = Digest.to_hex (Digest.string (Falcon.Keycodec.encode_secret kp))

let test_keygen_goldens () =
  List.iter
    (fun (n, seed, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "n=%d seed=%S" n seed)
        expect
        (key_digest (Ntru.Ntrugen.keygen ~n ~seed)))
    [
      (16, "keygen pin 1", "2bb6cdb67d0e980ab721108d6e89bcb7");
      (16, "keygen pin 2", "7edf1d390d56e9a8e5538fed612ff0c7");
      (64, "keygen pin 1", "f5b3a564367524fa86d808060b050169");
      (64, "keygen pin 2", "543958282d09c2b9e353eca132808034");
      (512, "keygen pin 1", "c4637995f2660493c0877fa0861604bf");
      (512, "keygen pin 2", "278d0d04652175bb6950acacf344d9e1");
    ]

let test_recover_golden_512 () =
  let kp = Ntru.Ntrugen.keygen ~n:512 ~seed:"keygen pin 1" in
  match Ntru.Ntrugen.recover_from_f ~n:512 ~f:kp.f ~h:kp.h with
  | None -> Alcotest.fail "recovery failed"
  | Some r ->
      let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
      Alcotest.(check string) "(F, G) digest" "ab241deca7dddafaa6af3b297f097c0a"
        (Digest.to_hex (Digest.string (ints r.big_f ^ ";" ^ ints r.big_g)))

(* At n = 512, seed "s" rejects more than 50 draws before its key. *)
let test_keygen_retries_until_found () =
  let kp = Ntru.Ntrugen.keygen ~n:512 ~seed:"s" in
  Alcotest.(check bool) "NTRU equation" true
    (Ntru.Ntrugen.verify_ntru kp.f kp.g kp.big_f kp.big_g)

let suite =
  [
    Alcotest.test_case "bigpoly mul" `Quick test_bigpoly_mul;
    Alcotest.test_case "galois conjugate" `Quick test_galois_conjugate;
    Alcotest.test_case "field norm definition" `Quick test_field_norm_definition;
    Alcotest.test_case "field norm multiplicative" `Quick test_field_norm_multiplicative;
    Alcotest.test_case "gauss sample moments" `Slow test_gauss_sample_moments;
    Alcotest.test_case "NTRUSolve small sizes" `Quick test_solve_small_sizes;
    Alcotest.test_case "NTRUSolve reduces F,G" `Quick test_solve_reduced_coefficients;
    Alcotest.test_case "keygen end-to-end (n=16)" `Quick test_keygen_end_to_end;
    Alcotest.test_case "keygen deterministic" `Quick test_keygen_deterministic;
    Alcotest.test_case "recover key from f" `Quick test_recover_from_f;
    Alcotest.test_case "recovery rejects wrong f" `Quick test_recover_wrong_f_fails;
    Alcotest.test_case "sigma_fg" `Quick test_sigma_fg_values;
    Alcotest.test_case "keygen goldens, n = 16, 64, 512" `Quick test_keygen_goldens;
    Alcotest.test_case "recover_from_f (F, G) golden, n = 512" `Quick test_recover_golden_512;
    Alcotest.test_case "keygen draws until a key is found (n=512, seed s)" `Quick
      test_keygen_retries_until_found;
  ]
