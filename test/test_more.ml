(* Cross-cutting additional coverage: Zq algebra, bignum properties,
   codec fuzzing, NTRU invariants at more sizes, dema engine behaviour. *)

let rng = Stats.Rng.create ~seed:16180

(* ---- Zq ---- *)

let prop_fermat =
  QCheck.Test.make ~count:200 ~name:"a^(q-1) = 1 mod q"
    QCheck.(int_range 1 (Zq.q - 1))
    (fun a -> Zq.pow a (Zq.q - 1) = 1)

let prop_center_reduce =
  QCheck.Test.make ~count:200 ~name:"reduce(center x) = reduce x"
    QCheck.(int_range (-100000) 100000)
    (fun x -> Zq.reduce (Zq.center x) = Zq.reduce x && abs (Zq.center x) <= Zq.q / 2)

let test_ntt_delta () =
  (* NTT of the delta function is the all-ones vector *)
  let n = 32 in
  let d = Array.make n 0 in
  d.(0) <- 1;
  Alcotest.(check bool) "ntt(delta) = ones" true (Zq.ntt d = Array.make n 1)

let test_mul_poly_identity () =
  let n = 16 in
  let p = Array.init n (fun _ -> Stats.Rng.int_below rng Zq.q) in
  let one = Array.make n 0 in
  one.(0) <- 1;
  Alcotest.(check bool) "p * 1 = p" true (Zq.mul_poly p one = p)

(* ---- Bignum ---- *)

let prop_shift_is_divmod_pow2 =
  QCheck.Test.make ~count:200 ~name:"shift_right = floor div by 2^k"
    QCheck.(pair (int_range (-1000000000) 1000000000) (int_range 0 20))
    (fun (v, k) ->
      let b = Bignum.of_int v in
      Bignum.to_int (Bignum.shift_right b k) = (v asr k))

let prop_gcd_divides =
  QCheck.Test.make ~count:100 ~name:"gcd divides both"
    QCheck.(pair (int_range 1 1000000) (int_range 1 1000000))
    (fun (a, b) ->
      let g = Bignum.to_int (Bignum.gcd (Bignum.of_int a) (Bignum.of_int b)) in
      g > 0 && a mod g = 0 && b mod g = 0)

let prop_mul_distributes =
  QCheck.Test.make ~count:100 ~name:"a(b + c) = ab + ac (bignum)"
    QCheck.(triple (int_range (-1000000) 1000000) (int_range (-1000000) 1000000)
              (int_range (-1000000) 1000000))
    (fun (a, b, c) ->
      let ba = Bignum.of_int a and bb = Bignum.of_int b and bc = Bignum.of_int c in
      Bignum.equal
        (Bignum.mul ba (Bignum.add bb bc))
        (Bignum.add (Bignum.mul ba bb) (Bignum.mul ba bc)))

let test_bignum_big_square () =
  (* (10^30)^2 = 10^60 *)
  let a = Bignum.of_string ("1" ^ String.make 30 '0') in
  Alcotest.(check string) "square" ("1" ^ String.make 60 '0')
    (Bignum.to_string (Bignum.mul a a))

(* ---- codec fuzz ---- *)

let prop_codec_roundtrip =
  QCheck.Test.make ~count:100 ~name:"compress/decompress roundtrip (random s2)"
    QCheck.(int_bound 100000)
    (fun seed ->
      let r = Stats.Rng.create ~seed in
      let n = 32 in
      let s2 =
        Array.init n (fun _ ->
            let v = Stats.Rng.int_below r 800 in
            if Stats.Rng.bits r 1 = 1 then -v else v)
      in
      match Falcon.Codec.compress ~slen:80 s2 with
      | None -> true (* legitimately too large *)
      | Some body -> Falcon.Codec.decompress ~n body = Some s2)

let prop_decompress_garbage_total =
  QCheck.Test.make ~count:100 ~name:"decompress never crashes on noise"
    QCheck.(int_bound 100000)
    (fun seed ->
      let r = Stats.Rng.create ~seed in
      let len = 1 + Stats.Rng.int_below r 64 in
      let s = String.init len (fun _ -> Char.chr (Stats.Rng.bits r 8)) in
      match Falcon.Codec.decompress ~n:16 s with
      | Some v -> Array.length v = 16
      | None -> true)

(* ---- NTRU at more sizes ---- *)

let test_keygen_sizes () =
  List.iter
    (fun n ->
      let kp = Ntru.Ntrugen.keygen ~n ~seed:(Printf.sprintf "sz %d" n) in
      Alcotest.(check bool)
        (Printf.sprintf "NTRU equation n=%d" n)
        true
        (Ntru.Ntrugen.verify_ntru kp.f kp.g kp.big_f kp.big_g);
      let hf = Zq.mul_poly kp.h (Zq.of_centered kp.f) in
      Alcotest.(check bool) "h f = g" true (hf = Zq.of_centered kp.g))
    [ 4; 32; 64 ]

let test_lift_norm_identity () =
  (* N(lift a) = a^2: lift(a)(x) = a(x^2), so a(x^2) * a(x^2 with -x) = a(y)^2 *)
  let a = Ntru.Bigpoly.of_int_poly (Array.init 8 (fun i -> (i * 13 mod 21) - 10)) in
  let lhs = Ntru.Bigpoly.field_norm (Ntru.Bigpoly.lift a) in
  let rhs = Ntru.Bigpoly.mul a a in
  Alcotest.(check bool) "N(lift a) = a^2" true (Ntru.Bigpoly.equal lhs rhs)

let test_galois_involutive () =
  let a = Ntru.Bigpoly.of_int_poly (Array.init 16 (fun i -> i - 8)) in
  Alcotest.(check bool) "conjugate twice" true
    (Ntru.Bigpoly.equal (Ntru.Bigpoly.galois_conjugate (Ntru.Bigpoly.galois_conjugate a)) a)

(* ---- dema engine ---- *)

let test_rank_finds_planted_signal () =
  (* Synthetic planted-correlation problem with a *multiplicative* model:
     the winner set must be exactly the secret's shift-alias class, all
     with tied scores — the very phenomenon the paper's prune fixes. *)
  let d = 400 in
  let known =
    Array.init d (fun _ ->
        Fpr.make ~sign:0 ~exp:1023 ~mant:((Stats.Rng.bits rng 26 lsl 26) lor Stats.Rng.bits rng 26))
  in
  let secret = 0x2A in
  let model g y = g * (Fpr.mantissa y land 0xFF) in
  let traces =
    Array.map
      (fun y ->
        [|
          float_of_int (Bitops.popcount (model secret y))
          +. Stats.Rng.gaussian rng ~mu:0. ~sigma:1.;
        |])
      known
  in
  let ranked =
    Attack.Dema.rank ~traces
      ~parts:[ (0, Attack.Hypothesis.Model.fn model) ]
      ~known ~top:4
      (Seq.init 256 (fun i -> i))
  in
  let alias_class = secret :: Attack.Hypothesis.shift_aliases ~width:8 secret in
  List.iter
    (fun (s : Attack.Dema.scored) ->
      Alcotest.(check bool) "winner is in the planted alias class" true
        (List.mem s.guess alias_class);
      Alcotest.(check bool) "scores tie" true
        (Float.abs (s.corr -. (List.hd ranked).corr) < 1e-9))
    ranked

let test_rank_absolute_sees_constant_offset () =
  (* two hypotheses whose HW differ by a constant: correlation ties,
     absolute distinguisher separates *)
  let d = 600 in
  let known =
    Array.init d (fun _ ->
        Fpr.make ~sign:0 ~exp:1020 ~mant:((Stats.Rng.bits rng 26 lsl 26) lor Stats.Rng.bits rng 26))
  in
  (* model: guess 0 -> HW(y); guess 1 -> HW(y) + 4 via extra bits *)
  let model g y =
    let base = Fpr.mantissa y land 0xFFFF in
    if g = 0 then base else base lor 0xF0000
  in
  let traces =
    Array.map
      (fun y ->
        [|
          float_of_int (Bitops.popcount (model 0 y))
          +. Stats.Rng.gaussian rng ~mu:0. ~sigma:0.5;
        |])
      known
  in
  let corr_rank =
    Attack.Dema.rank ~traces
      ~parts:[ (0, Attack.Hypothesis.Model.fn model) ]
      ~known ~top:2
      (List.to_seq [ 0; 1 ])
  in
  (match corr_rank with
  | [ a; b ] ->
      Alcotest.(check bool) "correlation cannot separate" true
        (Float.abs (a.Attack.Dema.corr -. b.Attack.Dema.corr) < 1e-9)
  | _ -> Alcotest.fail "rank size");
  let abs_rank =
    Attack.Dema.rank_absolute ~traces
      ~parts:[ (0, Attack.Hypothesis.Model.fn model) ]
      ~known ~top:2 ~alpha:1.0 ~baseline:0.0
      (List.to_seq [ 0; 1 ])
  in
  Alcotest.(check int) "absolute distinguisher picks truth" 0
    (List.hd abs_rank).Attack.Dema.guess

let test_hyp_vector () =
  let known = [| Fpr.of_int 3; Fpr.of_int 7 |] in
  let v =
    Attack.Dema.hyp_vector
      ~model:(Attack.Hypothesis.Model.fn (fun g y -> g * Fpr.biased_exponent y))
      ~known 2
  in
  Alcotest.(check int) "length" 2 (Array.length v);
  Array.iter (fun x -> Alcotest.(check bool) "HW-valued" true (x >= 0. && x < 64.)) v

(* ---- signif / workload ---- *)

let test_workload_known_inputs_vary () =
  let k = Attack.Workload.known_inputs ~n:16 ~coeff:2 ~component:`Im ~count:20 ~seed:"w" in
  Alcotest.(check int) "count" 20 (Array.length k);
  let distinct = List.sort_uniq compare (Array.to_list k) in
  Alcotest.(check bool) "inputs vary" true (List.length distinct > 15)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fermat;
    QCheck_alcotest.to_alcotest prop_center_reduce;
    Alcotest.test_case "ntt of delta" `Quick test_ntt_delta;
    Alcotest.test_case "poly mul identity" `Quick test_mul_poly_identity;
    QCheck_alcotest.to_alcotest prop_shift_is_divmod_pow2;
    QCheck_alcotest.to_alcotest prop_gcd_divides;
    QCheck_alcotest.to_alcotest prop_mul_distributes;
    Alcotest.test_case "bignum big square" `Quick test_bignum_big_square;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_decompress_garbage_total;
    Alcotest.test_case "keygen at several sizes" `Slow test_keygen_sizes;
    Alcotest.test_case "N(lift a) = a^2" `Quick test_lift_norm_identity;
    Alcotest.test_case "galois conjugate involutive" `Quick test_galois_involutive;
    Alcotest.test_case "dema finds planted signal" `Quick test_rank_finds_planted_signal;
    Alcotest.test_case "absolute distinguisher vs constant offset" `Quick
      test_rank_absolute_sees_constant_offset;
    Alcotest.test_case "hyp_vector" `Quick test_hyp_vector;
    Alcotest.test_case "workload inputs vary" `Quick test_workload_known_inputs_vary;
  ]
