let rng = Stats.Rng.create ~seed:577

let random_poly n = Array.init n (fun _ -> Stats.Rng.int_below rng Zq.q)

let negacyclic_mul_modq p q_ =
  let n = Array.length p in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      if k < n then out.(k) <- Zq.add out.(k) (Zq.mul p.(i) q_.(j))
      else out.(k - n) <- Zq.sub out.(k - n) (Zq.mul p.(i) q_.(j))
    done
  done;
  out

let test_scalar () =
  Alcotest.(check int) "q prime-ish" 12289 Zq.q;
  Alcotest.(check int) "add wrap" 0 (Zq.add 12288 1);
  Alcotest.(check int) "sub wrap" 12288 (Zq.sub 0 1);
  Alcotest.(check int) "reduce neg" 12288 (Zq.reduce (-1));
  Alcotest.(check int) "mul" (Zq.reduce (123 * 456)) (Zq.mul 123 456);
  Alcotest.(check int) "pow" (Zq.reduce (7 * 7 * 7)) (Zq.pow 7 3);
  Alcotest.(check int) "center high" (-1) (Zq.center (Zq.q - 1));
  Alcotest.(check int) "center low" 5 (Zq.center 5)

let test_inv () =
  for _ = 1 to 200 do
    let a = 1 + Stats.Rng.int_below rng (Zq.q - 1) in
    Alcotest.(check int) "a * a^-1 = 1" 1 (Zq.mul a (Zq.inv a))
  done;
  Alcotest.check_raises "inv 0" (Invalid_argument "Zq.inv: zero") (fun () ->
      ignore (Zq.inv 0))

let test_ntt_roundtrip () =
  List.iter
    (fun n ->
      let p = random_poly n in
      Alcotest.(check bool)
        (Printf.sprintf "intt(ntt) n=%d" n)
        true
        (Zq.intt (Zq.ntt p) = p))
    [ 2; 4; 16; 64; 512; 1024 ]

let test_mul_poly_vs_schoolbook () =
  List.iter
    (fun n ->
      let p = random_poly n and q_ = random_poly n in
      Alcotest.(check bool)
        (Printf.sprintf "mul n=%d" n)
        true
        (Zq.mul_poly p q_ = negacyclic_mul_modq p q_))
    [ 2; 8; 32; 128 ]

let test_negacyclic_wraparound () =
  (* x^(n-1) * x = -1 in the ring. *)
  let n = 16 in
  let p = Array.make n 0 and q_ = Array.make n 0 in
  p.(n - 1) <- 1;
  q_.(1) <- 1;
  let r = Zq.mul_poly p q_ in
  Alcotest.(check int) "constant = -1" (Zq.q - 1) r.(0);
  for i = 1 to n - 1 do
    Alcotest.(check int) "rest zero" 0 r.(i)
  done

let test_inv_poly () =
  let n = 32 in
  let rec find () =
    let p = random_poly n in
    match Zq.inv_poly p with Some pi -> (p, pi) | None -> find ()
  in
  let p, pi = find () in
  let prod = Zq.mul_poly p pi in
  Alcotest.(check int) "p * p^-1 constant 1" 1 prod.(0);
  for i = 1 to n - 1 do
    Alcotest.(check int) "p * p^-1 rest 0" 0 prod.(i)
  done;
  (* a polynomial with a zero NTT coefficient is not invertible *)
  let z = Array.make n 0 in
  Alcotest.(check bool) "zero not invertible" true (Zq.inv_poly z = None)

let test_norm_sq_centered () =
  Alcotest.(check int) "norm" (1 + 4 + 9) (Zq.norm_sq_centered [| 1; Zq.q - 2; 3 |]);
  Alcotest.(check int) "zero" 0 (Zq.norm_sq_centered [| 0; 0 |])

let prop_ntt_linear =
  QCheck.Test.make ~count:100 ~name:"ntt linear"
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Stats.Rng.create ~seed in
      let n = 32 in
      let p = Array.init n (fun _ -> Stats.Rng.int_below rng Zq.q) in
      let s = Array.init n (fun _ -> Stats.Rng.int_below rng Zq.q) in
      let lhs = Zq.ntt (Zq.add_poly p s) in
      let rhs = Array.map2 Zq.add (Zq.ntt p) (Zq.ntt s) in
      lhs = rhs)

let prop_mul_commutative =
  QCheck.Test.make ~count:50 ~name:"poly mul commutative"
    QCheck.(int_bound 10000)
    (fun seed ->
      let rng = Stats.Rng.create ~seed in
      let n = 64 in
      let p = Array.init n (fun _ -> Stats.Rng.int_below rng Zq.q) in
      let s = Array.init n (fun _ -> Stats.Rng.int_below rng Zq.q) in
      Zq.mul_poly p s = Zq.mul_poly s p)

let suite =
  [
    Alcotest.test_case "scalar ops" `Quick test_scalar;
    Alcotest.test_case "modular inverse" `Quick test_inv;
    Alcotest.test_case "ntt roundtrip" `Quick test_ntt_roundtrip;
    Alcotest.test_case "mul_poly vs schoolbook" `Quick test_mul_poly_vs_schoolbook;
    Alcotest.test_case "negacyclic wraparound" `Quick test_negacyclic_wraparound;
    Alcotest.test_case "inv_poly" `Quick test_inv_poly;
    Alcotest.test_case "norm_sq_centered" `Quick test_norm_sq_centered;
    QCheck_alcotest.to_alcotest prop_ntt_linear;
    QCheck_alcotest.to_alcotest prop_mul_commutative;
  ]
