(* Additional FFT-domain algebra properties. *)

module V = Fft.Vec

let rng = Stats.Rng.create ~seed:27182

let random_int_poly n range =
  Array.init n (fun _ -> Stats.Rng.int_below rng (2 * range) - range)

let close ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let polys_close a b = Array.for_all2 close a b

(* Negacyclic product through the FFT, rounded back. *)
let mul_ring p q = V.round_to_int (V.ifft (V.mul (V.fft_of_int p) (V.fft_of_int q)))

let prop_mul_commutative =
  QCheck.Test.make ~count:50 ~name:"FFT pointwise mul commutative"
    QCheck.(int_bound 100000)
    (fun seed ->
      let r = Stats.Rng.create ~seed in
      let n = 16 in
      let p = V.fft_of_int (Array.init n (fun _ -> Stats.Rng.int_below r 100 - 50)) in
      let q = V.fft_of_int (Array.init n (fun _ -> Stats.Rng.int_below r 100 - 50)) in
      polys_close (V.ifft (V.mul p q)) (V.ifft (V.mul q p)))

let prop_mul_associative =
  QCheck.Test.make ~count:30 ~name:"ring mul associative via FFT"
    QCheck.(int_bound 100000)
    (fun seed ->
      let r = Stats.Rng.create ~seed in
      let n = 8 in
      let mk () = Array.init n (fun _ -> Stats.Rng.int_below r 20 - 10) in
      let a = mk () and b = mk () and c = mk () in
      mul_ring (mul_ring a b) c = mul_ring a (mul_ring b c))

let prop_adj_involutive =
  QCheck.Test.make ~count:50 ~name:"adj involutive"
    QCheck.(int_bound 100000)
    (fun seed ->
      let r = Stats.Rng.create ~seed in
      let p = V.fft_of_int (Array.init 16 (fun _ -> Stats.Rng.int_below r 200 - 100)) in
      let back = V.adj (V.adj p) in
      p.V.re = back.V.re && p.V.im = back.V.im)

let test_mul_by_adj_is_real_nonneg () =
  (* f * adj(f) evaluates to |f|^2 >= 0 everywhere *)
  let p = V.fft_of_int (random_int_poly 32 50) in
  let sq = V.mul p (V.adj p) in
  Array.iteri
    (fun k re ->
      Alcotest.(check bool) "imaginary part vanishes" true
        (Float.abs sq.V.im.(k) < 1e-6 *. (1. +. Float.abs re));
      Alcotest.(check bool) "real part non-negative" true (re >= 0.))
    sq.V.re

let test_mulconst () =
  let p = random_int_poly 16 30 in
  let tripled = V.ifft (V.mulconst (V.fft_of_int p) 3.) in
  Alcotest.(check bool) "3 * p" true
    (polys_close tripled (Array.map (fun c -> float_of_int (3 * c)) p))

let test_neg_sub () =
  let p = V.fft_of_int (random_int_poly 16 30) in
  let q = V.fft_of_int (random_int_poly 16 30) in
  let a = V.ifft (V.sub p q) in
  let b = V.ifft (V.add p (V.neg q)) in
  Alcotest.(check bool) "p - q = p + (-q)" true (polys_close a b)

let test_zero_copy_length () =
  let z = Fft.zero 8 in
  Alcotest.(check int) "length" 8 (Fft.length z);
  Array.iter (fun v -> Alcotest.(check bool) "zero" true (Fpr.is_zero v)) z.Fft.re

let test_split_halves_norm () =
  (* Parseval consistency through split: ||f||^2 = ||f0||^2 + ||f1||^2 *)
  let p = random_int_poly 32 40 in
  let f = V.fft_of_int p in
  let f0, f1 = V.split f in
  let n2 = V.norm_sq in
  Alcotest.(check bool) "norm splits" true
    (close (n2 f) (n2 f0 +. n2 f1))

let test_convolution_theorem_delta () =
  (* multiplying by x^k rotates (negacyclically) *)
  let n = 16 in
  let p = random_int_poly n 20 in
  let xk = Array.make n 0 in
  xk.(3) <- 1;
  let rotated = mul_ring p xk in
  for i = 0 to n - 1 do
    let expect = if i >= 3 then p.(i - 3) else -p.(n - 3 + i) in
    Alcotest.(check int) (Printf.sprintf "coeff %d" i) expect rotated.(i)
  done

let suite =
  [
    QCheck_alcotest.to_alcotest prop_mul_commutative;
    QCheck_alcotest.to_alcotest prop_mul_associative;
    QCheck_alcotest.to_alcotest prop_adj_involutive;
    Alcotest.test_case "f * adj f is real non-negative" `Quick test_mul_by_adj_is_real_nonneg;
    Alcotest.test_case "mulconst" `Quick test_mulconst;
    Alcotest.test_case "neg/sub consistency" `Quick test_neg_sub;
    Alcotest.test_case "zero/copy" `Quick test_zero_copy_length;
    Alcotest.test_case "Parseval through split" `Quick test_split_halves_norm;
    Alcotest.test_case "multiplication by x^k rotates" `Quick test_convolution_theorem_delta;
  ]
