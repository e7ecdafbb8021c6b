module V = Fft.Vec

let rng = Stats.Rng.create ~seed:31415

let random_int_poly n range =
  Array.init n (fun _ -> Stats.Rng.int_below rng (2 * range) - range)

let random_float_poly n = Array.init n (fun _ -> (Stats.Rng.float01 rng -. 0.5) *. 256.)

(* Schoolbook negacyclic product in Z[x]/(x^n + 1). *)
let negacyclic_mul p q =
  let n = Array.length p in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      if k < n then out.(k) <- out.(k) + (p.(i) * q.(j))
      else out.(k - n) <- out.(k - n) - (p.(i) * q.(j))
    done
  done;
  out

let close ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let check_poly_close name expect got =
  Array.iteri
    (fun i e ->
      if not (close e got.(i)) then
        Alcotest.failf "%s: coeff %d: expected %g got %g" name i e got.(i))
    expect

let sizes = [ 2; 4; 8; 16; 64; 512 ]

let test_roundtrip () =
  List.iter
    (fun n ->
      let p = random_float_poly n in
      check_poly_close (Printf.sprintf "ifft(fft) n=%d" n) p (V.ifft (V.fft p)))
    sizes

let test_constant () =
  let n = 16 in
  let p = Array.make n 0. in
  p.(0) <- 7.;
  let f = V.fft p in
  Array.iter (fun v -> Alcotest.(check bool) "re=7" true (close v 7.)) f.re;
  Array.iter (fun v -> Alcotest.(check bool) "im=0" true (Float.abs v < 1e-9)) f.im

let test_x_matches_tree_points () =
  let n = 32 in
  let p = Array.make n 0. in
  p.(1) <- 1.;
  let f = V.fft p in
  let pts = Fft.tree_points n in
  for u = 0 to (n / 2) - 1 do
    let vre, vim = pts.(u) in
    Alcotest.(check bool) "F[2u] = v" true
      (close (Fpr.to_float vre) f.re.(2 * u) && close (Fpr.to_float vim) f.im.(2 * u));
    Alcotest.(check bool) "F[2u+1] = -v" true
      (close (-.Fpr.to_float vre) f.re.((2 * u) + 1)
      && close (-.Fpr.to_float vim) f.im.((2 * u) + 1))
  done

let test_points_on_unit_circle () =
  List.iter
    (fun n ->
      let pts = Fft.tree_points n in
      Array.iter
        (fun (re, im) ->
          let r = Fpr.to_float re and i = Fpr.to_float im in
          Alcotest.(check bool) "|v| = 1" true (close ((r *. r) +. (i *. i)) 1.);
          (* v^n must equal -1: check via angle *)
          let ang = Float.atan2 i r in
          let vn = Float.cos (ang *. float_of_int n) in
          Alcotest.(check bool) "v^n = -1" true (close vn (-1.)))
        pts)
    [ 4; 16; 128 ]

let test_mul_ring_vs_schoolbook () =
  List.iter
    (fun n ->
      let p = random_int_poly n 100 and q = random_int_poly n 100 in
      let expect = negacyclic_mul p q in
      let got = V.round_to_int (V.ifft (V.mul (V.fft_of_int p) (V.fft_of_int q))) in
      if expect <> got then Alcotest.failf "mul_ring mismatch at n=%d" n)
    [ 2; 4; 8; 32; 128 ]

let test_parseval () =
  let n = 64 in
  let p = random_int_poly n 50 in
  let direct = Array.fold_left (fun acc c -> acc +. float_of_int (c * c)) 0. p in
  let viafft = V.norm_sq (V.fft_of_int p) in
  Alcotest.(check bool) "norm preserved" true (close direct viafft)

let test_split_is_even_odd () =
  let n = 64 in
  let p = random_float_poly n in
  let f0, f1 = V.split (V.fft p) in
  let even = Array.init (n / 2) (fun i -> p.(2 * i)) in
  let odd = Array.init (n / 2) (fun i -> p.((2 * i) + 1)) in
  check_poly_close "f0 = even coeffs" even (V.ifft f0);
  check_poly_close "f1 = odd coeffs" odd (V.ifft f1)

let test_merge_split_roundtrip () =
  List.iter
    (fun n ->
      let p = random_float_poly n in
      let f = V.fft p in
      let f0, f1 = V.split f in
      check_poly_close "merge(split)" (V.ifft f) (V.ifft (V.merge f0 f1)))
    [ 4; 16; 256 ]

let test_adj () =
  (* adjoint: f*(x) = f0 - f1 x^(n-1) - ... reversed negated tail;
     equivalently ifft(adj(fft f)) has coeffs [f0; -f(n-1); ...; -f1]. *)
  let n = 16 in
  let p = random_int_poly n 20 in
  let a = V.round_to_int (V.ifft (V.adj (V.fft_of_int p))) in
  Alcotest.(check int) "constant term" p.(0) a.(0);
  for i = 1 to n - 1 do
    Alcotest.(check int) "reversed negated" (-p.(n - i)) a.(i)
  done

let test_div_inverse () =
  let n = 16 in
  let p = random_int_poly n 30 in
  let p = Array.map (fun c -> if c = 0 then 1 else c) p in
  let f = V.fft_of_int p in
  let q = V.div (V.mul f f) f in
  check_poly_close "(f*f)/f = f" (Array.map float_of_int p) (V.ifft q)

let test_mul_emit_structure () =
  let n = 8 in
  let a = Fft.fft_of_int (random_int_poly n 50) in
  let b = Fft.fft_of_int (random_int_poly n 50) in
  let per_coeff = Array.make n 0 in
  let prod = Fft.mul_emit ~emit:(fun k _ -> per_coeff.(k) <- per_coeff.(k) + 1) a b in
  (* 4 instrumented muls (16 events each) + 2 instrumented adds (3 events) *)
  Array.iteri
    (fun k c -> Alcotest.(check int) (Printf.sprintf "events coeff %d" k) 70 c)
    per_coeff;
  let plain = Fft.of_vec (V.mul (Fft.to_vec a) (Fft.to_vec b)) in
  Alcotest.(check bool) "same values" true (plain.re = prod.re && plain.im = prod.im)

let prop_linear =
  QCheck.Test.make ~count:50 ~name:"fft is linear"
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Stats.Rng.create ~seed in
      let n = 16 in
      let p = Array.init n (fun _ -> Stats.Rng.int_below rng 200 - 100) in
      let q = Array.init n (fun _ -> Stats.Rng.int_below rng 200 - 100) in
      let sum = Array.init n (fun i -> p.(i) + q.(i)) in
      let lhs = V.ifft (V.add (V.fft_of_int p) (V.fft_of_int q)) in
      let rhs = Array.map float_of_int sum in
      Array.for_all2 close lhs rhs)

(* Digests of the transforms and the pointwise products on seeded
   inputs whose imaginary parts are signed zeros and whose coefficients
   include zeros, taken before the FFT moved onto unboxed floats: every
   zero operand must give the bits it gave on the soft core. *)
let bits_digest arrays =
  let b = Buffer.create 4096 in
  List.iter (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))) arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_zero_imaginary_goldens () =
  let r = Stats.Rng.create ~seed:77 in
  let n = 64 in
  let signed_zero () = if Stats.Rng.bits r 1 = 0 then 0. else -0. in
  let value () =
    match Stats.Rng.int_below r 4 with
    | 0 -> signed_zero ()
    | _ -> (Stats.Rng.float01 r -. 0.5) *. 4096.
  in
  let real () =
    { V.re = Array.init n (fun _ -> value ()); im = Array.init n (fun _ -> signed_zero ()) }
  in
  let p = Array.init n (fun _ -> value ()) in
  let a = real () and b = real () in
  b.re.(0) <- 1.;
  let f = V.fft p in
  let f0, f1 = V.split a in
  let m = V.merge a b in
  let nonzero = Array.map (fun x -> if x = 0. then 1. else x) b.re in
  let prod = V.mul a b and quot = V.div a { b with re = nonzero } in
  List.iter
    (fun (name, expect, arrays) -> Alcotest.(check string) name expect (bits_digest arrays))
    [
      ("fft", "99d9af0acf196c5503aa298d297ab951", [ f.re; f.im ]);
      ("ifft", "5afae7c5701eceaaa7ee0b5d6e9204bc", [ V.ifft a ]);
      ("split", "7408bf53706b4670e8690d7b282bfdd9", [ f0.re; f0.im; f1.re; f1.im ]);
      ("merge", "612914dfdbda6b61b89cde01c9a4ee76", [ m.re; m.im ]);
      ("mul", "d3368769b3b48a58557d79c561e2c074", [ prod.re; prod.im ]);
      ("div", "0a38a0ef0e4f5fa5b9921ec031234872", [ quot.re; quot.im ]);
    ]

let suite =
  [
    Alcotest.test_case "ifft . fft = id" `Quick test_roundtrip;
    Alcotest.test_case "constant poly" `Quick test_constant;
    Alcotest.test_case "fft(x) = tree points" `Quick test_x_matches_tree_points;
    Alcotest.test_case "tree points are 2n-th roots" `Quick test_points_on_unit_circle;
    Alcotest.test_case "mul_ring vs schoolbook" `Quick test_mul_ring_vs_schoolbook;
    Alcotest.test_case "Parseval" `Quick test_parseval;
    Alcotest.test_case "split = even/odd" `Quick test_split_is_even_odd;
    Alcotest.test_case "merge . split = id" `Quick test_merge_split_roundtrip;
    Alcotest.test_case "adjoint" `Quick test_adj;
    Alcotest.test_case "div" `Quick test_div_inverse;
    Alcotest.test_case "mul_emit structure" `Quick test_mul_emit_structure;
    QCheck_alcotest.to_alcotest prop_linear;
    Alcotest.test_case "zero-imaginary goldens" `Quick test_zero_imaginary_goldens;
  ]
