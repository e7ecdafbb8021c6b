(* The soft core is property-tested bit-for-bit against the host FPU:
   OCaml's native [float] is IEEE-754 binary64, which is exactly what
   FALCON's FPEMU implements for its working range.  The public
   add/sub/mul/div compute on the FPU themselves where they can, so the
   FPU cases below test [Fpr.Soft], and a separate property pins the
   public operations to [Fpr.Soft] on every input. *)

let rng = Stats.Rng.create ~seed:2021

(* Random finite normal double with biased exponent in [1023-r, 1023+r]. *)
let random_double ?(erange = 300) () =
  let sign = Stats.Rng.bits rng 1 in
  let exp = 1023 - erange + Stats.Rng.int_below rng (2 * erange) in
  let mant_hi = Stats.Rng.bits rng 26 and mant_lo = Stats.Rng.bits rng 26 in
  let mant = (mant_hi lsl 26) lor mant_lo in
  Fpr.make ~sign ~exp ~mant

let check_bits name expect got x y =
  if expect <> got then
    Alcotest.failf "%s: inputs %Lx %Lx: expected %Lx got %Lx (%.17g vs %.17g)" name x
      y expect got (Int64.float_of_bits expect) (Int64.float_of_bits got)

let binop_agrees name ~fpr_op ~float_op ~count ~erange =
  for _ = 1 to count do
    let x = random_double ~erange () and y = random_double ~erange () in
    let expect = Int64.bits_of_float (float_op (Fpr.to_float x) (Fpr.to_float y)) in
    let got = fpr_op x y in
    check_bits name expect got x y
  done

let test_mul_matches_fpu () =
  binop_agrees "mul" ~fpr_op:Fpr.Soft.mul ~float_op:( *. ) ~count:20000 ~erange:300

let test_add_matches_fpu () =
  binop_agrees "add" ~fpr_op:Fpr.Soft.add ~float_op:( +. ) ~count:20000 ~erange:300

let test_sub_matches_fpu () =
  binop_agrees "sub" ~fpr_op:Fpr.Soft.sub ~float_op:( -. ) ~count:20000 ~erange:300

let test_div_matches_fpu () =
  binop_agrees "div" ~fpr_op:Fpr.Soft.div ~float_op:( /. ) ~count:5000 ~erange:300

let test_add_close_exponents () =
  (* Cancellation-heavy regime: operands with nearby exponents. *)
  for _ = 1 to 20000 do
    let x = random_double ~erange:2 () and y = random_double ~erange:2 () in
    let expect = Int64.bits_of_float (Fpr.to_float x +. Fpr.to_float y) in
    check_bits "add-close" expect (Fpr.Soft.add x y) x y
  done

let test_sqrt_matches_fpu () =
  for _ = 1 to 5000 do
    let x = Int64.logand (random_double ~erange:300 ()) Int64.max_int in
    let expect = Int64.bits_of_float (Float.sqrt (Fpr.to_float x)) in
    check_bits "sqrt" expect (Fpr.Soft.sqrt x) x x
  done

(* The fast-path property draws from its own stream, so the cases after
   it draw what they always drew. *)
let fast_rng = Stats.Rng.create ~seed:29

(* Operands for the fast-path property: any bit pattern, random
   exponent fields over the whole range (subnormal and non-finite
   encodings included), the boundary fields 0/1/2/0x7FD/0x7FE, and
   signed zeros. *)
let with_exp exp =
  Fpr.make ~sign:(Stats.Rng.bits fast_rng 1) ~exp ~mant:(Stats.Rng.bits fast_rng 52)

let boundary_exponents = [| 0; 1; 2; 0x7FD; 0x7FE |]

let any_operand () =
  match Stats.Rng.int_below fast_rng 4 with
  | 0 -> Stats.Rng.next64 fast_rng
  | 1 -> with_exp (Stats.Rng.int_below fast_rng 0x800)
  | 2 -> with_exp boundary_exponents.(Stats.Rng.int_below fast_rng 5)
  | _ -> if Stats.Rng.bits fast_rng 1 = 0 then Fpr.zero else Fpr.neg Fpr.zero

(* In-range operands aimed at a result whose exponent field is 0..3:
   at or below 2^-1021, where the soft core flushes what the FPU keeps
   as a subnormal or a tiny normal. *)
let tiny_result_pair op =
  let t = Stats.Rng.int_below fast_rng 4 in
  match op with
  | `Mul ->
      let ex = 2 + Stats.Rng.int_below fast_rng 1020 in
      (with_exp ex, with_exp (t + 1023 - ex))
  | `Div ->
      let ey = 1025 + Stats.Rng.int_below fast_rng (0x7FD - 1025) in
      (with_exp (t + ey - 1023), with_exp ey)
  | `Add | `Sub ->
      (* nearby magnitudes near the bottom of the range, so the sum or
         difference cancels into the flushed region *)
      let x = with_exp (2 + t) in
      let y = Int64.logxor x (Int64.of_int (Stats.Rng.bits fast_rng 20)) in
      let y = if Stats.Rng.bits fast_rng 1 = 0 then y else Fpr.neg y in
      (x, y)

(* Pairs on the guard's zero domain, where the FPU now answers: a
   signed zero against an in-range value, x + (-x) (and x - x), and
   in-range pairs whose product or quotient rounds to a signed zero;
   for a division, also a signed-zero divisor, which must still reach
   the soft core and fail the way it does. *)
let zero_domain_pair op =
  let signed_zero () = if Stats.Rng.bits fast_rng 1 = 0 then Fpr.zero else Fpr.neg Fpr.zero in
  let normal () = with_exp (2 + Stats.Rng.int_below fast_rng 0x7FC) in
  let underflow () =
    match op with
    | `Div ->
        (* x / y below 2^-1075 *)
        let ex = 2 + Stats.Rng.int_below fast_rng 900 in
        (with_exp ex, with_exp (ex + 1078 + Stats.Rng.int_below fast_rng (0x7FD - ex - 1077)))
    | _ ->
        (* x * y below 2^-1075 *)
        let ex = 2 + Stats.Rng.int_below fast_rng 480 in
        (with_exp ex, with_exp (2 + Stats.Rng.int_below fast_rng (967 - ex)))
  in
  match (Stats.Rng.int_below fast_rng 3, op) with
  | 0, _ ->
      let z = signed_zero () and v = normal () in
      if Stats.Rng.bits fast_rng 1 = 0 then (z, v) else (v, z)
  | 1, `Add ->
      let x = normal () in
      (x, Fpr.neg x)
  | 1, `Sub ->
      let x = normal () in
      (x, x)
  | 1, `Div -> ((if Stats.Rng.bits fast_rng 1 = 0 then normal () else signed_zero ()), signed_zero ())
  | _ -> underflow ()

let outcome f x y = try Ok (f x y) with e -> Error (Printexc.to_string e)

(* The float entries the FFT kernel computes with, on the same bits. *)
let on_floats f x y = Fpr.of_float (f (Fpr.to_float x) (Fpr.to_float y))

let test_fast_path_equals_soft () =
  let ops =
    [
      ("add", `Add, Fpr.add, Fpr.fadd, Fpr.Soft.add, ( +. ));
      ("sub", `Sub, Fpr.sub, Fpr.fsub, Fpr.Soft.sub, ( -. ));
      ("mul", `Mul, Fpr.mul, Fpr.fmul, Fpr.Soft.mul, ( *. ));
      ("div", `Div, Fpr.div, Fpr.fdiv, Fpr.Soft.div, ( /. ));
    ]
  in
  let admitted x =
    Fpr.is_zero x || (Fpr.biased_exponent x >= 2 && Fpr.biased_exponent x <= 0x7FD)
  in
  List.iter
    (fun (name, op, boxed, floats, soft, fpu) ->
      (* cases where the FPU keeps a nonzero result that the soft core
         flushes: the guard is what keeps the two equal there *)
      let flushed = ref 0 in
      (* admitted operands with a signed-zero result (the FPU answers),
         and divisions by a signed zero (the soft core answers) *)
      let zero_results = ref 0 and zero_divisors = ref 0 in
      for i = 1 to 45000 do
        let x, y =
          match i mod 3 with
          | 0 -> tiny_result_pair op
          | 1 -> zero_domain_pair op
          | _ -> (any_operand (), any_operand ())
        in
        let expect = outcome soft x y in
        List.iter
          (fun (entry, f) ->
            let got = outcome f x y in
            if got <> expect then
              Alcotest.failf "%s (%s) %Lx %Lx: fast %s, soft %s" name entry x y
                (match got with Ok r -> Printf.sprintf "%Lx" r | Error e -> e)
                (match expect with Ok r -> Printf.sprintf "%Lx" r | Error e -> e))
          [ ("boxed", boxed); ("floats", on_floats floats) ];
        let r = Fpr.of_float (fpu (Fpr.to_float x) (Fpr.to_float y)) in
        if (not (Fpr.is_zero r)) && Fpr.biased_exponent r <= 1 then incr flushed;
        if op = `Div && Fpr.is_zero y then incr zero_divisors
        else if admitted x && admitted y && Fpr.is_zero r then incr zero_results
      done;
      if !flushed < 1000 then
        Alcotest.failf "%s: only %d cases with a result at or below 2^-1021" name
          !flushed;
      if !zero_results < 1000 then
        Alcotest.failf "%s: only %d admitted cases with a signed-zero result" name
          !zero_results;
      if op = `Div && !zero_divisors < 1000 then
        Alcotest.failf "div: only %d divisions by a signed zero" !zero_divisors)
    ops

let test_special_values () =
  Alcotest.(check int64) "1*1" Fpr.one (Fpr.mul Fpr.one Fpr.one);
  Alcotest.(check int64) "1+0" Fpr.one (Fpr.add Fpr.one Fpr.zero);
  Alcotest.(check int64) "0*x" Fpr.zero (Fpr.mul Fpr.zero (Fpr.of_int 7));
  Alcotest.(check int64) "x-x=+0" Fpr.zero (Fpr.sub (Fpr.of_int 42) (Fpr.of_int 42));
  Alcotest.(check int64) "neg" (Fpr.of_int (-3)) (Fpr.neg (Fpr.of_int 3));
  Alcotest.(check int64) "half" (Fpr.of_float 1.5) (Fpr.half (Fpr.of_int 3));
  Alcotest.(check int64) "double" (Fpr.of_int 6) (Fpr.double (Fpr.of_int 3));
  Alcotest.(check int64) "sqrt 0" Fpr.zero (Fpr.sqrt Fpr.zero);
  Alcotest.(check int64) "inv 4" (Fpr.of_float 0.25) (Fpr.inv (Fpr.of_int 4))

let test_of_int_exact () =
  for _ = 1 to 2000 do
    let i = Stats.Rng.bits rng 53 - (1 lsl 52) in
    Alcotest.(check int64) "of_int"
      (Int64.bits_of_float (float_of_int i))
      (Fpr.of_int i)
  done

let test_scaled () =
  Alcotest.(check int64) "3*2^-2" (Fpr.of_float 0.75) (Fpr.scaled 3 (-2));
  Alcotest.(check int64) "-5*2^10" (Fpr.of_float (-5120.)) (Fpr.scaled (-5) 10);
  Alcotest.(check int64) "0" Fpr.zero (Fpr.scaled 0 12)

(* Round-half-to-even oracle built from floor/ceil. *)
let rint_oracle x =
  let fl = Float.of_int (int_of_float (Float.floor x)) in
  let ce = fl +. 1. in
  let dl = x -. fl and dc = ce -. x in
  if dl < dc then int_of_float fl
  else if dc < dl then int_of_float ce
  else begin
    let fli = int_of_float fl in
    if fli land 1 = 0 then fli else fli + 1
  end

let test_rint () =
  for _ = 1 to 20000 do
    let v =
      (Stats.Rng.float01 rng -. 0.5) *. Float.of_int (1 lsl Stats.Rng.int_below rng 20)
    in
    let got = Fpr.rint (Fpr.of_float v) in
    let expect = rint_oracle v in
    if got <> expect then Alcotest.failf "rint %.17g: expected %d got %d" v expect got
  done;
  Alcotest.(check int) "tie 2.5 -> 2" 2 (Fpr.rint (Fpr.of_float 2.5));
  Alcotest.(check int) "tie 3.5 -> 4" 4 (Fpr.rint (Fpr.of_float 3.5));
  Alcotest.(check int) "tie -2.5 -> -2" (-2) (Fpr.rint (Fpr.of_float (-2.5)));
  Alcotest.(check int) "0.49" 0 (Fpr.rint (Fpr.of_float 0.49));
  Alcotest.(check int) "tiny" 0 (Fpr.rint (Fpr.of_float 1e-12))

let test_floor_trunc () =
  for _ = 1 to 20000 do
    let v = (Stats.Rng.float01 rng -. 0.5) *. 4096. in
    let f = Fpr.of_float v in
    let efloor = int_of_float (Float.floor v) in
    let etrunc = int_of_float (Float.trunc v) in
    if Fpr.floor f <> efloor then
      Alcotest.failf "floor %.17g: expected %d got %d" v efloor (Fpr.floor f);
    if Fpr.trunc f <> etrunc then
      Alcotest.failf "trunc %.17g: expected %d got %d" v etrunc (Fpr.trunc f)
  done

let test_comparisons () =
  Alcotest.(check bool) "lt" true (Fpr.lt (Fpr.of_int 2) (Fpr.of_int 3));
  Alcotest.(check bool) "not lt" false (Fpr.lt (Fpr.of_int 3) (Fpr.of_int 3));
  Alcotest.(check bool) "neg lt" true (Fpr.lt (Fpr.of_int (-5)) (Fpr.of_int 1));
  Alcotest.(check bool) "0 = -0" true (Fpr.equal Fpr.zero (Fpr.neg Fpr.zero))

let test_expm_p63 () =
  let x = Fpr.of_float 0.5 and ccs = Fpr.of_float 0.8 in
  let got = Int64.to_float (Fpr.expm_p63 x ccs) in
  let expect = 0.8 *. exp (-0.5) *. 0x1p63 in
  Alcotest.(check bool) "expm_p63 relative error" true
    (Float.abs (got -. expect) /. expect < 1e-9);
  Alcotest.(check bool) "expm_p63 0 close to ccs*2^63" true
    (Int64.to_float (Fpr.expm_p63 Fpr.zero Fpr.one) >= 0x1p62)

let test_field_accessors () =
  (* The coefficient attacked in the paper's Fig. 4. *)
  let c = 0xC06017BC8036B580L in
  Alcotest.(check int) "sign" 1 (Fpr.sign_bit c);
  Alcotest.(check int) "exp" 0x406 (Fpr.biased_exponent c);
  Alcotest.(check int) "mant" 0x017BC8036B580 (Fpr.mantissa c);
  Alcotest.(check int64) "make roundtrips" c
    (Fpr.make ~sign:1 ~exp:0x406 ~mant:0x017BC8036B580)

let test_mul_events () =
  (* The instrumented multiply must produce the reference event sequence
     and the same numerical result as the plain one. *)
  let x = Fpr.of_float (-128.742) and y = Fpr.of_float 3.25 in
  let events = ref [] in
  let r = Fpr.mul_emit ~emit:(fun e -> events := e :: !events) x y in
  Alcotest.(check int64) "same result" (Fpr.mul x y) r;
  let labels = List.rev_map (fun (e : Fpr.event) -> e.label) !events in
  Alcotest.(check int) "event count" 16 (List.length labels);
  Alcotest.(check bool) "order" true
    (labels
    = [
        Fpr.Load_x_lo; Fpr.Load_x_hi; Fpr.Load_y_lo; Fpr.Load_y_hi;
        Fpr.Mant_w00; Fpr.Mant_w10; Fpr.Mant_z1a; Fpr.Mant_w01; Fpr.Mant_z1;
        Fpr.Mant_w11; Fpr.Mant_zhigh; Fpr.Mant_norm; Fpr.Exp_sum; Fpr.Sign_xor;
        Fpr.Result_lo; Fpr.Result_hi;
      ]);
  (* The partial products must be consistent with the significand split. *)
  let find lbl =
    List.find (fun (e : Fpr.event) -> e.label = lbl) (List.rev !events)
  in
  let xu = Fpr.mantissa x lor (1 lsl 52) and yu = Fpr.mantissa y lor (1 lsl 52) in
  let m25 = (1 lsl 25) - 1 in
  Alcotest.(check int) "w00 = B*D" ((xu land m25) * (yu land m25)) (find Fpr.Mant_w00).value;
  Alcotest.(check int) "w10 = A*D" ((xu lsr 25) * (yu land m25)) (find Fpr.Mant_w10).value;
  Alcotest.(check int) "w01 = B*E" ((xu land m25) * (yu lsr 25)) (find Fpr.Mant_w01).value;
  Alcotest.(check int) "w11 = A*E" ((xu lsr 25) * (yu lsr 25)) (find Fpr.Mant_w11).value;
  Alcotest.(check int) "sign xor" 1 (find Fpr.Sign_xor).value

let prop_mul_commutes =
  QCheck.Test.make ~count:1000 ~name:"fpr mul commutes"
    QCheck.(pair (int_bound 1000000) (int_bound 1000000))
    (fun (a, b) ->
      let x = Fpr.of_int (a - 500000) and y = Fpr.of_int (b - 500000) in
      Fpr.mul x y = Fpr.mul y x)

let prop_add_commutes =
  QCheck.Test.make ~count:1000 ~name:"fpr add commutes"
    QCheck.(pair (int_bound 1000000) (int_bound 1000000))
    (fun (a, b) ->
      let x = Fpr.scaled (a - 500000) (-7) and y = Fpr.scaled (b - 500000) (-3) in
      Fpr.add x y = Fpr.add y x)

let prop_half_double =
  QCheck.Test.make ~count:1000 ~name:"half . double = id"
    QCheck.(int_bound 1000000)
    (fun a ->
      let x = Fpr.scaled (a + 1) (-9) in
      Fpr.half (Fpr.double x) = x)

let suite =
  [
    Alcotest.test_case "mul matches FPU (20k samples)" `Quick test_mul_matches_fpu;
    Alcotest.test_case "add matches FPU (20k samples)" `Quick test_add_matches_fpu;
    Alcotest.test_case "sub matches FPU (20k samples)" `Quick test_sub_matches_fpu;
    Alcotest.test_case "add matches FPU, close exponents" `Quick test_add_close_exponents;
    Alcotest.test_case "div matches FPU (5k samples)" `Quick test_div_matches_fpu;
    Alcotest.test_case "sqrt matches FPU (5k samples)" `Quick test_sqrt_matches_fpu;
    Alcotest.test_case "fast path = soft core (add/sub/mul/div)" `Quick
      test_fast_path_equals_soft;
    Alcotest.test_case "special values" `Quick test_special_values;
    Alcotest.test_case "of_int exact" `Quick test_of_int_exact;
    Alcotest.test_case "scaled" `Quick test_scaled;
    Alcotest.test_case "rint round-half-even" `Quick test_rint;
    Alcotest.test_case "floor/trunc" `Quick test_floor_trunc;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "expm_p63" `Quick test_expm_p63;
    Alcotest.test_case "field accessors (paper coefficient)" `Quick test_field_accessors;
    Alcotest.test_case "mul event stream" `Quick test_mul_events;
    QCheck_alcotest.to_alcotest prop_mul_commutes;
    QCheck_alcotest.to_alcotest prop_add_commutes;
    QCheck_alcotest.to_alcotest prop_half_double;
  ]
