type t = int64

type label =
  | Load_x_lo
  | Load_x_hi
  | Load_y_lo
  | Load_y_hi
  | Mant_w00
  | Mant_w10
  | Mant_z1a
  | Mant_w01
  | Mant_z1
  | Mant_w11
  | Mant_zhigh
  | Mant_norm
  | Exp_sum
  | Sign_xor
  | Result_lo
  | Result_hi
  | Add_align
  | Add_sum
  | Add_norm

type event = { label : label; value : int; width : int }
type emit = event -> unit

let no_emit (_ : event) = ()

let label_name = function
  | Load_x_lo -> "load_x_lo"
  | Load_x_hi -> "load_x_hi"
  | Load_y_lo -> "load_y_lo"
  | Load_y_hi -> "load_y_hi"
  | Mant_w00 -> "mant_w00(DxB)"
  | Mant_w10 -> "mant_w10(DxA)"
  | Mant_z1a -> "mant_z1a(add)"
  | Mant_w01 -> "mant_w01(ExB)"
  | Mant_z1 -> "mant_z1(add)"
  | Mant_w11 -> "mant_w11(ExA)"
  | Mant_zhigh -> "mant_zhigh(add)"
  | Mant_norm -> "mant_norm"
  | Exp_sum -> "exp_sum"
  | Sign_xor -> "sign_xor"
  | Result_lo -> "result_lo"
  | Result_hi -> "result_hi"
  | Add_align -> "add_align"
  | Add_sum -> "add_sum"
  | Add_norm -> "add_norm"

let zero = 0L
let one = 0x3FF0000000000000L

let of_float = Int64.bits_of_float
let to_float = Int64.float_of_bits

let sign_bit (x : t) = Int64.to_int (Int64.shift_right_logical x 63)
let biased_exponent (x : t) = Int64.to_int (Int64.shift_right_logical x 52) land 0x7FF
let mantissa (x : t) = Int64.to_int (Int64.logand x 0xFFFFFFFFFFFFFL)

let make ~sign ~exp ~mant =
  assert (sign land -2 = 0 && exp land -2048 = 0 && mant land -0x10000000000000 = 0);
  Int64.logor
    (Int64.shift_left (Int64.of_int sign) 63)
    (Int64.logor (Int64.shift_left (Int64.of_int exp) 52) (Int64.of_int mant))

let is_zero (x : t) = Int64.logand x 0x7FFFFFFFFFFFFFFFL = 0L

let signed_zero s = if s = 1 then Int64.min_int else 0L

(* [pack_round s e m]: correctly rounded (-1)^s * m * 2^e for
   m in [2^54, 2^55).  The two low bits of [m] are the round and sticky
   bits; rounding is to nearest, ties to even (the 0xC8 table trick of the
   reference fpr.c, which lets the round-up increment carry into the
   exponent field for free). *)
let pack_round s e m =
  assert (m >= 1 lsl 54 && m < 1 lsl 55);
  if e + 1076 < 0 then signed_zero s
  else begin
    let base =
      Int64.add
        (Int64.of_int (m lsr 2))
        (Int64.shift_left (Int64.of_int (e + 1076)) 52)
    in
    let base = Int64.add base (Int64.of_int ((0xC8 lsr (m land 7)) land 1)) in
    Int64.logor base (if s = 1 then Int64.min_int else 0L)
  end

(* Normalise m in (0, 2^58) to [2^54, 2^55).  [sticky] may only be set
   when no left shift is needed (true for every caller: cancellation in
   additions is exact). *)
let norm_pack s e m sticky =
  assert (m > 0);
  let k = Bitops.bit_length m in
  if k >= 55 then begin
    let sh = k - 55 in
    let dropped = m land ((1 lsl sh) - 1) in
    let m = m lsr sh lor (if dropped <> 0 || sticky then 1 else 0) in
    pack_round s (e + sh) m
  end
  else begin
    assert (not sticky);
    pack_round s (e - (55 - k)) (m lsl (55 - k))
  end

let neg (x : t) = Int64.logxor x Int64.min_int

let half (x : t) =
  if is_zero x then x
  else begin
    let e = biased_exponent x in
    assert (e > 1);
    Int64.sub x 0x10000000000000L
  end

let double (x : t) =
  if is_zero x then x
  else begin
    let e = biased_exponent x in
    assert (e < 0x7FE);
    Int64.add x 0x10000000000000L
  end

let scaled i sc =
  if i = 0 then zero
  else begin
    let s = if i < 0 then 1 else 0 in
    let a = abs i in
    let k = Bitops.bit_length a in
    if k <= 55 then pack_round s (sc + k - 55) (a lsl (55 - k))
    else begin
      let sh = k - 55 in
      let dropped = a land ((1 lsl sh) - 1) in
      pack_round s (sc + sh) (a lsr sh lor (if dropped <> 0 then 1 else 0))
    end
  end

let of_int i = scaled i 0

let m25 = (1 lsl 25) - 1

let word_lo (v : t) = Int64.to_int (Int64.logand v 0xFFFFFFFFL)
let word_hi (v : t) = Int64.to_int (Int64.shift_right_logical v 32)

let mul_emit ~emit x y =
  (* Operand loads: both 64-bit operands cross the 32-bit datapath. *)
  emit { label = Load_x_lo; value = word_lo x; width = 32 };
  emit { label = Load_x_hi; value = word_hi x; width = 32 };
  emit { label = Load_y_lo; value = word_lo y; width = 32 };
  emit { label = Load_y_hi; value = word_hi y; width = 32 };
  let sx = sign_bit x and ex = biased_exponent x and mx = mantissa x in
  let sy = sign_bit y and ey = biased_exponent y and my = mantissa y in
  let xu = mx lor (1 lsl 52) and yu = my lor (1 lsl 52) in
  (* Schoolbook multiplication on the 25-bit low / 28-bit high split of
     the 53-bit significands.  In the attacked call the first operand x
     is the known FFT(c) value and the second operand y is the secret
     FFT(f) value; with the paper's names y = E*2^25 + D (secret halves)
     and x = A*2^25 + B (known halves).  The accumulation groups the two
     D-products first, so the intermediate addition z1a is exactly the
     paper's "addition of DxB and DxA" prune target. *)
  let x0 = xu land m25 and x1 = xu lsr 25 in
  let y0 = yu land m25 and y1 = yu lsr 25 in
  let w00 = x0 * y0 in
  emit { label = Mant_w00; value = w00; width = 50 };
  let w10 = x1 * y0 in
  emit { label = Mant_w10; value = w10; width = 53 };
  let z1a = (w00 lsr 25) + (w10 land m25) in
  emit { label = Mant_z1a; value = z1a; width = 27 };
  let w01 = x0 * y1 in
  emit { label = Mant_w01; value = w01; width = 53 };
  let z1 = z1a + (w01 land m25) in
  emit { label = Mant_z1; value = z1; width = 27 };
  let w11 = x1 * y1 in
  emit { label = Mant_w11; value = w11; width = 56 };
  let zhigh = w11 + (w01 lsr 25) + (w10 lsr 25) + (z1 lsr 25) in
  emit { label = Mant_zhigh; value = zhigh; width = 57 };
  let z0 = w00 land m25 and z1k = z1 land m25 in
  let sticky = if z0 lor z1k <> 0 then 1 else 0 in
  let e = ex + ey - 2100 in
  let m, e =
    if zhigh >= 1 lsl 55 then ((zhigh lsr 1) lor (zhigh land 1), e + 1)
    else (zhigh, e)
  in
  let m = m lor sticky in
  emit { label = Mant_norm; value = m; width = 55 };
  (* The reference code materialises e = ex + ey - 2100 in a register;
     for FALCON's value range this is negative, so the architecturally
     visible word is its 32-bit two's complement. *)
  emit { label = Exp_sum; value = (ex + ey - 2100) land 0xFFFFFFFF; width = 32 };
  let s = sx lxor sy in
  emit { label = Sign_xor; value = s; width = 1 };
  let r = if ex = 0 || ey = 0 then signed_zero s else pack_round s e m in
  (* The result is stored as two 32-bit words on the target. *)
  emit { label = Result_lo; value = word_lo r; width = 32 };
  emit { label = Result_hi; value = word_hi r; width = 32 };
  r

let add_emit ~emit x y =
  (* Order operands so that |x| >= |y|. *)
  let ax = Int64.logand x Int64.max_int and ay = Int64.logand y Int64.max_int in
  let x, y = if Int64.compare ax ay >= 0 then (x, y) else (y, x) in
  let sx = sign_bit x and ex = biased_exponent x and mx = mantissa x in
  let sy = sign_bit y and ey = biased_exponent y and my = mantissa y in
  if ex = 0 then
    (* both operands are (signed) zeros: +0 unless both are -0 *)
    signed_zero (sx land sy)
  else begin
    let xu = (mx lor (1 lsl 52)) lsl 3 in
    let yu = if ey = 0 then 0 else (my lor (1 lsl 52)) lsl 3 in
    let delta = ex - ey in
    let yu =
      if yu = 0 then 0
      else if delta >= 60 then (if yu <> 0 then 1 else 0)
      else begin
        let dropped = yu land ((1 lsl delta) - 1) in
        (yu lsr delta) lor (if dropped <> 0 then 1 else 0)
      end
    in
    emit { label = Add_align; value = yu; width = 56 };
    let zu = if sx <> sy then xu - yu else xu + yu in
    emit { label = Add_sum; value = zu; width = 57 };
    assert (zu >= 0);
    if zu = 0 then signed_zero 0
    else begin
      (* xu carries 3 guard bits: value = zu * 2^(ex - 1075 - 3); the
         alignment sticky bit already lives in bit 0 of zu. *)
      let r_bits = norm_pack sx (ex - 1078) zu false in
      emit { label = Add_norm; value = mantissa r_bits; width = 52 };
      r_bits
    end
  end

(* The integer soft core: the reference every operation is tested
   against.  Its add and mul are the leaking [*_emit] entries above with
   the probe unplugged. *)
module Soft = struct
  let add x y = add_emit ~emit:no_emit x y
  let sub x y = add x (neg y)
  let mul x y = mul_emit ~emit:no_emit x y

  let div x y =
    let sx = sign_bit x and ex = biased_exponent x and mx = mantissa x in
    let sy = sign_bit y and ey = biased_exponent y and my = mantissa y in
    let s = sx lxor sy in
    if ex = 0 then signed_zero s
    else begin
      assert (ey <> 0);
      let xu = mx lor (1 lsl 52) and yu = my lor (1 lsl 52) in
      (* Restoring long division producing q = floor(xu * 2^55 / yu); the
         first quotient bit is computed before the loop so that the
         invariant r < yu holds (xu/yu lies in (1/2, 2)). *)
      let q = ref (if xu >= yu then 1 else 0) in
      let r = ref (if xu >= yu then xu - yu else xu) in
      for _ = 1 to 55 do
        r := !r lsl 1;
        q := !q lsl 1;
        if !r >= yu then begin
          r := !r - yu;
          q := !q lor 1
        end
      done;
      norm_pack s (ex - ey - 55) !q (!r <> 0)
    end

  let sqrt x =
    if is_zero x then zero
    else begin
      assert (sign_bit x = 0);
      let ex = biased_exponent x and mx = mantissa x in
      let mu = mx lor (1 lsl 52) in
      let e2 = ex - 1075 in
      let m, e2 = if e2 land 1 <> 0 then (mu lsl 1, e2 - 1) else (mu, e2) in
      (* q = floor (sqrt (m * 2^56)), computed by the classic two-bit
         shift-and-subtract method; m * 2^56 has 109/110 bits = 55 pairs. *)
      let q = ref 0 and r = ref 0 in
      for i = 0 to 54 do
        let pair = if i <= 26 then (m lsr (52 - (2 * i))) land 3 else 0 in
        r := (!r lsl 2) lor pair;
        let c = (!q lsl 2) lor 1 in
        if !r >= c then begin
          r := !r - c;
          q := (!q lsl 1) lor 1
        end
        else q := !q lsl 1
      done;
      let m55 = !q lor (if !r <> 0 then 1 else 0) in
      pack_round 0 ((e2 asr 1) - 28) m55
    end
end

(* A normal double whose biased exponent lies in [2, 0x7FD].  When both
   operands and the result of an add/sub/mul/div are such values, the
   host FPU and the soft core round the same exact value the same way,
   bit for bit; everything else (zeros, results at or below 2^-1021,
   where the soft core flushes to zero, and the top of the range) goes
   to the soft core. *)
let[@inline] native_range (x : t) =
  let e = biased_exponent x in
  e >= 2 && e <= 0x7FD

let add x y =
  if native_range x && native_range y then begin
    let r = of_float (to_float x +. to_float y) in
    if native_range r then r else Soft.add x y
  end
  else Soft.add x y

let sub x y =
  if native_range x && native_range y then begin
    let r = of_float (to_float x -. to_float y) in
    if native_range r then r else Soft.sub x y
  end
  else Soft.sub x y

let mul x y =
  if native_range x && native_range y then begin
    let r = of_float (to_float x *. to_float y) in
    if native_range r then r else Soft.mul x y
  end
  else Soft.mul x y

let div x y =
  if native_range x && native_range y then begin
    let r = of_float (to_float x /. to_float y) in
    if native_range r then r else Soft.div x y
  end
  else Soft.div x y

let inv x = div one x
let sqrt = Soft.sqrt

let round_parts s kept roundup =
  let v = if roundup then kept + 1 else kept in
  if s = 1 then -v else v

let rint x =
  let s = sign_bit x and e = biased_exponent x and m = mantissa x in
  if e = 0 then 0
  else begin
    let mu = m lor (1 lsl 52) in
    let e' = e - 1075 in
    if e' >= 0 then begin
      assert (e' <= 10);
      round_parts s (mu lsl e') false
    end
    else begin
      let sh = -e' in
      if sh > 54 then 0
      else begin
        let kept = mu lsr sh in
        let guard = (mu lsr (sh - 1)) land 1 in
        let sticky = mu land ((1 lsl (sh - 1)) - 1) <> 0 in
        round_parts s kept (guard = 1 && (sticky || kept land 1 = 1))
      end
    end
  end

let floor x =
  let s = sign_bit x and e = biased_exponent x and m = mantissa x in
  if e = 0 then 0
  else begin
    let mu = m lor (1 lsl 52) in
    let e' = e - 1075 in
    if e' >= 0 then begin
      assert (e' <= 10);
      round_parts s (mu lsl e') false
    end
    else begin
      let sh = -e' in
      let kept = if sh > 53 then 0 else mu lsr sh in
      let dropped = if sh > 53 then true else mu land ((1 lsl sh) - 1) <> 0 in
      round_parts s kept (s = 1 && dropped)
    end
  end

let trunc x =
  let s = sign_bit x and e = biased_exponent x and m = mantissa x in
  if e = 0 then 0
  else begin
    let mu = m lor (1 lsl 52) in
    let e' = e - 1075 in
    if e' >= 0 then begin
      assert (e' <= 10);
      round_parts s (mu lsl e') false
    end
    else begin
      let sh = -e' in
      let kept = if sh > 53 then 0 else mu lsr sh in
      round_parts s kept false
    end
  end

let lt a b = to_float a < to_float b
let equal (a : t) b = a = b || (is_zero a && is_zero b)

let expm_p63 x ccs =
  let xf = to_float x and cf = to_float ccs in
  assert (xf >= 0. && cf >= 0. && cf <= 1.);
  let v = cf *. exp (-.xf) *. 0x1p63 in
  if v >= 0x1p63 -. 1024. then Int64.max_int else Int64.of_float v

let pp fmt x = Format.fprintf fmt "0x%016LX (%h)" x (to_float x)
