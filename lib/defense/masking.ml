type event = { index : int; value : int }

let events_per_mul = 21

let m25 = (1 lsl 25) - 1
let m50 = (1 lsl 50) - 1
let m53 = (1 lsl 53) - 1

(* 106-bit product x * s as (hi, lo50): hi = p >> 50, lo50 = p mod 2^50,
   with the same 25/28 schoolbook split as the unprotected multiply.
   Returns the partial products too so they can be emitted. *)
let wide_product xu s =
  let x0 = xu land m25 and x1 = xu lsr 25 in
  let s0 = s land m25 and s1 = s lsr 25 in
  let t0 = x0 * s0 and t1 = x0 * s1 and t2 = x1 * s0 and t3 = x1 * s1 in
  let z0 = t0 land m25 in
  let z1 = (t0 lsr 25) + (t1 land m25) + (t2 land m25) in
  let z2 = t3 + (t1 lsr 25) + (t2 lsr 25) + (z1 lsr 25) in
  let lo50 = ((z1 land m25) lsl 25) lor z0 in
  ((z2, lo50), (t0, t2, t1, t3))

let mul_emit ~rng ~emit x y =
  let i = ref 0 in
  let ev value =
    emit { index = !i; value };
    incr i
  in
  let xu = Fpr.mantissa x lor (1 lsl 52) in
  let yu = Fpr.mantissa y lor (1 lsl 52) in
  (* fresh arithmetic mask: y = (s1 + s2) mod 2^53 with s2 = r uniform *)
  let r = (Stats.Rng.bits rng 27 lsl 26) lor Stats.Rng.bits rng 26 in
  let r = r land m53 in
  let s1 = (yu - r) land m53 and s2 = r in
  ev (r land m25);
  ev (r lsr 25);
  (* share 1 datapath *)
  let (hi1, lo1), (a1, b1, c1, d1) = wide_product xu s1 in
  ev a1;
  ev b1;
  ev c1;
  ev d1;
  ev (lo1 land m50);
  ev hi1;
  (* share 2 datapath *)
  let (hi2, lo2), (a2, b2, c2, d2) = wide_product xu s2 in
  ev a2;
  ev b2;
  ev c2;
  ev d2;
  ev (lo2 land m50);
  ev hi2;
  (* recombination: p = x*s1 + x*s2 - x * 2^53 * borrow, where the borrow
     of s1 + s2 over 2^53 is resolved by the carry-correction gadget *)
  let borrow = (s1 + s2) lsr 53 in
  let lo = lo1 + lo2 in
  let hi = hi1 + hi2 + (lo lsr 50) - (xu * 8 * borrow) in
  let lo = lo land m50 in
  ev lo;
  ev hi;
  (* from here on the implementation is the unprotected tail: normalised
     mantissa, exponent register, sign, result store *)
  let sticky = if lo <> 0 then 1 else 0 in
  let m, _carry = if hi >= 1 lsl 55 then (((hi lsr 1) lor (hi land 1)) lor sticky, 1) else (hi lor sticky, 0) in
  ev m;
  ev ((Fpr.biased_exponent x + Fpr.biased_exponent y - 2100) land 0xFFFFFFFF);
  ev (Fpr.sign_bit x lxor Fpr.sign_bit y);
  let result = Fpr.mul x y in
  ev (Int64.to_int (Int64.logand result 0xFFFFFFFFL));
  ev (Int64.to_int (Int64.shift_right_logical result 32));
  assert (!i = events_per_mul);
  result

let overhead_factor = float_of_int events_per_mul /. float_of_int Leakage.events_per_mul

(* Unrendered event values in index order; the mask draws happen
   before any event is emitted.  Callers render them through
   [Leakage.render]. *)
let values rng ~known ~secret =
  let out = Array.make events_per_mul 0 in
  let emit (e : event) = out.(e.index) <- e.value in
  ignore (mul_emit ~rng ~emit known secret);
  out
