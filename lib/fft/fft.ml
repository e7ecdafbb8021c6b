let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go n acc = if n = 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Twiddle tables.  Level l has 2^l blocks whatever the transform size;
   block b reduces x^m - e^{i.th} with th = pi * a(l,b) / 2^l, and its
   butterfly twiddle is w = e^{i.th/2}.  Angles descend as th -> th/2
   (left child) and th/2 + pi (right child), starting from th = pi, so
   a size-n transform reads levels 0 .. log2 n - 1 of one table. *)
type twiddle = { cos : float array; sin : float array }

let build_twiddles levels =
  let angles = ref [| 1. |] (* numerators a of th = pi * a / 2^l *) in
  let denom = ref 1. in
  Array.init levels (fun _ ->
      let cur = !angles and d = !denom in
      let half_angle a = Float.pi *. a /. (2. *. d) in
      let tw =
        {
          cos = Array.map (fun a -> Float.cos (half_angle a)) cur;
          sin = Array.map (fun a -> Float.sin (half_angle a)) cur;
        }
      in
      (* children numerators over denominator 2d *)
      angles :=
        Array.init (2 * Array.length cur) (fun i ->
            if i land 1 = 0 then cur.(i / 2) else cur.(i / 2) +. (2. *. d));
      denom := 2. *. d;
      tw)

(* Every level up to n = 1024 is built once; a larger transform builds a
   longer table, which holds the same values, so a race between domains
   that both grow it is harmless. *)
let table = Atomic.make (build_twiddles 10)

let twiddles n =
  assert (is_pow2 n && n >= 2);
  let levels = log2 n in
  let t = Atomic.get table in
  if Array.length t >= levels then t
  else begin
    let t = build_twiddles levels in
    Atomic.set table t;
    t
  end

(* The level whose twiddles are the points v_u of a size-n transform:
   entries 2u and 2u+1 sit at (v_u, -v_u). *)
let points n = (twiddles n).(log2 n - 1)

module Vec = struct
  type t = { re : float array; im : float array }

  let length p = Array.length p.re
  let make n = { re = Array.make n 0.; im = Array.make n 0. }

  let fft coeffs =
    let n = Array.length coeffs in
    let re = Array.copy coeffs and im = Array.make n 0. in
    let tw = twiddles n in
    let m = ref n and lvl = ref 0 in
    while !m >= 2 do
      let half = !m lsr 1 in
      let { cos; sin } = tw.(!lvl) in
      for b = 0 to (n / !m) - 1 do
        let wre = cos.(b) and wim = sin.(b) in
        let o = b * !m in
        for j = o to o + half - 1 do
          let xre = re.(j) and xim = im.(j) in
          let yre = re.(j + half) and yim = im.(j + half) in
          let tre = Fpr.fsub (Fpr.fmul wre yre) (Fpr.fmul wim yim) in
          let tim = Fpr.fadd (Fpr.fmul wre yim) (Fpr.fmul wim yre) in
          re.(j) <- Fpr.fadd xre tre;
          im.(j) <- Fpr.fadd xim tim;
          re.(j + half) <- Fpr.fsub xre tre;
          im.(j + half) <- Fpr.fsub xim tim
        done
      done;
      m := half;
      incr lvl
    done;
    { re; im }

  let ifft p =
    let n = length p in
    let re = Array.copy p.re and im = Array.copy p.im in
    let tw = twiddles n in
    let m = ref 2 and lvl = ref (log2 n - 1) in
    while !m <= n do
      let half = !m lsr 1 in
      let { cos; sin } = tw.(!lvl) in
      for b = 0 to (n / !m) - 1 do
        let wre = cos.(b) and wim = sin.(b) in
        let o = b * !m in
        for j = o to o + half - 1 do
          let pre = re.(j) and pim = im.(j) in
          let qre = re.(j + half) and qim = im.(j + half) in
          re.(j) <- Fpr.fhalf (Fpr.fadd pre qre);
          im.(j) <- Fpr.fhalf (Fpr.fadd pim qim);
          let dre = Fpr.fhalf (Fpr.fsub pre qre) and dim = Fpr.fhalf (Fpr.fsub pim qim) in
          (* multiply by conj w *)
          re.(j + half) <- Fpr.fadd (Fpr.fmul dre wre) (Fpr.fmul dim wim);
          im.(j + half) <- Fpr.fsub (Fpr.fmul dim wre) (Fpr.fmul dre wim)
        done
      done;
      m := !m lsl 1;
      decr lvl
    done;
    re

  let fft_of_int p = fft (Array.map float_of_int p)

  let add a b =
    let n = length a in
    assert (length b = n);
    let out = make n in
    for k = 0 to n - 1 do
      out.re.(k) <- Fpr.fadd a.re.(k) b.re.(k);
      out.im.(k) <- Fpr.fadd a.im.(k) b.im.(k)
    done;
    out

  let sub a b =
    let n = length a in
    assert (length b = n);
    let out = make n in
    for k = 0 to n - 1 do
      out.re.(k) <- Fpr.fsub a.re.(k) b.re.(k);
      out.im.(k) <- Fpr.fsub a.im.(k) b.im.(k)
    done;
    out

  let neg a =
    let out = make (length a) in
    for k = 0 to length a - 1 do
      out.re.(k) <- -.a.re.(k);
      out.im.(k) <- -.a.im.(k)
    done;
    out

  let adj a =
    let out = { re = Array.copy a.re; im = Array.copy a.im } in
    for k = 0 to length a - 1 do
      out.im.(k) <- -.a.im.(k)
    done;
    out

  let mul a b =
    let n = length a in
    assert (length b = n);
    let out = make n in
    for k = 0 to n - 1 do
      let ar = a.re.(k) and ai = a.im.(k) and br = b.re.(k) and bi = b.im.(k) in
      out.re.(k) <- Fpr.fsub (Fpr.fmul ar br) (Fpr.fmul ai bi);
      out.im.(k) <- Fpr.fadd (Fpr.fmul ar bi) (Fpr.fmul ai br)
    done;
    out

  let div a b =
    let n = length a in
    assert (length b = n);
    let out = make n in
    for k = 0 to n - 1 do
      let ar = a.re.(k) and ai = a.im.(k) and br = b.re.(k) and bi = b.im.(k) in
      let d = Fpr.fadd (Fpr.fmul br br) (Fpr.fmul bi bi) in
      out.re.(k) <- Fpr.fdiv (Fpr.fadd (Fpr.fmul ar br) (Fpr.fmul ai bi)) d;
      out.im.(k) <- Fpr.fdiv (Fpr.fsub (Fpr.fmul ai br) (Fpr.fmul ar bi)) d
    done;
    out

  let mulconst a c =
    let out = make (length a) in
    for k = 0 to length a - 1 do
      out.re.(k) <- Fpr.fmul a.re.(k) c;
      out.im.(k) <- Fpr.fmul a.im.(k) c
    done;
    out

  let split f =
    let n = length f in
    assert (n >= 2);
    let hn = n / 2 in
    let { cos; sin } = points n in
    let f0 = make hn and f1 = make hn in
    for u = 0 to hn - 1 do
      let are = f.re.(2 * u) and aim = f.im.(2 * u) in
      let bre = f.re.((2 * u) + 1) and bim = f.im.((2 * u) + 1) in
      f0.re.(u) <- Fpr.fhalf (Fpr.fadd are bre);
      f0.im.(u) <- Fpr.fhalf (Fpr.fadd aim bim);
      let dre = Fpr.fhalf (Fpr.fsub are bre) and dim = Fpr.fhalf (Fpr.fsub aim bim) in
      let vre = cos.(u) and vim = sin.(u) in
      (* times conj v *)
      f1.re.(u) <- Fpr.fadd (Fpr.fmul dre vre) (Fpr.fmul dim vim);
      f1.im.(u) <- Fpr.fsub (Fpr.fmul dim vre) (Fpr.fmul dre vim)
    done;
    (f0, f1)

  let merge f0 f1 =
    let hn = length f0 in
    assert (length f1 = hn);
    let n = 2 * hn in
    let { cos; sin } = points n in
    let f = make n in
    for u = 0 to hn - 1 do
      let vre = cos.(u) and vim = sin.(u) in
      let tre = Fpr.fsub (Fpr.fmul f1.re.(u) vre) (Fpr.fmul f1.im.(u) vim) in
      let tim = Fpr.fadd (Fpr.fmul f1.re.(u) vim) (Fpr.fmul f1.im.(u) vre) in
      f.re.(2 * u) <- Fpr.fadd f0.re.(u) tre;
      f.im.(2 * u) <- Fpr.fadd f0.im.(u) tim;
      f.re.((2 * u) + 1) <- Fpr.fsub f0.re.(u) tre;
      f.im.((2 * u) + 1) <- Fpr.fsub f0.im.(u) tim
    done;
    f

  let norm_sq f =
    let acc = ref 0. in
    for k = 0 to length f - 1 do
      acc := Fpr.fadd !acc (Fpr.fadd (Fpr.fmul f.re.(k) f.re.(k)) (Fpr.fmul f.im.(k) f.im.(k)))
    done;
    Fpr.fdiv !acc (float_of_int (length f))

  let round_to_int a = Array.map (fun x -> Fpr.rint (Fpr.of_float x)) a
end

type t = { re : Fpr.t array; im : Fpr.t array }

let to_vec p = { Vec.re = Array.map Fpr.to_float p.re; im = Array.map Fpr.to_float p.im }
let of_vec (v : Vec.t) = { re = Array.map Fpr.of_float v.re; im = Array.map Fpr.of_float v.im }

let length p = Array.length p.re

let zero n = { re = Array.make n Fpr.zero; im = Array.make n Fpr.zero }

let copy p = { re = Array.copy p.re; im = Array.copy p.im }

let tree_points n =
  let { cos; sin } = points n in
  Array.init (n / 2) (fun u -> (Fpr.of_float cos.(u), Fpr.of_float sin.(u)))

let fft coeffs = of_vec (Vec.fft (Array.map Fpr.to_float coeffs))
let ifft p = Array.map Fpr.of_float (Vec.ifft (to_vec p))
let fft_of_int p = of_vec (Vec.fft_of_int p)
let round_to_int = Array.map Fpr.rint

let lift2 f a b = of_vec (f (to_vec a) (to_vec b))

let add = lift2 Vec.add
let sub = lift2 Vec.sub
let mul = lift2 Vec.mul
let div = lift2 Vec.div
let neg a = of_vec (Vec.neg (to_vec a))
let adj a = of_vec (Vec.adj (to_vec a))
let mulconst a c = of_vec (Vec.mulconst (to_vec a) (Fpr.to_float c))

let split f =
  let f0, f1 = Vec.split (to_vec f) in
  (of_vec f0, of_vec f1)

let merge (f0, f1) = of_vec (Vec.merge (to_vec f0) (to_vec f1))

let norm_sq f = Fpr.of_float (Vec.norm_sq (to_vec f))

let mul_ring p q =
  assert (Array.length p = Array.length q);
  Vec.round_to_int (Vec.ifft (Vec.mul (Vec.fft_of_int p) (Vec.fft_of_int q)))

let mul_emit ~emit a b =
  let n = length a in
  assert (length b = n);
  let out = zero n in
  for k = 0 to n - 1 do
    let e ev = emit k ev in
    let ar = a.re.(k) and ai = a.im.(k) and br = b.re.(k) and bi = b.im.(k) in
    (* Same operation order as the plain complex product: the four real
       multiplications then the two additions. *)
    let arbr = Fpr.mul_emit ~emit:e ar br in
    let aibi = Fpr.mul_emit ~emit:e ai bi in
    let arbi = Fpr.mul_emit ~emit:e ar bi in
    let aibr = Fpr.mul_emit ~emit:e ai br in
    out.re.(k) <- Fpr.add_emit ~emit:e arbr (Fpr.neg aibi);
    out.im.(k) <- Fpr.add_emit ~emit:e arbi aibr
  done;
  out
