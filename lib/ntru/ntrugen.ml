type keypair = {
  n : int;
  f : int array;
  g : int array;
  big_f : int array;
  big_g : int array;
  h : int array;
}

let sigma_fg n = 1.17 *. sqrt (float_of_int Zq.q /. (2. *. float_of_int n))

(* ---- discrete Gaussian over Z by CDF inversion ---- *)

let gauss_table_cache : (int, float array) Hashtbl.t = Hashtbl.create 4

let gauss_table sigma =
  let key = int_of_float (sigma *. 1000.) in
  match Hashtbl.find_opt gauss_table_cache key with
  | Some t -> t
  | None ->
      let tail = int_of_float (Float.ceil (10. *. sigma)) in
      let w = Array.init ((2 * tail) + 1) (fun i ->
          let k = float_of_int (i - tail) in
          exp (-.(k *. k) /. (2. *. sigma *. sigma)))
      in
      let total = Array.fold_left ( +. ) 0. w in
      let cdf = Array.make (Array.length w) 0. in
      let acc = ref 0. in
      Array.iteri (fun i v ->
          acc := !acc +. (v /. total);
          cdf.(i) <- !acc) w;
      Hashtbl.add gauss_table_cache key cdf;
      cdf

let gauss_sample rng ~sigma =
  let cdf = gauss_table sigma in
  let tail = (Array.length cdf - 1) / 2 in
  let u =
    Int64.to_float (Int64.shift_right_logical (Prng.u64 rng) 11) *. 0x1p-53
  in
  let rec find i = if i >= Array.length cdf - 1 || cdf.(i) > u then i else find (i + 1) in
  find 0 - tail

(* ---- floating-point scaffolding for Babai reduction ---- *)

module V = Fft.Vec

let float_poly p size =
  Array.map
    (fun c ->
      let m, e = Bignum.to_float_scaled c in
      m *. (2. ** float_of_int (e - size)))
    p

let round_clamped v =
  let v = Float.max (-0x1p40) (Float.min 0x1p40 v) in
  int_of_float (Float.round v)

(* f adj f + g adj g in the FFT domain. *)
let gram fa ga = V.add (V.mul fa (V.adj fa)) (V.mul ga (V.adj ga))

(* Babai-reduce (F, G) against (f, g): repeatedly subtract
   k . (f, g) . 2^t with k = round((F adj f + G adj g) / (f adj f + g adj g) / 2^t),
   computed on the top 53 bits of the coefficients through the FFT.
   The NTRU invariant fG - gF = q is preserved exactly for any k. *)
let reduce f g big_f big_g =
  let size_fg = max 1 (max (Bigpoly.max_bit_length f) (Bigpoly.max_bit_length g)) in
  let fa = V.fft (float_poly f size_fg) in
  let ga = V.fft (float_poly g size_fg) in
  let den = gram fa ga in
  let rec loop big_f big_g iters prev_size =
    let size_big =
      max (Bigpoly.max_bit_length big_f) (Bigpoly.max_bit_length big_g)
    in
    if iters > 200 || size_big <= size_fg || size_big >= prev_size then (big_f, big_g)
    else begin
      let scale = size_big - size_fg in
      let w = min scale 30 in
      let fa_big = V.fft (float_poly big_f (size_big - w)) in
      let ga_big = V.fft (float_poly big_g (size_big - w)) in
      let num = V.add (V.mul fa_big (V.adj fa)) (V.mul ga_big (V.adj ga)) in
      let ki = Array.map round_clamped (V.ifft (V.div num den)) in
      if Array.for_all (fun k -> k = 0) ki then (big_f, big_g)
      else begin
        let kp = Bigpoly.of_int_poly ki in
        let sh = scale - w in
        let big_f' = Bigpoly.sub big_f (Bigpoly.shift_coeffs (Bigpoly.mul kp f) sh) in
        let big_g' = Bigpoly.sub big_g (Bigpoly.shift_coeffs (Bigpoly.mul kp g) sh) in
        loop big_f' big_g' (iters + 1) size_big
      end
    end
  in
  loop big_f big_g 0 max_int

(* Exact scalar Babai step at the bottom of the tower. *)
let reduce_scalar f0 g0 fF0 fG0 =
  let num = Bignum.add (Bignum.mul fF0 f0) (Bignum.mul fG0 g0) in
  let den = Bignum.add (Bignum.mul f0 f0) (Bignum.mul g0 g0) in
  let q, r = Bignum.divmod num den in
  (* round to nearest *)
  let k =
    if Bignum.compare (Bignum.shift_left (Bignum.abs r) 1) (Bignum.abs den) > 0 then
      Bignum.add q (Bignum.of_int (Bignum.sign num * Bignum.sign den))
    else q
  in
  (Bignum.sub fF0 (Bignum.mul k f0), Bignum.sub fG0 (Bignum.mul k g0))

let rec solve_rec f g =
  let m = Array.length f in
  if m = 1 then begin
    let d, u, v = Bignum.egcd f.(0) g.(0) in
    if not (Bignum.equal d Bignum.one) then None
    else begin
      let big_f = Bignum.neg (Bignum.mul_int v Zq.q) in
      let big_g = Bignum.mul_int u Zq.q in
      let big_f, big_g = reduce_scalar f.(0) g.(0) big_f big_g in
      Some ([| big_f |], [| big_g |])
    end
  end
  else begin
    match solve_rec (Bigpoly.field_norm f) (Bigpoly.field_norm g) with
    | None -> None
    | Some (big_f', big_g') ->
        let big_f = Bigpoly.mul (Bigpoly.lift big_f') (Bigpoly.galois_conjugate g) in
        let big_g = Bigpoly.mul (Bigpoly.lift big_g') (Bigpoly.galois_conjugate f) in
        let big_f, big_g = reduce f g big_f big_g in
        Some (big_f, big_g)
  end

let solve f g =
  match solve_rec (Bigpoly.of_int_poly f) (Bigpoly.of_int_poly g) with
  | None -> None
  | Some (big_f, big_g) -> begin
      match (Bigpoly.to_int_poly_opt big_f, Bigpoly.to_int_poly_opt big_g) with
      | Some bf, Some bg -> Some (bf, bg)
      | _ -> None
    end

let verify_ntru f g big_f big_g =
  let n = Array.length f in
  let lhs =
    Bigpoly.sub
      (Bigpoly.mul (Bigpoly.of_int_poly f) (Bigpoly.of_int_poly big_g))
      (Bigpoly.mul (Bigpoly.of_int_poly g) (Bigpoly.of_int_poly big_f))
  in
  Bigpoly.equal lhs
    (Array.init n (fun i -> if i = 0 then Bignum.of_int Zq.q else Bignum.zero))

let gs_norm_ok f g =
  let bound = 1.17 *. sqrt (float_of_int Zq.q) in
  let sq p = Array.fold_left (fun acc c -> acc +. float_of_int (c * c)) 0. p in
  let n1 = sqrt (sq f +. sq g) in
  if n1 > bound then false
  else begin
    let fa = V.fft_of_int f and ga = V.fft_of_int g in
    let den = gram fa ga in
    let q = float_of_int Zq.q in
    let t0 = V.div (V.mulconst (V.adj fa) q) den in
    let t1 = V.div (V.mulconst (V.adj ga) q) den in
    let n2 = sqrt (V.norm_sq t0 +. V.norm_sq t1) in
    n2 <= bound
  end

(* Like the reference, draw until a candidate passes every check. *)
let keygen ~n ~seed =
  let rng = Prng.of_seed seed in
  let sigma = sigma_fg n in
  let rec attempt () =
    let f = Array.init n (fun _ -> gauss_sample rng ~sigma) in
    let g = Array.init n (fun _ -> gauss_sample rng ~sigma) in
    let ok_range = Array.for_all (fun c -> abs c <= 127) f
                   && Array.for_all (fun c -> abs c <= 127) g in
    if not (ok_range && gs_norm_ok f g) then attempt ()
    else begin
      match Zq.inv_poly (Zq.of_centered f) with
      | None -> attempt ()
      | Some f_inv -> begin
          match solve f g with
          | Some (big_f, big_g) when verify_ntru f g big_f big_g ->
              let h = Zq.mul_poly (Zq.of_centered g) f_inv in
              { n; f; g; big_f; big_g; h }
          | _ -> attempt ()
        end
    end
  in
  attempt ()

let recover_from_f ~n ~f ~h =
  if Array.length f <> n || Array.length h <> n then None
  else begin
    match Zq.inv_poly (Zq.of_centered f) with
    | None -> None
    | Some _ ->
        let g_modq = Zq.mul_poly (Zq.of_centered f) h in
        let g = Array.map Zq.center g_modq in
        if not (Array.for_all (fun c -> abs c <= 127) g) then None
        else begin
          match solve f g with
          | None -> None
          | Some (big_f, big_g) ->
              if verify_ntru f g big_f big_g then Some { n; f; g; big_f; big_g; h }
              else None
        end
  end
