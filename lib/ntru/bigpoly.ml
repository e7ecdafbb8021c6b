type t = Bignum.t array

let of_int_poly = Array.map Bignum.of_int

let to_int_poly_opt p =
  if Array.for_all Bignum.fits_int p then Some (Array.map Bignum.to_int p) else None

let zero m = Array.make m Bignum.zero

let equal a b = Array.length a = Array.length b && Array.for_all2 Bignum.equal a b

let add = Array.map2 Bignum.add
let sub = Array.map2 Bignum.sub
let neg = Array.map Bignum.neg

let mul a b =
  let m = Array.length a in
  assert (Array.length b = m);
  let out = zero m in
  for i = 0 to m - 1 do
    if not (Bignum.is_zero a.(i)) then
      for j = 0 to m - 1 do
        let p = Bignum.mul a.(i) b.(j) in
        let k = i + j in
        if k < m then out.(k) <- Bignum.add out.(k) p
        else out.(k - m) <- Bignum.sub out.(k - m) p
      done
  done;
  out


let shift_coeffs p k = Array.map (fun x -> Bignum.shift_left x k) p

let galois_conjugate p =
  Array.mapi (fun i c -> if i land 1 = 1 then Bignum.neg c else c) p

(* N(a)(y) = ae(y)^2 - y * ao(y)^2 in Z[y]/(y^(m/2)+1), where
   a(x) = ae(x^2) + x ao(x^2). *)
let field_norm p =
  let m = Array.length p in
  assert (m >= 2 && m land 1 = 0);
  let h = m / 2 in
  let ae = Array.init h (fun i -> p.(2 * i)) in
  let ao = Array.init h (fun i -> p.((2 * i) + 1)) in
  let ae2 = mul ae ae and ao2 = mul ao ao in
  (* y * ao2: negacyclic shift by one *)
  let yao2 =
    Array.init h (fun i -> if i = 0 then Bignum.neg ao2.(h - 1) else ao2.(i - 1))
  in
  sub ae2 yao2

let lift p =
  let m = Array.length p in
  let out = zero (2 * m) in
  Array.iteri (fun i c -> out.(2 * i) <- c) p;
  out

let max_bit_length p =
  Array.fold_left (fun acc c -> max acc (Bignum.bit_length c)) 0 p

let pp fmt p =
  Format.fprintf fmt "[";
  Array.iteri
    (fun i c ->
      if i > 0 then Format.fprintf fmt "; ";
      Bignum.pp fmt c)
    p;
  Format.fprintf fmt "]"
