let q = 12289

let reduce x =
  let r = x mod q in
  if r < 0 then r + q else r

let add a b =
  let s = a + b in
  if s >= q then s - q else s

let sub a b =
  let s = a - b in
  if s < 0 then s + q else s

let mul a b = a * b mod q

let rec pow b e =
  if e = 0 then 1
  else begin
    let h = pow (mul b b) (e / 2) in
    if e land 1 = 1 then mul b h else h
  end

let inv a = if a = 0 then invalid_arg "Zq.inv: zero" else pow a (q - 2)

let center x =
  let r = reduce x in
  if r > q / 2 then r - q else r

(* A generator of the multiplicative group (order q - 1 = 2^12 * 3),
   found once by exhaustive check of the two maximal subgroup orders. *)
let generator =
  let ok g = pow g ((q - 1) / 2) <> 1 && pow g ((q - 1) / 3) <> 1 in
  let rec search g = if ok g then g else search (g + 1) in
  search 2

(* psi tables: psi is a primitive 2n-th root of unity, in bit-reversed
   order as required by the iterative Cooley-Tukey negacyclic NTT. *)
let table_cache : (int, int array * int array * int) Hashtbl.t = Hashtbl.create 8

let tables n =
  match Hashtbl.find_opt table_cache n with
  | Some t -> t
  | None ->
      assert (n > 0 && n land (n - 1) = 0 && (q - 1) mod (2 * n) = 0);
      let psi = pow generator ((q - 1) / (2 * n)) in
      assert (pow psi n = q - 1);
      let psi_inv = inv psi in
      let bits =
        let rec go m acc = if m = 1 then acc else go (m lsr 1) (acc + 1) in
        go n 0
      in
      let fwd = Array.make n 1 and bwd = Array.make n 1 in
      for i = 0 to n - 1 do
        let r = Bitops.brev i ~bits in
        fwd.(i) <- pow psi r;
        bwd.(i) <- pow psi_inv r
      done;
      let n_inv = inv n in
      let t = (fwd, bwd, n_inv) in
      Hashtbl.add table_cache n t;
      t

let ntt a =
  let n = Array.length a in
  let fwd, _, _ = tables n in
  let a = Array.map reduce a in
  let t = ref n and m = ref 1 in
  while !m < n do
    t := !t lsr 1;
    for i = 0 to !m - 1 do
      let s = fwd.(!m + i) in
      let j1 = 2 * i * !t in
      for j = j1 to j1 + !t - 1 do
        let u = a.(j) and v = mul a.(j + !t) s in
        a.(j) <- add u v;
        a.(j + !t) <- sub u v
      done
    done;
    m := !m lsl 1
  done;
  a

let intt a =
  let n = Array.length a in
  let _, bwd, n_inv = tables n in
  let a = Array.map reduce a in
  let t = ref 1 and m = ref n in
  while !m > 1 do
    let hm = !m lsr 1 in
    for i = 0 to hm - 1 do
      let s = bwd.(hm + i) in
      let j1 = 2 * i * !t in
      for j = j1 to j1 + !t - 1 do
        let u = a.(j) and v = a.(j + !t) in
        a.(j) <- add u v;
        a.(j + !t) <- mul (sub u v) s
      done
    done;
    t := !t lsl 1;
    m := hm
  done;
  Array.map (fun x -> mul x n_inv) a

let mul_poly p1 p2 =
  let a = ntt p1 and b = ntt p2 in
  intt (Array.map2 mul a b)

let add_poly = Array.map2 add
let sub_poly = Array.map2 sub

let inv_poly p =
  let a = ntt p in
  if Array.exists (fun x -> x = 0) a then None
  else Some (intt (Array.map inv a))

let of_centered = Array.map reduce

let norm_sq_centered p =
  Array.fold_left
    (fun acc x ->
      let c = center x in
      acc + (c * c))
    0 p
