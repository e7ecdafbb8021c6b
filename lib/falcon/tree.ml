module V = Fft.Vec

type t =
  | Leaf of float
  | Node of { l10 : V.t; left : t; right : t }

(* LDL step on the self-adjoint 2x2 matrix [[g00, g01], [adj g01, g11]]:
   L10 = adj(g01)/g00, D00 = g00, D11 = g11 - |g01|^2 / g00. *)
let ldl (g00, g01, g11) =
  let l10 = V.div (V.adj g01) g00 in
  let d11 = V.sub g11 (V.mul (V.mul l10 (V.adj l10)) g00) in
  (l10, g00, d11)

let rec ffldl ~sigma (g00, g01, g11) =
  let n = V.length g00 in
  let l10, d00, d11 = ldl (g00, g01, g11) in
  if n = 1 then begin
    let leaf (d : V.t) =
      let v = d.re.(0) in
      assert (v > 0.);
      Leaf (sigma /. sqrt v)
    in
    Node { l10; left = leaf d00; right = leaf d11 }
  end
  else begin
    let d00_0, d00_1 = V.split d00 in
    let d11_0, d11_1 = V.split d11 in
    Node
      {
        l10;
        left = ffldl ~sigma (d00_0, d00_1, d00_0);
        right = ffldl ~sigma (d11_0, d11_1, d11_0);
      }
  end

let build ~sigma b =
  let b00 = b.(0).(0) and b01 = b.(0).(1) and b10 = b.(1).(0) and b11 = b.(1).(1) in
  let g00 = V.add (V.mul b00 (V.adj b00)) (V.mul b01 (V.adj b01)) in
  let g01 = V.add (V.mul b00 (V.adj b10)) (V.mul b01 (V.adj b11)) in
  let g11 = V.add (V.mul b10 (V.adj b10)) (V.mul b11 (V.adj b11)) in
  ffldl ~sigma (g00, g01, g11)

let rec leaves = function
  | Leaf s -> [ s ]
  | Node { left; right; _ } -> leaves left @ leaves right

let rec depth = function
  | Leaf _ -> 0
  | Node { left; right; _ } -> 1 + max (depth left) (depth right)

let const1 z = { V.re = [| float_of_int z |]; im = [| 0. |] }

let rec sample rng ~sigma_min tree ((t0 : V.t), (t1 : V.t)) =
  match tree with
  | Leaf _ -> assert false
  | Node { l10; left; right } ->
      if V.length t0 = 1 then begin
        match (left, right) with
        | Leaf s0, Leaf s1 ->
            let z1 = Sampler.sample_z rng ~mu:t1.re.(0) ~sigma:s1 ~sigma_min in
            (* the real part of t0 + (t1 - z1) l10, the centre of z0 *)
            let dre = Fpr.fsub t1.re.(0) (float_of_int z1)
            and dim = Fpr.fsub t1.im.(0) 0. in
            let mu =
              Fpr.fadd t0.re.(0)
                (Fpr.fsub (Fpr.fmul dre l10.re.(0)) (Fpr.fmul dim l10.im.(0)))
            in
            let z0 = Sampler.sample_z rng ~mu ~sigma:s0 ~sigma_min in
            (const1 z0, const1 z1)
        | _ -> assert false
      end
      else begin
        let z1a, z1b = sample rng ~sigma_min right (V.split t1) in
        let z1 = V.merge z1a z1b in
        let tb0 = V.add t0 (V.mul (V.sub t1 z1) l10) in
        let z0a, z0b = sample rng ~sigma_min left (V.split tb0) in
        (V.merge z0a z0b, z1)
      end
