type secret_key = {
  params : Params.t;
  kp : Ntru.Ntrugen.keypair;
  basis : Fft.t array array;
  f_fft : Fft.t;
  big_f_fft : Fft.t;
  tree : Tree.t;
}

type public_key = { params : Params.t; h : int array }

type signature = { salt : string; body : string }

exception Signing_failed of string

let secret_of_keypair (kp : Ntru.Ntrugen.keypair) =
  let params = Params.make kp.n in
  let f_fft = Fft.fft_of_int kp.f in
  let g_fft = Fft.fft_of_int kp.g in
  let big_f_fft = Fft.fft_of_int kp.big_f in
  let big_g_fft = Fft.fft_of_int kp.big_g in
  let basis =
    [| [| g_fft; Fft.neg f_fft |]; [| big_g_fft; Fft.neg big_f_fft |] |]
  in
  let tree = Tree.build ~sigma:params.sigma basis in
  List.iter
    (fun s ->
      if s < params.sigma_min -. 1e-9 || s > Sampler.sigma_max +. 1e-9 then
        raise (Signing_failed (Printf.sprintf "tree leaf sigma %.6f out of range" s)))
    (Tree.leaves tree);
  { params; kp; basis; f_fft; big_f_fft; tree }

let keygen ~n ~seed =
  (* validate n before the NTRU sampler touches it *)
  let (_ : Params.t) = Params.make n in
  let kp = Ntru.Ntrugen.keygen ~n ~seed in
  let sk = secret_of_keypair kp in
  (sk, { params = sk.params; h = kp.h })

let public_of_secret (sk : secret_key) = { params = sk.params; h = sk.kp.h }

let body_len (p : Params.t) = p.sig_bytelen - p.salt_len - 1

(* Signing, with the attacked product [cf_mul c_fft f_fft] supplied by
   the caller; returns the signature and the FFT(c) it multiplied. *)
let sign_with ~cf_mul ~rng (sk : secret_key) msg =
  let p = sk.params in
  let salt = String.init p.salt_len (fun _ -> Char.chr (Prng.byte rng)) in
  let c = Hash.to_point ~n:p.n (salt ^ msg) in
  let c_fft = Fft.fft_of_int c in
  (* Line 3 of Algorithm 2: the attacked computation FFT(c) (.) FFT(f). *)
  let cf = cf_mul c_fft sk.f_fft in
  let c_big_f = Fft.mul c_fft sk.big_f_fft in
  let q_inv = Fpr.inv (Fpr.of_int Zq.q) in
  let t0 = Fft.neg (Fft.mulconst c_big_f q_inv) in
  let t1 = Fft.mulconst cf q_inv in
  let b00 = sk.basis.(0).(0)
  and b01 = sk.basis.(0).(1)
  and b10 = sk.basis.(1).(0)
  and b11 = sk.basis.(1).(1) in
  let rec attempt k =
    if k = 0 then raise (Signing_failed "no acceptable sample after 100 rounds")
    else begin
      let z0, z1 = Tree.sample rng ~sigma_min:p.sigma_min sk.tree (t0, t1) in
      let d0 = Fft.sub t0 z0 and d1 = Fft.sub t1 z1 in
      let s1 = Fft.add (Fft.mul d0 b00) (Fft.mul d1 b10) in
      let s2 = Fft.add (Fft.mul d0 b01) (Fft.mul d1 b11) in
      let norm =
        Fpr.to_float (Fft.norm_sq s1) +. Fpr.to_float (Fft.norm_sq s2)
      in
      if norm > float_of_int p.beta_sq then attempt (k - 1)
      else begin
        let s2i = Fft.round_to_int (Fft.ifft s2) in
        match Codec.compress ~slen:(body_len p) s2i with
        | None -> attempt (k - 1)
        | Some body -> ({ salt; body }, c_fft)
      end
    end
  in
  attempt 100

let sign ~rng sk msg = fst (sign_with ~cf_mul:Fft.mul ~rng sk msg)

let sign_observed ~emit_cf ~rng sk msg =
  sign_with ~cf_mul:(Fft.mul_emit ~emit:emit_cf) ~rng sk msg

let recompute pk msg sg =
  let p = pk.params in
  if String.length sg.salt <> p.salt_len || String.length sg.body <> body_len p then
    None
  else begin
    match Codec.decompress ~n:p.n sg.body with
    | None -> None
    | Some s2 ->
        let c = Hash.to_point ~n:p.n (sg.salt ^ msg) in
        let s2q = Zq.of_centered s2 in
        let s1 =
          Array.map Zq.center (Zq.sub_poly c (Zq.mul_poly s2q pk.h))
        in
        let norm =
          Array.fold_left (fun acc v -> acc + (v * v)) 0 s1
          + Array.fold_left (fun acc v -> acc + (v * v)) 0 s2
        in
        Some (s1, s2, norm)
  end

let verify pk msg sg =
  match recompute pk msg sg with
  | None -> false
  | Some (_, _, norm) -> norm <= pk.params.beta_sq

let signature_norm_sq pk msg sg =
  match recompute pk msg sg with None -> None | Some (_, _, norm) -> Some norm
