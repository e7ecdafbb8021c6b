(* FALCON store fixtures seen from the test side: the per-unit
   ground truth read from a recorded store's [secret.key] sidecar, and
   one unit's low-mantissa part set built the way the extend-and-prune
   attack builds it.  Unit i is FFT(f) re (even i) or im (odd i) of
   coefficient i/2. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* the 25-bit low mantissa half d of unit [unit_index]'s FFT(f) value,
   what a perfect low-phase ranking's winner is *)
let falcon_unit_truth ~dir unit_index =
  match Falcon.Keycodec.decode_secret (read_file (Filename.concat dir "secret.key")) with
  | None -> failwith ("Sidecar: malformed " ^ dir ^ "/secret.key")
  | Some kp ->
      let sk = Falcon.Scheme.secret_of_keypair kp in
      let coeff = unit_index lsr 1 in
      let x =
        if unit_index land 1 = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff)
      in
      Fpr.mantissa x land ((1 lsl Attack.Recover.mantissa_low_width) - 1)

(* unit [unit_index]'s low-mantissa phase: extend + prune stages at both
   component multiplications, models contramapped over the known FFT(c)
   operand *)
let falcon_unit_parts ~leakage unit_index =
  let coeff = unit_index lsr 1 in
  let comp = if unit_index land 1 = 0 then `Re else `Im in
  let extend, prune = Attack.Recover.low_stages leakage in
  List.concat_map
    (fun mul ->
      List.map
        (fun (label, m) ->
          ( Leakage.sample_of ~coeff ~mul label,
            Attack.Hypothesis.Model.contramap
              (fun (t : Leakage.trace) ->
                Attack.Fullkey.mul_known
                  (t.Leakage.c_fft.Fft.re.(coeff), t.Leakage.c_fft.Fft.im.(coeff))
                  mul)
              m ))
        (extend @ prune))
    (Attack.Fullkey.component_muls comp)
