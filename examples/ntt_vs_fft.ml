(* Section V-C of the paper argues that FALCON's floating-point FFT
   probably leaks *less* than the integer NTT used by other lattice
   schemes, because the NTT's modular reduction is strongly non-linear
   and kills wrong guesses quickly, while floating-point products keep
   whole classes of guesses alive (the shift aliases).  The paper calls
   for a quantitative analysis — this example provides one on the
   simulator.

   For each transform we attack one secret coefficient multiplied by a
   stream of known values, and measure (a) how many traces the correct
   guess needs to become 99.99%-significant and (b) how many candidates
   survive (stay within 95% of the top score) after 1000 traces.

   Run with:  dune exec examples/ntt_vs_fft.exe *)

let count = 4000
let noise = 2.0

let evolution_sig series = Stats.Signif.traces_to_significance series

let () =
  let rng = Stats.Rng.create ~seed:99 in
  let model = { Leakage.default_model with noise_sigma = noise } in

  (* ---- NTT side: secret s, known stream y, leak HW((s * y) mod q) ---- *)
  let secret_ntt = 4242 in
  let ys = Array.init count (fun _ -> 1 + Stats.Rng.int_below rng (Zq.q - 1)) in
  let ntt_model = { Leakage.alpha = 1.; noise_sigma = noise; baseline = 0. } in
  let ntt_traces =
    Array.map (fun y -> Leakage.hw_trace ntt_model rng [| Zq.mul secret_ntt y |]) ys
  in
  let ntt_hyp g = Array.map (fun y -> float_of_int (Bitops.popcount (Zq.mul g y))) ys in
  let ntt_series =
    Stats.Pearson.evolution ~traces:ntt_traces ~hyp:(ntt_hyp secret_ntt) ~sample:0
      ~at:(Stats.Pearson.steps ~step:50 count)
  in
  (* candidate survival after 1000 traces *)
  let sub = Array.sub ntt_traces 0 1000 in
  let col = Array.map (fun t -> t.(0)) sub in
  let score g =
    Stats.Pearson.corr (Array.sub (ntt_hyp g) 0 1000) col |> Float.abs
  in
  let best = score secret_ntt in
  let survivors_ntt = ref 0 in
  for g = 1 to 4999 do
    (* sample of the hypothesis space for runtime *)
    if score (g * 2) (* spread over the space *) > 0.95 *. best then incr survivors_ntt
  done;

  (* ---- FFT side: the floating-point multiply of the paper ---- *)
  let x = 0xC06017BC8036B580L in
  let known =
    Attack.Workload.known_inputs ~n:64 ~coeff:5 ~component:`Re ~count
      ~seed:"ntt vs fft"
  in
  let v = Attack.Workload.mul_views model rng ~x ~known in
  let xu = Fpr.mantissa x lor (1 lsl 52) in
  let d_true = xu land ((1 lsl 25) - 1) in
  let fft_series =
    Attack.Dema.evolution ~traces:v.traces
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.p_w00 ~known:v.known ~guess:d_true ~step:50
  in
  (* survival among a sampled candidate set at 1000 traces *)
  let cands =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:5) ~width:25 ~truth:d_true
      ~decoys:5000 ()
  in
  let v1000 =
    {
      Attack.Recover.traces = Array.sub v.Attack.Recover.traces 0 1000;
      known = Array.sub v.Attack.Recover.known 0 1000;
    }
  in
  let ranked =
    Attack.Recover.attack_mantissa_low_naive ~top:64 ~candidates:(Array.to_seq cands)
      v1000
  in
  let top_score = (List.hd ranked).Attack.Dema.corr in
  let survivors_fft =
    List.length
      (List.filter (fun (s : Attack.Dema.scored) -> s.corr > 0.95 *. top_score) ranked)
  in

  Printf.printf "transform | traces to 99.99%% significance | guesses alive at 1k traces\n";
  Printf.printf "----------+-------------------------------+---------------------------\n";
  Printf.printf "NTT       | %-29s | %d of 5000 sampled\n"
    (match evolution_sig ntt_series with Some d -> string_of_int d | None -> ">4000")
    !survivors_ntt;
  Printf.printf "FFT (mul) | %-29s | %d of %d sampled (alias class persists)\n"
    (match evolution_sig fft_series with Some d -> string_of_int d | None -> ">4000")
    survivors_fft (Array.length cands);
  Printf.printf "\nFFT needs the extend-and-prune addition step to finish the job;\n";
  Printf.printf "the NTT's modular reduction leaves no ties to prune.\n"
