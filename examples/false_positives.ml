(* The paper's central observation (Section III-C, Fig. 4 c-d): a
   straightforward differential attack on the mantissa multiplication
   cannot distinguish a secret D from its shift aliases 2D, D/2, ... —
   their partial products have exactly equal Hamming weights — while the
   intermediate additions of the split-mantissa schoolbook multiplier
   break the ties.

   This example attacks the very coefficient shown in the paper's
   Figure 4 (0xC06017BC8036B580) and prints both rankings.

   Run with:  dune exec examples/false_positives.exe *)

let () =
  let x = 0xC06017BC8036B580L in
  let n = 64 and count = 2000 in
  Printf.printf "secret coefficient: %Lx  (sign 1, exponent 0x406, mantissa 0x017BC8036B580)\n"
    x;
  let known =
    Attack.Workload.known_inputs ~n ~coeff:5 ~component:`Re ~count
      ~seed:"false positives example"
  in
  let rng = Stats.Rng.create ~seed:7 in
  let v = Attack.Workload.mul_views Leakage.default_model rng ~x ~known in

  let xu = Fpr.mantissa x lor (1 lsl 52) in
  let d_true = xu land ((1 lsl 25) - 1) in
  let cands =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:8) ~width:25 ~truth:d_true
      ~decoys:2000 ()
  in
  Printf.printf "hypothesis set: %d candidates (truth + alias class + decoys)\n\n"
    (Array.length cands);

  Printf.printf "-- naive attack: correlation on the multiplications only --\n";
  let naive =
    Attack.Recover.attack_mantissa_low_naive ~top:8 ~candidates:(Array.to_seq cands) v
  in
  List.iter
    (fun (s : Attack.Dema.scored) ->
      Printf.printf "  guess 0x%07x   score %.6f%s\n" s.guess s.corr
        (if s.guess = d_true then "   <-- true D" else ""))
    naive;
  Printf.printf "  (exact ties: multiplication cannot separate the alias class)\n\n";

  Printf.printf "-- extend-and-prune: re-rank on the intermediate addition --\n";
  let r =
    Attack.Recover.mantissa_low_multi ~top:8 ~candidates:(Array.to_seq cands) [ v ]
  in
  List.iter
    (fun (s : Attack.Dema.scored) ->
      Printf.printf "  guess 0x%07x   score %.6f%s\n" s.guess s.corr
        (if s.guess = d_true then "   <-- true D" else ""))
    r.pruned;
  Printf.printf "\nwinner 0x%07x, true value 0x%07x, recovered = %b\n" r.winner d_true
    (r.winner = d_true)
