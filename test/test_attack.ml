(* Validation of the paper's attack itself: false positives appear on
   the multiplication, extend-and-prune removes them, each component is
   recovered, and the full pipeline forges a signature. *)

let paper_coeff = 0xC06017BC8036B580L
(* the example coefficient of Fig. 4: sign 1, exponent 0x406,
   mantissa 0x017BC8036B580 *)

let n = 64
let trace_count = 2000

let view_for x =
  let rng = Stats.Rng.create ~seed:2024 in
  let known =
    Attack.Workload.known_inputs ~n ~coeff:5 ~component:`Re ~count:trace_count
      ~seed:"attack tests"
  in
  Attack.Workload.mul_views Leakage.default_model rng ~x ~known

let paper_view = lazy (view_for paper_coeff)

let xu = Fpr.mantissa paper_coeff lor (1 lsl 52)
let d_true = xu land 0x1FFFFFF
let e_true = xu lsr 25

let low_candidates seed decoys =
  Array.to_seq
    (Attack.Hypothesis.sampled (Stats.Rng.create ~seed) ~width:25 ~truth:d_true
       ~decoys ())

let high_candidates seed decoys =
  Array.to_seq
    (Attack.Hypothesis.sampled (Stats.Rng.create ~seed) ~width:28 ~lo:(1 lsl 27)
       ~truth:e_true ~decoys ())

let test_shift_aliases () =
  let a = Attack.Hypothesis.shift_aliases ~width:8 0b1100 in
  Alcotest.(check bool) "contains halvings and doublings" true
    (List.mem 0b0011 a && List.mem 0b0110 a && List.mem 0b11000 a && List.mem 0b110000 a);
  Alcotest.(check bool) "excludes self" true (not (List.mem 0b1100 a));
  Alcotest.(check bool) "respects width" true (List.for_all (fun v -> v < 256) a);
  (* the defining property: identical product Hamming weights *)
  List.iter
    (fun v ->
      for b = 1 to 50 do
        if Bitops.popcount (v * b) <> Bitops.popcount (0b1100 * b) then
          Alcotest.failf "alias %d does not tie at b=%d" v b
      done)
    a

let test_sampled_candidates () =
  let rng = Stats.Rng.create ~seed:77 in
  let c = Attack.Hypothesis.sampled rng ~width:25 ~truth:d_true ~decoys:100 () in
  Alcotest.(check bool) "contains truth" true (Array.mem d_true c);
  List.iter
    (fun a -> Alcotest.(check bool) "contains aliases" true (Array.mem a c))
    (Attack.Hypothesis.shift_aliases ~width:25 d_true);
  Array.iter
    (fun v -> Alcotest.(check bool) "range" true (v > 0 && v < 1 lsl 25))
    c

let test_exhaustive_seq () =
  let s = Attack.Hypothesis.exhaustive ~width:4 ~lo:8 () in
  Alcotest.(check (list int)) "8..15" [ 8; 9; 10; 11; 12; 13; 14; 15 ] (List.of_seq s);
  Alcotest.(check int) "count" 8 (Attack.Hypothesis.count ~width:4 ~lo:8 ())

let test_naive_attack_has_false_positives () =
  (* Fig. 4(c): the multiplication-only attack ties the correct guess with
     its shift aliases — exactly equal scores. *)
  let v = Lazy.force paper_view in
  let ranking =
    Attack.Recover.attack_mantissa_low_naive ~top:8
      ~candidates:(low_candidates 1 1000) v
  in
  let top_scores = List.map (fun (s : Attack.Dema.scored) -> s.corr) ranking in
  let top_guesses = List.map (fun (s : Attack.Dema.scored) -> s.guess) ranking in
  let aliases = Attack.Hypothesis.shift_aliases ~width:25 d_true in
  (* every top guess is the truth or one of its aliases, all with the
     same score *)
  let tied =
    List.for_all (fun g -> g = d_true || List.mem g aliases) top_guesses
  in
  Alcotest.(check bool) "top guesses are the alias class" true tied;
  let s0 = List.hd top_scores in
  List.iter
    (fun s -> Alcotest.(check bool) "scores tie" true (Float.abs (s -. s0) < 1e-9))
    top_scores

let test_extend_prune_resolves () =
  (* Fig. 4(d): the intermediate addition breaks the ties. *)
  let v = Lazy.force paper_view in
  let r = Attack.Recover.mantissa_low_multi ~candidates:(low_candidates 2 1000) [ v ] in
  Alcotest.(check int) "low mantissa recovered" d_true r.winner;
  (* and the prune ranking separates truth strictly from the aliases *)
  match r.pruned with
  | best :: second :: _ ->
      Alcotest.(check bool) "strict separation" true (best.corr > second.corr)
  | _ -> Alcotest.fail "prune ranking too short"

let test_mantissa_high () =
  let v = Lazy.force paper_view in
  let r =
    Attack.Recover.mantissa_high_multi ~candidates:(high_candidates 3 1000) ~d:d_true
      [ v ]
  in
  Alcotest.(check int) "high mantissa recovered" e_true r.winner

let test_sign_attack () =
  let v = Lazy.force paper_view in
  let s, corr = Attack.Recover.attack_sign v in
  Alcotest.(check int) "sign" 1 s;
  Alcotest.(check bool) "positive correlation" true (corr > 0.)

let test_sign_exponent_attack () =
  let v = Lazy.force paper_view in
  let s, e, _ =
    Attack.Recover.sign_exponent_multi ~mant:(Fpr.mantissa paper_coeff) [ v ]
  in
  Alcotest.(check int) "sign" 1 s;
  Alcotest.(check int) "exponent" 0x406 e

let test_full_coefficient () =
  let v = Lazy.force paper_view in
  let got =
    Attack.Recover.coefficient
      ~strategy:
        (Attack.Recover.Eval_sampled
           { rng = Stats.Rng.create ~seed:4; decoys = 1000; truth = paper_coeff })
      [ v ]
  in
  Alcotest.(check int64) "paper coefficient recovered bit-exactly" paper_coeff got

let test_exhaustive_small_window () =
  (* full enumeration over a reduced width: embed a secret whose low
     mantissa bits live in a 2^14 space and search all of it *)
  let x = Fpr.make ~sign:0 ~exp:1027 ~mant:((0x1F3A lsl 25) lor 0x2B47) in
  let v = view_for x in
  let xu = Fpr.mantissa x lor (1 lsl 52) in
  let r =
    Attack.Recover.mantissa_low_multi
      ~candidates:(Attack.Hypothesis.exhaustive ~width:14 ())
      [ v ]
  in
  Alcotest.(check int) "exhaustive recovery" (xu land 0x1FFFFFF) r.winner

let test_calibration () =
  let v = Lazy.force paper_view in
  let alpha, baseline =
    Attack.Calibrate.estimate ~traces:v.traces ~known:v.known
      (List.map
         (fun (lbl, word) -> (Attack.Recover.sample lbl, word))
         (Attack.Recover.calibration_points `Hw))
  in
  Alcotest.(check bool) "alpha ~ 1" true (Float.abs (alpha -. 1.) < 0.05);
  Alcotest.(check bool) "baseline ~ 10" true (Float.abs (baseline -. 10.) < 0.5)

(* A stage over views of different lengths is refused, naming the
   lengths, whichever view is the longer: unchecked, a shorter first
   view drops the longer view's extra traces silently, and a longer
   first view indexes past the shorter one's end. *)
let test_unequal_views_refused () =
  let view d =
    {
      Attack.Recover.traces = Array.make d (Array.make Leakage.events_per_mul 10.);
      known = Array.make d (Fpr.make ~sign:0 ~exp:1023 ~mant:0x123456789);
    }
  in
  List.iter
    (fun (views, lengths) ->
      let refused who f =
        match f () with
        | () -> Alcotest.failf "%s accepted views of %s traces" who lengths
        | exception Invalid_argument msg ->
            Alcotest.(check string)
              (who ^ " names the lengths")
              (Printf.sprintf "Recover.%s: views hold different trace counts (%s)"
                 (if who = "sign_exponent_multi" then "gather" else "combine")
                 lengths)
              msg
      in
      refused "sign_exponent_multi" (fun () ->
          ignore (Attack.Recover.sign_exponent_multi ~mant:0x123 views));
      refused "mantissa_low_multi" (fun () ->
          ignore
            (Attack.Recover.mantissa_low_multi ~candidates:(List.to_seq [ 1; 2; 3 ]) views)))
    [ ([ view 3; view 2 ], "3, 2"); ([ view 2; view 3 ], "2, 3") ]

let test_evolution_and_significance () =
  (* correlation of the true w00 hypothesis becomes significant and stays *)
  let v = Lazy.force paper_view in
  let series =
    Attack.Dema.evolution ~traces:v.traces
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.p_w00 ~known:v.known ~guess:d_true ~step:100
  in
  match Stats.Signif.traces_to_significance series with
  | None -> Alcotest.fail "never significant"
  | Some d -> Alcotest.(check bool) "significant well before 2000" true (d <= 1000)

let test_full_pipeline_forgery () =
  let n = 16 in
  let sk, pk = Falcon.Scheme.keygen ~n ~seed:"pipeline victim" in
  let traces = Leakage.capture Leakage.default_model ~seed:21 sk ~count:2500 in
  let strategy ~coeff ~mul =
    let truth =
      if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff)
    in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:(1000 + (coeff * 4) + mul); decoys = 400; truth }
  in
  let res = Attack.Fullkey.recover_key ~traces ~h:pk.h strategy in
  Alcotest.(check int) "all coefficients recovered" (2 * n)
    (Attack.Fullkey.count_correct res.f_fft ~truth:sk.f_fft);
  Alcotest.(check bool) "f recovered" true (res.f = sk.kp.f);
  match res.keypair with
  | None -> Alcotest.fail "key pair not rebuilt"
  | Some kp ->
      Alcotest.(check bool) "g recovered" true (kp.g = sk.kp.g);
      let sg = Attack.Fullkey.forge ~keypair:kp ~seed:"forger" "arbitrary message" in
      Alcotest.(check bool) "forged signature verifies under victim key" true
        (Falcon.Scheme.verify pk "arbitrary message" sg)

let test_recovery_fails_with_wrong_traces () =
  (* attacking traces of a different key must not yield this key *)
  let n = 16 in
  let sk_a, _ = Falcon.Scheme.keygen ~n ~seed:"key A" in
  let sk_b, pk_b = Falcon.Scheme.keygen ~n ~seed:"key B" in
  let traces = Leakage.capture Leakage.default_model ~seed:22 sk_a ~count:800 in
  let strategy ~coeff ~mul =
    let truth =
      if mul = 0 then sk_b.f_fft.Fft.re.(coeff) else sk_b.f_fft.Fft.im.(coeff)
    in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:(2000 + coeff + mul); decoys = 100; truth }
  in
  let res = Attack.Fullkey.recover_key ~traces ~h:pk_b.h strategy in
  Alcotest.(check bool) "key B not recovered from key A's traces" true
    (res.keypair = None || res.f <> sk_b.kp.f)

(* The events of [Fpr.mul_emit known secret]: their labels in order, the
   value at a label, and its XOR with the value of the event before. *)
let emitted known secret =
  let events = ref [] in
  ignore (Fpr.mul_emit ~emit:(fun ev -> events := ev :: !events) known secret);
  let events = Array.of_list (List.rev !events) in
  let index lbl =
    let rec go i = if events.(i).Fpr.label = lbl then i else go (i + 1) in
    go 0
  in
  ( Array.map (fun ev -> ev.Fpr.label) events,
    (fun lbl -> events.(index lbl).Fpr.value),
    fun lbl ->
      let i = index lbl in
      events.(i - 1).Fpr.value lxor events.(i).Fpr.value )

(* The leakage models are pinned to the victim: applied to the true
   guess, every model of both leakage families predicts exactly the
   value [Fpr.mul_emit] emits at the model's label — under bus HD, its
   XOR with the value of the event before it in the emitter's order,
   {!Leakage.mul_event_order}.  That covers the calibration load
   points, the mantissa stages, [p_sign], [p_exp] and the sign/exponent
   stage's parts; the HW Result_hi part leaves out the guess-free hi20
   field, so it is checked with [hi20] put back.  The known FFT(c)
   operand is the first operand of the attacked multiply, the secret
   the second.  The sign/exponent parts model FALCON's range, where no
   product overflows or flushes to zero, so they are checked on the pair
   with both biased exponents folded into [900, 1150). *)
let prop_models_match_emitter =
  QCheck.Test.make ~count:100_000 ~name:"leakage models = Fpr.mul_emit values"
    QCheck.(pair int64 int64)
    (fun (known, secret) ->
      let order, hw, hd = emitted known secret in
      let yu = Fpr.mantissa secret lor (1 lsl 52) in
      let d = yu land 0x1FFFFFF and e = yu lsr 25 in
      let staged leakage =
        let lx, lp = Attack.Recover.low_stages leakage in
        let hx, hp = Attack.Recover.high_stages ~d leakage in
        List.map (fun (lbl, m) -> (lbl, m, d)) (lx @ lp)
        @ List.map (fun (lbl, m) -> (lbl, m, e)) (hx @ hp)
      in
      let matches expect (lbl, m, guess) =
        Attack.Hypothesis.Model.apply m guess known = expect lbl
      in
      let calibrated expect leakage =
        List.for_all
          (fun (lbl, word) -> word known = expect lbl)
          (Attack.Recover.calibration_points leakage)
      in
      let tame y =
        Fpr.make ~sign:(Fpr.sign_bit y)
          ~exp:(900 + (Fpr.biased_exponent y mod 250))
          ~mant:(Fpr.mantissa y)
      in
      let tail_matches () =
        let known = tame known and secret = tame secret in
        let _, hw, hd = emitted known secret in
        let mant = Fpr.mantissa secret in
        let g = (Fpr.sign_bit secret lsl 11) lor Fpr.biased_exponent secret in
        let parts leakage =
          List.map
            (fun (lbl, m) -> (lbl, Attack.Hypothesis.Model.apply m g 0))
            (Attack.Recover.sign_exponent_parts ~leakage ~mant [| known |])
        in
        List.for_all
          (fun (lbl, v) ->
            match lbl with
            | Fpr.Result_hi -> v lor Attack.Recover.hi20 ~mant known = hw lbl
            | _ -> v = hw lbl)
          (parts `Hw)
        && List.for_all (fun (lbl, v) -> v = hd lbl) (parts `Hd)
      in
      order = Leakage.mul_event_order
      && calibrated hw `Hw
      && calibrated hd `Hd
      && List.for_all (matches hw)
           ((Fpr.Sign_xor, Attack.Recover.p_sign, Fpr.sign_bit secret)
           :: (Fpr.Exp_sum, Attack.Recover.p_exp, Fpr.biased_exponent secret)
           :: staged `Hw)
      && List.for_all (matches hd) (staged `Hd)
      && tail_matches ())

let suite =
  [
    Alcotest.test_case "shift aliases" `Quick test_shift_aliases;
    Alcotest.test_case "sampled candidate sets" `Quick test_sampled_candidates;
    Alcotest.test_case "exhaustive sequence" `Quick test_exhaustive_seq;
    Alcotest.test_case "naive attack ties (Fig 4c)" `Slow test_naive_attack_has_false_positives;
    Alcotest.test_case "extend-and-prune resolves (Fig 4d)" `Slow test_extend_prune_resolves;
    Alcotest.test_case "high mantissa" `Slow test_mantissa_high;
    Alcotest.test_case "sign attack (Fig 4a)" `Slow test_sign_attack;
    Alcotest.test_case "joint sign+exponent" `Slow test_sign_exponent_attack;
    Alcotest.test_case "paper coefficient end-to-end" `Slow test_full_coefficient;
    Alcotest.test_case "exhaustive search, reduced width" `Slow test_exhaustive_small_window;
    Alcotest.test_case "calibration" `Slow test_calibration;
    Alcotest.test_case "views of unequal length refused" `Quick test_unequal_views_refused;
    Alcotest.test_case "traces-to-significance" `Slow test_evolution_and_significance;
    Alcotest.test_case "full pipeline forgery" `Slow test_full_pipeline_forgery;
    Alcotest.test_case "wrong traces do not recover" `Slow test_recovery_fails_with_wrong_traces;
    QCheck_alcotest.to_alcotest prop_models_match_emitter;
  ]
