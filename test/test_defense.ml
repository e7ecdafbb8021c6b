(* Countermeasures (Section V-B) and the profiled-attack extension
   (Section V-A): masking must kill the first-order attack, shuffling
   must dilute it, templates must beat the non-profiled attack. *)

let secret = 0xC06017BC8036B580L
let n = 64

let known count seed =
  Attack.Workload.known_inputs ~n ~coeff:5 ~component:`Re ~count ~seed

(* views built from countermeasure traces share the Recover.view shape
   for the unprotected sample layout attacks *)
let masked_view count =
  let rng = Stats.Rng.create ~seed:11 in
  let ys = known count "masked" in
  {
    Attack.Recover.traces =
      Array.map
        (fun y ->
          Leakage.hw_trace Leakage.default_model rng
            (Defense.Masking.values rng ~known:y ~secret))
        ys;
    known = ys;
  }

let shuffled_view count =
  let rng = Stats.Rng.create ~seed:12 in
  let ys = known count "shuffled" in
  {
    Attack.Recover.traces =
      Array.map
        (fun y ->
          Leakage.hw_trace Leakage.default_model rng
            (Defense.Shuffle.values rng ~known:y ~secret))
        ys;
    known = ys;
  }

let plain_view count seed =
  let rng = Stats.Rng.create ~seed in
  let ys = known count (Printf.sprintf "plain %d" seed) in
  Attack.Workload.mul_views Leakage.default_model rng ~x:secret ~known:ys

let d_true = (Fpr.mantissa secret lor (1 lsl 52)) land ((1 lsl 25) - 1)

let test_masked_mul_correct () =
  (* the masked multiply computes the exact same product *)
  let rng = Stats.Rng.create ~seed:13 in
  let ys = known 50 "correctness" in
  Array.iter
    (fun y ->
      let r = Defense.Masking.mul_emit ~rng ~emit:(fun _ -> ()) y secret in
      Alcotest.(check int64) "same product as Fpr.mul" (Fpr.mul y secret) r)
    ys

let test_masked_event_count () =
  let rng = Stats.Rng.create ~seed:14 in
  let count = ref 0 in
  ignore
    (Defense.Masking.mul_emit ~rng
       ~emit:(fun _ -> incr count)
       (Fpr.of_float 3.25) secret);
  Alcotest.(check int) "event count" Defense.Masking.events_per_mul !count;
  Alcotest.(check bool) "overhead reported" true (Defense.Masking.overhead_factor > 1.)

let test_masked_recombination_is_true_product () =
  (* events 14/15 of the masked trace are the unmasked product words;
     with a clean model they must match the unprotected zhigh/low *)
  let rng = Stats.Rng.create ~seed:15 in
  let y = (known 1 "recomb").(0) in
  let vals = Array.make Defense.Masking.events_per_mul 0 in
  ignore
    (Defense.Masking.mul_emit ~rng
       ~emit:(fun (e : Defense.Masking.event) -> vals.(e.index) <- e.value)
       y secret);
  (* reference zhigh from the unprotected instrumented multiply *)
  let ref_zhigh = ref 0 in
  ignore
    (Fpr.mul_emit
       ~emit:(fun (e : Fpr.event) -> if e.label = Fpr.Mant_zhigh then ref_zhigh := e.value)
       y secret);
  Alcotest.(check int) "recombined hi = zhigh" !ref_zhigh vals.(15)

let test_masked_shares_are_random () =
  (* per-share intermediates change across executions of the same inputs *)
  let y = (known 1 "shares").(0) in
  let run seed =
    let rng = Stats.Rng.create ~seed in
    let vals = Array.make Defense.Masking.events_per_mul 0 in
    ignore
      (Defense.Masking.mul_emit ~rng
         ~emit:(fun (e : Defense.Masking.event) -> vals.(e.index) <- e.value)
         y secret);
    vals
  in
  let a = run 21 and b = run 22 in
  Alcotest.(check bool) "share products differ" true (a.(2) <> b.(2));
  Alcotest.(check int) "recombined value stable" a.(15) b.(15)

let test_masking_blocks_cpa () =
  (* the first-order attack that succeeds on 800 unprotected traces must
     fail (or at least not find the true D) on 800 masked traces: there
     is no sample whose value is the unmasked D x B product *)
  let count = 800 in
  let pv = plain_view count 16 in
  let cands seed =
    Array.to_seq
      (Attack.Hypothesis.sampled (Stats.Rng.create ~seed) ~width:25 ~truth:d_true
         ~decoys:256 ())
  in
  let plain_res = Attack.Recover.mantissa_low_multi ~candidates:(cands 1) [ pv ] in
  Alcotest.(check int) "unprotected attack succeeds" d_true plain_res.winner;
  let mv = masked_view count in
  (* interpret the masked trace through the unprotected layout: the
     attack correlates against samples that now hold share values *)
  let mv16 =
    { mv with Attack.Recover.traces = Array.map (fun t -> Array.sub t 0 16) mv.traces }
  in
  let masked_res = Attack.Recover.mantissa_low_multi ~candidates:(cands 2) [ mv16 ] in
  (* truth should not emerge: its correlation advantage is gone *)
  let top_corr =
    match masked_res.pruned with s :: _ -> s.Attack.Dema.corr | [] -> 0.
  in
  Alcotest.(check bool) "masked attack does not single out the truth" true
    (masked_res.winner <> d_true || top_corr < 0.2)

let test_shuffling_dilutes () =
  (* correlation of the true guess at the w00 slot must drop by roughly
     the shuffle degree *)
  let count = 3000 in
  let pv = plain_view count 17 in
  let sv = shuffled_view count in
  let corr_at v =
    let col =
      Array.map
        (fun t -> t.(Attack.Recover.sample Fpr.Mant_w00))
        v.Attack.Recover.traces
    in
    let h =
      Attack.Dema.hyp_vector ~model:Attack.Recover.p_w00 ~known:v.Attack.Recover.known
        d_true
    in
    Float.abs (Stats.Pearson.corr h col)
  in
  let plain_corr = corr_at pv and shuf_corr = corr_at sv in
  Alcotest.(check bool) "plain correlation strong" true (plain_corr > 0.6);
  Alcotest.(check bool)
    (Printf.sprintf "shuffled correlation diluted (%.3f vs %.3f)" shuf_corr plain_corr)
    true
    (shuf_corr < plain_corr /. 2.)

(* Profiled templates (Attack.Profile) trained on a single-window view
   with a known secret: both mantissa phases of the multiplication,
   classed by the stage models applied to the true halves — the plan
   `attack_cli profile` trains per window. *)
let train_templates (v : Attack.Recover.view) ~secret =
  let xu = Fpr.mantissa secret lor (1 lsl 52) in
  let d = xu land ((1 lsl 25) - 1) and e = xu lsr 25 in
  let low_extend, low_prune = Attack.Recover.low_stages `Hw in
  let high_extend, high_prune = Attack.Recover.high_stages ~d `Hw in
  let plan =
    List.concat_map
      (fun (g, stage) ->
        List.map
          (fun (lbl, m) ->
            (Attack.Recover.sample lbl, g, Attack.Hypothesis.Model.apply m))
          stage)
      [ (d, low_extend @ low_prune); (e, high_extend @ high_prune) ]
  in
  let targets =
    Array.of_list (List.sort_uniq compare (List.map (fun (s, _, _) -> s) plan))
  in
  Attack.Profile.train
    (Attack.Profile.default_spec ~window:Leakage.events_per_mul)
    ~targets
    (fun add ->
      Array.iteri
        (fun i row ->
          List.iter
            (fun (target, g, apply) ->
              add ~base:0 ~target
                ~cls:(Bitops.popcount (apply g v.Attack.Recover.known.(i)))
                row)
            plan)
        v.Attack.Recover.traces)

let test_template_recovers_with_fewer_traces () =
  (* profile on 2000 traces of a *different* secret, then attack with a
     small budget of the target *)
  let prof_secret =
    (* a generic profiling key: random mantissa so every datapath sample
       varies during profiling (a round constant like 77.125 has an
       all-zero low mantissa and leaves those samples untrainable) *)
    Fpr.make ~sign:0 ~exp:1028 ~mant:0x9B72E4D1C35A7
  in
  let prof_view =
    let rng = Stats.Rng.create ~seed:19 in
    let ys = known 2000 "profiling" in
    Attack.Workload.mul_views Leakage.default_model rng ~x:prof_secret ~known:ys
  in
  let store = train_templates prof_view ~secret:prof_secret in
  let attack_views =
    let rng = Stats.Rng.create ~seed:20 in
    let pairs = Attack.Workload.known_input_pairs ~n ~coeff:5 ~count:500 ~seed:"tmpl" in
    let v1, v2 = Attack.Workload.mul_view_pair Leakage.default_model rng ~x:secret ~known_pairs:pairs in
    [ v1; v2 ]
  in
  let got =
    Attack.Recover.coefficient
      ~ctx:(Attack.Ctx.make ~distinguisher:(Attack.Distinguisher.Profiled store) ())
      ~strategy:
        (Attack.Recover.Eval_sampled
           { rng = Stats.Rng.create ~seed:21; decoys = 512; truth = secret })
      attack_views
  in
  Alcotest.(check int64) "template recovers at 500 traces" secret got

let test_template_rank_orders_truth_first () =
  let pv = plain_view 800 22 in
  let store = train_templates pv ~secret in
  let cands =
    Array.to_seq
      (Attack.Hypothesis.sampled (Stats.Rng.create ~seed:23) ~width:25 ~truth:d_true
         ~decoys:512 ())
  in
  let ranked =
    Attack.Dema.rank
      ~ctx:(Attack.Ctx.make ~distinguisher:(Attack.Distinguisher.Profiled store) ())
      ~traces:pv.Attack.Recover.traces
      ~parts:
        [
          (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
          (Attack.Recover.sample Fpr.Mant_w10, Attack.Recover.p_w10);
          (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
        ]
      ~known:pv.Attack.Recover.known ~top:4 cands
  in
  Alcotest.(check int) "likelihood puts truth first" d_true
    (List.hd ranked).Attack.Dema.guess

(* cost-model pins consumed by the assessment matrix: 21 masked events
   over 16 unprotected ones, and a 4-slot shuffling pool *)
let test_countermeasure_cost_pins () =
  Alcotest.(check (float 0.)) "masking overhead 21/16" 1.3125
    Defense.Masking.overhead_factor;
  Alcotest.(check int) "shuffle dilution" 4 Defense.Shuffle.dilution

let suite =
  [
    Alcotest.test_case "masked multiply is correct" `Quick test_masked_mul_correct;
    Alcotest.test_case "countermeasure cost pins" `Quick test_countermeasure_cost_pins;
    Alcotest.test_case "masked event count/overhead" `Quick test_masked_event_count;
    Alcotest.test_case "recombination equals true product" `Quick
      test_masked_recombination_is_true_product;
    Alcotest.test_case "shares are randomised" `Quick test_masked_shares_are_random;
    Alcotest.test_case "masking blocks first-order CPA" `Slow test_masking_blocks_cpa;
    Alcotest.test_case "shuffling dilutes correlation" `Slow test_shuffling_dilutes;
    Alcotest.test_case "template needs fewer traces" `Slow
      test_template_recovers_with_fewer_traces;
    Alcotest.test_case "template rank" `Slow test_template_rank_orders_truth_first;
  ]
