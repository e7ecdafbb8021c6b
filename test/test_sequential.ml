(* Sequential early-stopping subsystem: decision-rule properties
   (Fisher z oddness/monotonicity, gap antisymmetry, alpha spending),
   tester unit tests, and the determinism contract of the
   adaptive sweeps — same store + seed + alpha must stop at the same
   point with the same winner at every jobs value and prefetch setting
   (scalar-vs-fused parity at every look is pinned in test_profile),
   and an exhausted adaptive sweep must equal the fixed-budget
   ranking bitwise. *)

let m25 = (1 lsl 25) - 1

(* {2 Stats.Signif properties} *)

let corr_range = QCheck.float_range (-0.999) 0.999

let prop_fisher_z_odd =
  QCheck.Test.make ~count:500 ~name:"fisher_z exactly odd" corr_range (fun r ->
      Stats.Signif.fisher_z (-.r) = -.Stats.Signif.fisher_z r)

let prop_fisher_z_monotone =
  QCheck.Test.make ~count:500 ~name:"fisher_z monotone"
    QCheck.(pair corr_range corr_range)
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Stats.Signif.fisher_z lo <= Stats.Signif.fisher_z hi)

let prop_gap_antisymmetric =
  QCheck.Test.make ~count:500 ~name:"corr_gap_z exactly antisymmetric"
    QCheck.(triple (int_range 4 5000) corr_range corr_range)
    (fun (n, r1, r2) ->
      Stats.Signif.corr_gap_z ~n ~r1:r2 ~r2:r1
      = -.Stats.Signif.corr_gap_z ~n ~r1 ~r2)

let prop_gap_monotone_in_n =
  QCheck.Test.make ~count:500 ~name:"corr_gap_z grows with n for a fixed gap"
    QCheck.(triple (int_range 4 2000) (int_range 1 2000) (pair corr_range corr_range))
    (fun (n, dn, (a, b)) ->
      let r1 = Float.max a b and r2 = Float.min a b in
      Stats.Signif.corr_gap_z ~n:(n + dn) ~r1 ~r2
      >= Stats.Signif.corr_gap_z ~n ~r1 ~r2)

let test_signif_edges () =
  Alcotest.(check (float 0.)) "gap is 0 below 4 traces" 0.
    (Stats.Signif.corr_gap_z ~n:3 ~r1:0.9 ~r2:0.1);
  Alcotest.(check bool) "fisher_se infinite below 4 traces" true
    (Stats.Signif.fisher_se ~n:3 = infinity);
  Alcotest.(check bool) "fisher_z finite at the pole" true
    (Float.is_finite (Stats.Signif.fisher_z 1.));
  Alcotest.(check (float 0.)) "two_proportion_z empty sample" 0.
    (Stats.Signif.two_proportion_z ~k1:0 ~n1:0 ~k2:3 ~n2:7);
  Alcotest.(check (float 0.)) "two_proportion_z all successes both sides" 0.
    (Stats.Signif.two_proportion_z ~k1:5 ~n1:5 ~k2:7 ~n2:7);
  Alcotest.(check bool) "two_proportion_z sign follows the better rate" true
    (Stats.Signif.two_proportion_z ~k1:9 ~n1:10 ~k2:2 ~n2:10 > 0.);
  Alcotest.(check (float 1e-12)) "two_proportion_z antisymmetric under swap"
    (-.Stats.Signif.two_proportion_z ~k1:9 ~n1:10 ~k2:2 ~n2:10)
    (Stats.Signif.two_proportion_z ~k1:2 ~n1:10 ~k2:9 ~n2:10);
  Alcotest.(check bool) "normal_cdf saturates" true
    (Stats.Signif.normal_cdf 9. = 1. && Stats.Signif.normal_cdf (-9.) = 0.)

(* {2 Decision rule} *)

let test_spec_validation () =
  Alcotest.check_raises "alpha 0 rejected"
    (Invalid_argument "Decision.spec: alpha must lie in (0,1)")
    (fun () -> ignore (Sequential.Decision.spec ~alpha:0. ()));
  Alcotest.check_raises "min_traces below 4 rejected"
    (Invalid_argument "Decision.spec: min_traces must be >= 4")
    (fun () -> ignore (Sequential.Decision.spec ~alpha:0.01 ~min_traces:3 ()))

let test_min_traces_floor () =
  let t =
    Sequential.Decision.tester (Sequential.Decision.spec ~alpha:0.01 ~min_traces:8 ())
  in
  (* a free look: below the floor even a perfect separation continues
     and no alpha is spent *)
  (match Sequential.Decision.check t ~n:5 ~winner:1 ~r1:0.99 ~r2:0.0 with
  | Sequential.Decision.Continue -> ()
  | Sequential.Decision.Stop _ -> Alcotest.fail "stopped below the min_traces floor");
  Alcotest.(check int) "no look consumed" 0 (Sequential.Decision.looks t);
  Alcotest.(check int) "next look due at the floor" 8 (Sequential.Decision.due t);
  match Sequential.Decision.check t ~n:1000 ~winner:1 ~r1:0.9 ~r2:0.0 with
  | Sequential.Decision.Stop s ->
      Alcotest.(check int) "stop at the fed trace count" 1000
        s.Sequential.Decision.n_traces;
      Alcotest.(check int) "winner echoed" 1 s.Sequential.Decision.winner;
      Alcotest.(check (float 1e-12)) "confidence is 1 - alpha" 0.99
        s.Sequential.Decision.confidence;
      Alcotest.(check int) "one look consumed" 1 (Sequential.Decision.looks t);
      Alcotest.(check int) "still due at the floor after a look" 8
        (Sequential.Decision.due t);
      Alcotest.(check (list int)) "history records the look" [ 1000 ]
        (List.map fst (Sequential.Decision.history t))
  | Sequential.Decision.Continue -> Alcotest.fail "clear separation did not stop"

let test_alpha_spending_tightens () =
  (* the same moderate gap that passes at look 1 must fail after many
     spent looks: the boundary grows as alpha is spent *)
  let spec = Sequential.Decision.spec ~alpha:0.05 ~min_traces:8 () in
  let fresh = Sequential.Decision.tester spec in
  let gap_stops t n =
    match Sequential.Decision.check t ~n ~winner:0 ~r1:0.32 ~r2:0.0 with
    | Sequential.Decision.Stop _ -> true
    | Sequential.Decision.Continue -> false
  in
  Alcotest.(check bool) "moderate gap stops on a fresh tester" true
    (gap_stops fresh 100);
  let spent = Sequential.Decision.tester spec in
  for _ = 1 to 20 do
    ignore (Sequential.Decision.check spent ~n:100 ~winner:0 ~r1:0.01 ~r2:0.0)
  done;
  Alcotest.(check bool) "the same gap no longer stops after 20 spent looks" false
    (gap_stops spent 100)

(* {2 In-memory adaptive sweeps} *)

(* synthetic single-part workload: trace column = popcount of
   (secret * k) plus deterministic pseudo-noise *)
let synth_view ~count ~secret ~sigma =
  let rng = Stats.Rng.create ~seed:1234 in
  let known = Array.init count (fun _ -> 1 + Stats.Rng.int_below rng 4095) in
  let traces =
    Array.map
      (fun k ->
        [|
          float_of_int (Bitops.popcount (secret * k))
          +. Stats.Rng.gaussian rng ~mu:0. ~sigma;
        |])
      known
  in
  (traces, known)

(* the sweep applies the Hamming-weight leakage model itself: a
   hypothesis model returns the integer intermediate, not its weight *)
let synth_model = Attack.Hypothesis.Model.fn (fun g k -> g * k)

(* the same model blind to the low bit: candidates 2k and 2k+1 tie
   exactly, so the top-1 vs runner-up gap is identically zero and the
   tester can never fire *)
let aliased_model = Attack.Hypothesis.Model.fn (fun g k -> (g lsr 1) * k)

let test_rank_until_exhausted_equals_rank () =
  let traces, known = synth_view ~count:120 ~secret:41 ~sigma:0.5 in
  let candidates = Array.init 16 (fun i -> 30 + i) in
  let parts = [ (0, aliased_model) ] in
  let spec = Sequential.Decision.spec ~alpha:1e-4 ~min_traces:8 () in
  let u =
    Attack.Dema.rank_until ~spec ~batch:16 ~traces ~parts ~known ~top:8
      (Array.to_seq candidates)
  in
  Alcotest.(check bool) "aliased leaders never separate" true
    (u.Attack.Dema.stop = None);
  Alcotest.(check int) "budget exhausted" 120 u.Attack.Dema.n_traces;
  let fixed =
    Attack.Dema.rank ~traces ~parts ~known ~top:8 (Array.to_seq candidates)
  in
  Alcotest.(check bool) "exhausted adaptive ranking = fixed ranking, bitwise" true
    (u.Attack.Dema.ranking = fixed)

let test_rank_until_deterministic () =
  let traces, known = synth_view ~count:300 ~secret:41 ~sigma:0.5 in
  let candidates = Array.init 24 (fun i -> 30 + i) in
  let parts = [ (0, synth_model) ] in
  let spec = Sequential.Decision.spec ~alpha:1e-3 ~min_traces:8 () in
  let run jobs =
    Attack.Dema.rank_until ~ctx:(Attack.Ctx.make ~jobs ()) ~spec ~batch:32 ~traces
      ~parts ~known ~top:8 (Array.to_seq candidates)
  in
  let reference = run 1 in
  (match reference.Attack.Dema.stop with
  | Some s ->
      Alcotest.(check int) "stops on the true secret" 41
        s.Sequential.Decision.winner;
      Alcotest.(check bool) "stops before the budget" true
        (reference.Attack.Dema.n_traces < 300)
  | None -> Alcotest.fail "clear synthetic signal did not stop");
  List.iter
    (fun jobs ->
      if run jobs <> reference then
        Alcotest.failf "until record diverged at jobs %d" jobs)
    [ 2; 4 ]

(* {2 Store-backed adaptive sweeps} *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_campaign ?(noise = 0.4) ~n ~count ~shard ~seed f =
  let model = { Leakage.default_model with noise_sigma = noise } in
  let sk = fst (Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "seq test %d" seed)) in
  let traces = Leakage.capture model ~seed sk ~count in
  let dir = Filename.temp_dir "fd_seq_test" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n
          ~width:(n * Leakage.events_per_coeff)
          ~shard_traces:shard
          ~model
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      f sk traces (Tracestore.Reader.open_store dir))

let low_parts =
  [
    (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
    (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
  ]

let test_stream_rank_until () =
  with_campaign ~noise:0.2 ~n:16 ~count:120 ~shard:15 ~seed:77
  @@ fun sk _traces reader ->
  let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land m25 in
  let candidates =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:55)
      ~width:25 ~truth:d_true ~decoys:64 ()
  in
  let known (t : Leakage.trace) = t.c_fft.Fft.re.(0) in
  (* a floor above the campaign size = no look ever fires, so the
     adaptive sweep must reproduce the fixed streaming ranking bitwise *)
  let never = Sequential.Decision.spec ~alpha:0.01 ~min_traces:128 () in
  let u =
    Attack.Dema.Stream.rank_until ~spec:never reader ~parts:low_parts ~known
      ~top:8 (Array.to_seq candidates)
  in
  Alcotest.(check bool) "no stop below the floor" true (u.Attack.Dema.stop = None);
  let fixed =
    Attack.Dema.Stream.rank reader ~parts:low_parts ~known ~top:8
      (Array.to_seq candidates)
  in
  Alcotest.(check bool) "exhausted streaming adaptive = Stream.rank, bitwise" true
    (u.Attack.Dema.ranking = fixed);
  (* a stopping configuration must be bit-identical across jobs and
     prefetch *)
  let spec = Sequential.Decision.spec ~alpha:1e-3 ~min_traces:8 () in
  let run ~jobs ~prefetch =
    Attack.Dema.Stream.rank_until ~ctx:(Attack.Ctx.make ~jobs ()) ~prefetch ~spec reader
      ~parts:low_parts ~known ~top:8 (Array.to_seq candidates)
  in
  let reference = run ~jobs:1 ~prefetch:false in
  (match reference.Attack.Dema.stop with
  | Some s ->
      Alcotest.(check int) "streaming stop recovers the truth" d_true
        s.Sequential.Decision.winner
  | None -> Alcotest.fail "low-noise streaming campaign did not stop");
  List.iter
    (fun (jobs, prefetch) ->
      if run ~jobs ~prefetch <> reference then
        Alcotest.failf "streaming until record diverged at jobs %d" jobs)
    [ (1, true); (2, true); (4, false) ];
  (* max_traces caps the budget the saved-trace accounting is charged
     against *)
  let capped =
    Attack.Dema.Stream.rank_until ~spec ~max_traces:32 reader ~parts:low_parts
      ~known ~top:8 (Array.to_seq candidates)
  in
  Alcotest.(check bool) "cap bounds the consumed traces" true
    (capped.Attack.Dema.n_traces <= 32)

let test_fullkey_adaptive () =
  with_campaign ~n:8 ~count:160 ~shard:20 ~seed:91 @@ fun sk _traces reader ->
  let strategy ~coeff ~mul =
    let truth = if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff) in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 128; truth }
  in
  let fixed =
    Attack.Fullkey.recover_f_fft_store ~ctx:(Attack.Ctx.make ~jobs:2 ()) ~reader strategy
  in
  let spec = Sequential.Decision.spec ~alpha:1e-4 ~min_traces:8 () in
  let summary = ref None in
  let adaptive =
    Attack.Fullkey.recover_f_fft_store ~ctx:(Attack.Ctx.make ~jobs:2 ()) ~stop:spec
      ~stop_report:(fun s -> summary := Some s)
      ~reader strategy
  in
  Alcotest.(check int) "adaptive recovery is bit-exact" 16
    (Attack.Fullkey.count_correct adaptive ~truth:sk.f_fft);
  Alcotest.(check bool) "adaptive key = fixed-budget key" true (adaptive = fixed);
  (match !summary with
  | Some s ->
      Alcotest.(check int) "one unit per (coefficient, component)" 16
        s.Sequential.Campaign.units;
      Alcotest.(check bool) "saved traces are non-negative" true
        (s.Sequential.Campaign.traces_saved >= 0);
      Alcotest.(check int) "budget recorded" 160 s.Sequential.Campaign.total_traces
  | None -> Alcotest.fail "stop_report not called");
  let summary1 = ref None in
  let adaptive1 =
    Attack.Fullkey.recover_f_fft_store ~ctx:(Attack.Ctx.make ~jobs:1 ()) ~stop:spec
      ~stop_report:(fun s -> summary1 := Some s)
      ~reader strategy
  in
  Alcotest.(check bool) "adaptive recovery bit-identical at jobs 1 vs 2" true
    (adaptive1 = adaptive);
  match (!summary, !summary1) with
  | Some a, Some b ->
      Alcotest.(check bool) "stop points bit-identical at jobs 1 vs 2" true
        (a.Sequential.Campaign.traces_used = b.Sequential.Campaign.traces_used)
  | _ -> Alcotest.fail "missing stop summaries"

(* Every unit of the adaptive crack recovers what the fixed-budget
   per-coefficient attack recovers on that unit's own prefix — the first
   [traces_used.(t)] traces — and the rankings the driver takes from its
   decision sweeps are the extend-and-prune rankings of that prefix,
   correlations included. *)
let test_fullkey_adaptive_prefix_parity () =
  with_campaign ~n:8 ~count:160 ~shard:20 ~seed:91 @@ fun sk traces reader ->
  let strategy ~coeff ~mul =
    let truth = if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff) in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 128; truth }
  in
  let spec = Sequential.Decision.spec ~alpha:1e-4 ~min_traces:8 () in
  let run jobs =
    let summary = ref None in
    let f_fft =
      Attack.Fullkey.recover_f_fft_store ~ctx:(Attack.Ctx.make ~jobs ()) ~stop:spec
        ~stop_report:(fun s -> summary := Some s)
        ~reader strategy
    in
    match !summary with
    | Some s -> (f_fft, s.Sequential.Campaign.traces_used)
    | None -> Alcotest.fail "stop_report not called"
  in
  let runs = [ run 1; run 2 ] in
  let used = snd (List.hd runs) in
  Alcotest.(check bool) "stop points equal at jobs 1 and 2" true
    (List.for_all (fun (_, u) -> u = used) runs);
  Alcotest.(check bool) "some unit stops before the budget" true
    (Array.exists (fun u -> u < Array.length traces) used);
  Array.iteri
    (fun t u ->
      let coeff = t / 2 and mul = t mod 2 in
      let component = if mul = 0 then `Re else `Im in
      let prefix = Array.sub traces 0 u in
      let views = Attack.Recover.views_for prefix ~coeff ~component in
      let fixed = Attack.Recover.coefficient ~strategy:(strategy ~coeff ~mul) views in
      List.iteri
        (fun i (f_fft, _) ->
          if not (Fpr.equal (if mul = 0 then f_fft.Fft.re else f_fft.Fft.im).(coeff) fixed)
          then
            Alcotest.failf "jobs %d unit %d (%d traces): adaptive value differs from \
                            Recover.coefficient on its prefix" (i + 1) t u)
        runs;
      let low_c, high_c =
        match strategy ~coeff ~mul with
        | Attack.Recover.Eval_sampled { rng; decoys; truth } ->
            Attack.Recover.sampled_candidates ~rng ~decoys ~truth
        | Attack.Recover.Exhaustive -> assert false
      in
      let low =
        Attack.Recover.mantissa_low_multi ~top:32 ~candidates:(Array.to_seq low_c) views
      in
      let high =
        Attack.Recover.mantissa_high_multi ~top:32 ~candidates:(Array.to_seq high_c)
          ~d:low.winner views
      in
      let low', high_extend =
        Attack.Fullkey.adaptive_rankings strategy ~coeff ~component prefix
      in
      if low' <> low then
        Alcotest.failf "unit %d: sweep-built low ranking differs from \
                        mantissa_low_multi on its prefix" t;
      if high_extend <> high.extend then
        Alcotest.failf "unit %d: sweep-built high extend differs from \
                        mantissa_high_multi on its prefix" t)
    used

let test_fullkey_adaptive_rejects_exhaustive () =
  with_campaign ~n:8 ~count:40 ~shard:20 ~seed:13 @@ fun _sk _traces reader ->
  let spec = Sequential.Decision.spec ~alpha:0.01 () in
  match
    Attack.Fullkey.recover_f_fft_store ~stop:spec ~reader (fun ~coeff:_ ~mul:_ ->
        Attack.Recover.Exhaustive)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Exhaustive + ?stop must be rejected"

(* {2 Degenerate-regime warnings} *)

let events_of buf = Obs.Jsonl.read_string (Buffer.contents buf)

let has_event name records =
  List.exists
    (fun r ->
      Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt = Some name)
    records

let test_degenerate_rank_warns () =
  let traces, known = synth_view ~count:8 ~secret:41 ~sigma:0.5 in
  let candidates = Array.init 16 (fun i -> 30 + i) in
  let buf = Buffer.create 1024 in
  let ctx = Attack.Ctx.make ~obs:(Obs.make (Obs.Jsonl.to_buffer buf)) () in
  let _ =
    Attack.Dema.rank ~ctx ~traces ~parts:[ (0, synth_model) ] ~known ~top:8
      (Array.to_seq candidates)
  in
  Alcotest.(check bool) "rank with fewer traces than guesses warns" true
    (has_event "dema.degenerate_rank" (events_of buf));
  (* a healthy regime stays quiet *)
  let traces, known = synth_view ~count:64 ~secret:41 ~sigma:0.5 in
  let buf2 = Buffer.create 1024 in
  let ctx2 = Attack.Ctx.make ~obs:(Obs.make (Obs.Jsonl.to_buffer buf2)) () in
  let _ =
    Attack.Dema.rank ~ctx:ctx2 ~traces ~parts:[ (0, synth_model) ] ~known ~top:8
      (Array.to_seq candidates)
  in
  Alcotest.(check bool) "no warning with traces >= guesses" false
    (has_event "dema.degenerate_rank" (events_of buf2))

let test_degenerate_evolution_warns () =
  with_campaign ~n:16 ~count:3 ~shard:2 ~seed:5 @@ fun sk _traces reader ->
  let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land m25 in
  let buf = Buffer.create 1024 in
  let ctx = Attack.Ctx.make ~obs:(Obs.make (Obs.Jsonl.to_buffer buf)) () in
  let _ =
    Attack.Dema.Stream.evolution ~ctx reader
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.p_w00
      ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
      ~guess:d_true
  in
  Alcotest.(check bool) "evolution over <= 3 traces warns" true
    (has_event "dema.degenerate_evolution" (events_of buf))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fisher_z_odd;
    QCheck_alcotest.to_alcotest prop_fisher_z_monotone;
    QCheck_alcotest.to_alcotest prop_gap_antisymmetric;
    QCheck_alcotest.to_alcotest prop_gap_monotone_in_n;
    Alcotest.test_case "signif edge cases" `Quick test_signif_edges;
    Alcotest.test_case "spec validation" `Quick test_spec_validation;
    Alcotest.test_case "min_traces floor is a free look" `Quick test_min_traces_floor;
    Alcotest.test_case "alpha spending tightens the boundary" `Quick
      test_alpha_spending_tightens;
    Alcotest.test_case "exhausted rank_until = rank, bitwise" `Quick
      test_rank_until_exhausted_equals_rank;
    Alcotest.test_case "rank_until deterministic across jobs 1/2/4" `Quick
      test_rank_until_deterministic;
    Alcotest.test_case "streaming rank_until: exhaustion + determinism" `Quick
      test_stream_rank_until;
    Alcotest.test_case "full-key adaptive = fixed, deterministic" `Slow
      test_fullkey_adaptive;
    Alcotest.test_case "full-key adaptive = per-unit prefix attack" `Slow
      test_fullkey_adaptive_prefix_parity;
    Alcotest.test_case "adaptive rejects Exhaustive" `Quick
      test_fullkey_adaptive_rejects_exhaustive;
    Alcotest.test_case "degenerate rank regime warns" `Quick
      test_degenerate_rank_warns;
    Alcotest.test_case "degenerate evolution regime warns" `Quick
      test_degenerate_evolution_warns;
  ]
