let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let test_welford () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.Welford.count w);
  Alcotest.(check bool) "mean" true (feq (Stats.Welford.mean w) 5.);
  Alcotest.(check bool) "variance" true (feq (Stats.Welford.variance w) (32. /. 7.))

let test_welford_merge () =
  let w1 = Stats.Welford.create () and w2 = Stats.Welford.create () in
  let all = Stats.Welford.create () in
  let rng = Stats.Rng.create ~seed:7 in
  for i = 0 to 99 do
    let x = Stats.Rng.gaussian rng ~mu:3. ~sigma:2. in
    Stats.Welford.add all x;
    Stats.Welford.add (if i < 37 then w1 else w2) x
  done;
  let m = Stats.Welford.merge w1 w2 in
  Alcotest.(check bool) "merged mean" true
    (feq (Stats.Welford.mean m) (Stats.Welford.mean all));
  Alcotest.(check bool) "merged var" true
    (feq (Stats.Welford.variance m) (Stats.Welford.variance all))

let test_corr_exact () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  let ys = [| 2.; 4.; 6.; 8. |] in
  Alcotest.(check bool) "perfect" true (feq (Stats.Pearson.corr xs ys) 1.);
  let yneg = Array.map (fun v -> -.v) ys in
  Alcotest.(check bool) "anti" true (feq (Stats.Pearson.corr xs yneg) (-1.));
  Alcotest.(check bool) "constant" true
    (feq (Stats.Pearson.corr xs [| 5.; 5.; 5.; 5. |]) 0.)

let test_corr_matrix_agrees () =
  let rng = Stats.Rng.create ~seed:42 in
  let d = 50 and t = 7 and g = 4 in
  let traces =
    Array.init d (fun _ ->
        Array.init t (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.))
  in
  let hyps =
    Array.init g (fun _ ->
        Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:4. ~sigma:2.))
  in
  let m = Stats.Pearson.corr_matrix ~traces ~hyps in
  for i = 0 to g - 1 do
    for j = 0 to t - 1 do
      let col = Array.map (fun tr -> tr.(j)) traces in
      let expect = Stats.Pearson.corr hyps.(i) col in
      if not (feq ~eps:1e-9 m.(i).(j) expect) then
        Alcotest.failf "corr_matrix(%d,%d)=%f expected %f" i j m.(i).(j) expect
    done
  done

(* Bit-exactness pin: corr_matrix hoists column statistics across the
   guess loop and skips zero hypothesis values in the cross-term pass —
   neither may perturb a single output bit relative to the reference
   [corr] on the extracted column.  Zero-heavy rows make the skip
   actually fire. *)
let test_corr_matrix_bit_exact () =
  let rng = Stats.Rng.create ~seed:43 in
  let d = 64 and t = 5 in
  let traces =
    Array.init d (fun _ ->
        Array.init t (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.))
  in
  let hyps =
    [|
      Array.init d (fun i ->
          if i mod 3 = 0 then float_of_int (Stats.Rng.int_below rng 20) else 0.);
      Array.init d (fun _ -> float_of_int (Stats.Rng.int_below rng 50));
      Array.make d 0.;
      Array.make d 4.;
    |]
  in
  let m = Stats.Pearson.corr_matrix ~traces ~hyps in
  Array.iteri
    (fun i h ->
      for j = 0 to t - 1 do
        let col = Array.map (fun tr -> tr.(j)) traces in
        let expect = Stats.Pearson.corr h col in
        if Int64.bits_of_float m.(i).(j) <> Int64.bits_of_float expect then
          Alcotest.failf "corr_matrix(%d,%d) = %h, corr = %h" i j m.(i).(j) expect
      done)
    hyps

(* Bad input to corr_matrix is an [Invalid_argument], not an assert
   (which -noassert would remove); no traces is a valid empty case. *)
let test_corr_matrix_input_checks () =
  let traces = [| [| 1.; 2. |]; [| 3.; 5. |]; [| 4.; 4. |] |] in
  Alcotest.check_raises "ragged hypothesis row"
    (Invalid_argument "Pearson.corr_matrix: a hypothesis row has 2 entries for 3 traces")
    (fun () ->
      ignore
        (Stats.Pearson.corr_matrix ~traces ~hyps:[| [| 1.; 2.; 3. |]; [| 1.; 2. |] |]));
  Alcotest.(check (array (array (float 0.))))
    "D = 0: G empty rows" [| [||]; [||]; [||] |]
    (Stats.Pearson.corr_matrix ~traces:[||] ~hyps:[| [||]; [||]; [||] |]);
  Alcotest.(check int) "G = 0" 0
    (Array.length (Stats.Pearson.corr_matrix ~traces ~hyps:[||]))

let test_evolution_tail () =
  let rng = Stats.Rng.create ~seed:5 in
  let d = 64 in
  let hyp = Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
  let traces =
    Array.map (fun h -> [| (2. *. h) +. Stats.Rng.gaussian rng ~mu:0. ~sigma:0.1 |]) hyp
  in
  let series =
    Stats.Pearson.evolution ~traces ~hyp ~sample:0 ~at:(Stats.Pearson.steps ~step:16 d)
  in
  Alcotest.(check int) "series length" 4 (List.length series);
  let dlast, rlast = List.nth series 3 in
  Alcotest.(check int) "last d" 64 dlast;
  let full = Stats.Pearson.corr hyp (Array.map (fun tr -> tr.(0)) traces) in
  Alcotest.(check bool) "tail equals batch corr" true (feq rlast full)

let test_probit () =
  Alcotest.(check bool) "median" true (feq ~eps:1e-8 (Stats.Signif.probit 0.5) 0.);
  Alcotest.(check bool) "95%" true
    (Float.abs (Stats.Signif.probit 0.975 -. 1.959964) < 1e-4);
  Alcotest.(check bool) "99.99% two-sided" true
    (Float.abs (Stats.Signif.z_9999 -. 3.8906) < 1e-3);
  (* symmetric tails *)
  Alcotest.(check bool) "symmetry" true
    (feq ~eps:1e-6 (Stats.Signif.probit 0.001) (-.Stats.Signif.probit 0.999))

let test_threshold () =
  let t1000 = Stats.Signif.threshold 1000 in
  Alcotest.(check bool) "t(1000) ~ 0.1226" true (Float.abs (t1000 -. 0.12266) < 1e-3);
  Alcotest.(check bool) "monotone" true (Stats.Signif.threshold 100 > t1000);
  Alcotest.(check bool) "degenerate" true (Stats.Signif.threshold 2 = 1.)

let test_traces_to_significance () =
  let series = [ (100, 0.01); (200, 0.5); (300, 0.05); (400, 0.6); (500, 0.7) ] in
  Alcotest.(check (option int)) "first stable crossing" (Some 400)
    (Stats.Signif.traces_to_significance series);
  Alcotest.(check (option int)) "never" None
    (Stats.Signif.traces_to_significance [ (100, 0.001); (200, 0.001) ])

let test_rng_determinism () =
  let a = Stats.Rng.create ~seed:123 and b = Stats.Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stats.Rng.next64 a) (Stats.Rng.next64 b)
  done

(* Reference outputs of xoshiro256** seeded through SplitMix64, pinned
   from the four-field implementation the byte-lane state replaced: the
   noise stream behind every captured trace. *)
let test_rng_goldens () =
  List.iter
    (fun (seed, expect) ->
      let rng = Stats.Rng.create ~seed in
      List.iter
        (fun v -> Alcotest.(check int64) (Printf.sprintf "seed %d" seed) v (Stats.Rng.next64 rng))
        expect)
    [
      (0, [ 0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L; 0x6AA594F1262D2D2CL ]);
      (2021, [ 0xF61612C2FF4D9BC1L; 0x584F61AB0B9A78B4L; 0x8153A8240F70A3E2L; 0xF7825DE81809F5F1L ]);
    ]

let prop_int_below_range =
  QCheck.Test.make ~count:300 ~name:"int_below in range"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Stats.Rng.create ~seed in
      let v = Stats.Rng.int_below rng n in
      v >= 0 && v < n)

(* ---- one-pass central moments (TVLA backbone) ---- *)

let direct_central k xs =
  let n = float_of_int (Array.length xs) in
  let mu = Array.fold_left ( +. ) 0. xs /. n in
  Array.fold_left (fun acc x -> acc +. ((x -. mu) ** float_of_int k)) 0. xs /. n

let test_moments_vs_direct () =
  let rng = Stats.Rng.create ~seed:31 in
  let xs = Array.init 400 (fun _ -> Stats.Rng.gaussian rng ~mu:2. ~sigma:1.5) in
  let m = Stats.Welford.Moments.create () in
  Array.iter (Stats.Welford.Moments.add m) xs;
  Alcotest.(check int) "count" 400 (Stats.Welford.Moments.count m);
  List.iter
    (fun (name, got, want) ->
      if not (feq ~eps:1e-9 got want) then Alcotest.failf "%s: %f <> %f" name got want)
    [
      ("mean", Stats.Welford.Moments.mean m,
       Array.fold_left ( +. ) 0. xs /. 400.);
      ("central2", Stats.Welford.Moments.central2 m, direct_central 2 xs);
      ("central3", Stats.Welford.Moments.central3 m, direct_central 3 xs);
      ("central4", Stats.Welford.Moments.central4 m, direct_central 4 xs);
    ]

let test_moments_merge () =
  let rng = Stats.Rng.create ~seed:32 in
  let whole = Stats.Welford.Moments.create () in
  let a = Stats.Welford.Moments.create () and b = Stats.Welford.Moments.create () in
  for i = 0 to 299 do
    let x = Stats.Rng.gaussian rng ~mu:(-1.) ~sigma:2. in
    Stats.Welford.Moments.add whole x;
    Stats.Welford.Moments.add (if i < 113 then a else b) x
  done;
  let m = Stats.Welford.Moments.merge a b in
  Alcotest.(check int) "count" 300 (Stats.Welford.Moments.count m);
  List.iter
    (fun (name, f) ->
      let got = f m and want = f whole in
      if not (feq ~eps:1e-9 got want) then Alcotest.failf "%s: %f <> %f" name got want)
    [
      ("mean", Stats.Welford.Moments.mean);
      ("variance", Stats.Welford.Moments.variance);
      ("central3", Stats.Welford.Moments.central3);
      ("central4", Stats.Welford.Moments.central4);
    ]

(* merging with an empty accumulator must be the exact identity in both
   directions — the TVLA chunk fold relies on it when a chunk holds no
   traces of one class *)
let prop_moments_empty_identity =
  QCheck.Test.make ~count:100 ~name:"Moments: merge with empty is identity"
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let rng = Stats.Rng.create ~seed in
      let m = Stats.Welford.Moments.create () in
      for _ = 1 to n do
        Stats.Welford.Moments.add m (Stats.Rng.gaussian rng ~mu:0. ~sigma:1.)
      done;
      let probe x =
        Stats.Welford.Moments.(
          (count x, mean x, central2 x, central3 x, central4 x))
      in
      let left = Stats.Welford.Moments.merge (Stats.Welford.Moments.create ()) m in
      let right = Stats.Welford.Moments.merge m (Stats.Welford.Moments.create ()) in
      probe left = probe m && probe right = probe m)

let test_welch_t () =
  (* hand-checked: n=4 each, means 1 vs 0, variances 1 and 4 ->
     t = 1 / sqrt(1/4 + 4/4) = 1/sqrt(1.25) *)
  let t =
    Stats.Signif.welch_t ~mean_a:1. ~var_a:1. ~n_a:4 ~mean_b:0. ~var_b:4. ~n_b:4
  in
  Alcotest.(check bool) "hand value" true (feq t (1. /. sqrt 1.25));
  Alcotest.(check bool) "antisymmetric" true
    (feq
       (Stats.Signif.welch_t ~mean_a:0. ~var_a:4. ~n_a:4 ~mean_b:1. ~var_b:1. ~n_b:4)
       (-.t));
  Alcotest.(check bool) "tiny populations give 0" true
    (Stats.Signif.welch_t ~mean_a:9. ~var_a:1. ~n_a:1 ~mean_b:0. ~var_b:1. ~n_b:50 = 0.);
  Alcotest.(check bool) "equal degenerate classes give 0" true
    (Stats.Signif.welch_t ~mean_a:2. ~var_a:0. ~n_a:10 ~mean_b:2. ~var_b:0. ~n_b:10 = 0.);
  Alcotest.(check bool) "separated degenerate classes diverge" true
    (Stats.Signif.welch_t ~mean_a:3. ~var_a:0. ~n_a:10 ~mean_b:2. ~var_b:0. ~n_b:10
    = infinity)

let test_significance_edges () =
  Alcotest.(check (option int)) "empty series" None
    (Stats.Signif.traces_to_significance []);
  (* crossing that does not hold to the end of the series is not a
     detection: the estimate wandered back under the threshold *)
  Alcotest.(check (option int)) "cross then dip at the end" None
    (Stats.Signif.traces_to_significance [ (100, 0.9); (200, 0.9); (300, 0.0001) ]);
  (* negative correlations count through the absolute value *)
  Alcotest.(check (option int)) "negative crossing" (Some 100)
    (Stats.Signif.traces_to_significance [ (100, -0.9); (200, -0.9) ])

let test_gaussian_moments () =
  let rng = Stats.Rng.create ~seed:99 in
  let w = Stats.Welford.create () in
  for _ = 1 to 20000 do
    Stats.Welford.add w (Stats.Rng.gaussian rng ~mu:1.5 ~sigma:3.)
  done;
  Alcotest.(check bool) "mean close" true
    (Float.abs (Stats.Welford.mean w -. 1.5) < 0.1);
  Alcotest.(check bool) "sigma close" true
    (Float.abs (Stats.Welford.stddev w -. 3.) < 0.1)

(* The render kernel: one in-place add over a zero array equals a loop
   of [gaussian], value for value and bit for bit, adds onto what the
   array holds, and leaves the generator where the loop does. *)
let test_add_gaussian_matches_loop () =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  List.iter
    (fun sigma ->
      let a = Stats.Rng.create ~seed:7 and b = Stats.Rng.create ~seed:7 in
      let added = Array.make 1000 0. in
      Stats.Rng.add_gaussian a ~mu:0. ~sigma added;
      let looped = Array.init 1000 (fun _ -> Stats.Rng.gaussian b ~mu:0. ~sigma) in
      Alcotest.(check bool) (Printf.sprintf "sigma %g: same bits" sigma) true
        (Array.for_all2 same_bits added looped);
      Alcotest.(check int64)
        (Printf.sprintf "sigma %g: same next64" sigma)
        (Stats.Rng.next64 b) (Stats.Rng.next64 a))
    [ 0.; 0.5; 8. ];
  let base = Array.init 100 (fun i -> float_of_int (i - 50) *. 0.37) in
  let a = Stats.Rng.create ~seed:9 and b = Stats.Rng.create ~seed:9 in
  let added = Array.copy base in
  Stats.Rng.add_gaussian a ~mu:1.5 ~sigma:2. added;
  let looped = Array.map (fun x -> x +. Stats.Rng.gaussian b ~mu:1.5 ~sigma:2.) base in
  Alcotest.(check bool) "adds onto the array" true (Array.for_all2 same_bits added looped);
  let rng = Stats.Rng.create ~seed:7 in
  Stats.Rng.add_gaussian rng ~mu:0. ~sigma:1. [||];
  Alcotest.(check int64) "empty array draws nothing"
    (Stats.Rng.next64 (Stats.Rng.create ~seed:7))
    (Stats.Rng.next64 rng)

let suite =
  [
    Alcotest.test_case "welford basic" `Quick test_welford;
    Alcotest.test_case "welford merge" `Quick test_welford_merge;
    Alcotest.test_case "pearson exact" `Quick test_corr_exact;
    Alcotest.test_case "corr_matrix agrees with corr" `Quick test_corr_matrix_agrees;
    Alcotest.test_case "corr_matrix bit-exact vs corr" `Quick
      test_corr_matrix_bit_exact;
    Alcotest.test_case "corr_matrix input checks" `Quick test_corr_matrix_input_checks;
    Alcotest.test_case "evolution tail" `Quick test_evolution_tail;
    Alcotest.test_case "probit" `Quick test_probit;
    Alcotest.test_case "threshold" `Quick test_threshold;
    Alcotest.test_case "traces_to_significance" `Quick test_traces_to_significance;
    Alcotest.test_case "significance edge cases" `Quick test_significance_edges;
    Alcotest.test_case "moments vs direct" `Quick test_moments_vs_direct;
    Alcotest.test_case "moments merge" `Quick test_moments_merge;
    Alcotest.test_case "welch t" `Quick test_welch_t;
    QCheck_alcotest.to_alcotest prop_moments_empty_identity;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng next64 goldens" `Quick test_rng_goldens;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    QCheck_alcotest.to_alcotest prop_int_below_range;
    Alcotest.test_case "add_gaussian = gaussian loop" `Quick
      test_add_gaussian_matches_loop;
  ]
