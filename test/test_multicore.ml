(* Determinism of the ranking engine: the top-k is a pure function of the
   candidate multiset (candidate order cannot matter, even under exact
   score ties), and every ?jobs level returns bit-identical results. *)

let scored_testable =
  Alcotest.testable
    (fun fmt (s : Attack.Dema.scored) ->
      Format.fprintf fmt "{guess=%d; corr=%h}" s.guess s.corr)
    (fun a b -> a.Attack.Dema.guess = b.Attack.Dema.guess && a.corr = b.corr)

let shuffled rng arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Stats.Rng.int_below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A planted shift-alias class produces EXACT score ties (Fig. 4c): the
   regression this guards is the ranking depending on enumeration order
   among tied candidates. *)
let test_rank_permutation_invariant () =
  let rng = Stats.Rng.create ~seed:50 in
  let secret = 0b10110100 in
  let width = 8 in
  let known = Array.init 400 (fun _ -> 1 + Stats.Rng.bits rng 16) in
  let model g y = g * y in
  let traces =
    Array.map
      (fun y ->
        [|
          float_of_int (Bitops.popcount (model secret y))
          +. Stats.Rng.gaussian rng ~mu:0. ~sigma:1.;
        |])
      known
  in
  let candidates = Array.init (1 lsl width) (fun i -> i) in
  let rank cands =
    Attack.Dema.rank ~traces
      ~parts:[ (0, Attack.Hypothesis.Model.fn model) ]
      ~known ~top:6 (Array.to_seq cands)
  in
  let reference = rank candidates in
  (* the winners really do tie — otherwise this test guards nothing *)
  let aliases = secret :: Attack.Hypothesis.shift_aliases ~width secret in
  Alcotest.(check bool) "top scores tie exactly" true
    (match reference with
    | a :: b :: _ -> a.corr = b.corr && List.mem a.guess aliases
    | _ -> false);
  let perm_rng = Stats.Rng.create ~seed:51 in
  for trial = 1 to 5 do
    Alcotest.(check (list scored_testable))
      (Printf.sprintf "permutation %d" trial)
      reference
      (rank (shuffled perm_rng candidates))
  done;
  Alcotest.(check (list scored_testable))
    "reversed" reference
    (rank (Array.init (1 lsl width) (fun i -> (1 lsl width) - 1 - i)))

let random_problem seed =
  let rng = Stats.Rng.create ~seed in
  let d = 300 in
  let known = Array.init d (fun _ -> Stats.Rng.bits rng 24) in
  let secret = Stats.Rng.bits rng 16 in
  let model g y = (g * (y lor 1)) land 0xFFFFFF in
  let traces =
    Array.map
      (fun y ->
        Array.init 2 (fun s ->
            float_of_int (Bitops.popcount (model secret y) + s)
            +. Stats.Rng.gaussian rng ~mu:0. ~sigma:2.))
      known
  in
  (* one shared Model value across both parts: consecutive parts with the
     same model exercise the fused sweep's part grouping *)
  let m = Attack.Hypothesis.Model.fn model in
  (traces, [ (0, m); (1, m) ], known)

(* 2000 candidates spans several 512-candidate chunks, so jobs > 1 really
   exercises the cross-domain merge. *)
let test_rank_jobs_parity () =
  List.iter
    (fun seed ->
      let traces, parts, known = random_problem seed in
      let rank jobs =
        Attack.Dema.rank ~ctx:(Attack.Ctx.make ~jobs ()) ~traces ~parts ~known ~top:16
          (Seq.init 2000 (fun i -> i))
      in
      let want = rank 1 in
      List.iter
        (fun jobs ->
          Alcotest.(check (list scored_testable))
            (Printf.sprintf "seed %d jobs %d" seed jobs)
            want (rank jobs))
        [ 2; 3; 4 ])
    [ 60; 61; 62 ]

let test_rank_absolute_jobs_parity () =
  let traces, parts, known = random_problem 63 in
  let rank jobs =
    Attack.Dema.rank_absolute ~ctx:(Attack.Ctx.make ~jobs ()) ~traces ~parts ~known ~top:16
      ~alpha:1.0
      ~baseline:0.0
      (Seq.init 2000 (fun i -> i))
  in
  let want = rank 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list scored_testable))
        (Printf.sprintf "jobs %d" jobs)
        want (rank jobs))
    [ 2; 4 ]

let test_recover_f_fft_jobs_parity () =
  let n = 8 in
  let sk, _ = Falcon.Scheme.keygen ~n ~seed:"multicore victim" in
  let traces = Leakage.capture Leakage.default_model ~seed:64 sk ~count:400 in
  (* the strategy is pure per (coeff, mul): its RNG is rebuilt from a
     (coeff, mul)-derived seed, as the Fullkey contract requires *)
  let strategy ~coeff ~mul =
    let truth = if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff) in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:(3000 + (coeff * 4) + mul); decoys = 64; truth }
  in
  let at jobs =
    Attack.Fullkey.recover_f_fft ~ctx:(Attack.Ctx.make ~jobs ()) ~traces ~n strategy
  in
  let seq = at 1 in
  let par = at 4 in
  Alcotest.(check bool) "bit-identical FFT(f)" true
    (seq.Fft.re = par.Fft.re && seq.Fft.im = par.Fft.im)

let suite =
  [
    Alcotest.test_case "rank invariant under candidate permutation" `Quick
      test_rank_permutation_invariant;
    Alcotest.test_case "rank jobs parity" `Quick test_rank_jobs_parity;
    Alcotest.test_case "rank_absolute jobs parity" `Quick test_rank_absolute_jobs_parity;
    Alcotest.test_case "recover_f_fft jobs parity" `Slow test_recover_f_fft_jobs_parity;
  ]
