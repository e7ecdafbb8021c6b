type config = {
  defense : Campaign.defense;
  noise : float;
  budget : int;
  experiments : int;
  decoys : int;
  seed : int;
}

type outcome = {
  experiments : int;
  success : int;
  success_rate : float;
  guessing_entropy : float;
  ge_bits : float;
  mtd : int option;
  mtd_found : int;
  mtd_conf : int option;
  mtd_conf_found : int;
  ranks : int array;
  mtds : int option array;
  mtd_confs : int option array;
}

let m25 = (1 lsl 25) - 1
let derived_seed seed = seed + 31337
(* The one level of the sequential tester behind the MTD-at-confidence
   column. *)
let stop_spec = Sequential.Decision.spec ~alpha:1e-4 ()

(* lower median with None ordered as +infinity: the median experiment
   must itself have disclosed for the cell to report a finite value *)
let median_opt xs =
  let n = Array.length xs in
  let found = Array.fold_left (fun acc m -> if m <> None then acc + 1 else acc) 0 xs in
  let keyed = Array.map (function Some d -> d | None -> max_int) xs in
  Array.sort compare keyed;
  let mid = keyed.((n - 1) / 2) in
  ((if mid = max_int then None else Some mid), found)

let aggregate results =
  let ranks = Array.map (fun (r, _, _) -> r) results in
  let mtds = Array.map (fun (_, m, _) -> m) results in
  let mtd_confs = Array.map (fun (_, _, mc) -> mc) results in
  let experiments = Array.length ranks in
  let success = Array.fold_left (fun acc r -> if r = 1 then acc + 1 else acc) 0 ranks in
  let ge =
    Array.fold_left (fun acc r -> acc +. float_of_int r) 0. ranks
    /. float_of_int experiments
  in
  let mtd, mtd_found = median_opt mtds in
  let mtd_conf, mtd_conf_found = median_opt mtd_confs in
  {
    experiments;
    success;
    success_rate = float_of_int success /. float_of_int experiments;
    guessing_entropy = ge;
    ge_bits = (log ge /. log 2.);
    mtd;
    mtd_found;
    mtd_conf;
    mtd_conf_found;
    ranks;
    mtds;
    mtd_confs;
  }

(* The one experiment driver: [one ectx i] yields experiment [i]'s
   (rank, mtd, mtd_conf).  Experiments fan out over the pool; the
   sweep inside each stays sequential, under a buffered child context
   that is drained in experiment order after the join, so the event
   stream and every figure are the same at any [jobs]. *)
let fan_out c ~experiments one =
  let obs = c.Attack.Ctx.obs in
  let results =
    Parallel.map_array ~jobs:c.Attack.Ctx.jobs
      (fun i ->
        let child = Obs.buffered obs in
        (one (Attack.Ctx.with_obs child (Attack.Ctx.sequential c)) i, child))
      (Array.init experiments Fun.id)
  in
  Array.iter (fun (_, child) -> Obs.drain ~into:obs child) results;
  aggregate (Array.map fst results)

(* Profiled disclosure.  The correlation-evolution t-test and the
   sequential Fisher-z gap tester are correlation statistics with no
   profiled analogue, so under the profiled distinguisher mtd is
   measured as {e winner stability}: the smallest checkpoint (same step
   grid as the evolution series) from which the profiled ranking puts
   the truth first and keeps it first at every later checkpoint
   including the full budget; mtd_conf is [None]. *)
let profiled_mtd ~ctx ~parts ~known ~truth ~step ~candidates traces =
  let d = Array.length traces in
  let checkpoints =
    let rec grid t acc = if t >= d then List.rev (d :: acc) else grid (t + step) (t :: acc) in
    grid step []
  in
  let winner_at t =
    match
      Attack.Dema.rank ~ctx ~traces:(Array.sub traces 0 t) ~parts
        ~known:(Array.sub known 0 t) ~top:1 (Array.to_seq candidates)
    with
    | (best : Attack.Dema.scored) :: _ -> best.Attack.Dema.guess
    | [] -> invalid_arg "Assess.Metrics: empty candidate set"
  in
  List.fold_left
    (fun acc t ->
      if winner_at t = truth then (match acc with None -> Some t | s -> s)
      else None)
    None checkpoints

(* 1-based position of [truth] in [ranking]; [size + 1] when the
   ranking (over [size] candidates) does not contain it. *)
let truth_rank ~truth ~size ranking =
  let rec find k = function
    | [] -> size + 1
    | (s : Attack.Dema.scored) :: tl ->
        if s.Attack.Dema.guess = truth then k else find (k + 1) tl
  in
  find 1 ranking

(* One experiment's (mtd, mtd_conf).  Disclosure watches the truth's
   correlation evolution on the first part; the sequential stop runs
   the adaptive campaign engine's tester ([stop_spec]) over every part,
   looking every [step] traces.  A
   selection with no gap test measures winner stability instead
   ([profiled_mtd]) and has no mtd_conf. *)
let disclosure ~ctx ~step ~parts ~known ~truth ~candidates traces =
  if not (Attack.Distinguisher.has_gap_test ctx.Attack.Ctx.backend) then
    (profiled_mtd ~ctx ~parts ~known ~truth ~step ~candidates traces, None)
  else
    let sample0, model0 = List.hd parts in
    let series =
      Attack.Dema.evolution ~traces ~sample:sample0 ~model:model0 ~known
        ~guess:truth ~step
    in
    let until =
      Attack.Dema.rank_until ~ctx ~spec:stop_spec ~batch:step ~traces ~parts ~known
        ~top:1 (Array.to_seq candidates)
    in
    ( Stats.Signif.traces_to_significance series,
      Option.map
        (fun s -> s.Sequential.Decision.n_traces)
        until.Attack.Dema.stop )

(* Train a window-16 template store for the assess lab's profiled
   cells: the fixed class of a cloned-device campaign (same condition,
   different secret/seed) with known truth, classed by the low-stage
   models applied to the true low mantissa half — exactly the
   intermediates the profiled ranking and [profiled_mtd] score. *)
let profile_entries ?ctx:(c = Attack.Ctx.default ())
    ?(condition = Campaign.baseline_condition) ~defense ~truth entries =
  Obs.span c.Attack.Ctx.obs "metrics.profile" @@ fun () ->
  let fixed =
    Array.of_seq
      (Seq.filter (fun e -> e.Campaign.cls = Campaign.Fixed) (Array.to_seq entries))
  in
  let fixed, _ = Campaign.realign_entries ~ctx:c condition defense fixed in
  let leakage = (condition.Campaign.kind :> Attack.Recover.leakage) in
  let d_true = Fpr.mantissa truth land m25 in
  if d_true = 0 then
    invalid_arg "Assess.Metrics: degenerate profiling secret";
  let extend, prune = Attack.Recover.low_stages leakage in
  let plan =
    List.map
      (fun (lbl, m) ->
        let apply = Attack.Hypothesis.Model.apply m in
        (0, Attack.Recover.sample lbl, fun (e : Campaign.entry) -> apply d_true e.known))
      (extend @ prune)
  in
  let spec = Attack.Profile.default_spec ~window:Leakage.events_per_mul in
  Attack.Profile.train_plan spec ~plan (fun f ->
      Array.iter
        (fun (e : Campaign.entry) -> f e (Campaign.attack_window defense e.samples))
        fixed)

let of_entries ?ctx:(c = Attack.Ctx.default ()) ?(condition = Campaign.baseline_condition)
    ~defense ~truth ~experiments ~decoys ~seed entries =
  Obs.span c.Attack.Ctx.obs "metrics.of_entries"
    ~fields:[ ("experiments", Obs.Int experiments); ("decoys", Obs.Int decoys) ]
  @@ fun () ->
  if experiments < 1 then invalid_arg "Assess.Metrics: experiments must be positive";
  if decoys < 0 then invalid_arg "Assess.Metrics: negative decoy count";
  let fixed =
    Array.of_seq
      (Seq.filter (fun e -> e.Campaign.cls = Campaign.Fixed) (Array.to_seq entries))
  in
  (* the analysis-side half of the condition: realign the campaign's
     whole fixed class before slicing into experiments, like an
     evaluator post-processing one acquisition *)
  let fixed, _ = Campaign.realign_entries ~ctx:c condition defense fixed in
  let leakage = (condition.Campaign.kind :> Attack.Recover.leakage) in
  let per = Array.length fixed / experiments in
  if per < 8 then
    failwith
      (Printf.sprintf
         "Assess.Metrics: %d fixed-class traces cannot support %d experiments \
          (at least 8 traces each)"
         (Array.length fixed) experiments);
  let d_true = Fpr.mantissa truth land m25 in
  if d_true = 0 then
    invalid_arg "Assess.Metrics: degenerate secret (zero low mantissa half)";
  (* The low-half decision parts, extend then prune.  Their first part
     is the one disclosure watches: the strongest d-free part of each
     device model — the D x B product sample under the Hamming-weight
     probe, the (D x B) -> (D x A) bus transition at the w10 sample
     under bus-HD (where the w00 sample's predecessor is the full secret
     operand). *)
  let parts =
    let extend, prune = Attack.Recover.low_stages leakage in
    List.map (fun (lbl, m) -> (Attack.Recover.sample lbl, m)) (extend @ prune)
  in
  let step = max 1 (per / 16) in
  fan_out c ~experiments @@ fun ectx i ->
  let slice = Array.sub fixed (i * per) per in
  let traces =
    Array.map (fun e -> Campaign.attack_window defense e.Campaign.samples) slice
  in
  let known = Array.map (fun e -> e.Campaign.known) slice in
  let view = { Attack.Recover.traces; known } in
  let candidates =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:(seed + (7919 * i)))
      ~width:25 ~truth:d_true ~decoys ()
  in
  (* top = the whole candidate set, so the truth always appears in the
     ranking and its 1-based position is the partial guessing entropy
     sample *)
  let res =
    Obs.span ectx.Attack.Ctx.obs "metrics.experiment"
      ~fields:[ ("experiment", Obs.Int i) ]
      (fun () ->
        Attack.Recover.mantissa_low_multi ~ctx:ectx ~leakage
          ~top:(Array.length candidates) ~candidates:(Array.to_seq candidates)
          [ view ])
  in
  let rank =
    truth_rank ~truth:d_true ~size:(Array.length candidates)
      res.Attack.Recover.pruned
  in
  let mtd, mtd_conf =
    disclosure ~ctx:ectx ~step ~parts ~known ~truth:d_true ~candidates
      traces
  in
  (rank, mtd, mtd_conf)

let run ?ctx ?condition config =
  if config.budget < 8 then invalid_arg "Assess.Metrics: budget must be at least 8";
  let secret = Campaign.secret_operand (Stats.Rng.create ~seed:(config.seed lxor 0x5eed)) in
  let entries =
    Campaign.generate ~p_fixed:1.0 ?condition config.defense ~noise:config.noise
      ~secret ~count:(config.budget * config.experiments) ~seed:config.seed
  in
  of_entries ?ctx ?condition ~defense:config.defense
    ~truth:secret ~experiments:config.experiments ~decoys:config.decoys
    ~seed:(derived_seed config.seed) entries

(* {2 HQC target metrics}

   The same SR/GE/MTD vocabulary over the HQC rotate-and-accumulate
   victim (Attack.Target.Hqc).  Per experiment: a fresh sparse secret,
   a budget of simulated traces, then the chained per-unit ranking
   conditioned on the true prefix — the full-key rank is 1 iff every
   support position tops its own ranking, otherwise the first failing
   unit's truth position (the partial guessing-entropy sample).
   Disclosure (mtd) and the sequential stop (mtd_conf) watch the first
   unit, the entry point of the chain. *)

type hqc_config = { noise : float; budget : int; experiments : int; seed : int }

let run_hqc ?ctx:(c = Attack.Ctx.default ()) config =
  let { noise; budget; experiments; seed } = config in
  Obs.span c.Attack.Ctx.obs "metrics.hqc"
    ~fields:[ ("experiments", Obs.Int experiments); ("budget", Obs.Int budget) ]
  @@ fun () ->
  if experiments < 1 then invalid_arg "Assess.Metrics: experiments must be positive";
  if budget < 8 then invalid_arg "Assess.Metrics: budget must be at least 8";
  let model = { Leakage.default_model with noise_sigma = noise } in
  let step = max 1 (budget / 16) in
  fan_out c ~experiments @@ fun ectx i ->
  let eseed = seed + (7919 * i) in
  let secret = Hqc.keygen ~seed:(eseed lxor 0x5eed) in
  let next = Hqc.capture_stream model ~seed:eseed secret in
  let records = Array.init budget (fun _ -> next ()) in
  let traces =
    Array.map (fun (r : Tracestore.record) -> r.Tracestore.samples) records
  in
  let known = Array.map Hqc.u_of_record records in
  let rank = ref 1 in
  (try
     for j = 0 to Hqc.Params.weight - 1 do
       let prev = Array.sub secret 0 j in
       let count = Attack.Target.Hqc.guess_count ~unit_index:j ~prev in
       if count > 1 then begin
         let ranking =
           Attack.Dema.rank ~ctx:ectx ~traces
             ~parts:(Attack.Target.Hqc.parts ~leakage:`Hw ~unit_index:j ~prev)
             ~known ~top:count
             (Attack.Target.Hqc.guess_space ~unit_index:j ~prev)
         in
         let pos = truth_rank ~truth:secret.(j) ~size:count ranking in
         if pos <> 1 then begin
           rank := pos;
           raise Exit
         end
       end
     done
   with Exit -> ());
  let mtd, mtd_conf =
    disclosure ~ctx:ectx ~step
      ~parts:(Attack.Target.Hqc.parts ~leakage:`Hw ~unit_index:0 ~prev:[||])
      ~known ~truth:secret.(0)
      ~candidates:
        (Array.of_seq (Attack.Target.Hqc.guess_space ~unit_index:0 ~prev:[||]))
      traces
  in
  (!rank, mtd, mtd_conf)

let of_store ?ctx ~experiments ~decoys dir =
  let defense, secret, seed, reader = Campaign.open_store dir in
  let entries = Array.of_seq (Campaign.seq_of_store reader) in
  of_entries ?ctx ~defense ~truth:secret ~experiments ~decoys
    ~seed:(derived_seed seed) entries
