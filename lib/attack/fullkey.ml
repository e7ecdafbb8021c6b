type result = {
  f_fft : Fft.t;
  f : int array;
  keypair : Ntru.Ntrugen.keypair option;
}

let component_muls = Recover.component_muls
let mul_known = Recover.mul_known

(* The unit order every driver shares: task [t] attacks coefficient
   [t / 2], its real part on even [t].  A unit's strategy is keyed by
   its first multiplication. *)
let unit_of t = (t lsr 1, if t land 1 = 0 then `Re else `Im)
let mul_of component = List.hd (component_muls component)

(* Fan the 2n independent (coefficient, component) attacks across the
   pool, [per_pass] units at a time; leftover parallelism goes to the
   candidate sweeps inside.  [inputs ~lo ~hi] runs once per pass, before
   its units, and returns the attack of units [lo, hi): given a task
   context and a unit, its recovered value.  Each task runs under a
   [Obs.buffered] child context (single-owner, one per task), returned
   with its result; the children are drained in task order after each
   pass's join, so the merged event stream is deterministic at every
   [jobs] — the Obs ownership contract. *)
let recover_units ~ctx ~n ~per_pass inputs =
  let obs = ctx.Ctx.obs in
  let tasks = 2 * n in
  let done_ = Atomic.make 0 in
  let out = Fft.zero n in
  for p = 0 to (tasks - 1) / per_pass do
    let lo = p * per_pass in
    let hi = min tasks (lo + per_pass) in
    let attack = inputs ~lo ~hi in
    let outer = min ctx.Ctx.jobs (hi - lo) in
    let inner = max 1 (ctx.Ctx.jobs / max outer 1) in
    let results =
      Parallel.map_array ~jobs:outer
        (fun t ->
          let child = Obs.buffered obs in
          let tctx = Ctx.with_obs child (Ctx.with_jobs inner ctx) in
          let coeff, component = unit_of t in
          let r =
            Obs.span child "fullkey.task"
              ~fields:
                [
                  ("coeff", Obs.Int coeff);
                  ("component", Obs.Str (match component with `Re -> "re" | `Im -> "im"));
                ]
              (fun () -> attack tctx t)
          in
          if Obs.enabled obs then
            Obs.progress ~total:tasks obs "coefficients" (1 + Atomic.fetch_and_add done_ 1);
          (r, child))
        (Array.init (hi - lo) (( + ) lo))
    in
    Array.iteri
      (fun i (r, child) ->
        Obs.drain ~into:obs child;
        let coeff, component = unit_of (lo + i) in
        (match component with `Re -> out.Fft.re | `Im -> out.Fft.im).(coeff) <- r)
      results
  done;
  out

(* The per-coefficient attack of a fixed budget: [Recover.coefficient]
   on unit [t]'s views. *)
let by_coefficient ?leakage strategy views tctx t =
  let coeff, component = unit_of t in
  Recover.coefficient ~ctx:tctx ?leakage
    ~strategy:(strategy ~coeff ~mul:(mul_of component))
    (views t ~coeff ~component)

let recover_f_fft ?ctx:(c = Ctx.default ()) ?leakage ~traces ~n strategy =
  Obs.span c.Ctx.obs "fullkey.recover_f_fft"
    ~fields:[ ("n", Obs.Int n); ("jobs", Obs.Int c.Ctx.jobs) ]
  @@ fun () ->
  recover_units ~ctx:c ~n ~per_pass:(2 * n) (fun ~lo:_ ~hi:_ ->
      by_coefficient ?leakage strategy (fun _ ~coeff ~component ->
          Recover.views_for traces ~coeff ~component))

let recover_key ?ctx ?leakage ~traces ~h strategy =
  let n = Array.length h in
  let f_fft = recover_f_fft ?ctx ?leakage ~traces ~n strategy in
  let f = Fft.round_to_int (Fft.ifft f_fft) in
  let keypair = Ntru.Ntrugen.recover_from_f ~n ~f ~h in
  { f_fft; f; keypair }

(* ---- out-of-core variants over a Tracestore campaign ----

   Both store drivers cut many units' views from one streaming pass:
   each decoded shard yields every unit's [Recover.views_for], so a
   unit's views over the store are its per-shard views end to end.  The
   fixed-budget driver runs [Recover.coefficient] on them; the adaptive
   one also folds decision sweeps that let a unit stop early, then takes
   the unit's mantissa rankings from those sweeps and runs only
   [Recover.finish_coefficient] on its buffered prefix.  Shards arrive
   in shard order, so every unit's views are the ones [Recover.views_for]
   cuts in memory and the key is bit-identical to [recover_key] at every
   [jobs].  The adaptive driver buffers each live unit's views, up to
   D x 2n x 32 floats.  The fixed-budget one takes as many whole
   coefficients per pass as fit in [window_shards] decoded shards' worth
   of floats (all of them, in one pass, unless the campaign spans more
   than about [window_shards] shards), so its peak memory is those views
   plus one decoded shard per domain. *)
let window_shards = 8

(* A unit's views over consecutive batches: per multiplication, the
   batches' windows and known operands end to end, from an empty view,
   so a campaign that delivers no batch still gives every unit its
   views. *)
let concat_views ~coeff ~component batches =
  List.mapi
    (fun j (empty : Recover.view) ->
      let vs = empty :: List.map (fun b -> List.nth b j) batches in
      {
        Recover.traces = Array.concat (List.map (fun (v : Recover.view) -> v.traces) vs);
        known = Array.concat (List.map (fun (v : Recover.view) -> v.known) vs);
      })
    (Recover.views_for [||] ~coeff ~component)

(* ---- adaptive (early-stopping) variant ----

   Each batch is decoded once and every still-undecided unit cuts its
   views from it ([Recover.views_for]), buffers them (the prefix its
   high prune and sign/exponent will run on) and folds two incremental
   decision sweeps — the low mantissa half on both stages of
   [Recover.low_stages] (w00, w10; z1a) over the width-25 candidate set
   (z1a is what breaks the exact shift-alias ties of w00/w10) and the
   high half on the extend stage of [Recover.high_stages] (w01, w11)
   over the width-28 candidates (whose [lo] excludes shift aliases, so
   no d-dependent part is needed).  The
   unit's reported gap is the {e weaker} of the two sweeps' standardised
   gaps, so a stop certifies both halves separated at the spent level.
   Once stopped, the unit is retired: its buffer stops growing and later
   batches skip its scoring entirely.

   The sweeps' candidate sets are [Recover.coefficient]'s, and their
   accumulators hold every per-(part, guess) term its extend and prune
   rankings sum, over the same prefix ([unit_rankings]); only the
   d-dependent high prune (32 survivors) and sign/exponent still scan
   the prefix.

   Determinism: batches arrive in shard order whatever the prefetch
   setting, each unit's sweeps are folded only by its own unit in batch
   order with single-job inner sweeps (unit-level parallelism comes
   from the campaign driver), and decisions run on the owner domain in
   unit order — stop points, winners and the recovered key are
   bit-identical at every [jobs]. *)

let decision_candidates strategy ~coeff ~mul =
  match (strategy ~coeff ~mul : Recover.strategy) with
  | Recover.Exhaustive ->
      invalid_arg
        "Fullkey: ?stop requires a sampled strategy — the exhaustive 2^25 \
         hypothesis space cannot be re-scored at every look"
  | Recover.Eval_sampled { rng; decoys; truth } ->
      Recover.sampled_candidates ~rng ~decoys ~truth

(* The decision sweeps' stages.  The high half's extend reads no d
   under [`Hw], so any d gives it. *)
let low_extend, low_prune = Recover.low_stages `Hw
let high_extend = fst (Recover.high_stages ~d:0 `Hw)

type unit_state = {
  u_coeff : int;
  u_component : Recover.component;
  u_segs : Recover.view list list ref;  (* buffered prefix, newest batch first *)
  u_low : Fpr.t Dema.Sweep.t;
  u_high : Fpr.t Dema.Sweep.t;
}

(* A sweep holds its stage's parts label-major: each label's model once
   per view. *)
let make_unit strategy ~coeff ~component =
  let low_cands, high_cands =
    decision_candidates strategy ~coeff ~mul:(mul_of component)
  in
  let sweep stage =
    Dema.Sweep.create ~backend:Stats.Pearson.Batch.Batched
      ~parts:
        (List.concat_map
           (fun (_, m) -> List.map (fun _ -> m) (component_muls component))
           stage)
  in
  {
    u_coeff = coeff;
    u_component = component;
    u_segs = ref [];
    u_low = sweep (low_extend @ low_prune) low_cands;
    u_high = sweep high_extend high_cands;
  }

let unit_fold u batch =
  let views = Recover.views_for batch ~coeff:u.u_coeff ~component:u.u_component in
  u.u_segs := views :: !(u.u_segs);
  let segs stage =
    Array.of_list
      (List.concat_map
         (fun (lbl, _) ->
           let s = Recover.sample lbl in
           List.map
             (fun (v : Recover.view) ->
               (Array.map (fun row -> Array.unsafe_get row s) v.traces, v.known))
             views)
         stage)
  in
  Dema.Sweep.fold ~jobs:1 u.u_low (segs (low_extend @ low_prune));
  Dema.Sweep.fold ~jobs:1 u.u_high (segs high_extend)

(* The unit separates only when BOTH halves do: report the weaker
   sweep's leaders, so the tester's one-sided gap test certifies the
   minimum of the two standardised gaps. *)
let unit_leaders u =
  let ll = Dema.Sweep.leaders ~jobs:1 u.u_low in
  let lh = Dema.Sweep.leaders ~jobs:1 u.u_high in
  let n = Dema.Sweep.n u.u_low in
  let z (l : Sequential.Campaign.leaders) =
    Stats.Signif.corr_gap_z ~n ~r1:l.best ~r2:l.runner_up
  in
  if z ll <= z lh then ll else lh

(* A unit's low extend-and-prune result and high extend ranking, as
   [Recover.coefficient] would rank its candidates on the folded
   prefix: extend on the multiplication parts, prune the extend
   survivors on those parts followed by z1a.  [Recover] spreads a stage
   view-major ([w00·v0; w10·v0; w00·v1; ...]); [order ~from stage] lists
   the sweep indices of the stage whose labels start at label position
   [from] in that order, so the sums add in its order and the scores
   match bit for bit. *)
let unit_rankings ~jobs u =
  let top = Recover.coefficient_top in
  let nv = List.length (component_muls u.u_component) in
  let order ~from stage =
    List.concat
      (List.init nv (fun v -> List.mapi (fun l _ -> ((from + l) * nv) + v) stage))
  in
  let extend = order ~from:0 low_extend in
  let low_ranking = Dema.Sweep.ranking ~jobs ~parts:extend u.u_low ~top in
  let prune =
    Dema.Sweep.scores ~jobs
      ~parts:(extend @ order ~from:(List.length low_extend) low_prune)
      u.u_low
  in
  let index = Hashtbl.create (Array.length prune) in
  Array.iteri (fun i g -> Hashtbl.replace index g i) (Dema.Sweep.guesses u.u_low);
  (* at most [top] survivors, so their re-ranking keeps them all *)
  let pruned =
    List.sort Dema.compare_scored
      (List.map
         (fun (s : Dema.scored) -> { s with corr = prune.(Hashtbl.find index s.guess) })
         low_ranking)
  in
  ( { Recover.winner = (List.hd pruned).guess; extend = low_ranking; pruned },
    Dema.Sweep.ranking ~jobs ~parts:(order ~from:0 high_extend) u.u_high ~top )

let adaptive_rankings strategy ~coeff ~component traces =
  let u = make_unit strategy ~coeff ~component in
  if Array.length traces > 0 then unit_fold u traces;
  unit_rankings ~jobs:1 u

let recover_f_fft_store_adaptive ~ctx:c ~on_corrupt ~prefetch ~stop:spec
    ~max_traces ~stop_report ~reader strategy n =
  let fd = Dema.Stream.shard_feed ~on_corrupt ~prefetch ?max_traces reader in
  let units =
    Array.init (2 * n) (fun t ->
        let coeff, component = unit_of t in
        make_unit strategy ~coeff ~component)
  in
  let campaign_units =
    Array.map
      (fun u ->
        {
          Sequential.Campaign.fold = unit_fold u;
          leaders = (fun () -> unit_leaders u);
        })
      units
  in
  let results =
    Fun.protect ~finally:fd.Dema.Stream.close (fun () ->
        Sequential.Campaign.run ~jobs:c.Ctx.jobs ~obs:c.Ctx.obs ~spec
          ~total:fd.Dema.Stream.total ~feed:fd.Dema.Stream.next
          ~length:Array.length campaign_units)
  in
  (match stop_report with
  | Some f ->
      f (Sequential.Campaign.summarize ~total:fd.Dema.Stream.total results)
  | None -> ());
  (let sk = fd.Dema.Stream.skipped () in
   if Obs.enabled c.Ctx.obs && sk > 0 then
     Obs.count c.Ctx.obs "dema.shards_skipped" sk);
  (* the mantissa rankings come from the sweeps; the tail of the
     per-coefficient attack runs on each unit's buffered prefix *)
  recover_units ~ctx:c ~n ~per_pass:(2 * n) (fun ~lo:_ ~hi:_ tctx t ->
      let u = units.(t) in
      let low, high_extend = unit_rankings ~jobs:tctx.Ctx.jobs u in
      Recover.finish_coefficient ~ctx:tctx ~low ~high_extend
        (concat_views ~coeff:u.u_coeff ~component:u.u_component (List.rev !(u.u_segs))))

let recover_f_fft_store ?ctx:(c = Ctx.default ()) ?(on_corrupt = `Fail)
    ?(prefetch = true) ?(leakage = `Hw) ?stop ?max_traces ?stop_report ~reader
    strategy =
  if max_traces <> None && stop = None then
    invalid_arg
      "Fullkey: ?max_traces caps an adaptive campaign and needs ?stop — the \
       fixed-budget recovery reads every stored trace";
  let n = (Tracestore.Reader.meta reader).Tracestore.n in
  Obs.span c.Ctx.obs "fullkey.recover_f_fft_store"
    ~fields:
      [
        ("n", Obs.Int n);
        ("jobs", Obs.Int c.Ctx.jobs);
        ("adaptive", Obs.Bool (stop <> None));
      ]
  @@ fun () ->
  (* A prefetch helper domain only pays when nothing else overlaps the
     reads.  At [jobs > 1] the fixed-budget pass already decodes shards
     on that many domains, and the adaptive campaign folds units on
     them: a helper on top oversubscribes the cores. *)
  let prefetch = prefetch && c.Ctx.jobs = 1 in
  match stop with
  | Some spec ->
      (* the decision sweeps are [`Hw]'s: under bus HD every high-half
         transition reads the recovered d *)
      if leakage = `Hd then invalid_arg "Fullkey: ?stop needs `Hw leakage";
      Distinguisher.require_gap_test ~what:"Fullkey: ?stop" c.Ctx.backend;
      recover_f_fft_store_adaptive ~ctx:c ~on_corrupt ~prefetch ~stop:spec
        ~max_traces ~stop_report ~reader strategy n
  | None ->
      (* per trace, a coefficient buffers four 16-sample windows, each
         with its header, and their four known operands; a decoded trace
         holds [width] samples and 2n FFT(c) floats *)
      let m = Tracestore.Reader.meta reader in
      let shard_floats = window_shards * m.shard_traces * (m.width + (2 * n)) in
      let coeff_floats = max 1 (Tracestore.Reader.total_traces reader) * 72 in
      let per_pass = 2 * max 1 (shard_floats / coeff_floats) in
      recover_units ~ctx:c ~n ~per_pass (fun ~lo ~hi ->
          let shards =
            Dema.Stream.map_shards ~ctx:c ~on_corrupt ~prefetch reader (fun batch ->
                Array.init (hi - lo) (fun i ->
                    let coeff, component = unit_of (lo + i) in
                    Recover.views_for batch ~coeff ~component))
          in
          by_coefficient ~leakage strategy (fun t ~coeff ~component ->
              concat_views ~coeff ~component (List.map (fun s -> s.(t - lo)) shards)))

let recover_key_store ?ctx ?on_corrupt ?prefetch ?leakage ?stop ?max_traces
    ?stop_report ~reader ~h strategy =
  let n = Array.length h in
  let store_n = (Tracestore.Reader.meta reader).Tracestore.n in
  if store_n <> n then
    failwith
      (Printf.sprintf
         "Fullkey.recover_key_store: store holds FALCON-%d traces but the public key \
          is FALCON-%d"
         store_n n);
  let f_fft =
    recover_f_fft_store ?ctx ?on_corrupt ?prefetch ?leakage ?stop ?max_traces
      ?stop_report ~reader strategy
  in
  let f = Fft.round_to_int (Fft.ifft f_fft) in
  let keypair = Ntru.Ntrugen.recover_from_f ~n ~f ~h in
  { f_fft; f; keypair }

let sampled_strategy ~seed (f_fft : Fft.t) ~coeff ~mul =
  let truth = Recover.component_of f_fft ~coeff Recover.layout.(mul).f in
  Recover.Eval_sampled
    { rng = Stats.Rng.create ~seed:(seed + (coeff * 7) + mul); decoys = 512; truth }

let count_correct recovered ~truth =
  let n = Fft.length recovered in
  assert (Fft.length truth = n);
  let ok = ref 0 in
  for k = 0 to n - 1 do
    if Fpr.equal recovered.Fft.re.(k) truth.Fft.re.(k) then incr ok;
    if Fpr.equal recovered.Fft.im.(k) truth.Fft.im.(k) then incr ok
  done;
  !ok

let forge ~keypair ~seed msg =
  let sk = Falcon.Scheme.secret_of_keypair keypair in
  Falcon.Scheme.sign ~rng:(Prng.of_seed seed) sk msg
