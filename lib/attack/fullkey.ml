type result = {
  f_fft : Fft.t;
  f : int array;
  keypair : Ntru.Ntrugen.keypair option;
}

(* Which multiplications a secret component leaks through, and the known
   operand of each — shared by the fixed driver, the adaptive driver and
   the FALCON profiling plan (Target.Falcon.profile_parts). *)
let component_muls = function `Re -> [ 0; 3 ] | `Im -> [ 1; 2 ]
let mul_known (re, im) = function 0 | 2 -> re | _ -> im

(* The unit order every driver shares: task [t] attacks coefficient
   [t / 2], its real part on even [t]. *)
let unit_of t = (t lsr 1, if t land 1 = 0 then `Re else `Im)
let mul_of = function `Re -> 0 | `Im -> 1

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

   Both store drivers gather many units' inputs from one streaming
   pass: each decoded shard yields every unit's two 16-sample windows
   and FFT(c) known operands ([Dema.Stream.gather]).  The fixed-budget
   driver runs [Recover.coefficient] on each unit's slice; the adaptive
   one also folds decision sweeps that let a unit stop early, then takes
   the unit's mantissa rankings from those sweeps and runs only
   [Recover.finish_coefficient] on its buffered prefix.  Extraction is
   arithmetic-free and in shard order, so every unit's views are the
   ones [Recover.views_for] builds in memory and the key is
   bit-identical to [recover_key] at every [jobs].  The adaptive driver
   buffers each live unit's prefix, up to D x 2n x 32 floats.  The
   fixed-budget one takes as many whole coefficients per pass as fit in
   [window_shards] decoded shards' worth of floats (all of them, in one
   pass, unless the campaign spans more than about [window_shards]
   shards), so its peak memory is that buffer plus one decoded shard
   per domain. *)
let window_shards = 8

(* A unit's 32 absolute sample indices, in view order. *)
let unit_samples ~coeff ~component =
  List.concat_map
    (fun m ->
      List.init Leakage.events_per_mul (fun i ->
          (coeff * Leakage.events_per_coeff) + (m * Leakage.events_per_mul) + i))
    (component_muls component)

(* A unit's views from window rows holding its [unit_samples] at
   columns [off ..] and each trace's (c_re, c_im) of its coefficient. *)
let unit_views ~component ~off rows ks =
  List.mapi
    (fun vi m ->
      let lo = off + (vi * Leakage.events_per_mul) in
      {
        Recover.traces =
          Array.map (fun row -> Array.sub row lo Leakage.events_per_mul) rows;
        known = Array.map (fun k -> mul_known k m) ks;
      })
    (component_muls component)

(* ---- adaptive (early-stopping) variant ----

   Each batch is decoded once and every still-undecided unit extracts
   its two windows from it, buffers them (the prefix its high prune and
   sign/exponent will run on) and folds two incremental decision sweeps
   — low mantissa half on [w00; w10; z1a] over the width-25 candidate
   set (z1a is what breaks the exact shift-alias ties of w00/w10) and
   high half on [w01; w11] over the width-28 candidates (whose [lo]
   excludes shift aliases, so no d-dependent part is needed).  The
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

type unit_state = {
  u_samples : int array;  (* [unit_samples], as an array *)
  u_component : [ `Re | `Im ];
  (* buffered prefix, newest segment first: (D_b x 32 window rows, knowns) *)
  u_segs : (float array array * (Fpr.t * Fpr.t) array) list ref;
  u_low : Fpr.t Dema.Sweep.t;
  u_high : Fpr.t Dema.Sweep.t;
}

let make_unit strategy ~coeff ~component =
  let muls = component_muls component in
  let low_cands, high_cands =
    decision_candidates strategy ~coeff ~mul:(mul_of component)
  in
  let spread = List.concat_map (fun m -> List.map (fun _ -> m) muls) in
  {
    u_samples = Array.of_list (unit_samples ~coeff ~component);
    u_component = component;
    u_segs = ref [];
    u_low =
      Dema.Sweep.create ~backend:Stats.Pearson.Batch.Batched
        ~parts:(spread [ Recover.p_w00; Recover.p_w10; Recover.p_z1a ])
        low_cands;
    u_high =
      Dema.Sweep.create ~backend:Stats.Pearson.Batch.Batched
        ~parts:(spread [ Recover.p_w01; Recover.p_w11 ])
        high_cands;
  }

let unit_fold u batch ~coeff =
  let rows, ks =
    Dema.Stream.gather ~samples:u.u_samples
      ~known:(fun (t : Leakage.trace) ->
        (t.Leakage.c_fft.Fft.re.(coeff), t.Leakage.c_fft.Fft.im.(coeff)))
      batch
  in
  u.u_segs := (rows, ks) :: !(u.u_segs);
  (* per-view known operands and per-(view, label) columns *)
  let kvs =
    Array.of_list
      (List.map
         (fun m -> Array.map (fun k -> mul_known k m) ks)
         (component_muls u.u_component))
  in
  let nviews = Array.length kvs in
  let col vi lbl =
    let off = (vi * Leakage.events_per_mul) + Recover.sample lbl in
    Array.map (fun row -> Array.unsafe_get row off) rows
  in
  let segs labels =
    Array.concat
      (List.map
         (fun lbl -> Array.init nviews (fun vi -> (col vi lbl, kvs.(vi))))
         labels)
  in
  Dema.Sweep.fold ~jobs:1 u.u_low
    (segs [ Fpr.Mant_w00; Fpr.Mant_w10; Fpr.Mant_z1a ]);
  Dema.Sweep.fold ~jobs:1 u.u_high (segs [ Fpr.Mant_w01; Fpr.Mant_w11 ])

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

(* The sweeps hold their parts label-major ([w00·v0; w00·v1; w10·v0;
   ...]) while [Recover] spreads a stage view-major ([w00·v0; w10·v0;
   w00·v1; ...]); [view_major labels] lists the sweep indices of
   [labels] (label positions) in [Recover]'s order, so the sums add in
   its order and the scores match bit for bit. *)
let view_major labels =
  List.concat_map (fun vi -> List.map (fun li -> (li * 2) + vi) labels) [ 0; 1 ]

(* A unit's low extend-and-prune result and high extend ranking, as
   [Recover.coefficient] would rank its candidates on the folded
   prefix: extend on the multiplication parts, prune the extend
   survivors on those parts followed by z1a. *)
let unit_rankings ~jobs u =
  let top = Recover.coefficient_top in
  let extend = view_major [ 0; 1 ] in
  let low_extend = Dema.Sweep.ranking ~jobs ~parts:extend u.u_low ~top in
  let prune = Dema.Sweep.scores ~jobs ~parts:(extend @ view_major [ 2 ]) u.u_low in
  let index = Hashtbl.create (Array.length prune) in
  Array.iteri (fun i g -> Hashtbl.replace index g i) (Dema.Sweep.guesses u.u_low);
  (* at most [top] survivors, so their re-ranking keeps them all *)
  let pruned =
    List.sort Dema.compare_scored
      (List.map
         (fun (s : Dema.scored) -> { s with corr = prune.(Hashtbl.find index s.guess) })
         low_extend)
  in
  ( { Recover.winner = (List.hd pruned).guess; extend = low_extend; pruned },
    Dema.Sweep.ranking ~jobs ~parts:extend u.u_high ~top )

let adaptive_rankings strategy ~coeff ~component traces =
  let u = make_unit strategy ~coeff ~component in
  if Array.length traces > 0 then unit_fold u traces ~coeff;
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
    Array.mapi
      (fun t u ->
        {
          Sequential.Campaign.fold = (fun batch -> unit_fold u batch ~coeff:(t lsr 1));
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
        (unit_views ~component:u.u_component ~off:0
           (Array.concat (List.rev_map fst !(u.u_segs)))
           (Array.concat (List.rev_map snd !(u.u_segs)))))

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
      (* The adaptive driver's streaming decision sweeps need a d-free
         part set per half; under bus-HD every usable high-half
         transition takes the recovered d, so there is no high sweep to
         decide on.  Mirror the Exhaustive rejection rather than decide
         on a mismatched model. *)
      if leakage = `Hd then
        invalid_arg
          "Fullkey: ?stop is not available under `Hd leakage — the streaming \
           decision sweeps have no d-free Hamming-distance part set";
      Distinguisher.require_gap_test ~what:"Fullkey: ?stop" c.Ctx.backend;
      recover_f_fft_store_adaptive ~ctx:c ~on_corrupt ~prefetch ~stop:spec
        ~max_traces ~stop_report ~reader strategy n
  | None ->
      (* per trace, a coefficient buffers 64 window and 2 known floats;
         a decoded trace holds [width] samples and 2n FFT(c) floats *)
      let m = Tracestore.Reader.meta reader in
      let shard_floats = window_shards * m.shard_traces * (m.width + (2 * n)) in
      let coeff_floats = max 1 (Tracestore.Reader.total_traces reader) * 66 in
      let per_pass = 2 * max 1 (shard_floats / coeff_floats) in
      recover_units ~ctx:c ~n ~per_pass (fun ~lo ~hi ->
          let c0 = lo / 2 and len = (hi - lo) / 2 in
          let rows, cs =
            Dema.Stream.extract ~ctx:c ~on_corrupt ~prefetch reader
              ~samples:
                (List.concat
                   (List.init (hi - lo) (fun i ->
                        let coeff, component = unit_of (lo + i) in
                        unit_samples ~coeff ~component)))
              ~known:(fun (t : Leakage.trace) ->
                (Array.sub t.c_fft.re c0 len, Array.sub t.c_fft.im c0 len))
          in
          by_coefficient ~leakage strategy (fun t ~coeff ~component ->
              unit_views ~component ~off:((t - lo) * 2 * Leakage.events_per_mul) rows
                (Array.map (fun (re, im) -> (re.(coeff - c0), im.(coeff - c0))) cs)))

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
  let truth = if mul = 0 then f_fft.Fft.re.(coeff) else f_fft.Fft.im.(coeff) in
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
