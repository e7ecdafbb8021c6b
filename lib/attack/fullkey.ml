type result = {
  f_fft : Fft.t;
  f : int array;
  keypair : Ntru.Ntrugen.keypair option;
}

(* Which multiplications a secret component leaks through, and the known
   operand of each — shared by the fixed driver, the adaptive driver and
   the Target enumerator. *)
let component_muls = function `Re -> [ 0; 3 ] | `Im -> [ 1; 2 ]
let mul_known (re, im) = function 0 | 2 -> re | _ -> im

(* Fan the 2n independent (coefficient, component) attacks across the
   pool; leftover parallelism goes to the candidate sweeps inside.  Each
   task runs under a [Obs.buffered] child context (single-owner, one per
   task) and returns it with its result; the children are drained in
   task order after the join, so the merged event stream is
   deterministic at every [jobs] — the Obs ownership contract. *)
let fan_tasks ~ctx ~n task =
  let obs = ctx.Ctx.obs in
  let tasks = 2 * n in
  let outer = min ctx.Ctx.jobs tasks in
  let inner = max 1 (ctx.Ctx.jobs / max outer 1) in
  let done_ = Atomic.make 0 in
  let results =
    Parallel.map_array ~jobs:outer
      (fun t ->
        let child = Obs.buffered obs in
        let tctx = Ctx.with_obs child (Ctx.with_jobs inner ctx) in
        let k = t lsr 1 in
        let component = if t land 1 = 0 then `Re else `Im in
        let r =
          Obs.span child "fullkey.task"
            ~fields:
              [
                ("coeff", Obs.Int k);
                ("component", Obs.Str (match component with `Re -> "re" | `Im -> "im"));
              ]
            (fun () -> task ~tctx ~coeff:k ~component)
        in
        if Obs.enabled obs then
          Obs.progress ~total:tasks obs "coefficients"
            (1 + Atomic.fetch_and_add done_ 1);
        (r, child))
      (Array.init tasks Fun.id)
  in
  Array.iter (fun (_, child) -> Obs.drain ~into:obs child) results;
  let out = Fft.zero n in
  for k = 0 to n - 1 do
    out.Fft.re.(k) <- fst results.(2 * k);
    out.Fft.im.(k) <- fst results.((2 * k) + 1)
  done;
  out

let recover_f_fft ?ctx:(c = Ctx.default ()) ?leakage ~traces ~n strategy =
  Obs.span c.Ctx.obs "fullkey.recover_f_fft"
    ~fields:[ ("n", Obs.Int n); ("jobs", Obs.Int c.Ctx.jobs) ]
  @@ fun () ->
  fan_tasks ~ctx:c ~n (fun ~tctx ~coeff ~component ->
      let views = Recover.views_for traces ~coeff ~component in
      let mul = match component with `Re -> 0 | `Im -> 1 in
      Recover.coefficient ~ctx:tctx ?leakage ~strategy:(strategy ~coeff ~mul)
        views)

let recover_key ?ctx ?leakage ~traces ~h strategy =
  let n = Array.length h in
  let f_fft = recover_f_fft ?ctx ?leakage ~traces ~n strategy in
  let f = Fft.round_to_int (Fft.ifft f_fft) in
  let keypair = Ntru.Ntrugen.recover_from_f ~n ~f ~h in
  { f_fft; f; keypair }

(* ---- out-of-core variant over a Tracestore campaign ----

   One streaming pass per (coefficient, component) task extracts just
   that task's two 16-sample windows and known operands — O(D) floats —
   then runs the unchanged per-coefficient attack on them.  Extraction
   is arithmetic-free and in shard order, so the views are exactly the
   ones [Recover.views_for] builds from the in-memory corpus and the
   recovered key is bit-identical to [recover_key] at every [jobs];
   peak memory is one decoded shard per domain plus the extracted
   windows, never the whole campaign. *)
let store_views ~on_corrupt ~prefetch ~ctx ~reader ~coeff ~component =
  let muls = component_muls component in
  let samples =
    List.concat_map
      (fun m ->
        List.init Leakage.events_per_mul (fun i ->
            (coeff * Leakage.events_per_coeff) + (m * Leakage.events_per_mul) + i))
      muls
  in
  let known (t : Leakage.trace) =
    (t.c_fft.Fft.re.(coeff), t.c_fft.Fft.im.(coeff))
  in
  let narrow, ks =
    Dema.Stream.extract ~ctx:(Ctx.sequential ctx) ~on_corrupt ~prefetch reader
      ~samples ~known
  in
  List.mapi
    (fun vi m ->
      let lo = vi * Leakage.events_per_mul in
      {
        Recover.traces =
          Array.map (fun row -> Array.sub row lo Leakage.events_per_mul) narrow;
        known =
          Array.map (fun (re, im) -> match m with 0 | 2 -> re | _ -> im) ks;
      })
    muls

(* ---- adaptive (early-stopping) variant ----

   One single streaming pass over the campaign with 2n live units (vs
   one pass per task above): each batch is decoded once and every
   still-undecided unit extracts its two windows from it, buffers them
   (the prefix its final attack will run on) and folds two incremental
   decision sweeps — low mantissa half on [w00; w10; z1a] over the
   width-25 candidate set (z1a is what breaks the exact shift-alias
   ties of w00/w10) and high half on [w01; w11] over the width-28
   candidates (whose [lo] excludes shift aliases, so no d-dependent
   part is needed).  The unit's reported gap is the {e weaker} of the
   two sweeps' standardised gaps, so a stop certifies both halves
   separated at the spent level.  Once stopped, the unit is retired:
   its buffer stops growing and later batches skip its scoring
   entirely.  The unchanged per-coefficient attack then runs on each
   unit's buffered prefix.

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
      (* same rng threading as [Recover.coefficient]: low then high *)
      let xu = Fpr.mantissa truth lor (1 lsl 52) in
      ( Hypothesis.sampled rng ~width:25 ~truth:(xu land ((1 lsl 25) - 1)) ~decoys (),
        Hypothesis.sampled rng ~width:28 ~lo:(1 lsl 27) ~truth:(xu lsr 25) ~decoys ()
      )

type unit_state = {
  u_samples : int array;  (* 32 absolute sample indices, window order *)
  u_muls : int list;
  (* buffered prefix, newest segment first: (D_b x 32 window rows, knowns) *)
  u_segs : (float array array * (Fpr.t * Fpr.t) array) list ref;
  u_low : Fpr.t Dema.Sweep.t;
  u_high : Fpr.t Dema.Sweep.t;
}

let make_unit strategy ~coeff ~component =
  let muls = component_muls component in
  let samples =
    Array.of_list
      (List.concat_map
         (fun m ->
           List.init Leakage.events_per_mul (fun i ->
               (coeff * Leakage.events_per_coeff) + (m * Leakage.events_per_mul)
               + i))
         muls)
  in
  let mul = match component with `Re -> 0 | `Im -> 1 in
  let low_cands, high_cands = decision_candidates strategy ~coeff ~mul in
  let spread models =
    List.concat_map
      (fun m -> List.map (fun _ -> m) muls)
      models
  in
  {
    u_samples = samples;
    u_muls = muls;
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

let unit_fold u (batch : Leakage.trace array) ~coeff =
  let rows =
    Array.map
      (fun (t : Leakage.trace) ->
        Array.map (fun s -> t.Leakage.samples.(s)) u.u_samples)
      batch
  in
  let ks =
    Array.map
      (fun (t : Leakage.trace) ->
        (t.Leakage.c_fft.Fft.re.(coeff), t.Leakage.c_fft.Fft.im.(coeff)))
      batch
  in
  u.u_segs := (rows, ks) :: !(u.u_segs);
  (* per-view known operands and per-(view, label) columns *)
  let kvs =
    Array.of_list
      (List.map (fun m -> Array.map (fun k -> mul_known k m) ks) u.u_muls)
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

let unit_views u =
  let rows = Array.concat (List.rev_map fst !(u.u_segs)) in
  let ks = Array.concat (List.rev_map snd !(u.u_segs)) in
  List.mapi
    (fun vi m ->
      {
        Recover.traces =
          Array.map
            (fun row -> Array.sub row (vi * Leakage.events_per_mul) Leakage.events_per_mul)
            rows;
        known = Array.map (fun k -> mul_known k m) ks;
      })
    u.u_muls

let recover_f_fft_store_adaptive ~ctx:c ~on_corrupt ~prefetch ~stop:spec
    ~max_traces ~stop_report ~reader strategy n =
  let fd = Dema.Stream.shard_feed ~on_corrupt ~prefetch ?max_traces reader in
  let tasks = 2 * n in
  let units =
    Array.init tasks (fun t ->
        let coeff = t lsr 1 in
        let component = if t land 1 = 0 then `Re else `Im in
        make_unit strategy ~coeff ~component)
  in
  let campaign_units =
    Array.mapi
      (fun t u ->
        let coeff = t lsr 1 in
        {
          Sequential.Campaign.fold = (fun batch -> unit_fold u batch ~coeff);
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
  (* the unchanged per-coefficient attack, on each unit's buffered prefix *)
  fan_tasks ~ctx:c ~n (fun ~tctx ~coeff ~component ->
      let t = (2 * coeff) + match component with `Re -> 0 | `Im -> 1 in
      let views = unit_views units.(t) in
      let mul = match component with `Re -> 0 | `Im -> 1 in
      Recover.coefficient ~ctx:tctx ~strategy:(strategy ~coeff ~mul) views)

let recover_f_fft_store ?ctx:(c = Ctx.default ()) ?(on_corrupt = `Fail)
    ?(prefetch = true) ?(leakage = `Hw) ?stop ?max_traces ?stop_report ~reader
    strategy =
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
     reads.  At [jobs > 1] the fixed-budget fan-out already runs that
     many streaming passes at once (each task's inner context is
     jobs-1, so each would spawn its own helper), and the adaptive
     campaign folds units on that many domains: a helper on top
     oversubscribes the cores. *)
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
      fan_tasks ~ctx:c ~n (fun ~tctx ~coeff ~component ->
          let views =
            store_views ~on_corrupt ~prefetch ~ctx:tctx ~reader ~coeff ~component
          in
          let mul = match component with `Re -> 0 | `Im -> 1 in
          Recover.coefficient ~ctx:tctx ~leakage ~strategy:(strategy ~coeff ~mul)
            views)

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
