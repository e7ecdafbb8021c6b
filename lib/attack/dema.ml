type scored = { guess : int; corr : float }

(* Strict total order on scored candidates: higher score first, equal
   scores broken by the smaller guess value.  The tie-break is what makes
   top-k selection independent of enumeration order — the paper's
   mantissa sweeps produce *exactly* tied alias classes, so without it
   the returned ranking depends on how the candidate sequence happens to
   be ordered (and chunked parallel sweeps would be nondeterministic). *)
let compare_scored a b =
  match Float.compare b.corr a.corr with
  | 0 -> compare a.guess b.guess
  | c -> c

(* Streaming top-k accumulator under {!compare_scored}, kept worst-first
   so eviction inspects the head.  Selection under a strict total order
   is a pure function of the candidate multiset: processing order,
   chunking and merge order cannot change the result. *)
module Topk = struct
  type t = { top : int; mutable size : int; mutable worst_first : scored list }

  let create top = { top; size = 0; worst_first = [] }
  let cmp_worst_first a b = compare_scored b a

  let add t s =
    if t.top > 0 then begin
      if t.size < t.top then begin
        t.worst_first <- List.merge cmp_worst_first [ s ] t.worst_first;
        t.size <- t.size + 1
      end
      else
        match t.worst_first with
        | worst :: rest when compare_scored s worst < 0 ->
            t.worst_first <- List.merge cmp_worst_first [ s ] rest
        | _ -> ()
    end

  let merge into t =
    List.iter (add into) t.worst_first;
    into

  let to_list t = List.rev t.worst_first
end

(* Candidates per unit of work distribution.  Scoring one candidate costs
   O(parts x traces) floating-point work (tens of thousands of ops at
   realistic trace counts), so ~512 candidates amortise the chunk
   hand-off far below the noise floor while still load-balancing the
   2^25-candidate enumerations of Section III-C. *)
let sweep_chunk = 512

let hyp_vector ~model ~known guess =
  Array.map (fun y -> float_of_int (Bitops.popcount (model guess y))) known

(* ---- the statistics: one {!Distinguisher.S} instance each ---- *)

let seg_length batch = match batch with [||] -> 0 | _ -> Array.length (snd batch.(0))

(* The shape check every [prepare] makes: one segment per part, [ncols
   j] columns for part [j], everything one length.  Returns the
   length. *)
let checked_length ~what ~nparts ~ncols batch =
  if Array.length batch <> nparts then
    invalid_arg (what ^ ": wrong number of part segments");
  let len = seg_length batch in
  Array.iteri
    (fun j (cols, ks) ->
      if Array.length cols <> ncols j then
        invalid_arg (what ^ ": a part segment has the wrong number of columns");
      if
        Array.length ks <> len
        || Array.exists (fun (c : float array) -> Array.length c <> len) cols
      then invalid_arg (what ^ ": ragged part segments"))
    batch;
  len

(* Resolved hypothesis source over one segment of known operands: a
   split model becomes a precomputed per-trace table plus its integer
   evaluator (built once per segment, shared read-only by every
   candidate chunk); a plain model becomes a closure over the segment.
   Both yield exactly [hyp_vector]'s intermediates, so the choice never
   changes a result. *)
type seg_src =
  | Tab of int array * (int -> int -> int)
  | App of (int -> int -> int)  (* guess -> segment-local trace -> intermediate *)

let seg_src model known =
  match model with
  | Hypothesis.Model.Split (prep, eval) -> Tab (Array.map prep known, eval)
  | Hypothesis.Model.Fn f -> App (fun g i -> f g (Array.unsafe_get known i))

(* Pearson DEMA (Eq. 1): per candidate, the sum over parts of |r|
   between the modelled Hamming weights and the part's column.  The
   plan keeps each column's running moments; a chunk keeps per (part,
   guess) hypothesis moments, so every accumulator sees its additions
   in global trace order and the score of a candidate is independent of
   segmenting and chunking.  The scalar arm is the reference loop; the
   batched arm runs the same additions through the register-tiled
   {!Stats.Pearson.Batch.Fused} kernel (split models read the segment's
   prep table), bit for bit. *)
module Pearson (K : sig
  val kernel : Stats.Pearson.Batch.backend
end) : Distinguisher.S = struct
  module Fused = Stats.Pearson.Batch.Fused

  let name = "pearson"
  let scalar = K.kernel = Stats.Pearson.Batch.Scalar

  type 'k plan = {
    samples : int array;
    models : 'k Hypothesis.Model.t array;
    appls : (int -> 'k -> int) array;
    sums : float array;  (* per part: running column sum *)
    sqs : float array;  (* per part: running column sum of squares *)
    mutable n : int;
  }

  let plan ~parts =
    let models = Array.of_list (List.map snd parts) in
    let np = Array.length models in
    {
      samples = Array.of_list (List.map fst parts);
      models;
      appls = Array.map Hypothesis.Model.apply models;
      sums = Array.make np 0.;
      sqs = Array.make np 0.;
      n = 0;
    }

  let needs p = Array.to_list (Array.map (fun s -> [ s ]) p.samples)

  type 'k seg = {
    len : int;
    cols : float array array;  (* per part *)
    ks : 'k array array;  (* per part: known operands *)
    appls : (int -> 'k -> int) array;
    srcs : seg_src array;  (* batched arm: per part *)
  }

  let prepare p batch =
    let len =
      checked_length ~what:"Dema: Pearson" ~nparts:(Array.length p.models)
        ~ncols:(fun _ -> 1) batch
    in
    let cols = Array.map (fun (c, _) -> c.(0)) batch in
    Array.iteri
      (fun j col ->
        let s = ref p.sums.(j) and ss = ref p.sqs.(j) in
        for i = 0 to len - 1 do
          let v = Array.unsafe_get col i in
          s := !s +. v;
          ss := !ss +. (v *. v)
        done;
        p.sums.(j) <- !s;
        p.sqs.(j) <- !ss)
      cols;
    p.n <- p.n + len;
    {
      len;
      cols;
      ks = Array.map snd batch;
      appls = p.appls;
      srcs =
        (if scalar then [||]
         else Array.mapi (fun j (_, ks) -> seg_src p.models.(j) ks) batch);
    }

  type 'k acc = {
    guesses : int array;
    sh : float array array;  (* scalar arm: per part x guess *)
    shh : float array array;
    sht : float array array;
    fused : Fused.t array;  (* batched arm: per part *)
  }

  let acc p guesses =
    let g = Array.length guesses and np = Array.length p.models in
    let moments () =
      if scalar then Array.init np (fun _ -> Array.make g 0.) else [||]
    in
    {
      guesses;
      sh = moments ();
      shh = moments ();
      sht = moments ();
      fused =
        (if scalar then [||]
         else Array.init np (fun _ -> Fused.create ~rows:g));
    }

  let fold a s =
    let len = s.len in
    if len > 0 then
      Array.iteri
        (fun j col ->
          if scalar then begin
            let ks = s.ks.(j) and model = s.appls.(j) in
            let sh = a.sh.(j) and shh = a.shh.(j) and sht = a.sht.(j) in
            for r = 0 to Array.length a.guesses - 1 do
              let guess = Array.unsafe_get a.guesses r in
              let h = ref (Array.unsafe_get sh r)
              and hh = ref (Array.unsafe_get shh r)
              and ht = ref (Array.unsafe_get sht r) in
              for i = 0 to len - 1 do
                let x =
                  float_of_int
                    (Bitops.popcount (model guess (Array.unsafe_get ks i)))
                in
                h := !h +. x;
                hh := !hh +. (x *. x);
                ht := !ht +. (x *. Array.unsafe_get col i)
              done;
              Array.unsafe_set sh r !h;
              Array.unsafe_set shh r !hh;
              Array.unsafe_set sht r !ht
            done
          end
          else
            match s.srcs.(j) with
            | Tab (prepped, eval) ->
                Fused.fold_split a.fused.(j) ~eval ~guesses:a.guesses ~prepped ~col
                  ~len
            | App f ->
                Fused.fold a.fused.(j)
                  ~gen:(fun r i -> f (Array.unsafe_get a.guesses r) i)
                  ~col ~len)
        s.cols

  (* [corr_with]'s epilogue per (part, guess) against the plan's whole
     column moments; |r| summed over parts in part order *)
  let finalize p a =
    let g = Array.length a.guesses in
    let out = Array.make g 0. in
    let nf = float_of_int p.n in
    Array.iteri
      (fun j sum_t ->
        let var_t = p.sqs.(j) -. (sum_t *. sum_t /. nf) in
        if scalar then begin
          let sh = a.sh.(j) and shh = a.shh.(j) and sht = a.sht.(j) in
          for r = 0 to g - 1 do
            let h = Array.unsafe_get sh r in
            let vh = Array.unsafe_get shh r -. (h *. h /. nf) in
            let cov = Array.unsafe_get sht r -. (h *. sum_t /. nf) in
            let rr = if vh <= 0. || var_t <= 0. then 0. else cov /. sqrt (vh *. var_t) in
            out.(r) <- out.(r) +. Float.abs rr
          done
        end
        else begin
          let rs = Fused.corr a.fused.(j) ~n:p.n ~sum_t ~var_t in
          for r = 0 to g - 1 do
            out.(r) <- out.(r) +. Float.abs rs.(r)
          done
        end)
      p.sums;
    out
end

(* Profiled template scoring: per (part, trace) the class-conditional
   log-likelihood table is candidate-independent, so [prepare] computes
   it once per segment from the template's points of interest and every
   guess just sums its predicted class's entry.  One accumulator per
   part keeps every sum in global trace order however the stream is
   split; the mean (not sum) over traces keeps scores comparable across
   budgets, like a correlation. *)
module Profiled (P : sig
  val store : Profile.store
end) : Distinguisher.S = struct
  let name = "profiled"
  let nclass = P.store.Profile.nclass

  type 'k plan = {
    points : Profile.point array;
    appls : (int -> 'k -> int) array;
    mutable n : int;
  }

  let plan ~parts =
    {
      points =
        Array.of_list (List.map (fun (s, _) -> Profile.point P.store ~sample:s) parts);
      appls = Array.of_list (List.map (fun (_, m) -> Hypothesis.Model.apply m) parts);
      n = 0;
    }

  let needs p =
    Array.to_list (Array.map (fun pt -> Array.to_list pt.Profile.abs_pois) p.points)

  type 'k seg = {
    len : int;
    tables : float array array array;  (* part -> trace -> class score *)
    ks : 'k array array;
    appls : (int -> 'k -> int) array;
  }

  let prepare p batch =
    let len =
      checked_length ~what:"Dema: profiled" ~nparts:(Array.length p.points)
        ~ncols:(fun j -> Array.length p.points.(j).Profile.abs_pois)
        batch
    in
    let tables =
      Array.mapi
        (fun j (cols, _) ->
          let tpl = p.points.(j).Profile.tpl in
          let x = Array.make (Array.length cols) 0. in
          Array.init len (fun i ->
              Array.iteri (fun k (col : float array) -> x.(k) <- col.(i)) cols;
              Profile.class_scores_vec P.store tpl x))
        batch
    in
    p.n <- p.n + len;
    { len; tables; ks = Array.map snd batch; appls = p.appls }

  type 'k acc = { guesses : int array; sll : float array array (* part -> guess *) }

  let acc p guesses =
    {
      guesses;
      sll = Array.map (fun _ -> Array.make (Array.length guesses) 0.) p.points;
    }

  let fold a s =
    Array.iteri
      (fun j tbl ->
        let ks = s.ks.(j) and model = s.appls.(j) and acc = a.sll.(j) in
        for r = 0 to Array.length a.guesses - 1 do
          let guess = Array.unsafe_get a.guesses r in
          let e = ref (Array.unsafe_get acc r) in
          for i = 0 to s.len - 1 do
            let cls = Bitops.popcount (model guess (Array.unsafe_get ks i)) in
            let cls = if cls >= nclass then nclass - 1 else cls in
            e := !e +. Array.unsafe_get (Array.unsafe_get tbl i) cls
          done;
          Array.unsafe_set acc r !e
        done)
      s.tables

  let finalize p a =
    let nrm = 1. /. float_of_int (max 1 p.n) in
    Array.init (Array.length a.guesses) (fun r ->
        let s = ref 0. in
        Array.iter (fun acc -> s := !s +. acc.(r)) a.sll;
        !s *. nrm)
end

(* The calibrated absolute-level statistic of the exponent sweep: the
   negative mean squared residual between the samples and
   [baseline + alpha * HW], one running error per (part, guess) summed
   over parts at the end. *)
module Absolute (L : sig
  val alpha : float
  val baseline : float
end) : Distinguisher.S = struct
  let name = "absolute"

  type 'k plan = { samples : int array; models : 'k Hypothesis.Model.t array; mutable n : int }

  let plan ~parts =
    {
      samples = Array.of_list (List.map fst parts);
      models = Array.of_list (List.map snd parts);
      n = 0;
    }

  let needs p = Array.to_list (Array.map (fun s -> [ s ]) p.samples)

  type 'k seg = { len : int; cols : float array array; srcs : seg_src array }

  let prepare p batch =
    let len =
      checked_length ~what:"Dema: absolute" ~nparts:(Array.length p.models)
        ~ncols:(fun _ -> 1) batch
    in
    p.n <- p.n + len;
    {
      len;
      cols = Array.map (fun (c, _) -> c.(0)) batch;
      srcs = Array.mapi (fun j (_, ks) -> seg_src p.models.(j) ks) batch;
    }

  type 'k acc = { guesses : int array; err : float array array (* part -> guess *) }

  let acc p guesses =
    {
      guesses;
      err = Array.map (fun _ -> Array.make (Array.length guesses) 0.) p.models;
    }

  let fold a s =
    Array.iteri
      (fun j col ->
        let gen =
          match s.srcs.(j) with
          | Tab (prepped, eval) -> fun gu i -> eval gu (Array.unsafe_get prepped i)
          | App f -> f
        in
        let err = a.err.(j) in
        for r = 0 to Array.length a.guesses - 1 do
          let gu = Array.unsafe_get a.guesses r in
          let e = ref (Array.unsafe_get err r) in
          for i = 0 to s.len - 1 do
            let pred =
              L.baseline +. (L.alpha *. float_of_int (Bitops.popcount (gen gu i)))
            in
            let rr = Array.unsafe_get col i -. pred in
            e := !e +. (rr *. rr)
          done;
          Array.unsafe_set err r !e
        done)
      s.cols

  let finalize p a =
    let d = float_of_int p.n in
    Array.init (Array.length a.guesses) (fun r ->
        let s = ref 0. in
        Array.iter (fun err -> s := !s +. err.(r)) a.err;
        -. !s /. d)
end

let pearson kernel : (module Distinguisher.S) =
  (module Pearson (struct
    let kernel = kernel
  end))

let distinguisher : Distinguisher.selection -> (module Distinguisher.S) = function
  | Distinguisher.Profiled store ->
      (module Profiled (struct
        let store = store
      end))
  | Distinguisher.Pearson -> pearson Stats.Pearson.Batch.Batched

let absolute ~alpha ~baseline : (module Distinguisher.S) =
  (module Absolute (struct
    let alpha = alpha
    let baseline = baseline
  end))

(* ---- the driver ---- *)

(* One feed segment over [len] traces: per part, the columns its
   [needs] name ([get i s] reads sample [s] of trace [i]) and the known
   operands. *)
let columns needs ~len ~get ks =
  Array.of_list
    (List.map
       (fun cols ->
         (Array.of_list (List.map (fun s -> Array.init len (fun i -> get i s)) cols), ks))
       needs)

(* Fixed-budget sweep: every segment is prepared once, then the
   candidate sequence is read lazily in [sweep_chunk] chunks, each
   folded over the prepared segments, finalised and reduced into a
   local top-k — O(top + jobs x chunk) live per-candidate state, never
   the whole space.  [source] supplies the segments for the instance's
   [needs] and their total trace count. *)
let fixed (type k) (module D : Distinguisher.S) ~ctx:c
    ~(parts : (int * k Hypothesis.Model.t) list) ~top ~source candidates =
  let obs = c.Ctx.obs in
  let plan = D.plan ~parts in
  let batches, d = source (D.needs plan) in
  let segs =
    Obs.span ~level:Obs.Debug obs "dema.prep" (fun () -> List.map (D.prepare plan) batches)
  in
  (* guesses are scored on worker domains; the count accumulates in a
     private Atomic and is emitted once, after the join, from the owning
     domain (the Obs determinism contract) *)
  let scored = Atomic.make 0 in
  let ranking =
    Obs.span ~level:Obs.Debug obs "dema.score" (fun () ->
        Topk.to_list
          (Parallel.map_reduce_chunks ~jobs:c.Ctx.jobs ~chunk:sweep_chunk
             ~map:(fun guesses ->
               ignore (Atomic.fetch_and_add scored (Array.length guesses));
               let a = D.acc plan guesses in
               List.iter (D.fold a) segs;
               let sc = D.finalize plan a in
               let t = Topk.create top in
               Array.iteri (fun i g -> Topk.add t { guess = g; corr = sc.(i) }) guesses;
               t)
             ~reduce:Topk.merge ~init:(Topk.create top) candidates))
  in
  if Obs.enabled obs then begin
    let n = Atomic.get scored in
    Obs.count obs "dema.guesses" n;
    (* one correlation = ~6 flops/trace (centre, multiply-accumulate,
       normalise amortised); a per-sweep order-of-magnitude estimate *)
    Obs.gauge obs "dema.flops_est"
      (float_of_int n *. float_of_int (List.length parts) *. 6. *. float_of_int d);
    (* fewer traces than candidates: the top of the ranking is dominated
       by chance correlations, not evidence *)
    if d < n then
      Obs.count ~level:Obs.Error
        ~fields:[ ("traces", Obs.Int d); ("guesses", Obs.Int n) ]
        obs "dema.degenerate_rank" 1
  end;
  ranking

let in_memory ~traces ~known needs =
  let d = Array.length traces in
  ([ columns needs ~len:d ~get:(fun i s -> traces.(i).(s)) known ], d)

(* ---- incremental sweeps for sequential campaigns ----

   The sequential form of the same fold: the candidate array is split
   into chunks whose accumulators persist across segments, and scores
   are finalised at every decision look without a reset.  Fed the
   campaign to exhaustion it scores bit-identically to the fixed-budget
   sweep, and at every intermediate look the Scalar and Batched
   kernels agree bitwise — the substrate for stop decisions that are
   reproducible across [jobs]. *)
module Sweep = struct
  type 'k t = {
    guesses : int array;
    nparts : int;
    needs : int list list;
    mutable n : int;
    fold_seg : jobs:int -> (float array array * 'k array) array -> unit;
    finalize : jobs:int -> float array;
  }

  let of_instance (type k) (module D : Distinguisher.S)
      ~(parts : (int * k Hypothesis.Model.t) list) guesses : k t =
    let g = Array.length guesses in
    if g < 2 then invalid_arg "Dema.Sweep.create: need at least two candidates";
    if parts = [] then invalid_arg "Dema.Sweep.create: no parts";
    let plan = D.plan ~parts in
    let accs =
      Array.init
        ((g + sweep_chunk - 1) / sweep_chunk)
        (fun c ->
          let off = c * sweep_chunk in
          D.acc plan (Array.sub guesses off (min sweep_chunk (g - off))))
    in
    let chunks = Array.init (Array.length accs) Fun.id in
    {
      guesses;
      nparts = List.length parts;
      needs = D.needs plan;
      n = 0;
      fold_seg =
        (fun ~jobs batch ->
          (* the segment's shared work runs once, on the owner *)
          let seg = D.prepare plan batch in
          if seg_length batch > 0 then
            ignore (Parallel.map_array ~jobs (fun c -> D.fold accs.(c) seg) chunks));
      finalize =
        (fun ~jobs ->
          Array.concat
            (Array.to_list
               (Parallel.map_array ~jobs (fun c -> D.finalize plan accs.(c)) chunks)));
    }

  (* [fold] hands each part its column directly, so the parts' sample
     indices (which only feed [needs]) are never read *)
  let create ~backend ~parts candidates =
    of_instance (pearson backend) ~parts:(List.map (fun m -> (0, m)) parts) candidates

  let n t = t.n

  let fold_batch ?jobs t batch =
    t.fold_seg ~jobs:(Parallel.resolve jobs) batch;
    t.n <- t.n + seg_length batch

  let fold ?jobs t segs = fold_batch ?jobs t (Array.map (fun (col, ks) -> ([| col |], ks)) segs)

  let scores ?jobs t =
    if t.n = 0 then Array.make (Array.length t.guesses) 0.
    else t.finalize ~jobs:(Parallel.resolve jobs)

  let ranking ?jobs t ~top =
    let sc = scores ?jobs t in
    let tk = Topk.create top in
    Array.iteri (fun i s -> Topk.add tk { guess = t.guesses.(i); corr = s }) sc;
    Topk.to_list tk

  (* Top-1 vs runner-up under the deterministic total order, reported as
     mean |r| over parts so the statistic lives in [0, 1] like a single
     correlation — what the Fisher-z decision rules expect. *)
  let leaders ?jobs t =
    let sc = scores ?jobs t in
    let best = ref 0 in
    let second = ref (-1) in
    let better a b =
      compare_scored
        { guess = t.guesses.(a); corr = sc.(a) }
        { guess = t.guesses.(b); corr = sc.(b) }
      < 0
    in
    for i = 1 to Array.length sc - 1 do
      if better i !best then begin
        second := !best;
        best := i
      end
      else if !second < 0 || better i !second then second := i
    done;
    let np = float_of_int t.nparts in
    {
      Sequential.Campaign.winner = t.guesses.(!best);
      best = sc.(!best) /. np;
      runner_up = sc.(!second) /. np;
    }
end

type until = {
  ranking : scored list;
  stop : Sequential.Decision.stop option;
  n_traces : int;
  looks : int;
}

(* Single-unit campaign: one incremental sweep fed segment by segment,
   one tester looking at its leaders.  The unit's inner work (fold,
   score finalisation) parallelises over candidate chunks with the
   context's [jobs]; the campaign driver itself runs single-unit.
   [feed needs] pulls the next segment shaped for the instance. *)
let until ~ctx:c ~what ~spec ~total ~top ~parts ~feed candidates =
  Distinguisher.require_gap_test ~what c.Ctx.backend;
  let jobs = c.Ctx.jobs in
  let sweep =
    Sweep.of_instance (distinguisher c.Ctx.backend) ~parts (Array.of_seq candidates)
  in
  let unit_ =
    {
      Sequential.Campaign.fold = (fun b -> Sweep.fold_batch ~jobs sweep b);
      leaders = (fun () -> Sweep.leaders ~jobs sweep);
    }
  in
  let r =
    (Sequential.Campaign.run ~jobs:1 ~obs:c.Ctx.obs ~spec ~total
       ~feed:(feed sweep.Sweep.needs) ~length:seg_length [| unit_ |]).(0)
  in
  {
    ranking = Sweep.ranking ~jobs sweep ~top;
    stop = r.Sequential.Campaign.stop;
    n_traces = r.Sequential.Campaign.n_traces;
    looks = r.Sequential.Campaign.looks;
  }

(* ---- the in-memory entry points ---- *)

let rank ?ctx:(c = Ctx.default ()) ~traces ~parts ~known ~top candidates =
  let run () =
    fixed (distinguisher c.Ctx.backend) ~ctx:c ~parts ~top
      ~source:(in_memory ~traces ~known) candidates
  in
  if Obs.enabled c.Ctx.obs then
    Obs.span c.Ctx.obs "dema.rank"
      ~fields:
        [
          ("traces", Obs.Int (Array.length traces));
          ("parts", Obs.Int (List.length parts));
          ("top", Obs.Int top);
          ("backend", Obs.Str (Distinguisher.name c.Ctx.backend));
          ("jobs", Obs.Int c.Ctx.jobs);
        ]
      run
  else run ()

let rank_absolute ?ctx:(c = Ctx.default ()) ~traces ~parts ~known ~top ~alpha
    ~baseline candidates =
  Obs.span c.Ctx.obs "dema.rank_absolute"
    ~fields:[ ("traces", Obs.Int (Array.length traces)); ("top", Obs.Int top) ]
    (fun () ->
      fixed (absolute ~alpha ~baseline) ~ctx:c ~parts ~top
        ~source:(in_memory ~traces ~known) candidates)

let rank_until ?ctx:(c = Ctx.default ()) ~spec ?(batch = 64) ~traces ~parts
    ~known ~top candidates =
  if batch < 1 then invalid_arg "Dema.rank_until: batch must be >= 1";
  let total = Array.length traces in
  let pos = ref 0 in
  let feed needs () =
    if !pos >= total then None
    else begin
      let off = !pos in
      let len = min batch (total - off) in
      pos := off + len;
      Some
        (columns needs ~len
           ~get:(fun i s -> traces.(off + i).(s))
           (Array.sub known off len))
    end
  in
  until ~ctx:c ~what:"Dema.rank_until" ~spec ~total ~top ~parts ~feed candidates

(* ---- streaming engine over an on-disk trace store ----

   Everything below reads a Tracestore campaign one shard at a time:
   shards are decoded on the Parallel domain pool (one shard per work
   unit, so at most [jobs] decoded shards are ever live) and their
   per-shard results are combined in shard order.  Column extraction is
   arithmetic-free, so each shard is one driver segment holding exactly
   the columns the in-memory path sees, and every ranking below is
   bit-identical to its in-memory counterpart at every [jobs]; the
   evolution path merges Welford/Chan accumulators in shard order,
   deterministic at every [jobs] and equal to a prefix rescan up to
   floating-point reassociation. *)
module Stream = struct
  type codec = {
    check : Tracestore.meta -> unit;
    decode : Tracestore.meta -> Tracestore.record -> Leakage.trace;
  }

  (* The historical decode path: a store of full FALCON signing traces,
     FFT(c) recomputed from the stored salt+message.  Every entry point
     defaults to it, so pre-target callers are bitwise unchanged. *)
  let falcon_codec =
    {
      check =
        (fun m ->
          if m.Tracestore.width <> m.Tracestore.n * Leakage.events_per_coeff then
            failwith
              (Printf.sprintf
                 "Dema.Stream: store width %d does not match n = %d signing \
                  traces (want %d)"
                 m.Tracestore.width m.Tracestore.n
                 (m.Tracestore.n * Leakage.events_per_coeff)));
      decode = (fun m r -> Leakage.of_record ~n:m.Tracestore.n r);
    }

  let check_meta codec reader =
    let m = Tracestore.Reader.meta reader in
    codec.check m;
    m

  (* One shard, decoded — or [None] when it is corrupt or unreadable and
     the policy is [`Skip] (the caller counts the drop).  The reader's
     own [`Skip] policy swallows a corrupt shard; a silently shrunken
     campaign skews every downstream statistic, so losing it must be
     loud unless the caller opted in. *)
  let fetch codec m ~on_corrupt reader i =
    let corrupt msg = match on_corrupt with `Fail -> failwith msg | `Skip -> None in
    match Tracestore.Reader.read_shard reader i with
    | Some records -> Some (Array.map (codec.decode m) records)
    | None ->
        corrupt
          (Printf.sprintf
             "Dema.Stream: shard %d is corrupt or unreadable; pass \
              ~on_corrupt:`Skip to drop it from the campaign"
             i)
    | exception Failure msg -> corrupt msg

  let map_shards ?ctx:(c = Ctx.default ()) ?(on_corrupt = `Fail) ?(prefetch = true)
      ?(codec = falcon_codec) reader f =
    let obs = c.Ctx.obs in
    let m = check_meta codec reader in
    let shards = Tracestore.Reader.shard_count reader in
    (* [done_] and [skipped] are private worker-side Atomics; [done_]
       feeds only the lossy progress channel and the deterministic
       shard/byte/trace/skip counters are emitted below, after the join,
       from the owning domain. *)
    let done_ = Atomic.make 0 in
    let skipped = Atomic.make 0 in
    let fetch i =
      let r = fetch codec m ~on_corrupt reader i in
      if Option.is_none r then Atomic.incr skipped;
      r
    in
    let progress () =
      if Obs.enabled obs then
        Obs.progress ~total:shards obs "shards" (1 + Atomic.fetch_and_add done_ 1)
    in
    let results =
      if c.Ctx.jobs = 1 && prefetch && shards > 1 then begin
        (* single-job pipeline: a helper domain reads and decodes shard
           i+1 while the owner runs [f] on shard i, overlapping IO with
           scoring.  Results are consumed strictly in shard order, so the
           outcome is the sequential one. *)
        let out = ref [] in
        let next = ref (Some (Domain.spawn (fun () -> fetch 0))) in
        Fun.protect
          ~finally:(fun () ->
            match !next with
            | Some dm -> ( try ignore (Domain.join dm) with _ -> ())
            | None -> ())
          (fun () ->
            for i = 0 to shards - 1 do
              let cur = Domain.join (Option.get !next) in
              next :=
                if i + 1 < shards then Some (Domain.spawn (fun () -> fetch (i + 1)))
                else None;
              (match cur with
              | Some traces -> out := f i traces :: !out
              | None -> ());
              progress ()
            done);
        List.rev !out
      end
      else
        List.filter_map Fun.id
          (Parallel.map_chunks ~jobs:c.Ctx.jobs ~chunk:1
             ~map:(fun _ chunk ->
               let i = chunk.(0) in
               let r = Option.map (f i) (fetch i) in
               progress ();
               r)
             (Seq.init shards Fun.id))
    in
    if Obs.enabled obs then begin
      let bytes = ref 0 and traces = ref 0 in
      for i = 0 to shards - 1 do
        let e = Tracestore.Reader.entry reader i in
        bytes := !bytes + e.Tracestore.bytes;
        traces := !traces + e.Tracestore.count
      done;
      Obs.count obs "tracestore.shards" shards;
      Obs.count obs "tracestore.bytes" !bytes;
      Obs.count obs "tracestore.traces" !traces;
      let sk = Atomic.get skipped in
      if sk > 0 then Obs.count obs "dema.shards_skipped" sk
    end;
    results

  let gather ~samples ~known (batch : Leakage.trace array) =
    ( Array.map
        (fun (t : Leakage.trace) -> Array.map (fun s -> t.samples.(s)) samples)
        batch,
      Array.map known batch )

  let extract ?ctx ?on_corrupt ?prefetch ?codec reader ~samples ~known =
    let samples = Array.of_list samples in
    let pieces =
      map_shards ?ctx ?on_corrupt ?prefetch ?codec reader (fun _ traces ->
          gather ~samples ~known traces)
    in
    ( Array.concat (List.map fst pieces),
      Array.concat (List.map snd pieces) )

  (* the driver segment of one decoded shard *)
  let shard_columns needs ~known (tr : Leakage.trace array) =
    columns needs ~len:(Array.length tr)
      ~get:(fun i s -> tr.(i).Leakage.samples.(s))
      (Array.map known tr)

  (* Store-backed fixed-budget sweep: each shard is one driver segment of
     the columns the instance needs, so the campaign is never
     concatenated and every addition lands in the same accumulator in
     the same global trace order as the in-memory sweep. *)
  let rank ?ctx:(c = Ctx.default ()) ?on_corrupt ?prefetch ?codec reader ~parts
      ~known ~top candidates =
    let obs = c.Ctx.obs in
    let source needs =
      let pieces =
        Obs.span ~level:Obs.Debug obs "dema.stream.extract" (fun () ->
            map_shards ~ctx:c ?on_corrupt ?prefetch ?codec reader (fun _ tr ->
                (shard_columns needs ~known tr, Array.length tr)))
      in
      (List.map fst pieces, List.fold_left (fun a (_, d) -> a + d) 0 pieces)
    in
    Obs.span obs "dema.stream.rank"
      ~fields:
        [
          ("shards", Obs.Int (Tracestore.Reader.shard_count reader));
          ("backend", Obs.Str (Distinguisher.name c.Ctx.backend));
        ]
      (fun () -> fixed (distinguisher c.Ctx.backend) ~ctx:c ~parts ~top ~source candidates)

  (* Pull-based shard feed for adaptive campaigns: decoded strictly in
     shard order, one at a time, with one decode kept in flight on a
     helper domain when [prefetch] — the caller consumes at its own
     pace and simply stops pulling at the stopping point, so unread
     shards are never decoded.  The delivered trace sequence (order,
     skips, truncation at the cap) is independent of [prefetch]. *)
  type feed = {
    next : unit -> Leakage.trace array option;
    close : unit -> unit;
    total : int;
    skipped : unit -> int;
  }

  let shard_feed ?(on_corrupt = `Fail) ?(prefetch = true) ?(codec = falcon_codec)
      ?max_traces reader =
    let m = check_meta codec reader in
    let shards = Tracestore.Reader.shard_count reader in
    let cap =
      let avail = Tracestore.Reader.total_traces reader in
      match max_traces with
      | None -> avail
      | Some k ->
          if k < 1 then
            invalid_arg "Dema.Stream.shard_feed: max_traces must be >= 1";
          min k avail
    in
    let skipped = ref 0 in
    let fetch i = fetch codec m ~on_corrupt reader i in
    let idx = ref 0 in
    let pending = ref None in
    let take () =
      let cur =
        match !pending with
        | Some d ->
            pending := None;
            Domain.join d
        | None -> fetch !idx
      in
      incr idx;
      if prefetch && !idx < shards then begin
        let i = !idx in
        pending := Some (Domain.spawn (fun () -> fetch i))
      end;
      (match cur with None -> incr skipped | Some _ -> ());
      cur
    in
    let delivered = ref 0 in
    let rec next () =
      if !delivered >= cap || !idx >= shards then None
      else
        match take () with
        | None -> next ()
        | Some tr ->
            let room = cap - !delivered in
            let tr =
              if Array.length tr > room then Array.sub tr 0 room else tr
            in
            delivered := !delivered + Array.length tr;
            if Array.length tr = 0 then next () else Some tr
    in
    let close () =
      match !pending with
      | Some d ->
          pending := None;
          (try ignore (Domain.join d) with _ -> ())
      | None -> ()
    in
    { next; close; total = cap; skipped = (fun () -> !skipped) }

  (* Adaptive variant of [rank]: shards are pulled one at a time from
     [shard_feed] and fed to an incremental sweep; the tester looks
     after each shard per the spec's schedule and the pull stops at the
     stopping point.  Fed to exhaustion it returns [rank]'s exact
     ranking. *)
  let rank_until ?ctx:(c = Ctx.default ()) ?on_corrupt ?prefetch ?codec ~spec
      ?max_traces reader ~parts ~known ~top candidates =
    let obs = c.Ctx.obs in
    let fd = shard_feed ?on_corrupt ?prefetch ?codec ?max_traces reader in
    Fun.protect ~finally:fd.close (fun () ->
        Obs.span obs "dema.stream.rank_until"
          ~fields:
            [
              ("shards", Obs.Int (Tracestore.Reader.shard_count reader));
              ("total", Obs.Int fd.total);
              ("backend", Obs.Str (Distinguisher.name c.Ctx.backend));
              ("jobs", Obs.Int c.Ctx.jobs);
            ]
          (fun () ->
            let r =
              until ~ctx:c ~what:"Dema.rank_until" ~spec ~total:fd.total ~top ~parts
                ~feed:(fun needs () -> Option.map (shard_columns needs ~known) (fd.next ()))
                candidates
            in
            let sk = fd.skipped () in
            if Obs.enabled obs && sk > 0 then
              Obs.count obs "dema.shards_skipped" sk;
            r))

  let evolution ?ctx:(c = Ctx.default ()) ?on_corrupt ?prefetch ?codec reader
      ~sample ~model ~known ~guess =
    if Tracestore.Reader.total_traces reader = 0 then
      failwith "Dema.Stream.evolution: store holds no traces (empty campaign)";
    (* below 4 traces the correlation (and any Fisher-z band on it) is
       pure noise — flag the degenerate campaign instead of silently
       returning it *)
    let tot = Tracestore.Reader.total_traces reader in
    if tot <= 3 then
      Obs.count ~level:Obs.Error
        ~fields:[ ("traces", Obs.Int tot) ]
        c.Ctx.obs "dema.degenerate_evolution" 1;
    let per_shard =
      map_shards ~ctx:c ?on_corrupt ?prefetch ?codec reader (fun _ traces ->
          let acc = Stats.Welford.Cov.create () in
          Array.iter
            (fun (t : Leakage.trace) ->
              Stats.Welford.Cov.add acc
                (float_of_int (Bitops.popcount (model guess (known t))))
                t.samples.(sample))
            traces;
          acc)
    in
    let _, checkpoints =
      List.fold_left
        (fun (acc, out) shard_acc ->
          let acc = Stats.Welford.Cov.merge acc shard_acc in
          ( acc,
            (Stats.Welford.Cov.count acc, Stats.Welford.Cov.correlation acc) :: out ))
        (Stats.Welford.Cov.create (), [])
        per_shard
    in
    List.rev checkpoints
end

(* a correlation-vs-time matrix is Pearson by definition, so it runs
   the scalar matrix kernel under every selection *)
let corr_time ?ctx:(c = Ctx.default ()) ~traces ~model ~known ~guesses () =
  Obs.span c.Ctx.obs "dema.corr_time"
    ~fields:[ ("guesses", Obs.Int (Array.length guesses)) ]
    (fun () ->
      Stats.Pearson.corr_matrix ~traces
        ~hyps:(Array.map (hyp_vector ~model ~known) guesses))

let evolution ~traces ~sample ~model ~known ~guess ~step =
  let hyp = hyp_vector ~model ~known guess in
  Stats.Pearson.evolution ~traces ~hyp ~sample ~step
