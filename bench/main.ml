(* Benchmark / reproduction harness.

   One section per table or figure of the paper's evaluation (see
   DESIGN.md section 4 for the index and EXPERIMENTS.md for recorded
   outputs).  `dune exec bench/main.exe` runs everything; environment
   variables scale the experiments:

     FD_ONLY    run a single section (fig3, fig4, headline, ablation_snr,
                ablation_prune, profiled, stream, assess, pearson,
                sequential, obs, leakage, target, micro)
     FD_TRACES  trace budget for the per-coefficient experiments (10000)
     FD_N       ring size of the full-key attack (32)
     FD_NOISE   leakage noise sigma (2.0)
     FD_SEED    experiment seed (42)
     FD_JOBS    worker domains for the key-recovery analysis (1); results
                are bit-identical at every value
     FD_FULL    1 = exhaustive 2^25 / 2^27 mantissa enumeration in the
                fig4 section (paper scale; hours on one core) *)

let getenv_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let only = Sys.getenv_opt "FD_ONLY"
let trace_budget = getenv_int "FD_TRACES" 10_000
let full_n = getenv_int "FD_N" 32
let seed = getenv_int "FD_SEED" 42
let exhaustive = getenv_int "FD_FULL" 0 = 1
let jobs = getenv_int "FD_JOBS" 1
let () = Parallel.set_default_jobs jobs
let jctx jobs = Attack.Ctx.make ~jobs ()

(* FD_ALPHA / FD_NOISE / FD_BASELINE all land here through the one
   place the acquisition constants live. *)
let model = Leakage.Params.of_env ()
let noise = model.Leakage.noise_sigma

let section name = Printf.printf "\n================ %s ================\n%!" name

let want name = match only with None -> true | Some o -> o = name

(* Every BENCH_<section>.json is one Obs.Json object written here: the
   Assess.Bench_gate schema when check-bench gates the section, the
   section name, then its fields.  A non-finite number is written as
   null, which check-bench refuses by field name. *)
let emit ?schema section fields =
  let file = Printf.sprintf "BENCH_%s.json" section in
  let json =
    Obs.Json.(
      Obj
        ((match schema with Some s -> [ ("schema", String s) ] | None -> [])
        @ (("section", String section) :: fields)))
  in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Obs.Json.to_string json ^ "\n"));
  Printf.printf "wrote %s\n" file

(* The paper's Fig. 4 coefficient. *)
let paper_coeff = 0xC06017BC8036B580L
let xu = Fpr.mantissa paper_coeff lor (1 lsl 52)
let d_true = xu land 0x1FFFFFF
let e_high_true = xu lsr 25

(* Shared per-coefficient workload: leakage windows of the multiply
   between the secret paper coefficient and genuine FFT(c) values. *)
let paper_view =
  lazy
    begin
      let known =
        Attack.Workload.known_inputs ~n:64 ~coeff:5 ~component:`Re
          ~count:trace_budget ~seed:(Printf.sprintf "bench %d" seed)
      in
      let rng = Stats.Rng.create ~seed in
      Attack.Workload.mul_views model rng ~x:paper_coeff ~known
    end

(* ---------------------------------------------------------------- *)
(* Fig. 3: an example trace with the mantissa / exponent / sign
   regions annotated. *)

let fig3 () =
  section "Fig. 3 — example EM trace of one floating-point multiply";
  let v = Lazy.force paper_view in
  let labels =
    [
      Fpr.Load_x_lo; Fpr.Load_x_hi; Fpr.Load_y_lo; Fpr.Load_y_hi; Fpr.Mant_w00;
      Fpr.Mant_w10; Fpr.Mant_z1a; Fpr.Mant_w01; Fpr.Mant_z1; Fpr.Mant_w11;
      Fpr.Mant_zhigh; Fpr.Mant_norm; Fpr.Exp_sum; Fpr.Sign_xor; Fpr.Result_lo;
      Fpr.Result_hi;
    ]
  in
  Printf.printf "sample | region   | operation        | EM amplitude (one trace)\n";
  Printf.printf "-------+----------+------------------+-------------------------\n";
  List.iteri
    (fun i lbl ->
      let region =
        match lbl with
        | Fpr.Load_x_lo | Fpr.Load_x_hi | Fpr.Load_y_lo | Fpr.Load_y_hi -> "load"
        | Fpr.Mant_w00 | Fpr.Mant_w10 | Fpr.Mant_z1a | Fpr.Mant_w01 | Fpr.Mant_z1
        | Fpr.Mant_w11 | Fpr.Mant_zhigh | Fpr.Mant_norm ->
            "mantissa"
        | Fpr.Exp_sum -> "exponent"
        | Fpr.Sign_xor -> "sign"
        | Fpr.Result_lo | Fpr.Result_hi -> "store"
        | Fpr.Add_align | Fpr.Add_sum | Fpr.Add_norm -> "add"
      in
      Printf.printf "%6d | %-8s | %-16s | %8.2f\n" i region (Fpr.label_name lbl)
        v.Attack.Recover.traces.(0).(i))
    labels

(* ---------------------------------------------------------------- *)
(* Fig. 4 (a-d): correlation versus time for the four component
   attacks, and (e-h): correlation versus number of measurements. *)

let print_corr_time title guesses names m =
  Printf.printf "\n%s — correlation over the 16 window samples\n" title;
  Printf.printf "%-22s" "guess";
  Array.iteri (fun j _ -> Printf.printf " s%02d  " j) m.(0);
  print_newline ();
  Array.iteri
    (fun i row ->
      Printf.printf "%-22s" names.(i);
      Array.iter (fun r -> Printf.printf "%+.2f " r) row;
      ignore guesses;
      print_newline ())
    m

let print_evolution title series_list names d_budget =
  Printf.printf "\n%s — |correlation| vs number of measurements (threshold = 99.99%% CI)\n"
    title;
  Printf.printf "%-10s" "traces";
  Array.iter (fun n -> Printf.printf "%-12s" n) names;
  Printf.printf "%s\n" "threshold";
  let points =
    List.filter (fun d -> d <= d_budget) [ 250; 500; 1000; 2000; 4000; 6000; 8000; 10000 ]
  in
  List.iter
    (fun d ->
      Printf.printf "%-10d" d;
      List.iter
        (fun series ->
          match List.assoc_opt d series with
          | Some r -> Printf.printf "%+.4f     " r
          | None -> Printf.printf "--         ")
        series_list;
      Printf.printf "%.4f\n" (Stats.Signif.threshold d))
    points

let fig4 () =
  section "Fig. 4 — the four component attacks on the paper's coefficient";
  let v = Lazy.force paper_view in
  Printf.printf "secret coefficient %Lx, %d traces, noise sigma %.1f\n" paper_coeff
    (Array.length v.Attack.Recover.traces)
    noise;

  (* (a) sign *)
  let sign_guesses = [| 0; 1 |] in
  let m =
    Attack.Dema.corr_time ~traces:v.traces ~model:Attack.Recover.p_sign ~known:v.known
      ~guesses:sign_guesses ()
  in
  print_corr_time "(a) sign bit" sign_guesses [| "s=0"; "s=1 (correct)" |] m;
  let s_rec, s_corr = Attack.Recover.attack_sign v in
  Printf.printf "recovered sign = %d (correlation %+.4f)\n" s_rec s_corr;

  (* (b) exponent *)
  let e_true = Fpr.biased_exponent paper_coeff in
  let e_guesses = [| e_true; e_true - 1; e_true + 1; e_true - 7; e_true + 16 |] in
  let m =
    Attack.Dema.corr_time ~traces:v.traces ~model:Attack.Recover.p_exp ~known:v.known
      ~guesses:e_guesses ()
  in
  print_corr_time "(b) exponent (e = ex + ey - 2100 register)" e_guesses
    [| "0x406 (correct)"; "0x405"; "0x407"; "0x3ff"; "0x416" |]
    m;
  let s', e', _ =
    Attack.Recover.sign_exponent_multi ~mant:(Fpr.mantissa paper_coeff) [ v ]
  in
  Printf.printf "joint sign+exponent recovery: sign=%d exponent=0x%x (true 0x%x)\n" s' e'
    e_true;

  (* (c) mantissa multiplication: exact ties *)
  let aliases = Attack.Hypothesis.shift_aliases ~width:25 d_true in
  let rng = Stats.Rng.create ~seed:(seed + 1) in
  let cands =
    if exhaustive then Attack.Hypothesis.exhaustive ~width:25 ()
    else
      Array.to_seq
        (Attack.Hypothesis.sampled rng ~width:25 ~truth:d_true ~decoys:4096 ())
  in
  let naive = Attack.Recover.attack_mantissa_low_naive ~top:8 ~candidates:cands v in
  Printf.printf
    "\n(c) mantissa multiplication only (extend phase) — top guesses tie exactly:\n";
  List.iter
    (fun (s : Attack.Dema.scored) ->
      Printf.printf "   D = 0x%07x  score %.6f%s\n" s.guess s.corr
        (if s.guess = d_true then "  <-- correct"
         else if List.mem s.guess aliases then "  (shift alias: false positive)"
         else ""))
    naive;

  (* (d) intermediate addition prunes *)
  let rng = Stats.Rng.create ~seed:(seed + 2) in
  let cands =
    if exhaustive then Attack.Hypothesis.exhaustive ~width:25 ()
    else
      Array.to_seq
        (Attack.Hypothesis.sampled rng ~width:25 ~truth:d_true ~decoys:4096 ())
  in
  let ep = Attack.Recover.mantissa_low_multi ~top:8 ~candidates:cands [ v ] in
  Printf.printf "\n(d) extend-and-prune on the intermediate addition:\n";
  List.iter
    (fun (s : Attack.Dema.scored) ->
      Printf.printf "   D = 0x%07x  score %.6f%s\n" s.guess s.corr
        (if s.guess = d_true then "  <-- correct (ties eliminated)" else ""))
    ep.pruned;
  Printf.printf "low-half winner 0x%07x (true 0x%07x)\n" ep.winner d_true;

  (* high half for completeness *)
  let rng = Stats.Rng.create ~seed:(seed + 3) in
  let cands =
    if exhaustive then Attack.Hypothesis.exhaustive ~width:28 ~lo:(1 lsl 27) ()
    else
      Array.to_seq
        (Attack.Hypothesis.sampled rng ~width:28 ~lo:(1 lsl 27) ~truth:e_high_true
           ~decoys:4096 ())
  in
  let hp =
    Attack.Recover.mantissa_high_multi ~top:8 ~candidates:cands ~d:ep.winner [ v ]
  in
  Printf.printf "high-half winner 0x%07x (true 0x%07x)\n" hp.winner e_high_true;

  (* (e-h) correlation evolution *)
  let evo lbl model guess =
    List.map
      (fun (d, r) -> (d, Float.abs r))
      (Attack.Dema.evolution ~traces:v.traces ~sample:(Attack.Recover.sample lbl)
         ~model ~known:v.known ~guess ~step:250)
  in
  let sign_series = evo Fpr.Sign_xor Attack.Recover.p_sign 1 in
  let exp_series = evo Fpr.Exp_sum Attack.Recover.p_exp e_true in
  let mul_series = evo Fpr.Mant_w00 Attack.Recover.p_w00 d_true in
  let mul_alias_series =
    match aliases with
    | a :: _ -> evo Fpr.Mant_w00 Attack.Recover.p_w00 a
    | [] -> []
  in
  let add_series = evo Fpr.Mant_z1a Attack.Recover.p_z1a d_true in
  let add_alias_series =
    match aliases with
    | a :: _ -> evo Fpr.Mant_z1a Attack.Recover.p_z1a a
    | [] -> []
  in
  print_evolution "(e-h)"
    [ sign_series; exp_series; mul_series; mul_alias_series; add_series; add_alias_series ]
    [| "sign"; "exponent"; "mul(true)"; "mul(alias)"; "add(true)"; "add(alias)" |]
    trace_budget;
  Printf.printf "\nmeasurements to stable 99.99%% significance:\n";
  List.iter
    (fun (name, series) ->
      Printf.printf "  %-12s %s\n" name
        (match Stats.Signif.traces_to_significance series with
        | Some d -> string_of_int d
        | None -> Printf.sprintf "> %d" trace_budget))
    [
      ("sign", sign_series); ("exponent", exp_series); ("mant-mul", mul_series);
      ("mant-add", add_series);
    ]

(* ---------------------------------------------------------------- *)
(* Headline (Section IV): full key extraction and forgery. *)

let headline () =
  section "Headline — full key extraction + forgery (Section IV)";
  let n = full_n in
  let sk, pk = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim %d" seed) in
  Printf.printf "victim: FALCON-%d; attacking with increasing trace budgets (%d jobs)\n%!"
    n jobs;
  Printf.printf
    "traces | coeffs bit-exact | f exact | key rebuilt | forgery verifies | jobs | wall s\n";
  Printf.printf
    "-------+------------------+---------+-------------+------------------+------+-------\n";
  List.iter
    (fun count ->
      if count <= trace_budget then begin
        let traces = Leakage.capture model ~seed sk ~count in
        let strategy = Attack.Fullkey.sampled_strategy ~seed:0 sk.f_fft in
        let t0 = Unix.gettimeofday () in
        let res = Attack.Fullkey.recover_key ~ctx:(jctx jobs) ~traces ~h:pk.h strategy in
        let wall = Unix.gettimeofday () -. t0 in
        let ok = Attack.Fullkey.count_correct res.f_fft ~truth:sk.f_fft in
        let forged =
          match res.keypair with
          | None -> false
          | Some kp ->
              Falcon.Scheme.verify pk "forged"
                (Attack.Fullkey.forge ~keypair:kp ~seed:"forger" "forged")
        in
        (* wall-clock is only comparable across runs at the same FD_JOBS,
           so every row carries the worker count it was measured at *)
        Printf.printf "%6d | %9d / %-4d | %-7b | %-11b | %-16b | %4d | %.2f\n%!" count ok
          (2 * n)
          (res.f = sk.kp.f)
          (res.keypair <> None)
          forged jobs wall
      end)
    [ 250; 500; 1000; 2000; 4000 ]

(* ---------------------------------------------------------------- *)
(* Ablation: noise sweep. *)

let ablation_snr () =
  section "Ablation — traces-to-significance vs noise sigma";
  Printf.printf "sigma | mant-mul | mant-add | exponent | sign\n";
  Printf.printf "------+----------+----------+----------+------\n";
  List.iter
    (fun sigma ->
      let m = { Leakage.default_model with noise_sigma = sigma } in
      let known =
        Attack.Workload.known_inputs ~n:64 ~coeff:5 ~component:`Re
          ~count:(min trace_budget 10000)
          ~seed:(Printf.sprintf "snr %f %d" sigma seed)
      in
      let rng = Stats.Rng.create ~seed:(seed + int_of_float (sigma *. 10.)) in
      let v = Attack.Workload.mul_views m rng ~x:paper_coeff ~known in
      let evo lbl model guess =
        List.map
          (fun (d, r) -> (d, Float.abs r))
          (Attack.Dema.evolution ~traces:v.traces
             ~sample:(Attack.Recover.sample lbl) ~model ~known:v.known ~guess
             ~step:100)
      in
      let show series =
        match Stats.Signif.traces_to_significance series with
        | Some d -> Printf.sprintf "%d" d
        | None -> ">10000"
      in
      Printf.printf "%5.1f | %-8s | %-8s | %-8s | %s\n%!" sigma
        (show (evo Fpr.Mant_w00 Attack.Recover.p_w00 d_true))
        (show (evo Fpr.Mant_z1a Attack.Recover.p_z1a d_true))
        (show (evo Fpr.Exp_sum Attack.Recover.p_exp (Fpr.biased_exponent paper_coeff)))
        (show (evo Fpr.Sign_xor Attack.Recover.p_sign 1)))
    [ 0.5; 1.0; 2.0; 4.0; 8.0 ]

(* ---------------------------------------------------------------- *)
(* Ablation: is the prune step necessary?  False-positive rate of the
   naive attack vs extend-and-prune over random coefficients. *)

let ablation_prune () =
  section "Ablation — naive vs extend-and-prune over random coefficients";
  let trials = 40 in
  let rng = Stats.Rng.create ~seed:(seed + 20) in
  let naive_ok = ref 0 and ep_ok = ref 0 and with_aliases = ref 0 in
  for t = 1 to trials do
    let mant_hi = Stats.Rng.bits rng 26 and mant_lo = Stats.Rng.bits rng 26 in
    let x =
      Fpr.make ~sign:(Stats.Rng.bits rng 1)
        ~exp:(1015 + Stats.Rng.int_below rng 16)
        ~mant:((mant_hi lsl 26) lor mant_lo)
    in
    let xu = Fpr.mantissa x lor (1 lsl 52) in
    let d = xu land 0x1FFFFFF in
    if d > 0 then begin
      let known =
        Attack.Workload.known_inputs ~n:64 ~coeff:3 ~component:`Re ~count:1500
          ~seed:(Printf.sprintf "prune %d %d" seed t)
      in
      let v = Attack.Workload.mul_views model rng ~x ~known in
      let cands = Attack.Hypothesis.sampled rng ~width:25 ~truth:d ~decoys:512 () in
      if Attack.Hypothesis.shift_aliases ~width:25 d <> [] then incr with_aliases;
      (match
         Attack.Recover.attack_mantissa_low_naive ~top:1
           ~candidates:(Array.to_seq cands) v
       with
      | { guess; _ } :: _ when guess = d -> incr naive_ok
      | _ -> ());
      let r = Attack.Recover.mantissa_low_multi ~candidates:(Array.to_seq cands) [ v ] in
      if r.winner = d then incr ep_ok
    end
  done;
  Printf.printf
    "%d random coefficients (%d with non-trivial alias class), 1500 traces each\n" trials
    !with_aliases;
  Printf.printf "naive (multiplication only) recovers D: %d / %d\n" !naive_ok trials;
  Printf.printf "extend-and-prune recovers D:            %d / %d\n" !ep_ok trials

(* ---------------------------------------------------------------- *)
(* Out-of-core engine: streaming sweeps over a sharded trace store vs
   the in-memory engine at equal trace counts.  The streaming ranking
   must be bit-identical (column extraction is arithmetic-free), and so
   must the evolution checkpoints (one Pearson pass over the gathered
   columns, [evo_max_dev] 0).  Emits one JSON row (BENCH_stream.json) with
   throughput and a peak-memory proxy; check-bench gates its
   bit_identical. *)

let vm_hwm_kb () =
  (* Linux peak resident set (VmHWM), falling back to the instantaneous
     VmRSS where the kernel does not export the high-water mark;
     0 where /proc is unavailable entirely *)
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go hwm rss =
          match input_line ic with
          | exception End_of_file -> if hwm > 0 then hwm else rss
          | line -> (
              match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
              | kb -> go kb rss
              | exception _ -> (
                  match Scanf.sscanf line "VmRSS: %d kB" Fun.id with
                  | kb -> go hwm kb
                  | exception _ -> go hwm rss))
        in
        go 0 0)
  with Sys_error _ -> 0

let rm_store dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let stream () =
  section "Stream — out-of-core DEMA over a sharded store vs in-memory";
  let n = full_n in
  let count = min trace_budget 2000 in
  let shard = max 1 ((count + 3) / 4) in
  let sk, _ = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim %d" seed) in
  let traces = Leakage.capture model ~seed sk ~count in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fd_bench_store" in
  rm_store dir;
  let writer =
    Tracestore.Writer.create ~dir ~n ~width:(n * Leakage.events_per_coeff)
      ~shard_traces:shard
      ~model
  in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun t -> Tracestore.Writer.append writer (Leakage.to_record t)) traces;
  Tracestore.Writer.close writer;
  let write_s = Unix.gettimeofday () -. t0 in
  let reader = Tracestore.Reader.open_store dir in
  Printf.printf "campaign: %d traces of FALCON-%d in %d shards (%d jobs)\n%!" count n
    (Tracestore.Reader.shard_count reader)
    jobs;

  (* sweep target: the low mantissa half of FFT(f)[0].re, attacked at
     the w00 multiply and z1a addition events of multiplication 0 —
     coefficient 0, so absolute sample positions equal window-relative
     ones *)
  let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  let candidates =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:(seed + 50))
      ~width:25 ~truth:d_true ~decoys:4096 ()
  in
  let parts =
    [
      (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
      (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
    ]
  in
  let rows = Array.map (fun (t : Leakage.trace) -> t.samples) traces in
  let ks = Array.map (fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0)) traces in
  let t0 = Unix.gettimeofday () in
  let mem_ranked =
    Attack.Dema.rank ~ctx:(jctx jobs) ~traces:rows ~parts ~known:ks ~top:8
      (Array.to_seq candidates)
  in
  let mem_s = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let stream_ranked =
    Attack.Dema.Stream.rank ~ctx:(jctx jobs) reader ~parts
      ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
      ~top:8 (Array.to_seq candidates)
  in
  let stream_s = Unix.gettimeofday () -. t0 in
  let identical = mem_ranked = stream_ranked in
  Printf.printf "top-8 sweep over %d candidates: in-memory %.3fs, streaming %.3fs\n"
    (Array.length candidates) mem_s stream_s;
  Printf.printf "streaming top-k bit-identical to in-memory: %b\n" identical;
  (match mem_ranked with
  | best :: _ ->
      Printf.printf "best guess 0x%07x (true 0x%07x), score %.4f\n" best.Attack.Dema.guess
        d_true best.Attack.Dema.corr
  | [] -> ());

  (* evolution checkpoints: the store pass vs the in-memory pass *)
  let stream_evo =
    Attack.Dema.Stream.evolution ~ctx:(jctx jobs) reader
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.p_w00
      ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
      ~guess:d_true
  in
  let mem_evo =
    Attack.Dema.evolution ~traces:rows
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.p_w00 ~known:ks ~guess:d_true ~step:shard
  in
  let max_dev =
    List.fold_left
      (fun acc (d, r) ->
        match List.assoc_opt d mem_evo with
        | Some r' -> Float.max acc (Float.abs (r -. r'))
        | None -> acc)
      0. stream_evo
  in
  Printf.printf "evolution checkpoints (%d) vs prefix rescans: max |deviation| = %.2e\n"
    (List.length stream_evo) max_dev;

  let tps = float_of_int count /. stream_s in
  let hwm = vm_hwm_kb () in
  let heap_w = (Gc.quick_stat ()).Gc.top_heap_words in
  Printf.printf
    "streaming throughput %.0f traces/s; peak RSS %d kB (VmHWM), OCaml top heap %d words\n"
    tps hwm heap_w;
  emit ~schema:Assess.Bench_gate.stream "stream"
    Obs.Json.
      [
        ("n", Int n); ("traces", Int count);
        ("shards", Int (Tracestore.Reader.shard_count reader)); ("jobs", Int jobs);
        ("candidates", Int (Array.length candidates)); ("write_s", Float write_s);
        ("mem_rank_s", Float mem_s); ("stream_rank_s", Float stream_s);
        ("stream_traces_per_sec", Float tps); ("bit_identical", Bool identical);
        ("evo_max_dev", Float max_dev); ("vm_hwm_kb", Int hwm);
        ("top_heap_words", Int heap_w);
      ];
  rm_store dir

(* ---------------------------------------------------------------- *)
(* Leakage-assessment lab: TVLA throughput per defense plus one attack
   metrics cell, the building blocks of the evaluation matrix.  Emits
   one JSON row (BENCH_assess.json). *)

let assess () =
  section "Assess — TVLA throughput and attack-metrics cell";
  let count = min trace_budget 4000 in
  let secret = Assess.Campaign.secret_operand (Stats.Rng.create ~seed:(seed lxor 0x7e57)) in
  Printf.printf "fixed-vs-random campaigns: %d traces, noise sigma %.2f, %d jobs\n%!"
    count noise jobs;
  Printf.printf "defense  |  n_fix/n_rnd  | region max|t1| | max|t2| | verdict      | traces/s\n";
  Printf.printf "---------+---------------+----------------+---------+--------------+---------\n";
  let rows =
    List.map
      (fun defense ->
        let entries =
          Assess.Campaign.generate defense ~noise ~secret ~count ~seed
        in
        let t0 = Unix.gettimeofday () in
        let r =
          Assess.Tvla.of_entries ~ctx:(jctx jobs) ~classify:Assess.Tvla.fixed_vs_random
            entries
        in
        let tvla_s = Unix.gettimeofday () -. t0 in
        let lo, hi = Assess.Campaign.assessed_region defense in
        let _, t1 = Assess.Tvla.max_abs ~lo ~hi r.t1 in
        let _, t2 = Assess.Tvla.max_abs ~lo ~hi r.t2 in
        let tps = float_of_int count /. tvla_s in
        Printf.printf "%-8s | %5d / %5d | %14.2f | %7.2f | %-12s | %8.0f\n%!"
          (Assess.Campaign.name defense)
          r.n_a r.n_b t1 t2
          (if t1 > Assess.Tvla.threshold then "LEAK" else "quiet (1st)")
          tps;
        (defense, t1, tps))
      Assess.Campaign.all
  in
  let budget = max 64 (min trace_budget 300) in
  let t0 = Unix.gettimeofday () in
  let outcome =
    Assess.Metrics.run ~ctx:(jctx jobs)
      { Assess.Metrics.defense = `None; noise; budget; experiments = 4; decoys = 64;
        seed }
  in
  let metrics_s = Unix.gettimeofday () -. t0 in
  Printf.printf
    "metrics cell (unprotected, %d traces x 4 experiments): SR %.2f, GE %.2f, MTD %s \
     in %.2fs\n%!"
    budget outcome.success_rate outcome.guessing_entropy
    (match outcome.mtd with Some d -> string_of_int d | None -> "> budget")
    metrics_s;
  let t1_of d = List.assoc d (List.map (fun (d, t1, _) -> (d, t1)) rows) in
  let tps_of d = List.assoc d (List.map (fun (d, _, t) -> (d, t)) rows) in
  emit "assess"
    Obs.Json.
      [
        ("traces", Int count); ("noise", Float noise); ("jobs", Int jobs);
        ("max_t1_none", Float (t1_of `None)); ("max_t1_masking", Float (t1_of `Masking));
        ("max_t1_shuffle", Float (t1_of `Shuffle));
        ("tvla_traces_per_sec_none", Float (tps_of `None));
        ("tvla_traces_per_sec_masking", Float (tps_of `Masking));
        ("metrics_budget", Int budget); ("metrics_s", Float metrics_s);
        ("success_rate", Float outcome.success_rate);
        ("guessing_entropy", Float outcome.guessing_entropy);
        ("mtd", match outcome.mtd with Some d -> Int d | None -> Null);
      ]

(* ---------------------------------------------------------------- *)
(* Batched Pearson kernel: the end-to-end ranking sweep on the scalar
   reference and the fused kernel through the same Dema.Sweep path, and
   where the fused sweep spends its time.  The rankings must be
   bit-identical, and equal to Dema.rank's production top-32 and to the
   fused rank of the same products as general split models (the
   product tile against fold_split's one call per element).  Emits one
   JSON row (BENCH_pearson.json) which check-bench gates on, including
   both speed ratios. *)

let pearson () =
  section "Pearson — scalar vs batched kernel, product tile vs fold_split";
  let v = Lazy.force paper_view in
  let traces = v.Attack.Recover.traces and known = v.Attack.Recover.known in
  let d = Array.length traces in
  (* both speed ratios are gated, so each timed ranking covers at least
     ~5e6 guess x trace correlations (2048 decoys from 2500 traces up):
     at smaller budgets a ~10 ms arm sits inside scheduler noise *)
  let decoys = max 2048 (5_000_000 / d) in
  let guesses =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:(seed + 77))
      ~width:25 ~truth:d_true ~decoys ()
  in
  let g = Array.length guesses in
  Printf.printf "%d guesses x %d traces, %d jobs\n%!" g d jobs;
  (* headline metric: the full two-part ranking sweep on both kernels,
     model evaluation included — what an attack campaign actually pays
     per candidate enumeration.  Both arms run the same Dema.Sweep path,
     so the ratio compares the kernels only. *)
  let parts =
    [
      (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
      (Attack.Recover.sample Fpr.Mant_w10, Attack.Recover.p_w10);
    ]
  in
  let columns =
    Array.of_list
      (List.map (fun (s, _) -> (Array.map (fun row -> row.(s)) traces, known)) parts)
  in
  let rank ~parts backend () =
    let sweep = Attack.Dema.Sweep.create ~backend ~parts:(List.map snd parts) guesses in
    Attack.Dema.Sweep.fold ~jobs sweep columns;
    Attack.Dema.Sweep.ranking ~jobs sweep ~top:32
  in
  (* the same two products as general split models, so the fused sweep
     runs fold_split with one eval call per element instead of the
     product tile: the product tile must not fall back to closure
     speed *)
  let split_parts =
    List.map
      (function
        | s, Attack.Hypothesis.Model.Product prep ->
            (s, Attack.Hypothesis.Model.split ~prep ~eval:( * ))
        | _ -> invalid_arg "bench pearson: the extend parts are product models")
      parts
  in
  let contestants =
    [|
      rank ~parts Stats.Pearson.Batch.Scalar;
      rank ~parts Stats.Pearson.Batch.Batched;
      rank ~parts:split_parts Stats.Pearson.Batch.Batched;
    |]
  in
  let scalar_rank = contestants.(0) ()
  and batched_rank = contestants.(1) ()
  and split_rank = contestants.(2) () in
  (* median-of-rounds with the measurement order rotating each round:
     with a fixed order the GC state left by one contestant
     systematically lands on the next and masquerades as a kernel
     difference.  A full major before every timed run starts each from
     the same heap, and the median ignores the lone lucky or preempted
     round that a min-of-rounds reports *)
  let rounds = 16 in
  let k = Array.length contestants in
  let times = Array.make_matrix k rounds 0. in
  for round = 0 to rounds - 1 do
    for j = 0 to k - 1 do
      let i = (round + j) mod k in
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (contestants.(i) ()));
      times.(i).(round) <- Unix.gettimeofday () -. t0
    done
  done;
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    (a.((rounds - 1) / 2) +. a.(rounds / 2)) /. 2.
  in
  let rank_scalar_s = median times.(0)
  and rank_batched_s = median times.(1)
  and rank_split_s = median times.(2) in
  let production_rank =
    Attack.Dema.rank ~ctx:(jctx jobs) ~traces ~parts ~known ~top:32 (Array.to_seq guesses)
  in
  let rank_identical =
    scalar_rank = batched_rank && batched_rank = production_rank
    && split_rank = batched_rank
  in
  let rank_speedup = rank_scalar_s /. rank_batched_s in
  let product_speedup = rank_split_s /. rank_batched_s in
  Printf.printf
    "end-to-end rank (2 parts, top 32, median of %d): scalar %.4f s, batched \
     %.4f s (%.2fx), split-form %.4f s (product tile %.2fx), identical top-k %b\n%!"
    rounds rank_scalar_s rank_batched_s rank_speedup rank_split_s product_speedup
    rank_identical;
  (* where the batched sweep spends its time: one instrumented run at
     Debug level, span durations parsed back out of the JSONL log *)
  let span_buf = Buffer.create 4096 in
  let obs_ctx =
    Attack.Ctx.make ~jobs
      ~obs:(Obs.make ~level:Obs.Debug (Obs.Jsonl.to_buffer span_buf))
      ()
  in
  let obs_rank =
    Attack.Dema.rank ~ctx:obs_ctx ~traces ~parts ~known ~top:32
      (Array.to_seq guesses)
  in
  let rank_identical = rank_identical && obs_rank = batched_rank in
  let span_s name =
    let ns =
      List.fold_left
        (fun acc r ->
          let str k = Option.bind (Obs.Json.member k r) Obs.Json.to_string_opt in
          if str "type" = Some "span" && str "name" = Some name then
            acc
            + Option.value ~default:0
                (Option.bind (Obs.Json.member "elapsed_ns" r) Obs.Json.to_int_opt)
          else acc)
        0
        (Obs.Jsonl.read_string (Buffer.contents span_buf))
    in
    float_of_int ns /. 1e9
  in
  let rank_prep_s = span_s "dema.prep" and rank_score_s = span_s "dema.score" in
  Printf.printf
    "batched rank breakdown (instrumented run): prep %.4f s, score %.4f s\n%!"
    rank_prep_s rank_score_s;
  emit ~schema:Assess.Bench_gate.pearson "pearson"
    Obs.Json.
      [
        ("traces", Int d); ("guesses", Int g); ("jobs", Int jobs);
        ("rank_scalar_s", Float rank_scalar_s); ("rank_batched_s", Float rank_batched_s);
        ("rank_speedup", Float rank_speedup); ("rank_split_s", Float rank_split_s);
        ("product_speedup", Float product_speedup); ("rank_prep_s", Float rank_prep_s);
        ("rank_score_s", Float rank_score_s); ("bit_identical", Bool rank_identical);
      ]

(* ---------------------------------------------------------------- *)
(* Sequential early stopping: the adaptive campaign (per-coefficient
   Fisher-z stopping at alpha) versus the fixed-budget streaming
   recovery over the same sharded store.  The adaptive run must recover
   the same key while reading at most half the traces on mean, and its
   stop points must be bit-identical across jobs and prefetch
   settings.  Emits one JSON row (BENCH_sequential.json) which
   check-bench gates on. *)

let sequential () =
  section "Sequential — adaptive early stopping vs fixed trace budget";
  let n = full_n in
  let count = min trace_budget 2000 in
  let shard = max 1 ((count + 7) / 8) in
  let alpha = 1e-4 in
  let sk, _ = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim %d" seed) in
  let traces = Leakage.capture model ~seed sk ~count in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fd_bench_seq_store" in
  rm_store dir;
  let writer =
    Tracestore.Writer.create ~dir ~n ~width:(n * Leakage.events_per_coeff)
      ~shard_traces:shard
      ~model
  in
  Array.iter (fun t -> Tracestore.Writer.append writer (Leakage.to_record t)) traces;
  Tracestore.Writer.close writer;
  let reader = Tracestore.Reader.open_store dir in
  Printf.printf
    "campaign: %d traces of FALCON-%d in %d shards; stopping at alpha %g (%d jobs)\n%!"
    count n
    (Tracestore.Reader.shard_count reader)
    alpha jobs;
  let strategy = Attack.Fullkey.sampled_strategy ~seed:0 sk.f_fft in
  let t0 = Unix.gettimeofday () in
  let fixed = Attack.Fullkey.recover_f_fft_store ~ctx:(jctx jobs) ~reader strategy in
  let fixed_s = Unix.gettimeofday () -. t0 in
  let spec = Sequential.Decision.spec ~alpha () in
  let summary = ref None in
  let t0 = Unix.gettimeofday () in
  let adaptive =
    Attack.Fullkey.recover_f_fft_store ~ctx:(jctx jobs) ~stop:spec
      ~stop_report:(fun s -> summary := Some s)
      ~reader strategy
  in
  let adaptive_s = Unix.gettimeofday () -. t0 in
  let s =
    match !summary with Some s -> s | None -> failwith "no stop_report from adaptive run"
  in
  let used = Array.copy s.Sequential.Campaign.traces_used in
  Array.sort compare used;
  let units = Array.length used in
  let mean =
    Array.fold_left (fun acc u -> acc +. float_of_int u) 0. used /. float_of_int units
  in
  let median = used.((units - 1) / 2) in
  (* determinism probe: same campaign on one worker and no prefetch —
     stop points and recovered key must be bit-identical *)
  let summary2 = ref None in
  let adaptive2 =
    Attack.Fullkey.recover_f_fft_store ~ctx:(jctx 1) ~prefetch:false ~stop:spec
      ~stop_report:(fun s -> summary2 := Some s)
      ~reader strategy
  in
  let stops_identical =
    match !summary2 with
    | Some s2 ->
        s.Sequential.Campaign.traces_used = s2.Sequential.Campaign.traces_used
        && adaptive = adaptive2
    | None -> false
  in
  let keys_identical = adaptive = fixed in
  let correct = Attack.Fullkey.count_correct adaptive ~truth:sk.f_fft in
  Printf.printf "fixed budget:    %d traces/unit, %.3fs, f_fft bit-exact %d / %d\n%!"
    count fixed_s
    (Attack.Fullkey.count_correct fixed ~truth:sk.f_fft)
    (2 * n);
  Printf.printf
    "adaptive:        %d/%d units stopped early (%d looks), %.3fs, f_fft bit-exact \
     %d / %d\n%!"
    s.Sequential.Campaign.stopped units s.Sequential.Campaign.looks adaptive_s correct
    (2 * n);
  Printf.printf
    "traces-to-decision: mean %.1f, median %d of %d budgeted (%.0f%% of fixed); \
     %d trace-reads saved\n%!"
    mean median count
    (100. *. mean /. float_of_int count)
    s.Sequential.Campaign.traces_saved;
  Printf.printf "adaptive key identical to fixed-budget key: %b\n%!" keys_identical;
  Printf.printf
    "stops and key bit-identical at jobs=1 + no prefetch: %b\n%!"
    stops_identical;
  emit ~schema:Assess.Bench_gate.sequential "sequential"
    Obs.Json.
      [
        ("n", Int n); ("traces", Int count); ("jobs", Int jobs); ("units", Int units);
        ("alpha", Float alpha); ("stopped_early", Int s.Sequential.Campaign.stopped);
        ("looks", Int s.Sequential.Campaign.looks);
        ("traces_saved", Int s.Sequential.Campaign.traces_saved);
        ("mean_traces", Float mean); ("median_traces", Int median);
        ("fixed_s", Float fixed_s); ("adaptive_s", Float adaptive_s);
        ("keys_identical", Bool keys_identical);
        ("stops_identical", Bool stops_identical);
      ];
  rm_store dir

(* ---------------------------------------------------------------- *)
(* Observability overhead: the same end-to-end ranking sweep under a
   Null-sink context and a JSONL-sink context.  Instrumentation must be
   observationally transparent — the two rankings are asserted
   bit-identical — and the JSONL overhead is reported against Null.
   Emits one JSON row (BENCH_obs.json); check-bench gates its
   bit_identical. *)

let obs_bench () =
  section "Obs — instrumentation overhead on the end-to-end ranking sweep";
  let v = Lazy.force paper_view in
  let traces = v.Attack.Recover.traces and known = v.Attack.Recover.known in
  let guesses =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:(seed + 88))
      ~width:25 ~truth:d_true ~decoys:2048 ()
  in
  let fn m = Attack.Hypothesis.Model.(fn (apply m)) in
  let parts =
    [
      (Attack.Recover.sample Fpr.Mant_w00, fn Attack.Recover.p_w00);
      (Attack.Recover.sample Fpr.Mant_w10, fn Attack.Recover.p_w10);
    ]
  in
  Printf.printf "%d guesses x %d traces, %d jobs\n%!" (Array.length guesses)
    (Array.length traces) jobs;
  let null_ctx = jctx jobs in
  let null () =
    Attack.Dema.rank ~ctx:null_ctx ~traces ~parts ~known ~top:32
      (Array.to_seq guesses)
  in
  let buf = Buffer.create (1 lsl 16) in
  let jsonl () =
    Buffer.clear buf;
    let ctx = Attack.Ctx.with_obs (Obs.make (Obs.Jsonl.to_buffer buf)) null_ctx in
    Attack.Dema.rank ~ctx ~traces ~parts ~known ~top:32 (Array.to_seq guesses)
  in
  let identical = null () = jsonl () in
  let events =
    List.length (String.split_on_char '\n' (String.trim (Buffer.contents buf)))
  in
  (* interleaved min-of-rounds timing: every contestant is measured
     once per round so shared-machine noise hits both alike.  The
     measurement order alternates each round — with a fixed order, GC
     and allocator state left by one contestant systematically lands on
     the next and masquerades as sink overhead. *)
  let rounds = 12 in
  let contestants = [| null; jsonl |] in
  let best = Array.make 2 infinity in
  for round = 0 to rounds - 1 do
    for k = 0 to 1 do
      let i = (round + k) mod 2 in
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (contestants.(i) ()));
      best.(i) <- Float.min best.(i) (Unix.gettimeofday () -. t0)
    done
  done;
  let null_s = best.(0) and jsonl_s = best.(1) in
  let jsonl_overhead_pct = (jsonl_s -. null_s) /. null_s *. 100. in
  Printf.printf "sink      | time (s) | overhead vs null\n";
  Printf.printf "----------+----------+-----------------\n";
  Printf.printf "null      | %8.4f | --\n" null_s;
  Printf.printf "jsonl     | %8.4f | %+.2f%% (%d events per run)\n%!" jsonl_s
    jsonl_overhead_pct events;
  Printf.printf "rankings bit-identical across sinks: %b\n" identical;
  emit ~schema:Assess.Bench_gate.obs "obs"
    Obs.Json.
      [
        ("traces", Int (Array.length traces)); ("guesses", Int (Array.length guesses));
        ("jobs", Int jobs); ("null_s", Float null_s); ("jsonl_s", Float jsonl_s);
        ("jsonl_overhead_pct", Float jsonl_overhead_pct);
        ("jsonl_events", Int events); ("bit_identical", Bool identical);
      ]

(* ---------------------------------------------------------------- *)
(* Register-transfer device models and the realignment pass: capture
   throughput under the HW, bus-HD and pipelined emitters; streaming
   realignment throughput of a clock-jittered HD campaign; the
   end-to-end story (jitter degrades the unaligned attack, realignment
   restores top-1 full-key recovery); the HD-vs-HW measurement cost as
   an MTD ratio between the aligned and realigned HD campaigns; and a
   determinism probe across jobs x prefetch.  Emits one JSON row
   (BENCH_leakage.json) which check-bench gates on. *)

let leakage_bench () =
  section "Leakage — register-transfer device models and realignment";
  let n = min full_n 8 in
  let count = min trace_budget 400 in
  let max_shift = 3 in
  let jitter = { Leakage.max_shift; drift = 0. } in
  let sk, pk = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim %d" seed) in
  let time_capture name emitter =
    let t0 = Unix.gettimeofday () in
    let traces = Leakage.capture ~emitter model ~seed sk ~count in
    let dt = Unix.gettimeofday () -. t0 in
    let tps = float_of_int count /. dt in
    Printf.printf "capture %-9s %6d traces in %.3fs  (%.0f traces/s)\n%!" name
      count dt tps;
    (traces, tps)
  in
  let _, hw_tps = time_capture "hw" Leakage.default_emitter in
  let _, hd_tps = time_capture "hd" Leakage.hd_emitter in
  let _, pipe_tps = time_capture "pipeline" Leakage.pipelined_emitter in
  let jit_emitter = { Leakage.hd_emitter with Leakage.jitter } in
  let jittered, _ = time_capture "hd+jitter" jit_emitter in
  (* sharded store of the jittered campaign, then streaming realignment *)
  let tmp = Filename.get_temp_dir_name () in
  let src = Filename.concat tmp "fd_bench_leak_src" in
  let dst = Filename.concat tmp "fd_bench_leak_dst" in
  rm_store src;
  let writer =
    Tracestore.Writer.create ~dir:src ~n ~width:(n * Leakage.events_per_coeff)
      ~shard_traces:(max 1 ((count + 3) / 4))
      ~model
  in
  Array.iter (fun t -> Tracestore.Writer.append writer (Leakage.to_record t)) jittered;
  Tracestore.Writer.close writer;
  rm_store dst;
  let t0 = Unix.gettimeofday () in
  let st = Align.realign_store ~ctx:(jctx jobs) ~max_shift ~src ~dst () in
  let realign_s = Unix.gettimeofday () -. t0 in
  let realign_tps = float_of_int st.Align.traces /. realign_s in
  Printf.printf
    "realign: %d traces in %.3fs (%.0f traces/s); %d shifted, max |shift| %d, \
     mean %.3f\n%!"
    st.Align.traces realign_s realign_tps st.Align.shifted st.Align.max_abs_shift
    st.Align.mean_abs_shift;
  (* the end-to-end story: unaligned degraded, realigned full recovery *)
  let strategy = Attack.Fullkey.sampled_strategy ~seed:0 sk.f_fft in
  let attack name traces =
    let res =
      Attack.Fullkey.recover_key ~ctx:(jctx jobs) ~leakage:`Hd ~traces ~h:pk.h strategy
    in
    let correct = Attack.Fullkey.count_correct res.Attack.Fullkey.f_fft ~truth:sk.f_fft in
    Printf.printf "bus-HD attack on %-9s: %2d / %2d coefficients, full key %b\n%!"
      name correct (2 * n)
      (res.Attack.Fullkey.keypair <> None);
    (correct, res.Attack.Fullkey.keypair <> None)
  in
  let correct_un, _ = attack "unaligned" jittered in
  let reader = Tracestore.Reader.open_store dst in
  let realigned =
    Array.of_seq (Seq.map (Leakage.of_record ~n) (Tracestore.Reader.to_seq reader))
  in
  let correct_al, fullkey_realigned = attack "realigned" realigned in
  let unaligned_degraded = correct_un < correct_al in
  (* MTD ratio, measured on full-width signing traces (where the
     streaming realignment operates): traces-to-significance of the
     true-key correlation at the (D x B) -> (D x A) bus transition,
     median over the interior coefficients.  Paired design: one clean
     HD capture; the "realigned" arm shifts the very same measured
     rows by per-trace jitter offsets (what trigger jitter does to an
     acquisition) and realigns them, so the ratio isolates alignment
     fidelity instead of comparing two independent noise draws.  The
     MTD sigma is higher than the capture sigma above so disclosure
     takes tens of traces — small MTDs make the ratio all
     quantisation. *)
  let mtd_sigma = 3.0 in
  let mtd_model = { model with Leakage.noise_sigma = mtd_sigma } in
  let mtd_clean =
    Leakage.capture ~emitter:Leakage.hd_emitter mtd_model ~seed:(seed + 5) sk
      ~count
  in
  let mtd_of label ~realign =
    let traces =
      if not realign then mtd_clean
      else begin
        let rng = Stats.Rng.create ~seed:(seed + 6) in
        let rows =
          Array.map
            (fun t ->
              let offset, _ = Leakage.draw_jitter jitter rng in
              Align.shift_samples ~fill:mtd_model.Leakage.baseline
                ~shift:(-offset) t.Leakage.samples)
            mtd_clean
        in
        let rows, _ =
          Align.realign_rows ~ctx:(jctx jobs) ~max_shift ~fill:mtd_model.Leakage.baseline
            rows
        in
        Array.map2
          (fun t samples -> { t with Leakage.samples = samples })
          mtd_clean rows
      end
    in
    let mtds =
      List.filter_map
        (fun coeff ->
          let v = Attack.Recover.sub_view traces ~coeff ~mul:0 in
          let d =
            (Fpr.mantissa sk.f_fft.Fft.re.(coeff) lor (1 lsl 52)) land 0x1FFFFFF
          in
          (* the HD extend stage's one part, the w10 transition *)
          let lbl, model = List.hd (fst (Attack.Recover.low_stages `Hd)) in
          let series =
            Attack.Dema.evolution ~traces:v.Attack.Recover.traces
              ~sample:(Attack.Recover.sample lbl) ~model ~known:v.Attack.Recover.known
              ~guess:d ~step:1
          in
          Stats.Signif.traces_to_significance series)
        [ 1; 2; 3; 4; 5; 6 ]
    in
    let mtd =
      match List.sort compare mtds with
      | [] -> 0
      | l -> List.nth l (List.length l / 2)
    in
    Printf.printf "MTD %-12s: %s traces (sigma %.1f, median over %d coefficients)\n%!"
      label
      (if mtd = 0 then "not disclosed in budget" else string_of_int mtd)
      mtd_sigma (List.length mtds);
    mtd
  in
  let mtd_aligned = mtd_of "hd aligned" ~realign:false in
  let mtd_realigned = mtd_of "hd realigned" ~realign:true in
  let realign_recovery =
    if mtd_realigned = 0 then 0.
    else float_of_int mtd_aligned /. float_of_int mtd_realigned
  in
  Printf.printf "realignment recovers %.0f%% of the aligned-store MTD\n%!"
    (100. *. realign_recovery);
  (* determinism: same destination bytes at every jobs x prefetch *)
  let variant (j, pf) =
    let d = Filename.concat tmp (Printf.sprintf "fd_bench_leak_det_%d_%b" j pf) in
    rm_store d;
    let st = Align.realign_store ~ctx:(jctx j) ~prefetch:pf ~max_shift ~src ~dst:d () in
    let r = Tracestore.Reader.open_store d in
    let records = Array.of_seq (Tracestore.Reader.to_seq r) in
    rm_store d;
    (st, records)
  in
  let outs = List.map variant [ (1, false); (2, true); (4, false); (4, true) ] in
  let deterministic =
    match outs with
    | first :: rest -> List.for_all (fun o -> o = first) rest
    | [] -> false
  in
  Printf.printf "bit-identical realignment across jobs 1/2/4 x prefetch: %b\n%!"
    deterministic;
  emit ~schema:Assess.Bench_gate.leakage "leakage"
    Obs.Json.
      [
        ("n", Int n); ("traces", Int count); ("jobs", Int jobs);
        ("max_shift", Int max_shift); ("capture_hw_tps", Float hw_tps);
        ("capture_hd_tps", Float hd_tps); ("capture_pipeline_tps", Float pipe_tps);
        ("realign_tps", Float realign_tps); ("mtd_hd_aligned", Int mtd_aligned);
        ("mtd_hd_realigned", Int mtd_realigned);
        ("realign_recovery", Float realign_recovery);
        ("fullkey_realigned", Bool fullkey_realigned);
        ("unaligned_degraded", Bool unaligned_degraded);
        ("deterministic", Bool deterministic);
      ];
  rm_store src;
  rm_store dst

(* ---------------------------------------------------------------- *)
(* Target framework, HQC end to end: full-recovery success rate over
   independently seeded sharded campaigns plus a jobs x prefetch
   determinism probe on the recovered witness.  Emits one JSON row
   (BENCH_target.json) which check-bench gates on. *)

let target_bench () =
  section "Target — scheme-agnostic framework: HQC end-to-end";
  let tmp = Filename.get_temp_dir_name () in
  let module H = Attack.Target.Hqc in
  (* HQC: full secret recovery over independent campaigns *)
  let experiments = 10 in
  let hqc_budget = max 64 (min trace_budget 400) in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    List.init experiments (fun i ->
        let dir = Filename.concat tmp (Printf.sprintf "fd_bench_target_hqc_%d" i) in
        rm_store dir;
        H.record_store ~dir ~n:Hqc.Params.n_bits ~traces:hqc_budget ~noise
          ~seed:(seed + (13 * i))
          ~shard_traces:(max 1 ((hqc_budget + 3) / 4))
          ();
        let reader = Tracestore.Reader.open_store dir in
        (dir, H.recover_store ~ctx:(Attack.Ctx.make ~jobs ()) ~dir reader))
  in
  let hqc_s = Unix.gettimeofday () -. t0 in
  let successes =
    List.length (List.filter (fun (_, o) -> o.Attack.Target.success) outcomes)
  in
  let hqc_sr = float_of_int successes /. float_of_int experiments in
  Printf.printf
    "hqc: %d campaigns x %d traces (noise %.2f): full recovery %d / %d \
     (SR %.2f) in %.2fs\n%!"
    experiments hqc_budget noise successes experiments hqc_sr hqc_s;
  (* determinism probe on campaign 0: the whole outcome — witness
     included — must survive every jobs x prefetch change *)
  let dir0, o0 = List.hd outcomes in
  let variant (j, pf) =
    let reader = Tracestore.Reader.open_store dir0 in
    H.recover_store ~ctx:(jctx j) ~prefetch:pf ~dir:dir0 reader
  in
  let hqc_deterministic =
    List.for_all
      (fun cfg -> variant cfg = o0)
      [ (1, false); (2, true); (4, true); (4, false) ]
  in
  Printf.printf
    "hqc witness %s; bit-identical across jobs 1/2/4 x prefetch: %b\n%!"
    (String.trim o0.Attack.Target.witness)
    hqc_deterministic;
  List.iter (fun (dir, _) -> rm_store dir) outcomes;
  emit ~schema:Assess.Bench_gate.target "target"
    Obs.Json.
      [
        ("jobs", Int jobs); ("hqc_experiments", Int experiments);
        ("hqc_traces", Int hqc_budget); ("hqc_sr", Float hqc_sr); ("hqc_s", Float hqc_s);
        ("hqc_deterministic", Bool hqc_deterministic);
      ]

(* ---------------------------------------------------------------- *)
(* Micro-benchmarks (Bechamel). *)

let micro () =
  section "Micro-benchmarks (Bechamel, ns/op)";
  let open Bechamel in
  let x = Fpr.of_float 3.14159 and y = Fpr.of_float (-128.742) in
  let poly512 = Array.init 512 (fun i -> float_of_int ((i * 31 mod 255) - 127)) in
  let fft512 = Fft.Vec.fft poly512 in
  let zq512 = Array.init 512 (fun i -> i * 23 mod Zq.q) in
  let sk512, _ = Falcon.Scheme.keygen ~n:512 ~seed:"bench key" in
  let sk16, _ = Falcon.Scheme.keygen ~n:16 ~seed:"bench key" in
  let signer = Prng.of_seed "bench signer" in
  let capture16 = Leakage.capture_stream Leakage.default_model ~seed:1 sk16 in
  let chacha = Prng.of_seed "bench chacha" in
  (* one FALCON-16 record is ~9 KiB: 1120 samples of 8 bytes plus its
     strings *)
  let record_bytes = Bytes.init 9216 (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let noise_rng = Stats.Rng.create ~seed:1 in
  let signal16 =
    Array.init (16 * Leakage.events_per_coeff) (fun i -> float_of_int (i mod 33))
  in
  let tests =
    [
      Test.make ~name:"fpr_mul" (Staged.stage (fun () -> Fpr.mul x y));
      Test.make ~name:"fpr_add" (Staged.stage (fun () -> Fpr.add x y));
      Test.make ~name:"fpr_div" (Staged.stage (fun () -> Fpr.div x y));
      Test.make ~name:"fpr_sqrt" (Staged.stage (fun () -> Fpr.sqrt x));
      Test.make ~name:"fft_512" (Staged.stage (fun () -> Fft.Vec.fft poly512));
      Test.make ~name:"ifft_512" (Staged.stage (fun () -> Fft.Vec.ifft fft512));
      Test.make ~name:"ntt_512" (Staged.stage (fun () -> Zq.ntt zq512));
      Test.make ~name:"shake256_64B"
        (Staged.stage (fun () -> Keccak.shake256_digest "benchmark input" 64));
      Test.make ~name:"hash_to_point_512"
        (Staged.stage (fun () -> Falcon.Hash.to_point ~n:512 "salted message"));
      Test.make ~name:"sign_512"
        (Staged.stage (fun () -> Falcon.Scheme.sign ~rng:signer sk512 "msg"));
      Test.make ~name:"sign_16"
        (Staged.stage (fun () -> Falcon.Scheme.sign ~rng:signer sk16 "msg"));
      Test.make ~name:"capture_16" (Staged.stage (fun () -> capture16 ()));
      Test.make ~name:"crc32_9KiB"
        (Staged.stage (fun () -> Tracestore.Crc32.digest record_bytes ~pos:0 ~len:9216));
      (* render works in place on an unjittered signal: copy it first *)
      Test.make ~name:"render_16"
        (Staged.stage (fun () ->
             Leakage.render Leakage.default_model Leakage.no_jitter noise_rng
               (Array.copy signal16)));
      (* 64 bytes from a generator: one in-place block refill, 8 reads *)
      Test.make ~name:"chacha_block"
        (Staged.stage (fun () ->
             for _ = 1 to 8 do
               ignore (Sys.opaque_identity (Prng.u64 chacha))
             done));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-20s %12.1f ns/op\n%!" name est
          | _ -> Printf.printf "  %-20s (no estimate)\n%!" name)
        stats)
    tests

(* ---------------------------------------------------------------- *)
(* Section V extension: profiling (V-A).  The V-B countermeasure and
   V-C NTT-vs-FFT comparisons are the pinned examples
   examples/countermeasures.ml and examples/ntt_vs_fft.ml. *)

(* Section V-A + GALACTICS — the profiled template distinguisher.
   Trains a template store on a cloned-device campaign (Target.profile
   streaming over shards, reporting throughput), cracks the victim
   store end to end under [Profiled] with a jobs x prefetch determinism
   probe, and compares profiled vs unprofiled MTD on a matched-sigma
   unprotected victim (Assess.Metrics over the same campaign under both
   backends).  Emits one JSON row (BENCH_profiled.json) which
   check-bench gates on (profiled MTD <= unprofiled MTD, bit-identical
   recoveries across the probe). *)
let profiled () =
  section "Section V-A / GALACTICS — profiled template distinguisher";
  let tmp = Filename.get_temp_dir_name () in
  let module F = Attack.Target.Falcon in
  let n = full_n in
  let count = max 64 (min trace_budget 2000) in
  let shard = max 1 ((count + 3) / 4) in
  let clone = Filename.concat tmp "fd_bench_profiled_clone" in
  let victim = Filename.concat tmp "fd_bench_profiled_victim" in
  rm_store clone;
  rm_store victim;
  (* clone device: same acquisition knobs, a different key *)
  F.record_store ~dir:clone ~n ~traces:count ~noise ~seed:(seed + 4099)
    ~shard_traces:shard ();
  F.record_store ~dir:victim ~n ~traces:count ~noise ~seed ~shard_traces:shard ();
  let t0 = Unix.gettimeofday () in
  let store =
    Attack.Target.profile
      ~ctx:(Attack.Ctx.make ~jobs ())
      (module F) ~dir:clone
      (Tracestore.Reader.open_store clone)
  in
  let train_s = Unix.gettimeofday () -. t0 in
  let train_tps = float_of_int count /. train_s in
  Printf.printf "train: %s\n       %d traces in %.2fs (%.0f traces/s)\n%!"
    (Attack.Profile.describe store) count train_s train_tps;
  let crack (j, pf) =
    let reader = Tracestore.Reader.open_store victim in
    F.recover_store
      ~ctx:
        (Attack.Ctx.make ~jobs:j ~distinguisher:(Attack.Distinguisher.Profiled store) ())
      ~prefetch:pf ~dir:victim reader
  in
  let o0 = crack (1, false) in
  let deterministic =
    List.for_all (fun cfg -> crack cfg = o0) [ (2, false); (2, true) ]
  in
  Printf.printf
    "profiled full-key recovery: success %b (%d traces); bit-identical across \
     jobs x prefetch: %b\n%!"
    o0.Attack.Target.success o0.Attack.Target.traces deterministic;
  rm_store clone;
  rm_store victim;
  (* matched-sigma MTD: the same unprotected victim campaign evaluated
     under the unprofiled and profiled backends; the profiled templates
     come from a cloned campaign with a different secret and seed *)
  let budget = max 200 (min trace_budget 500) in
  let experiments = 2 in
  let mseed = seed + 7 in
  let secret =
    Assess.Campaign.secret_operand (Stats.Rng.create ~seed:(mseed lxor 0x5eed))
  in
  let entries =
    Assess.Campaign.generate ~p_fixed:1.0 `None ~noise ~secret
      ~count:(budget * experiments) ~seed:mseed
  in
  let cseed = mseed + 4099 in
  let csecret =
    Assess.Campaign.secret_operand (Stats.Rng.create ~seed:(cseed lxor 0x5eed))
  in
  let centries =
    Assess.Campaign.generate ~p_fixed:1.0 `None ~noise ~secret:csecret
      ~count:(budget * experiments) ~seed:cseed
  in
  let base = Attack.Ctx.make ~jobs () in
  let mstore =
    Assess.Metrics.profile_entries ~ctx:base ~defense:`None ~truth:csecret
      centries
  in
  let eval ctx =
    Assess.Metrics.of_entries ~ctx ~defense:`None ~truth:secret ~experiments
      ~decoys:128 ~seed:(Assess.Metrics.derived_seed mseed) entries
  in
  let unprofiled = eval base in
  let prof =
    eval (Attack.Ctx.with_backend (Attack.Distinguisher.Profiled mstore) base)
  in
  let mtd_of (o : Assess.Metrics.outcome) =
    match o.Assess.Metrics.mtd with Some d -> d | None -> 0
  in
  let unprofiled_mtd = mtd_of unprofiled and profiled_mtd = mtd_of prof in
  let show = function 0 -> "not disclosed" | d -> string_of_int d in
  Printf.printf
    "matched sigma %.2f, %d traces x %d experiments: unprofiled MTD %s, \
     profiled MTD %s\n%!"
    noise budget experiments (show unprofiled_mtd) (show profiled_mtd);
  emit ~schema:Assess.Bench_gate.profiled "profiled"
    Obs.Json.
      [
        ("n", Int n); ("jobs", Int jobs); ("sigma", Float noise); ("traces", Int budget);
        ("train_traces", Int count); ("train_s", Float train_s);
        ("train_tps", Float train_tps);
        ("recover_success", Bool o0.Attack.Target.success);
        ("deterministic", Bool deterministic); ("experiments", Int experiments);
        ("profiled_mtd", Int profiled_mtd); ("unprofiled_mtd", Int unprofiled_mtd);
      ]

let () =
  Printf.printf
    "Falcon Down — reproduction harness (seed %d, noise %.1f, budget %d traces)\n" seed
    noise trace_budget;
  if want "fig3" then fig3 ();
  if want "fig4" then fig4 ();
  if want "headline" then headline ();
  if want "ablation_snr" then ablation_snr ();
  if want "ablation_prune" then ablation_prune ();
  if want "profiled" then profiled ();
  if want "stream" then stream ();
  if want "assess" then assess ();
  if want "pearson" then pearson ();
  if want "sequential" then sequential ();
  if want "obs" then obs_bench ();
  if want "leakage" then leakage_bench ();
  if want "target" then target_bench ();
  if want "micro" then micro ();
  Printf.printf "\ndone.\n"
