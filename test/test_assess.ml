(* Leakage-assessment lab contracts: campaign store round-trip, TVLA
   determinism (jobs-invariant, memory == store) and detection behaviour
   (unprotected leaks, first-order masking does not, the null test stays
   quiet), attack-metrics invariances, and the evaluation-matrix JSON
   schema round-trip. *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let fixed_secret seed = Assess.Campaign.secret_operand (Stats.Rng.create ~seed)

(* one recorded fixed-vs-random campaign, cleaned up afterwards *)
let with_store ?p_fixed defense ~noise ~count ~seed f =
  let dir = Filename.temp_dir "fd_assess_test" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let secret = fixed_secret (seed lxor 0x7e57) in
      Assess.Campaign.record_store ?p_fixed ~dir defense ~noise ~secret ~count ~seed
        ~shard_traces:64 ();
      f secret dir)

let test_campaign_store_roundtrip () =
  with_store `Masking ~noise:0.7 ~count:50 ~seed:11 @@ fun secret dir ->
  let defense, secret', seed', reader = Assess.Campaign.open_store dir in
  Alcotest.(check string) "defense" "masking" (Assess.Campaign.name defense);
  Alcotest.(check int) "seed" 11 seed';
  Alcotest.(check bool) "secret bits" true (secret' = secret);
  let stored = Array.of_seq (Assess.Campaign.seq_of_store reader) in
  let generated =
    Assess.Campaign.generate `Masking ~noise:0.7 ~secret ~count:50 ~seed:11
  in
  (* the recorded form is bit-identical to the in-memory campaign:
     class labels, known operands and every float sample *)
  Alcotest.(check bool) "entries bit-identical" true (stored = generated)

(* Sample-bit digests of every defense under every standard condition:
   the class draws, operands, countermeasure randomness, jitter and
   noise all come from one RNG stream, so any change to how a campaign
   trace is rendered shows here. *)
let campaign_digest (entries : Assess.Campaign.entry array) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun (e : Assess.Campaign.entry) ->
      Buffer.add_char b (match e.cls with Fixed -> 'F' | Random -> 'R');
      Buffer.add_int64_le b e.known;
      Array.iter (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f)) e.samples)
    entries;
  Digest.to_hex (Digest.string (Buffer.contents b))

let campaign_goldens =
  [
    ("none", "hw", "e2a2c4635119219613f5034d84ab1053");
    ("masking", "hw", "043b1907cf8989a59f14e52b0f260767");
    ("shuffle", "hw", "721a95402ef69ea15d1cc4b51f4ec123");
    ("none", "hd", "19ebac8b2fe44fc27e845cd0fca1c013");
    ("masking", "hd", "bd8d8382e1d97200c5621287d710d01a");
    ("shuffle", "hd", "65d57271a4be68f1f61fb86e23a26730");
    ("none", "hd+jitter", "780a02650f32b8b11ecd216750fb4831");
    ("masking", "hd+jitter", "31a55ff02b65f919aec94bf32707c3ba");
    ("shuffle", "hd+jitter", "cba76986b9df4ab77b85cecfd02d0d35");
    (* realignment is analysis-side: generation matches hd+jitter *)
    ("none", "hd+jitter+realign", "780a02650f32b8b11ecd216750fb4831");
    ("masking", "hd+jitter+realign", "31a55ff02b65f919aec94bf32707c3ba");
    ("shuffle", "hd+jitter+realign", "cba76986b9df4ab77b85cecfd02d0d35");
  ]

let test_campaign_goldens () =
  let secret = fixed_secret 21 in
  List.iter
    (fun condition ->
      List.iter
        (fun defense ->
          let d = Assess.Campaign.name defense
          and c = Assess.Campaign.condition_name condition in
          let want =
            List.find_map
              (fun (d', c', h) -> if d' = d && c' = c then Some h else None)
              campaign_goldens
          in
          Alcotest.(check (option string))
            (Printf.sprintf "%s under %s" d c)
            want
            (Some
               (campaign_digest
                  (Assess.Campaign.generate ~condition defense ~noise:0.5 ~secret
                     ~count:12 ~seed:33))))
        Assess.Campaign.all)
    Assess.Campaign.standard_conditions

let tvla_result_eq (a : Assess.Tvla.result) (b : Assess.Tvla.result) = a = b

let test_tvla_jobs_and_store_invariant () =
  with_store `None ~noise:0.5 ~count:400 ~seed:3 @@ fun secret dir ->
  let entries =
    Assess.Campaign.generate `None ~noise:0.5 ~secret ~count:400 ~seed:3
  in
  let mem jobs =
    Assess.Tvla.of_entries ~ctx:(Attack.Ctx.make ~jobs ())
      ~classify:Assess.Tvla.fixed_vs_random entries
  in
  let reference = mem 1 in
  Alcotest.(check bool) "jobs-invariant (1 vs 4)" true (tvla_result_eq (mem 4) reference);
  let _, _, _, reader = Assess.Campaign.open_store dir in
  let streamed =
    Assess.Tvla.of_store ~ctx:(Attack.Ctx.make ~jobs:3 ())
      ~classify:Assess.Tvla.fixed_vs_random reader
  in
  Alcotest.(check bool) "store == memory, bit-identical" true
    (tvla_result_eq streamed reference);
  (* the null split must be deterministic too *)
  let rvr jobs =
    Assess.Tvla.of_entries ~ctx:(Attack.Ctx.make ~jobs ())
      ~classify:Assess.Tvla.random_vs_random entries
  in
  Alcotest.(check bool) "null test jobs-invariant" true (tvla_result_eq (rvr 4) (rvr 1))

let test_tvla_detects_unprotected () =
  let secret = fixed_secret 99 in
  let entries =
    Assess.Campaign.generate `None ~noise:0.5 ~secret ~count:800 ~seed:41
  in
  let r = Assess.Tvla.of_entries ~classify:Assess.Tvla.fixed_vs_random entries in
  let lo, hi = Assess.Campaign.assessed_region `None in
  let _, peak = Assess.Tvla.max_abs ~lo ~hi r.t1 in
  Alcotest.(check bool)
    (Printf.sprintf "secret datapath exceeds 4.5 (got %.2f)" peak)
    true
    (peak > Assess.Tvla.threshold);
  (* random-vs-random: same corpus, no real difference between the
     halves — detections here are procedure false positives *)
  let null = Assess.Tvla.of_entries ~classify:Assess.Tvla.random_vs_random entries in
  let _, null_peak = Assess.Tvla.max_abs null.t1 in
  Alcotest.(check bool)
    (Printf.sprintf "null stays under 4.5 (got %.2f)" null_peak)
    true
    (null_peak < Assess.Tvla.threshold)

let test_tvla_masking_first_order_quiet () =
  let secret = fixed_secret 100 in
  let entries =
    Assess.Campaign.generate `Masking ~noise:0.5 ~secret ~count:2000 ~seed:42
  in
  let r = Assess.Tvla.of_entries ~classify:Assess.Tvla.fixed_vs_random entries in
  let lo, hi = Assess.Campaign.assessed_region `Masking in
  let _, peak = Assess.Tvla.max_abs ~lo ~hi r.t1 in
  Alcotest.(check bool)
    (Printf.sprintf "mask + share datapaths stay under 4.5 (got %.2f)" peak)
    true
    (peak < Assess.Tvla.threshold);
  (* the recombination tail (deliberately outside the assessed region)
     is unmasked and must light up — the region boundary is load-bearing *)
  let _, tail_peak = Assess.Tvla.max_abs ~lo:14 ~hi:20 r.t1 in
  Alcotest.(check bool)
    (Printf.sprintf "recombination tail leaks (got %.2f)" tail_peak)
    true
    (tail_peak > Assess.Tvla.threshold)

let test_metrics_invariances () =
  let config =
    {
      Assess.Metrics.defense = `None;
      noise = 1.0;
      budget = 64;
      experiments = 3;
      decoys = 16;
      seed = 5;
    }
  in
  let reference = Assess.Metrics.run ~ctx:(Attack.Ctx.make ~jobs:1 ()) config in
  Alcotest.(check bool) "metrics jobs-invariant" true
    (Assess.Metrics.run ~ctx:(Attack.Ctx.make ~jobs:3 ()) config = reference);
  (* the recorded form of the same campaign evaluates identically: the
     secret convention (seed lxor 0x5eed) and the derived candidate
     seed are shared between run and of_store *)
  let dir = Filename.temp_dir "fd_assess_metrics" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let secret = fixed_secret (config.seed lxor 0x5eed) in
      Assess.Campaign.record_store ~p_fixed:1.0 ~dir `None ~noise:config.noise ~secret
        ~count:(config.budget * config.experiments) ~seed:config.seed ~shard_traces:64
        ();
      let from_store =
        Assess.Metrics.of_store ~ctx:(Attack.Ctx.make ~jobs:2 ())
          ~experiments:config.experiments
          ~decoys:config.decoys dir
      in
      Alcotest.(check bool) "store == in-memory metrics" true (from_store = reference))

let test_metrics_baseline_succeeds () =
  let outcome =
    Assess.Metrics.run
      {
        Assess.Metrics.defense = `None;
        noise = 1.0;
        budget = 100;
        experiments = 2;
        decoys = 32;
        seed = 7;
      }
  in
  Alcotest.(check int) "all experiments rank the truth first" 2 outcome.success;
  Alcotest.(check int) "all experiments disclose in budget" 2 outcome.mtd_found;
  Alcotest.(check bool) "finite median MTD" true (outcome.mtd <> None)

(* the matrix acceptance property at unit-test scale: countermeasures
   raise the median traces-to-disclosure over the unprotected baseline
   (None ordered as +infinity, as in the aggregate) *)
let test_countermeasures_raise_mtd () =
  let run defense =
    Assess.Metrics.run
      {
        Assess.Metrics.defense;
        noise = 1.0;
        budget = 100;
        experiments = 2;
        decoys = 32;
        seed = 7;
      }
  in
  let key (o : Assess.Metrics.outcome) =
    match o.mtd with Some d -> d | None -> max_int
  in
  let base = run `None and masked = run `Masking and shuffled = run `Shuffle in
  Alcotest.(check bool) "baseline discloses" true (base.mtd <> None);
  Alcotest.(check bool) "masking raises MTD" true (key masked > key base);
  Alcotest.(check bool) "shuffling raises MTD" true (key shuffled > key base)

let test_json_roundtrip () =
  let src = {|{"a": [1, -2.5, null, true, "xA\n"], "b": {"c": 1e3}}|} in
  let v = Assess.Json.of_string src in
  let v' = Assess.Json.of_string (Assess.Json.to_string ~pretty:true v) in
  Alcotest.(check bool) "parse . print . parse is stable" true (v = v');
  (match Assess.Json.member "b" v with
  | Some b ->
      Alcotest.(check (option (float 0.))) "1e3" (Some 1000.)
        (Option.bind (Assess.Json.member "c" b) Assess.Json.to_number_opt)
  | None -> Alcotest.fail "missing member b");
  match Assess.Json.of_string "[1, 2" with
  | _ -> Alcotest.fail "truncated input accepted"
  | exception Failure _ -> ()

let test_matrix_report_validates () =
  let report =
    Assess.Matrix.run ~ctx:(Attack.Ctx.make ~jobs:2 ()) ~defenses:[ `None ] ~sigmas:[ 0.8 ]
      ~budgets:[ 64 ]
      ~experiments:2 ~decoys:16 ~seed:3 ()
  in
  let json = Assess.Matrix.to_json report in
  (match Assess.Matrix.validate json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid report rejected: %s" e);
  (* the emitted bytes survive a parse round-trip *)
  (match Assess.Matrix.validate (Assess.Json.of_string (Assess.Json.to_string json)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "re-parsed report rejected: %s" e);
  (* tampering must be caught: wrong schema tag, and a cell-count that
     no longer matches the grid *)
  let tamper f =
    match json with
    | Assess.Json.Obj fields -> Assess.Json.Obj (List.filter_map f fields)
    | _ -> Alcotest.fail "report is not an object"
  in
  let bad_schema =
    tamper (fun (k, v) ->
        if k = "schema" then Some (k, Assess.Json.String "bogus/v0") else Some (k, v))
  in
  (match Assess.Matrix.validate bad_schema with
  | Ok () -> Alcotest.fail "wrong schema tag accepted"
  | Error _ -> ());
  let no_cells =
    tamper (fun (k, v) ->
        if k = "cells" then Some (k, Assess.Json.List []) else Some (k, v))
  in
  match Assess.Matrix.validate no_cells with
  | Ok () -> Alcotest.fail "missing cells accepted"
  | Error _ -> ()

(* The small grid the CI matrix rules run: every defense, one sigma
   (0.5), one budget (200), 2 experiments, 24 decoys. *)
let tiny ?ctx ?targets ?conditions ?distinguishers ?progress ~seed () =
  Assess.Matrix.run ?ctx ?targets ?conditions ?distinguishers ?progress
    ~sigmas:[ 0.5 ] ~budgets:[ 200 ] ~experiments:2 ~decoys:24 ~seed ()

(* A cell's label alone picks its distinguisher: under a ctx that
   carries a profiled backend, the pearson cells of the small grid are
   still byte for byte the ones the default ctx gives. *)
let test_matrix_cells_ignore_ctx_backend () =
  let secret = Assess.Campaign.secret_operand (Stats.Rng.create ~seed:5) in
  let store =
    Assess.Metrics.profile_entries ~defense:`None ~truth:secret
      (Assess.Campaign.generate ~p_fixed:1.0 `None ~noise:0.5 ~secret ~count:400
         ~seed:5)
  in
  let profiled =
    Attack.Ctx.make ~distinguisher:(Attack.Distinguisher.Profiled store) ()
  in
  let report ?ctx () =
    Assess.Json.to_string (Assess.Matrix.to_json (tiny ?ctx ~seed:9 ()))
  in
  Alcotest.(check string) "pearson cells under a profiled ctx" (report ())
    (report ~ctx:profiled ())

(* The 14-cell report bin/assess_matrix.expected pins: both targets,
   both distinguishers, a baseline and a non-baseline condition. *)
let pinned_report =
  lazy
    (Assess.Matrix.to_json
       (tiny ~targets:[ "falcon"; "hqc" ]
          ~distinguishers:[ "pearson"; "profiled" ]
          ~conditions:
            (List.map Assess.Campaign.condition_of_name [ "hw"; "hd+jitter+realign" ])
          ~seed:9 ()))

(* [set k v j]: object [j] with member [k] replaced by [v]. *)
let set k v = function
  | Assess.Json.Obj kvs ->
      Assess.Json.Obj (List.map (fun (k', x) -> (k', if k' = k then v else x)) kvs)
  | _ -> Alcotest.fail "not an object"

let edit_cell i f j =
  match Assess.Json.member "cells" j with
  | Some (Assess.Json.List cells) ->
      set "cells" (Assess.Json.List (List.mapi (fun k c -> if k = i then f c else c) cells)) j
  | _ -> Alcotest.fail "report has no cells"

(* Every cell must be its grid point: a cell moved off the report's
   axes, or off the axes its target spans, is refused, and so is a
   target with no point on the axes at all. *)
let test_matrix_refuses_off_grid_cells () =
  let report = Lazy.force pinned_report in
  let refused what j =
    match Assess.Matrix.validate j with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  (match Assess.Matrix.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "pinned report rejected: %s" e);
  let condition name = set "condition" (Assess.Json.String name) in
  refused "a FALCON cell's condition off the axis" (edit_cell 0 (condition "hd") report);
  refused "an HQC cell under a condition HQC does not span"
    (edit_cell 12 (condition "hd+jitter+realign") report);
  refused "an HQC cell under a defense HQC does not span"
    (edit_cell 13 (set "defense" (Assess.Json.String "masking")) report);
  refused "a cell's distinguisher swapped"
    (edit_cell 1 (set "distinguisher" (Assess.Json.String "pearson")) report);
  refused "an overhead that is not its defense's"
    (edit_cell 4 (set "overhead" (Assess.Json.Float 1.)) report);
  let hqc = Assess.Matrix.to_json (tiny ~targets:[ "hqc" ] ~seed:9 ()) in
  refused "an HQC report whose condition axis lacks hw"
    (set "conditions" (Assess.Json.List [ Assess.Json.String "hd+jitter" ]) hqc);
  match
    tiny ~targets:[ "hqc" ]
      ~conditions:[ Assess.Campaign.condition_of_name "hd+jitter" ]
      ~progress:(fun _ -> Alcotest.fail "a cell ran")
      ~seed:9 ()
  with
  | _ -> Alcotest.fail "HQC matrix without hw ran"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "the refusal names the target and --conditions" true
        (String.starts_with ~prefix:"Assess.Matrix: target \"hqc\"" msg
        && String.ends_with ~suffix:"(add hw to --conditions)" msg)

(* One minimal passing report per bench-gate schema. *)
let bench_fixtures =
  List.map
    (fun (schema, fields) ->
      (schema, Assess.Json.of_string (Printf.sprintf {|{"schema":%S,%s}|} schema fields)))
    Assess.Bench_gate.
      [
        ( pearson,
          {|"traces":300,"guesses":2000,"jobs":2,"rank_scalar_s":0.2,
            "rank_batched_s":0.1,"rank_speedup":2.0,"rank_split_s":0.15,
            "product_speedup":1.5,"rank_prep_s":0.01,
            "rank_score_s":0.09,"bit_identical":true|}
        );
        ( sequential,
          {|"n":8,"traces":400,"jobs":2,"units":16,"stopped_early":16,"looks":40,
            "traces_saved":5000,"alpha":0.0001,"mean_traces":170.5,
            "median_traces":160,"fixed_s":0.5,"adaptive_s":0.3,
            "keys_identical":true,"stops_identical":true|} );
        ( leakage,
          {|"n":8,"traces":400,"jobs":2,"max_shift":3,"mtd_hd_aligned":22,
            "mtd_hd_realigned":22,"capture_hw_tps":5000.0,"capture_hd_tps":4000.0,
            "capture_pipeline_tps":3000.0,"realign_tps":2700.0,
            "realign_recovery":1.0,"fullkey_realigned":true,
            "unaligned_degraded":true,"deterministic":true|} );
        ( target,
          {|"hqc_experiments":10,"jobs":2,"hqc_sr":1.0,"hqc_deterministic":true|} );
        ( profiled,
          {|"n":8,"traces":500,"jobs":2,"train_traces":400,"profiled_mtd":25,
            "unprofiled_mtd":25,"sigma":0.5,"train_s":0.2,"train_tps":2000.0,
            "deterministic":true|} );
        ( stream,
          {|"n":16,"traces":300,"shards":4,"jobs":2,"candidates":4124,
            "write_s":0.02,"mem_rank_s":0.01,"stream_rank_s":0.04,
            "stream_traces_per_sec":7000.0,"bit_identical":true|} );
        ( obs,
          {|"traces":300,"guesses":2085,"jobs":2,"jsonl_events":4,"null_s":0.013,
            "jsonl_s":0.014,"bit_identical":true|} );
      ]

(* Each schema's fixture passes; for every row, each value that breaks
   only that row's field (null included, as a non-finite number is
   written) is refused with a message naming the field. *)
let test_bench_gate_refuses_each_row () =
  let open Assess.Json in
  Alcotest.(check (list string))
    "one fixture per schema" Assess.Bench_gate.schemas (List.map fst bench_fixtures);
  let set fixture field v =
    match fixture with
    | Obj fields ->
        Obj
          (List.filter_map
             (fun (k, x) ->
               if k <> field then Some (k, x) else Option.map (fun v -> (k, v)) v)
             fields)
    | _ -> Alcotest.fail "fixture is not an object"
  in
  List.iter
    (fun (schema, fixture) ->
      (match Assess.Bench_gate.check fixture with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s fixture refused: %s" schema (String.concat "; " e));
      List.iter
        (fun (row : Assess.Bench_gate.row) ->
          let num k = Option.get (Option.bind (member k fixture) to_number_opt) in
          let bad =
            match row.rule with
            | Int_min lo -> [ Int (lo - 1); Float (float_of_int lo +. 0.5) ]
            | Non_neg -> [ Float (-1.) ]
            | True _ -> [ Bool false; Int 1 ]
            | At_least (b, _) -> [ Float (b -. 0.01) ]
            | At_most_times (k, other, _) -> [ Float ((k *. num other) +. 1.) ]
            | Open_unit -> [ Float 0.; Float 1. ]
          in
          List.iter
            (fun v ->
              let shown = Option.fold ~none:"<missing>" ~some:to_string v in
              match Assess.Bench_gate.check (set fixture row.field v) with
              | Ok _ -> Alcotest.failf "%s: %s = %s accepted" schema row.field shown
              | Error msgs ->
                  if
                    not
                      (List.exists
                         (String.starts_with ~prefix:(row.field ^ " "))
                         msgs)
                  then
                    Alcotest.failf "%s: %s = %s refused without naming it: %s" schema
                      row.field shown (String.concat "; " msgs))
            (None :: List.map Option.some (Null :: String "x" :: bad)))
        (List.filter
           (fun (r : Assess.Bench_gate.row) -> r.schema = schema)
           Assess.Bench_gate.rows))
    bench_fixtures;
  List.iter
    (fun j ->
      match Assess.Bench_gate.check j with
      | Ok _ -> Alcotest.failf "accepted %s" (to_string j)
      | Error _ -> ())
        [
      Obj [];
      Obj [ ("schema", String "falcon-down/bench-pearson/v1") ];
      Obj [ ("schema", String "falcon-down/bench-pearson/v2") ];
      Obj [ ("schema", String "falcon-down/bench-pearson/v3") ];
      List [];
    ]

(* {2 Decoder fuzzing}

   Every truncation and 500 seeded single-byte xors of a valid input
   go through one decoder: each mutant must decode to [Ok] or [Error],
   or raise [Failure]; any other exception is a decoder bug. *)
let fuzz_decoder ~what ~seed decode s =
  let n = String.length s in
  let run m =
    match decode m with
    | Ok _ | Error _ | (exception Failure _) -> ()
    | exception e ->
        Alcotest.failf "%s: %s escaped on a %d-byte mutant" what
          (Printexc.to_string e) (String.length m)
  in
  for len = 0 to n - 1 do
    run (String.sub s 0 len)
  done;
  let rng = Stats.Rng.create ~seed in
  for _ = 1 to 500 do
    let b = Bytes.of_string s in
    let i = Stats.Rng.int_below rng n in
    let x = 1 + Stats.Rng.int_below rng 255 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
    run (Bytes.to_string b)
  done

(* A debug-level JSONL log of an adaptive HQC crack (its per-unit
   [seq.unit] decisions included), timed by a counting clock so the
   bytes are the same on every run. *)
let crack_log () =
  let dir = Filename.temp_dir "fd_assess_log" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Attack.Target.Hqc.record_store ~dir ~n:Hqc.Params.n_bits ~traces:120
        ~noise:0.6 ~seed:11 ~shard_traces:64 ();
      let buf = Buffer.create (1 lsl 16) in
      let clock =
        let t = ref 0L in
        fun () -> t := Int64.add !t 1000L; !t
      in
      let obs = Obs.make ~level:Obs.Debug ~clock (Obs.Jsonl.to_buffer buf) in
      ignore
        (Attack.Target.Hqc.recover_store
           ~ctx:(Attack.Ctx.make ~jobs:1 ~obs ())
           ~stop:(Sequential.Decision.spec ~alpha:1e-3 ())
           ~dir (Tracestore.Reader.open_store dir));
      Buffer.contents buf)

let test_decoders_fuzz () =
  let report = Assess.Json.to_string ~pretty:true (Lazy.force pinned_report) ^ "\n" in
  fuzz_decoder ~what:"matrix report" ~seed:1
    (fun s -> Assess.Matrix.validate (Assess.Json.of_string s))
    report;
  fuzz_decoder ~what:"bench gate" ~seed:2
    (fun s -> Assess.Bench_gate.check (Assess.Json.of_string s))
    (Assess.Json.to_string (List.assoc Assess.Bench_gate.pearson bench_fixtures));
  fuzz_decoder ~what:"crack log" ~seed:3
    (fun s -> Obs.Jsonl.validate (Obs.Jsonl.read_string s))
    (crack_log ())

let suite =
  [
    Alcotest.test_case "campaign store round-trip" `Quick test_campaign_store_roundtrip;
    Alcotest.test_case "campaign goldens" `Quick test_campaign_goldens;
    Alcotest.test_case "tvla jobs + store invariant" `Quick
      test_tvla_jobs_and_store_invariant;
    Alcotest.test_case "tvla detects unprotected leak" `Quick
      test_tvla_detects_unprotected;
    Alcotest.test_case "tvla masking quiet at first order" `Quick
      test_tvla_masking_first_order_quiet;
    Alcotest.test_case "metrics invariances" `Quick test_metrics_invariances;
    Alcotest.test_case "metrics baseline succeeds" `Quick test_metrics_baseline_succeeds;
    Alcotest.test_case "countermeasures raise MTD" `Slow test_countermeasures_raise_mtd;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "matrix report validates" `Slow test_matrix_report_validates;
    Alcotest.test_case "bench gate refuses each row by name" `Quick
      test_bench_gate_refuses_each_row;
    Alcotest.test_case "decoders survive truncation and byte flips" `Slow
      test_decoders_fuzz;
    Alcotest.test_case "matrix refuses cells off the grid" `Quick
      test_matrix_refuses_off_grid_cells;
    Alcotest.test_case "matrix cells ignore the ctx backend" `Quick
      test_matrix_cells_ignore_ctx_backend;
  ]
