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

(* One minimal passing report per bench-gate schema. *)
let bench_fixtures =
  List.map
    (fun (schema, fields) ->
      (schema, Assess.Json.of_string (Printf.sprintf {|{"schema":%S,%s}|} schema fields)))
    Assess.Bench_gate.
      [
        ( pearson,
          {|"traces":300,"guesses":2000,"jobs":2,"rank_scalar_s":0.2,
            "rank_batched_s":0.1,"rank_speedup":2.0,"rank_prep_s":0.01,
            "rank_score_s":0.09,"falcon_rank_base_s":0.1,"falcon_rank_target_s":0.1,
            "falcon_rank_ratio":1.0,"bit_identical":true,"falcon_identical":true|}
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
          {|"traces":300,"guesses":2085,"jobs":2,"jsonl_events":4,"legacy_s":0.013,
            "null_s":0.013,"jsonl_s":0.014,"bit_identical":true|} );
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
    [ Obj []; Obj [ ("schema", String "falcon-down/bench-pearson/v1") ]; List [] ]

let suite =
  [
    Alcotest.test_case "campaign store round-trip" `Quick test_campaign_store_roundtrip;
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
  ]
