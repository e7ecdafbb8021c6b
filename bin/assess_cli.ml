(* Leakage-assessment driver: TVLA leakage detection, attack-success
   metrics and the countermeasure evaluation matrix.

     dune exec bin/trace_cli.exe  -- record-tvla --defense masking -t 2000 -o camp
     dune exec bin/assess_cli.exe -- tvla --store camp -j 2
     dune exec bin/assess_cli.exe -- metrics --defense shuffle -t 500 --experiments 8
     dune exec bin/assess_cli.exe -- matrix -o report -j 4
     dune exec bin/assess_cli.exe -- check --json report.json
     dune exec bin/assess_cli.exe -- check-log --json run.jsonl

   Exit statuses follow the repository-wide convention in Cli_common. *)

let with_errors = Cli_common.with_errors

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* {2 tvla} *)

let verdict t1 t2 =
  match (Float.abs t1 > Assess.Tvla.threshold, Float.abs t2 > Assess.Tvla.threshold) with
  | true, true -> "LEAK (1st+2nd)"
  | true, false -> "LEAK (1st)"
  | false, true -> "LEAK (2nd)"
  | false, false -> ""

let print_tvla defense (r : Assess.Tvla.result) pair_t rvr_max =
  Printf.printf "TVLA fixed-vs-random, threshold |t| > %.1f:\n" Assess.Tvla.threshold;
  Printf.printf " sample |       t1 |       t2 | verdict\n";
  Printf.printf " -------+----------+----------+---------------\n";
  for j = 0 to r.Assess.Tvla.width - 1 do
    Printf.printf " %6d | %8.2f | %8.2f | %s\n" j r.Assess.Tvla.t1.(j)
      r.Assess.Tvla.t2.(j) (verdict r.Assess.Tvla.t1.(j) r.Assess.Tvla.t2.(j))
  done;
  let lo, hi = Assess.Campaign.assessed_region defense in
  let sample, max_t1 = Assess.Tvla.max_abs ~lo ~hi r.Assess.Tvla.t1 in
  Printf.printf "assessed region [%d..%d]: max |t1| = %.2f at sample %d — %s\n" lo hi
    max_t1 sample
    (if max_t1 > Assess.Tvla.threshold then "first-order leakage detected"
     else "no first-order leakage");
  if Array.length pair_t > 0 then begin
    let pairs = Assess.Campaign.share_pairs defense in
    let best = ref 0 in
    Array.iteri (fun i t -> if Float.abs t > Float.abs pair_t.(!best) then best := i) pair_t;
    let j, k = pairs.(!best) in
    let pt = Float.abs pair_t.(!best) in
    Printf.printf "second-order share pairs: max |t| = %.2f at pair (%d,%d) — %s\n" pt j
      k
      (if pt > Assess.Tvla.threshold then
         "second-order leakage detected (expected: 2 shares)"
       else "no second-order leakage detected")
  end;
  Printf.printf "random-vs-random null: max |t1| = %.2f (expect < %.1f)\n" rvr_max
    Assess.Tvla.threshold

let cmd_tvla store defense traces noise seed flags =
  Cli_common.run flags @@ fun ctx ->
  let defense, entries =
    match store with
    | Some dir ->
        let defense, _secret, _seed, reader = Assess.Campaign.open_store dir in
        let entries = Array.of_seq (Assess.Campaign.seq_of_store reader) in
        Printf.printf "campaign: store %s — defense %s, %d traces, width %d\n" dir
          (Assess.Campaign.name defense)
          (Array.length entries)
          (Assess.Campaign.width defense);
        (defense, entries)
    | None ->
        let secret =
          Assess.Campaign.secret_operand (Stats.Rng.create ~seed:(seed lxor 0x7e57))
        in
        let entries =
          Assess.Campaign.generate defense ~noise ~secret ~count:traces ~seed
        in
        Printf.printf
          "campaign: generated — defense %s, %d traces, noise sigma %.2f, seed %d\n"
          (Assess.Campaign.name defense)
          traces noise seed;
        (defense, entries)
  in
  let r = Assess.Tvla.of_entries ~ctx ~classify:Assess.Tvla.fixed_vs_random entries in
  Printf.printf "populations: %d fixed, %d random\n" r.Assess.Tvla.n_a r.Assess.Tvla.n_b;
  let pairs = Assess.Campaign.share_pairs defense in
  let pair_t =
    if Array.length pairs = 0 then [||]
    else
      Assess.Tvla.pairs_of_entries ~ctx ~pairs ~mean_a:r.Assess.Tvla.mean_a
        ~mean_b:r.Assess.Tvla.mean_b ~classify:Assess.Tvla.fixed_vs_random entries
  in
  let rvr =
    Assess.Tvla.of_entries ~ctx ~classify:Assess.Tvla.random_vs_random entries
  in
  let lo, hi = Assess.Campaign.assessed_region defense in
  let _, rvr_max = Assess.Tvla.max_abs ~lo ~hi rvr.Assess.Tvla.t1 in
  print_tvla defense r pair_t rvr_max;
  Cli_common.ok

(* {2 metrics} *)

let print_outcome (o : Assess.Metrics.outcome) =
  Printf.printf "experiments        %d\n" o.Assess.Metrics.experiments;
  Printf.printf "success rate       %.3f (%d/%d rank-1)\n" o.Assess.Metrics.success_rate
    o.Assess.Metrics.success o.Assess.Metrics.experiments;
  Printf.printf "guessing entropy   %.2f (%.2f bits, partial: sampled candidate set)\n"
    o.Assess.Metrics.guessing_entropy o.Assess.Metrics.ge_bits;
  (match o.Assess.Metrics.mtd with
  | Some d -> Printf.printf "median MTD         %d traces\n" d
  | None -> Printf.printf "median MTD         not disclosed within budget\n");
  Printf.printf "disclosed          %d/%d experiments\n" o.Assess.Metrics.mtd_found
    o.Assess.Metrics.experiments;
  (match o.Assess.Metrics.mtd_conf with
  | Some d -> Printf.printf "median MTD@conf    %d traces (measured sequential stop)\n" d
  | None -> Printf.printf "median MTD@conf    tester never reached confidence\n");
  Printf.printf "stopped            %d/%d experiments\n"
    o.Assess.Metrics.mtd_conf_found o.Assess.Metrics.experiments;
  let opt_row a =
    String.concat " "
      (Array.to_list
         (Array.map (function Some d -> string_of_int d | None -> "-") a))
  in
  Printf.printf "per-experiment     rank: %s\n"
    (String.concat " "
       (Array.to_list (Array.map string_of_int o.Assess.Metrics.ranks)));
  Printf.printf "                   mtd:  %s\n" (opt_row o.Assess.Metrics.mtds);
  Printf.printf "                   mtd@conf: %s\n" (opt_row o.Assess.Metrics.mtd_confs)

let cmd_metrics store defense noise budget experiments decoys seed stop_alpha flags =
  Cli_common.run flags @@ fun ctx ->
  let outcome =
    match store with
    | Some dir ->
        Printf.printf "evaluating recorded campaign %s (%d experiments, %d decoys)\n%!"
          dir experiments decoys;
        Assess.Metrics.of_store ~ctx ~stop_alpha ~experiments ~decoys dir
    | None ->
        Printf.printf
          "defense %s, noise sigma %.2f, %d traces x %d experiments, %d decoys, \
           seed %d\n%!"
          (Assess.Campaign.name defense)
          noise budget experiments decoys seed;
        Assess.Metrics.run ~ctx ~stop_alpha
          { Assess.Metrics.defense; noise; budget; experiments; decoys; seed }
  in
  print_outcome outcome;
  Cli_common.ok

(* {2 matrix} *)

let print_cell (c : Assess.Matrix.cell) =
  Printf.printf "%-6s %-8s sigma %-5g budget %-6d %-17s %-8s sr %.2f ge %6.2f \
                 mtd %-6s max|t1| %8.2f max|t2| %8.2f %s\n%!"
    c.Assess.Matrix.target
    (Assess.Campaign.name c.Assess.Matrix.defense)
    c.Assess.Matrix.sigma c.Assess.Matrix.budget
    (Assess.Campaign.condition_name c.Assess.Matrix.condition)
    c.Assess.Matrix.distinguisher
    c.Assess.Matrix.outcome.Assess.Metrics.success_rate
    c.Assess.Matrix.outcome.Assess.Metrics.guessing_entropy
    (match c.Assess.Matrix.outcome.Assess.Metrics.mtd with
    | Some d -> string_of_int d
    | None -> "-")
    c.Assess.Matrix.max_t1 c.Assess.Matrix.max_t2
    (if c.Assess.Matrix.first_order_leak then "LEAK" else "quiet")

let cmd_matrix tiny targets sigmas budgets conditions distinguishers experiments
    decoys seed out flags =
  Cli_common.run flags @@ fun ctx ->
  let conditions = List.map Assess.Campaign.condition_of_name conditions in
  let report =
    if tiny then
      Assess.Matrix.tiny ~ctx ~targets ~conditions ~distinguishers
        ~progress:print_cell ~seed ()
    else
      Assess.Matrix.run ~ctx ~targets ~conditions ~distinguishers
        ~progress:print_cell ~sigmas ~budgets ~experiments ~decoys ~seed ()
  in
  let json = Assess.Matrix.to_json report in
  let json_path = out ^ ".json" and csv_path = out ^ ".csv" in
  write_file json_path (Assess.Json.to_string ~pretty:true json ^ "\n");
  write_file csv_path (Assess.Matrix.to_csv report);
  (* round-trip self-check: what landed on disk parses and validates *)
  (match Assess.Matrix.validate (Assess.Json.of_string (read_file json_path)) with
  | Ok () -> ()
  | Error msg -> failwith ("emitted report fails validation: " ^ msg));
  Printf.printf "wrote %s and %s (%d cells, schema %s)\n" json_path csv_path
    (List.length report.Assess.Matrix.cells)
    Assess.Matrix.schema;
  Cli_common.ok

(* {2 check} *)

let cmd_check json_path =
  with_errors @@ fun () ->
  match Assess.Matrix.validate (Assess.Json.of_string (read_file json_path)) with
  | Ok () ->
      let cells =
        match
          Option.bind
            (Assess.Json.member "cells" (Assess.Json.of_string (read_file json_path)))
            Assess.Json.to_list_opt
        with
        | Some l -> List.length l
        | None -> 0
      in
      Printf.printf "%s: valid %s report (%d cells)\n" json_path Assess.Matrix.schema
        cells;
      Cli_common.ok
  | Error msg ->
      Printf.eprintf "%s: %s\n" json_path msg;
      Cli_common.data_error

(* {2 check-log} *)

let cmd_check_log log_path =
  with_errors @@ fun () ->
  let records = Obs.Jsonl.read_file log_path in
  match Obs.Jsonl.validate records with
  | Ok () ->
      Printf.printf "%s: valid %s log (%d records)\n" log_path Obs.Jsonl.schema
        (List.length records);
      Cli_common.ok
  | Error msg ->
      Printf.eprintf "%s: %s\n" log_path msg;
      Cli_common.data_error

(* {2 check-bench} *)

(* Every bench gate is a row of Assess.Bench_gate; a failed row or a
   shape error exits with the data-error status. *)
let cmd_check_bench json_path =
  with_errors @@ fun () ->
  match Assess.Bench_gate.check (Assess.Json.of_string (read_file json_path)) with
  | Ok summary ->
      Printf.printf "%s: %s\n" json_path summary;
      Cli_common.ok
  | Error msgs ->
      List.iter (Printf.eprintf "%s: %s\n" json_path) msgs;
      Cli_common.data_error

open Cmdliner

let defense_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("masking", `Masking); ("shuffle", `Shuffle) ]) `None
    & info [ "defense" ] ~docv:"DEFENSE"
        ~doc:"Countermeasure under assessment: $(b,none), $(b,masking) or \
              $(b,shuffle).")

let store_arg =
  Cli_common.store_opt_arg
    ~doc:
      "Assess a recorded campaign (trace_cli record-tvla) instead of generating \
       one; defense, secret and seed come from the store's sidecar."

let traces_arg = Cli_common.traces_arg ~default:2000 ~doc:"Campaign trace count." ()
let noise_arg = Cli_common.noise_arg
let seed_arg = Cli_common.seed_arg ()
let flags = Cli_common.flags_term

let experiments_arg =
  Arg.(
    value
    & opt int 8
    & info [ "experiments" ] ~docv:"N"
        ~doc:"Independently seeded attack experiments per configuration.")

let decoys_arg =
  Arg.(
    value
    & opt int 128
    & info [ "decoys" ] ~docv:"K" ~doc:"Random decoy hypotheses per candidate set.")

let budget_arg =
  Arg.(
    value & opt int 500 & info [ "t"; "traces" ] ~doc:"Trace budget per experiment.")

let stop_alpha_arg =
  Arg.(
    value
    & opt float 1e-4
    & info [ "stop-alpha" ] ~docv:"ALPHA"
        ~doc:
          "Family-wise error budget of the sequential tester behind the measured \
           MTD-at-confidence column.")

let tvla_cmd =
  Cmd.v
    (Cmd.info "tvla"
       ~doc:
         "Fixed-vs-random and random-vs-random Welch t-tests per sample point \
          (first order and centered second order, plus the bivariate share-pair \
          test for masked traces)")
    Term.(
      const cmd_tvla $ store_arg $ defense_arg $ traces_arg $ noise_arg $ seed_arg
      $ flags)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Success rate, partial guessing entropy, median traces-to-disclosure and \
          measured traces-to-decision over N independently seeded attack \
          experiments")
    Term.(
      const cmd_metrics $ store_arg $ defense_arg $ noise_arg $ budget_arg
      $ experiments_arg $ decoys_arg $ seed_arg $ stop_alpha_arg $ flags)

let sigmas_arg =
  Arg.(
    value
    & opt (list float) [ 0.5; 1.0; 2.0 ]
    & info [ "sigmas" ] ~docv:"S1,S2,..." ~doc:"Noise-sigma grid axis.")

let budgets_arg =
  Arg.(
    value
    & opt (list int) [ 200; 500; 1000 ]
    & info [ "budgets" ] ~docv:"B1,B2,..." ~doc:"Trace-budget grid axis.")

let conditions_arg =
  Arg.(
    value
    & opt (list string) [ "hw" ]
    & info [ "conditions" ] ~docv:"C1,C2,..."
        ~doc:
          "Acquisition-condition grid axis (the model x alignment sweep): \
           comma-separated names built from $(b,hw)/$(b,hd) with optional \
           $(b,+jitter) and $(b,+realign) suffixes, e.g. \
           $(b,hw,hd,hd+jitter,hd+jitter+realign).  The default $(b,hw) \
           reproduces the pre-axis matrix bit for bit.")

let targets_arg =
  Arg.(
    value
    & opt (list string) [ "falcon" ]
    & info [ "targets" ] ~docv:"T1,T2,..."
        ~doc:
          "Target grid axis: comma-separated Attack.Target names \
           ($(b,falcon), $(b,hqc)).  FALCON cells sweep the full defense x \
           sigma x budget x condition product; other targets contribute a \
           sigma x budget sub-grid (no defense, baseline condition).  The \
           default $(b,falcon) reproduces the pre-target-axis matrix cell \
           for cell.")

let distinguishers_arg =
  Arg.(
    value
    & opt (list string) [ "pearson" ]
    & info [ "distinguishers" ] ~docv:"D1,D2,..."
        ~doc:
          "Distinguisher grid axis: comma-separated names from $(b,pearson) \
           (unprofiled CPA) and $(b,profiled) (template attack trained on a \
           cloned-device campaign — see attack_cli profile).  Both cells of a \
           grid point attack the same victim campaign, so \
           $(b,pearson,profiled) reports profiled MTD next to the unprofiled \
           curve per countermeasure.  The default $(b,pearson) reproduces the \
           pre-axis matrix cell for cell.")

let tiny_arg =
  Arg.(
    value
    & flag
    & info [ "tiny" ]
        ~doc:"Smoke-test preset: one sigma, one small budget, 2 experiments.")

let out_arg =
  Arg.(
    value
    & opt string "assess_matrix"
    & info [ "o"; "out" ] ~docv:"PREFIX" ~doc:"Report path prefix (.json and .csv).")

let matrix_cmd =
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Evaluate the target x {none, masking, shuffle} x sigma x budget x \
          condition grid and emit the JSON/CSV report (validated against the \
          schema after writing)")
    Term.(
      const cmd_matrix $ tiny_arg $ targets_arg $ sigmas_arg $ budgets_arg
      $ conditions_arg $ distinguishers_arg $ experiments_arg $ decoys_arg
      $ seed_arg $ out_arg $ flags)

let json_arg =
  Arg.(
    value
    & opt string "assess_matrix.json"
    & info [ "json" ] ~docv:"FILE" ~doc:"Report file to validate.")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse and schema-validate an emitted matrix report; exit 1 if invalid")
    Term.(const cmd_check $ json_arg)

let log_json_arg =
  Arg.(
    value
    & opt string "run.jsonl"
    & info [ "json" ] ~docv:"FILE" ~doc:"Observability event log to validate.")

let check_log_cmd =
  Cmd.v
    (Cmd.info "check-log"
       ~doc:
         "Parse and schema-validate an observability event log emitted with --log \
          jsonl:PATH; exit 1 if invalid")
    Term.(const cmd_check_log $ log_json_arg)

let bench_json_arg =
  Arg.(
    value
    & pos 0 string "BENCH_pearson.json"
    & info [] ~docv:"FILE" ~doc:"Bench report to validate.")

let check_bench_cmd =
  let gates =
    List.map
      (fun schema -> `I (schema, Assess.Bench_gate.describe schema))
      Assess.Bench_gate.schemas
  in
  Cmd.v
    (Cmd.info "check-bench"
       ~doc:
         "Validate a bench artifact against the gate table row for row, dispatching \
          on its schema field; exit 1 if any row fails"
       ~man:(`S "GATES" :: gates))
    Term.(const cmd_check_bench $ bench_json_arg)

let () =
  let doc = "Falcon Down leakage-assessment lab" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "assess_cli" ~doc)
          [ tvla_cmd; metrics_cmd; matrix_cmd; check_cmd; check_log_cmd; check_bench_cmd ]))
