(* The bench-report gate table and its evaluator (see the mli). *)

type rule =
  | Int_min of int
  | Non_neg
  | True of string
  | At_least of float * string
  | At_most_times of float * string * string
  | Open_unit

type row = { schema : string; field : string; rule : rule }

let pearson = "falcon-down/bench-pearson/v2"
let sequential = "falcon-down/bench-sequential/v1"
let leakage = "falcon-down/bench-leakage/v1"
let target = "falcon-down/bench-target/v2"
let profiled = "falcon-down/bench-profiled/v1"
let stream = "falcon-down/bench-stream/v1"
let obs = "falcon-down/bench-obs/v1"

(* Per schema, each field list shares one rule; a field may carry a
   shape row and a bound row. *)
let table =
  [
    ( pearson,
      [
        ([ "traces"; "guesses"; "jobs" ], Int_min 1);
        ( [
            "rank_scalar_s"; "rank_batched_s"; "rank_speedup"; "rank_prep_s";
            "rank_score_s"; "falcon_rank_base_s"; "falcon_rank_target_s";
            "falcon_rank_ratio";
          ],
          Non_neg );
        ( [ "bit_identical" ],
          True "the batched kernel diverged from the scalar baseline" );
        ( [ "rank_speedup" ],
          At_least
            (1.0, "the batched end-to-end rank regressed against the scalar baseline")
        );
        ( [ "falcon_identical" ],
          True
            "the FALCON rank through Target.parts diverged from the hand-built part \
             set" );
        ( [ "falcon_rank_ratio" ],
          At_least
            ( 0.95,
              "routing the FALCON rank through Target.parts cost more than 5% \
               throughput" ) );
      ] );
    ( sequential,
      [
        ([ "n"; "traces"; "jobs"; "units" ], Int_min 1);
        ([ "stopped_early"; "looks"; "traces_saved" ], Int_min 0);
        ([ "alpha"; "mean_traces"; "median_traces"; "fixed_s"; "adaptive_s" ], Non_neg);
        ([ "alpha" ], Open_unit);
        ( [ "keys_identical" ],
          True
            "the adaptive campaign recovered a different key than the fixed-budget \
             run" );
        ([ "stops_identical" ], True "stop points diverged across jobs/backends");
        ( [ "mean_traces" ],
          At_most_times (0.5, "traces", "early stopping saved too little") );
      ] );
    ( leakage,
      [
        ( [ "n"; "traces"; "jobs"; "max_shift"; "mtd_hd_aligned"; "mtd_hd_realigned" ],
          Int_min 1 );
        ( [
            "capture_hw_tps"; "capture_hd_tps"; "capture_pipeline_tps"; "realign_tps";
            "realign_recovery";
          ],
          Non_neg );
        ( [ "fullkey_realigned" ],
          True "the bus-HD attack lost the key on the realigned campaign" );
        ( [ "unaligned_degraded" ],
          True "the jittered campaign was not degraded, so realignment proved nothing"
        );
        ( [ "deterministic" ],
          True "realignment stats diverged across jobs/prefetch settings" );
        ( [ "realign_recovery" ],
          At_least (0.9, "realignment recovered too little of the aligned-store MTD")
        );
      ] );
    ( target,
      [
        ([ "hqc_experiments"; "jobs" ], Int_min 1);
        ([ "hqc_sr" ], Non_neg);
        ( [ "hqc_deterministic" ],
          True "the HQC witness diverged across jobs/backends/prefetch" );
        ( [ "hqc_sr" ],
          At_least (0.9, "the HQC target failed to recover its secret often enough") );
      ] );
    ( profiled,
      [
        ( [ "n"; "traces"; "jobs"; "train_traces"; "profiled_mtd"; "unprofiled_mtd" ],
          Int_min 1 );
        ([ "sigma"; "train_s"; "train_tps" ], Non_neg);
        ( [ "deterministic" ],
          True "profiled rankings diverged across the jobs x prefetch probe" );
        ( [ "profiled_mtd" ],
          At_most_times
            ( 1.0,
              "unprofiled_mtd",
              "the template attack needs more traces than unprofiled CPA on the \
               unprotected victim" ) );
      ] );
    ( stream,
      [
        ([ "n"; "traces"; "shards"; "jobs"; "candidates" ], Int_min 1);
        ( [ "write_s"; "mem_rank_s"; "stream_rank_s"; "stream_traces_per_sec" ],
          Non_neg );
        ([ "bit_identical" ], True "the streaming rank diverged from the in-memory rank");
      ] );
    ( obs,
      [
        ([ "traces"; "guesses"; "jobs"; "jsonl_events" ], Int_min 1);
        ([ "legacy_s"; "null_s"; "jsonl_s" ], Non_neg);
        ( [ "bit_identical" ],
          True "the rankings diverged across the legacy, Null and JSONL sinks" );
      ] );
  ]

let schemas = List.map fst table

let rows =
  List.concat_map
    (fun (schema, specs) ->
      List.concat_map
        (fun (fields, rule) -> List.map (fun field -> { schema; field; rule }) fields)
        specs)
    table

let rows_of schema = List.filter (fun r -> r.schema = schema) rows

let rule_text = function
  | Int_min 1 -> "positive int"
  | Int_min k -> Printf.sprintf "int >= %d" k
  | Non_neg -> "finite number >= 0"
  | True _ -> "true"
  | At_least (b, _) -> Printf.sprintf ">= %g" b
  | At_most_times (k, other, _) -> Printf.sprintf "<= %g x %s" k other
  | Open_unit -> "in (0, 1)"

let describe schema =
  String.concat "; "
    (List.map
       (fun (fields, rule) -> String.concat ", " fields ^ ": " ^ rule_text rule)
       (List.assoc schema table))

(* A finite number, or why not; every message starts with the field. *)
let number j field =
  match Json.member field j with
  | None -> Error (field ^ " is missing, want a finite number")
  | Some Json.Null -> Error (field ^ " is null (non-finite), want a finite number")
  | Some v -> (
      match Json.to_number_opt v with
      | Some x when Float.is_finite x -> Ok x
      | _ -> Error (field ^ " is not a finite number"))

let eval j { field; rule; _ } =
  let sp = Printf.sprintf in
  let bounded pred fail =
    Result.bind (number j field) (fun x -> if pred x then Ok () else Error (fail x))
  in
  match rule with
  | Int_min lo -> (
      match Json.member field j with
      | Some (Json.Int v) when v >= lo -> Ok ()
      | Some (Json.Int v) -> Error (sp "%s is %d, want an int >= %d" field v lo)
      | None -> Error (sp "%s is missing, want an int >= %d" field lo)
      | Some _ -> Error (sp "%s is not an int, want an int >= %d" field lo))
  | Non_neg -> bounded (fun x -> x >= 0.) (sp "%s %g is negative" field)
  | True why -> (
      match Json.member field j with
      | Some (Json.Bool true) -> Ok ()
      | Some (Json.Bool false) -> Error (sp "%s is false — %s" field why)
      | None -> Error (field ^ " is missing, want true")
      | Some _ -> Error (field ^ " is not a bool, want true"))
  | At_least (b, why) ->
      bounded (fun x -> x >= b) (fun x -> sp "%s %g is below %g — %s" field x b why)
  | Open_unit -> bounded (fun x -> x > 0. && x < 1.) (sp "%s %g is outside (0, 1)" field)
  | At_most_times (k, other, why) -> (
      match number j other with
      | Error _ ->
          Error (sp "%s cannot be bounded: %s is not a finite number" field other)
      | Ok o ->
          bounded
            (fun x -> x <= k *. o)
            (fun x -> sp "%s %g exceeds %g x %s (%g) — %s" field x k other o why))

(* The success line reports the value behind every non-shape row. *)
let summary j schema =
  let shown =
    List.filter_map
      (fun r ->
        match r.rule with
        | True _ -> Some r.field
        | At_least _ | At_most_times _ | Open_unit ->
            Result.to_option
              (Result.map (Printf.sprintf "%s %.3g" r.field) (number j r.field))
        | Int_min _ | Non_neg -> None)
      (rows_of schema)
  in
  Printf.sprintf "valid %s report (%s)" schema (String.concat ", " shown)

let check j =
  match Option.bind (Json.member "schema" j) Json.to_string_opt with
  | None -> Error [ "schema is missing, want a string" ]
  | Some s when not (List.mem s schemas) ->
      Error
        [
          Printf.sprintf "schema is %S, want one of %s" s
            (String.concat ", " (List.map (Printf.sprintf "%S") schemas));
        ]
  | Some s -> (
      match
        List.filter_map
          (fun r -> Result.fold ~ok:(fun () -> None) ~error:Option.some (eval j r))
          (rows_of s)
      with
      | [] -> Ok (summary j s)
      | errors -> Error errors)
