type cell = {
  target : string;
  defense : Campaign.defense;
  sigma : float;
  budget : int;
  condition : Campaign.condition;
  distinguisher : string;
  outcome : Metrics.outcome;
  max_t1 : float;
  max_t1_sample : int;
  max_t2 : float;
  rvr_max_t1 : float;
  first_order_leak : bool;
  overhead : float;
  dilution : int;
}

type report = {
  seed : int;
  experiments : int;
  decoys : int;
  targets : string list;
  defenses : Campaign.defense list;
  sigmas : float list;
  budgets : int list;
  conditions : Campaign.condition list;
  distinguishers : string list;
  cells : cell list;
}

let schema = "falcon-down/assess-matrix/v5"
let known_distinguishers = Attack.Distinguisher.names

(* Per-target grid shape: the defense and condition axes are FALCON
   acquisition knobs (countermeasure windows, device-model sweeps of
   the FFT multiplier); other targets evaluate sigma x budget with no
   defense and the baseline condition.  Every target carries the
   distinguisher axis.  The validator uses the same function, so
   emitted reports and the checker cannot drift. *)
let grid_size ~target ~defenses ~sigmas ~budgets ~conditions ~distinguishers =
  let d = List.length distinguishers in
  match target with
  | "falcon" ->
      List.length defenses * List.length sigmas * List.length budgets
      * List.length conditions * d
  | _ -> List.length sigmas * List.length budgets * d

let maybe_realign ~ctx (condition : Campaign.condition) defense entries =
  fst (Campaign.realign_entries ~ctx condition defense entries)

let assess_cell ~ctx ~condition defense ~sigma ~budget ~seed =
  let secret = Campaign.secret_operand (Stats.Rng.create ~seed:(seed lxor 0x7e57)) in
  let entries =
    Campaign.generate ~condition defense ~noise:sigma ~secret ~count:(2 * budget)
      ~seed
  in
  let entries = maybe_realign ~ctx condition defense entries in
  let r = Tvla.of_entries ~ctx ~classify:Tvla.fixed_vs_random entries in
  let lo, hi = Campaign.assessed_region defense in
  let max_t1_sample, max_t1 = Tvla.max_abs ~lo ~hi r.Tvla.t1 in
  let _, max_t2_uni = Tvla.max_abs ~lo ~hi r.Tvla.t2 in
  let max_t2 =
    let pairs = Campaign.share_pairs defense in
    if Array.length pairs = 0 then max_t2_uni
    else
      Array.fold_left
        (fun acc t -> Float.max acc (Float.abs t))
        max_t2_uni
        (Tvla.pairs_of_entries ~ctx ~pairs ~mean_a:r.Tvla.mean_a
           ~mean_b:r.Tvla.mean_b ~classify:Tvla.fixed_vs_random entries)
  in
  let rvr = Tvla.of_entries ~ctx ~classify:Tvla.random_vs_random entries in
  let _, rvr_max_t1 = Tvla.max_abs ~lo ~hi rvr.Tvla.t1 in
  (max_t1, max_t1_sample, max_t2, rvr_max_t1)

(* TVLA columns of an HQC cell: fixed-vs-random over the victim's
   rotate-and-accumulate samples (fixed class = one fixed dense input
   u0 under the cell's secret, random class = fresh u per trace), plus
   the random-vs-random null split by acquisition parity. *)
let assess_hqc_cell ~ctx ~sigma ~budget ~seed =
  let model = { Leakage.default_model with noise_sigma = sigma } in
  let rng = Stats.Rng.create ~seed in
  let secret = Hqc.keygen ~seed:(seed lxor 0x7e57) in
  let word_span = 1 lsl Hqc.Params.word_bits in
  let draw_u () =
    let u = ref 0 in
    for w = 0 to Hqc.Params.words - 1 do
      u := !u lor (Stats.Rng.int_below rng word_span lsl (w * Hqc.Params.word_bits))
    done;
    !u
  in
  let fixed_u = draw_u () in
  let entries =
    Array.init (2 * budget) (fun i ->
        let fixed = i land 1 = 0 in
        let u = if fixed then fixed_u else draw_u () in
        (fixed, Leakage.hw_trace model rng (Hqc.intermediates `Hw secret ~u)))
  in
  let classify_fvr _ (fixed, _) = Some (if fixed then Tvla.A else Tvla.B) in
  let classify_rvr i (fixed, _) =
    if fixed then None else Some (if (i lsr 1) land 1 = 0 then Tvla.A else Tvla.B)
  in
  let r =
    Tvla.assess ~ctx ~width:Hqc.Params.width ~classify:classify_fvr ~samples:snd
      (Array.to_seq entries)
  in
  let max_t1_sample, max_t1 = Tvla.max_abs r.Tvla.t1 in
  let _, max_t2 = Tvla.max_abs r.Tvla.t2 in
  let rvr =
    Tvla.assess ~ctx ~width:Hqc.Params.width ~classify:classify_rvr ~samples:snd
      (Array.to_seq entries)
  in
  let _, rvr_max_t1 = Tvla.max_abs rvr.Tvla.t1 in
  (max_t1, max_t1_sample, max_t2, rvr_max_t1)

let known_target t = Option.is_some (Attack.Target.find t)

(* Profiled cells clone the device: a second campaign under the same
   acquisition knobs but a different secret and seed trains the
   template store ({!Metrics.profile_entries}); the victim campaign is
   then evaluated under [Profiled store], so the profiled and pearson
   cells of one grid point attack the exact same victim traces. *)
let falcon_profiled_ctx ~ctx ~condition defense ~sigma ~budget ~experiments
    ~seed =
  let clone_seed = seed + 4099 in
  let secret =
    Campaign.secret_operand (Stats.Rng.create ~seed:(clone_seed lxor 0x5eed))
  in
  let entries =
    Campaign.generate ~p_fixed:1.0 ~condition defense ~noise:sigma ~secret
      ~count:(budget * experiments) ~seed:clone_seed
  in
  let store =
    Metrics.profile_entries ~ctx ~condition ~defense ~truth:secret entries
  in
  Attack.Ctx.with_backend (Attack.Distinguisher.Profiled store) ctx

(* The HQC clone: templates keyed on the per-unit accumulator word
   block, classed by the chained hypothesis models applied to the
   clone's true support (the plan {!Attack.Target.profile} trains on,
   over in-memory captures). *)
let hqc_profiled_ctx ~ctx ~sigma ~budget ~seed =
  let window = Hqc.Params.words in
  let model = { Leakage.default_model with noise_sigma = sigma } in
  let secret = Hqc.keygen ~seed:(seed lxor 0x5eed) in
  let next = Hqc.capture_stream model ~seed secret in
  let records = Array.init budget (fun _ -> next ()) in
  let plan = Attack.Target.Hqc.profile_plan ~leakage:`Hw secret in
  let spec = Attack.Profile.default_spec ~window in
  let store =
    Attack.Profile.train_plan spec ~plan (fun f ->
        Array.iter
          (fun (r : Tracestore.record) -> f (Hqc.u_of_record r) r.samples)
          records)
  in
  Attack.Ctx.with_backend (Attack.Distinguisher.Profiled store) ctx

let run ?ctx:(c = Attack.Ctx.default ()) ?(targets = [ "falcon" ])
    ?(defenses = Campaign.all) ?(conditions = [ Campaign.baseline_condition ])
    ?(distinguishers = [ "pearson" ]) ?(progress = fun _ -> ())
    ~sigmas ~budgets ~experiments ~decoys ~seed () =
  let obs = c.Attack.Ctx.obs in
  if targets = [] then invalid_arg "Assess.Matrix: empty target axis";
  List.iter
    (fun t ->
      if not (known_target t) then
        invalid_arg (Printf.sprintf "Assess.Matrix: unknown target %S" t))
    targets;
  if defenses = [] then invalid_arg "Assess.Matrix: empty defense list";
  if sigmas = [] then invalid_arg "Assess.Matrix: empty sigma grid";
  if budgets = [] then invalid_arg "Assess.Matrix: empty budget grid";
  if conditions = [] then invalid_arg "Assess.Matrix: empty condition axis";
  if distinguishers = [] then
    invalid_arg "Assess.Matrix: empty distinguisher axis";
  List.iter
    (fun d ->
      if not (List.mem d known_distinguishers) then
        invalid_arg (Printf.sprintf "Assess.Matrix: unknown distinguisher %S" d))
    distinguishers;
  List.iter
    (fun s -> if s <= 0. then invalid_arg "Assess.Matrix: sigma must be positive")
    sigmas;
  List.iter
    (fun b -> if b < 8 then invalid_arg "Assess.Matrix: budget must be at least 8")
    budgets;
  (* [idx] advances once per grid point; the distinguisher axis is the
     innermost loop and shares the grid point's cell seed, so the
     pearson and profiled cells evaluate the same victim campaign and
     the default ["pearson"] axis reproduces the v4 seed schedule
     bit-for-bit. *)
  let idx = ref 0 in
  let falcon_cells () =
    List.concat_map
      (fun defense ->
        List.concat_map
          (fun sigma ->
            List.concat_map
              (fun budget ->
                List.concat_map
                  (fun condition ->
                    let cell_seed = seed + (1009 * !idx) in
                    incr idx;
                    List.map
                      (fun dist ->
                        Obs.span obs "matrix.cell"
                          ~fields:
                            [
                              ("target", Obs.Str "falcon");
                              ("defense", Obs.Str (Campaign.name defense));
                              ("sigma", Obs.Float sigma);
                              ("budget", Obs.Int budget);
                              ( "condition",
                                Obs.Str (Campaign.condition_name condition) );
                              ("distinguisher", Obs.Str dist);
                            ]
                        @@ fun () ->
                        let cell_ctx =
                          if dist = "profiled" then
                            falcon_profiled_ctx ~ctx:c ~condition defense
                              ~sigma ~budget ~experiments ~seed:cell_seed
                          else c
                        in
                        let outcome =
                          Metrics.run ~ctx:cell_ctx ~condition
                            { Metrics.defense; noise = sigma; budget;
                              experiments; decoys; seed = cell_seed }
                        in
                        let max_t1, max_t1_sample, max_t2, rvr_max_t1 =
                          assess_cell ~ctx:c ~condition defense ~sigma ~budget
                            ~seed:(cell_seed + 17)
                        in
                        let cell =
                          {
                            target = "falcon";
                            defense;
                            sigma;
                            budget;
                            condition;
                            distinguisher = dist;
                            outcome;
                            max_t1;
                            max_t1_sample;
                            max_t2;
                            rvr_max_t1;
                            first_order_leak = max_t1 > Tvla.threshold;
                            overhead = Campaign.overhead_factor defense;
                            dilution = Campaign.dilution defense;
                          }
                        in
                        progress cell;
                        cell)
                      distinguishers)
                  conditions)
              budgets)
          sigmas)
      defenses
  in
  let hqc_cells () =
    List.concat_map
      (fun sigma ->
        List.concat_map
          (fun budget ->
            let cell_seed = seed + (1009 * !idx) in
            incr idx;
            List.map
              (fun dist ->
                Obs.span obs "matrix.cell"
                  ~fields:
                    [
                      ("target", Obs.Str "hqc");
                      ("sigma", Obs.Float sigma);
                      ("budget", Obs.Int budget);
                      ("distinguisher", Obs.Str dist);
                    ]
                @@ fun () ->
                let cell_ctx =
                  if dist = "profiled" then
                    hqc_profiled_ctx ~ctx:c ~sigma ~budget
                      ~seed:(cell_seed + 4099)
                  else c
                in
                let outcome =
                  Metrics.run_hqc ~ctx:cell_ctx
                    { Metrics.noise = sigma; budget; experiments;
                      seed = cell_seed }
                in
                let max_t1, max_t1_sample, max_t2, rvr_max_t1 =
                  assess_hqc_cell ~ctx:c ~sigma ~budget ~seed:(cell_seed + 17)
                in
                let cell =
                  {
                    target = "hqc";
                    defense = `None;
                    sigma;
                    budget;
                    condition = Campaign.baseline_condition;
                    distinguisher = dist;
                    outcome;
                    max_t1;
                    max_t1_sample;
                    max_t2;
                    rvr_max_t1;
                    first_order_leak = max_t1 > Tvla.threshold;
                    overhead = 1.;
                    dilution = 1;
                  }
                in
                progress cell;
                cell)
              distinguishers)
          budgets)
      sigmas
  in
  let cells =
    List.concat_map
      (fun target ->
        match target with "falcon" -> falcon_cells () | _ -> hqc_cells ())
      targets
  in
  { seed; experiments; decoys; targets; defenses; sigmas; budgets; conditions;
    distinguishers; cells }

let tiny ?ctx ?targets ?conditions ?distinguishers ?progress ~seed () =
  run ?ctx ?targets ?conditions ?distinguishers ?progress
    ~sigmas:[ 0.5 ] ~budgets:[ 200 ] ~experiments:2 ~decoys:24 ~seed ()

(* {2 Serialisation} *)

let json_of_cell c =
  Json.Obj
    [
      ("target", Json.String c.target);
      ("defense", Json.String (Campaign.name c.defense));
      ("sigma", Json.Float c.sigma);
      ("budget", Json.Int c.budget);
      ("condition", Json.String (Campaign.condition_name c.condition));
      ("distinguisher", Json.String c.distinguisher);
      ("experiments", Json.Int c.outcome.Metrics.experiments);
      ("success_rate", Json.Float c.outcome.Metrics.success_rate);
      ("guessing_entropy", Json.Float c.outcome.Metrics.guessing_entropy);
      ("ge_bits", Json.Float c.outcome.Metrics.ge_bits);
      ( "mtd",
        match c.outcome.Metrics.mtd with Some d -> Json.Int d | None -> Json.Null );
      ("mtd_found", Json.Int c.outcome.Metrics.mtd_found);
      ( "mtd_conf",
        match c.outcome.Metrics.mtd_conf with
        | Some d -> Json.Int d
        | None -> Json.Null );
      ("mtd_conf_found", Json.Int c.outcome.Metrics.mtd_conf_found);
      ("max_t1", Json.Float c.max_t1);
      ("max_t1_sample", Json.Int c.max_t1_sample);
      ("max_t2", Json.Float c.max_t2);
      ("rvr_max_t1", Json.Float c.rvr_max_t1);
      ("first_order_leak", Json.Bool c.first_order_leak);
      ("overhead", Json.Float c.overhead);
      ("dilution", Json.Int c.dilution);
    ]

let to_json r =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("seed", Json.Int r.seed);
      ("experiments", Json.Int r.experiments);
      ("decoys", Json.Int r.decoys);
      ("targets", Json.List (List.map (fun t -> Json.String t) r.targets));
      ("defenses", Json.List (List.map (fun d -> Json.String (Campaign.name d)) r.defenses));
      ("sigmas", Json.List (List.map (fun s -> Json.Float s) r.sigmas));
      ("budgets", Json.List (List.map (fun b -> Json.Int b) r.budgets));
      ( "conditions",
        Json.List
          (List.map
             (fun c -> Json.String (Campaign.condition_name c))
             r.conditions) );
      ( "distinguishers",
        Json.List (List.map (fun d -> Json.String d) r.distinguishers) );
      ("cells", Json.List (List.map json_of_cell r.cells));
    ]

let csv_header =
  "target,defense,sigma,budget,condition,distinguisher,experiments,\
   success_rate,guessing_entropy,ge_bits,mtd,mtd_found,mtd_conf,\
   mtd_conf_found,max_t1,max_t1_sample,max_t2,rvr_max_t1,first_order_leak,\
   overhead,dilution"

let to_csv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf csv_header;
  Buffer.add_char buf '\n';
  List.iter
    (fun c ->
      Printf.bprintf buf
        "%s,%s,%g,%d,%s,%s,%d,%g,%g,%g,%s,%d,%s,%d,%g,%d,%g,%g,%b,%g,%d\n"
        c.target (Campaign.name c.defense) c.sigma c.budget
        (Campaign.condition_name c.condition) c.distinguisher
        c.outcome.Metrics.experiments
        c.outcome.Metrics.success_rate c.outcome.Metrics.guessing_entropy
        c.outcome.Metrics.ge_bits
        (match c.outcome.Metrics.mtd with Some d -> string_of_int d | None -> "")
        c.outcome.Metrics.mtd_found
        (match c.outcome.Metrics.mtd_conf with
        | Some d -> string_of_int d
        | None -> "")
        c.outcome.Metrics.mtd_conf_found c.max_t1 c.max_t1_sample c.max_t2
        c.rvr_max_t1 c.first_order_leak c.overhead c.dilution)
    r.cells;
  Buffer.contents buf

(* {2 Schema validation} *)

let ( let* ) = Result.bind

let field what conv j key =
  match Json.member key j with
  | None -> Error (Printf.sprintf "%s: missing field %S" what key)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "%s: field %S has the wrong type" what key))

let check cond msg = if cond then Ok () else Error msg

let finite_number j = Option.bind (Json.to_number_opt j) (fun f ->
    if Float.is_finite f then Some f else None)

let validate_cell i j =
  let what = Printf.sprintf "cell %d" i in
  let* t = field what Json.to_string_opt j "target" in
  let* () =
    check (known_target t) (Printf.sprintf "%s: unknown target %S" what t)
  in
  let* d = field what Json.to_string_opt j "defense" in
  let* () =
    check
      (List.exists (fun v -> Campaign.name v = d) Campaign.all)
      (Printf.sprintf "%s: unknown defense %S" what d)
  in
  let* sigma = field what finite_number j "sigma" in
  let* () = check (sigma > 0.) (what ^ ": sigma must be positive") in
  let* budget = field what Json.to_int_opt j "budget" in
  let* () = check (budget > 0) (what ^ ": budget must be positive") in
  let* cond = field what Json.to_string_opt j "condition" in
  let* () =
    check
      (match Campaign.condition_of_name cond with
      | _ -> true
      | exception Failure _ -> false)
      (Printf.sprintf "%s: unknown condition %S" what cond)
  in
  let* dist = field what Json.to_string_opt j "distinguisher" in
  let* () =
    check
      (List.mem dist known_distinguishers)
      (Printf.sprintf "%s: unknown distinguisher %S" what dist)
  in
  let* experiments = field what Json.to_int_opt j "experiments" in
  let* () = check (experiments > 0) (what ^ ": experiments must be positive") in
  let* sr = field what finite_number j "success_rate" in
  let* () = check (sr >= 0. && sr <= 1.) (what ^ ": success_rate outside [0,1]") in
  let* ge = field what finite_number j "guessing_entropy" in
  let* () = check (ge >= 1.) (what ^ ": guessing_entropy below 1") in
  let* _ = field what finite_number j "ge_bits" in
  let* () =
    match Json.member "mtd" j with
    | None -> Error (what ^ ": missing field \"mtd\"")
    | Some Json.Null -> Ok ()
    | Some (Json.Int d) ->
        check (d >= 1 && d <= budget) (what ^ ": mtd outside [1, budget]")
    | Some _ -> Error (what ^ ": field \"mtd\" must be null or an integer")
  in
  let* mtd_found = field what Json.to_int_opt j "mtd_found" in
  let* () =
    check
      (mtd_found >= 0 && mtd_found <= experiments)
      (what ^ ": mtd_found outside [0, experiments]")
  in
  let* () =
    match Json.member "mtd_conf" j with
    | None -> Error (what ^ ": missing field \"mtd_conf\"")
    | Some Json.Null -> Ok ()
    | Some (Json.Int d) ->
        check (d >= 1 && d <= budget) (what ^ ": mtd_conf outside [1, budget]")
    | Some _ -> Error (what ^ ": field \"mtd_conf\" must be null or an integer")
  in
  let* mtd_conf_found = field what Json.to_int_opt j "mtd_conf_found" in
  let* () =
    check
      (mtd_conf_found >= 0 && mtd_conf_found <= experiments)
      (what ^ ": mtd_conf_found outside [0, experiments]")
  in
  let* _ = field what finite_number j "max_t1" in
  let* _ = field what Json.to_int_opt j "max_t1_sample" in
  let* _ = field what finite_number j "max_t2" in
  let* _ = field what finite_number j "rvr_max_t1" in
  let* _ = field what Json.to_bool_opt j "first_order_leak" in
  let* ov = field what finite_number j "overhead" in
  let* () = check (ov >= 1.) (what ^ ": overhead below 1") in
  let* dil = field what Json.to_int_opt j "dilution" in
  check (dil >= 1) (what ^ ": dilution below 1")

let validate j =
  let* s = field "report" Json.to_string_opt j "schema" in
  let* () = check (s = schema) (Printf.sprintf "report: schema %S, expected %S" s schema) in
  let* _ = field "report" Json.to_int_opt j "seed" in
  let* _ = field "report" Json.to_int_opt j "experiments" in
  let* _ = field "report" Json.to_int_opt j "decoys" in
  let* targets = field "report" Json.to_list_opt j "targets" in
  let* () = check (targets <> []) "report: empty target axis" in
  let* target_names =
    List.fold_left
      (fun acc tj ->
        let* names = acc in
        match Json.to_string_opt tj with
        | None -> Error "report: target axis entry is not a string"
        | Some t ->
            if known_target t then Ok (t :: names)
            else Error (Printf.sprintf "report: unknown target %S" t))
      (Ok []) targets
  in
  let* defenses = field "report" Json.to_list_opt j "defenses" in
  let* () = check (defenses <> []) "report: empty defense axis" in
  let* sigmas = field "report" Json.to_list_opt j "sigmas" in
  let* () = check (sigmas <> []) "report: empty sigma axis" in
  let* budgets = field "report" Json.to_list_opt j "budgets" in
  let* () = check (budgets <> []) "report: empty budget axis" in
  let* conditions = field "report" Json.to_list_opt j "conditions" in
  let* () = check (conditions <> []) "report: empty condition axis" in
  let* () =
    List.fold_left
      (fun acc cj ->
        let* () = acc in
        match Json.to_string_opt cj with
        | None -> Error "report: condition axis entry is not a string"
        | Some s -> (
            match Campaign.condition_of_name s with
            | _ -> Ok ()
            | exception Failure _ ->
                Error (Printf.sprintf "report: unknown condition %S" s)))
      (Ok ()) conditions
  in
  let* distinguishers = field "report" Json.to_list_opt j "distinguishers" in
  let* () = check (distinguishers <> []) "report: empty distinguisher axis" in
  let* () =
    List.fold_left
      (fun acc dj ->
        let* () = acc in
        match Json.to_string_opt dj with
        | None -> Error "report: distinguisher axis entry is not a string"
        | Some d ->
            if List.mem d known_distinguishers then Ok ()
            else Error (Printf.sprintf "report: unknown distinguisher %S" d))
      (Ok ()) distinguishers
  in
  let* cells = field "report" Json.to_list_opt j "cells" in
  let expected =
    List.fold_left
      (fun acc target ->
        acc
        + grid_size ~target ~defenses ~sigmas ~budgets ~conditions
            ~distinguishers)
      0 target_names
  in
  let* () =
    check
      (List.length cells = expected)
      (Printf.sprintf "report: %d cells, grid is %d" (List.length cells) expected)
  in
  List.fold_left
    (fun acc (i, c) ->
      let* () = acc in
      validate_cell i c)
    (Ok ())
    (List.mapi (fun i c -> (i, c)) cells)
