type point = {
  target : string;
  defense : Campaign.defense;
  sigma : float;
  budget : int;
  condition : Campaign.condition;
  distinguisher : string;
  seed : int;
}

type tvla = {
  max_t1 : float;
  max_t1_sample : int;
  max_t2 : float;
  rvr_max_t1 : float;
}

type cell = { point : point; outcome : Metrics.outcome; tvla : tvla }

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

(* {2 Per-target evaluators} *)

let assess_falcon ctx ~seed p =
  let { defense; condition; budget; sigma; _ } = p in
  let secret = Campaign.secret_operand (Stats.Rng.create ~seed:(seed lxor 0x7e57)) in
  let entries =
    Campaign.generate ~condition defense ~noise:sigma ~secret ~count:(2 * budget)
      ~seed
  in
  let entries = fst (Campaign.realign_entries ~ctx condition defense entries) in
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
  { max_t1; max_t1_sample; max_t2; rvr_max_t1 }

(* TVLA columns of an HQC cell: fixed-vs-random over the victim's
   rotate-and-accumulate samples (fixed class = one fixed dense input
   u0 under the cell's secret, random class = fresh u per trace), plus
   the random-vs-random null split by acquisition parity. *)
let assess_hqc ctx ~seed p =
  let model = { Leakage.default_model with noise_sigma = p.sigma } in
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
    Array.init (2 * p.budget) (fun i ->
        let fixed = i land 1 = 0 in
        let u = if fixed then fixed_u else draw_u () in
        (fixed, Leakage.hw_trace model rng (Hqc.intermediates `Hw secret ~u)))
  in
  let classify_fvr _ (fixed, _) = Some (if fixed then Tvla.A else Tvla.B) in
  let classify_rvr i (fixed, _) =
    if fixed then None else Some (if (i lsr 1) land 1 = 0 then Tvla.A else Tvla.B)
  in
  let t1 classify =
    Tvla.assess ~ctx ~width:Hqc.Params.width ~classify ~samples:snd
      (Array.to_seq entries)
  in
  let r = t1 classify_fvr in
  let max_t1_sample, max_t1 = Tvla.max_abs r.Tvla.t1 in
  let _, max_t2 = Tvla.max_abs r.Tvla.t2 in
  let _, rvr_max_t1 = Tvla.max_abs (t1 classify_rvr).Tvla.t1 in
  { max_t1; max_t1_sample; max_t2; rvr_max_t1 }

(* Profiled cells clone the device: a second campaign under the same
   acquisition knobs but a different secret and seed trains the
   template store ({!Metrics.profile_entries}); the victim campaign is
   then evaluated under [Profiled store], so the profiled and pearson
   cells of one grid point attack the exact same victim traces. *)
let clone_falcon ctx ~experiments ~seed p =
  let secret = Campaign.secret_operand (Stats.Rng.create ~seed:(seed lxor 0x5eed)) in
  let entries =
    Campaign.generate ~p_fixed:1.0 ~condition:p.condition p.defense ~noise:p.sigma
      ~secret ~count:(p.budget * experiments) ~seed
  in
  Metrics.profile_entries ~ctx ~condition:p.condition ~defense:p.defense
    ~truth:secret entries

(* The HQC clone: templates keyed on the per-unit accumulator word
   block, classed by the chained hypothesis models applied to the
   clone's true support (the plan {!Attack.Target.profile} trains on,
   over in-memory captures). *)
let clone_hqc _ctx ~experiments:_ ~seed p =
  let model = { Leakage.default_model with noise_sigma = p.sigma } in
  let secret = Hqc.keygen ~seed:(seed lxor 0x5eed) in
  let next = Hqc.capture_stream model ~seed secret in
  let records = Array.init p.budget (fun _ -> next ()) in
  let plan = Attack.Target.Hqc.profile_plan ~leakage:`Hw secret in
  let spec = Attack.Profile.default_spec ~window:Hqc.Params.words in
  Attack.Profile.train_plan spec ~plan (fun f ->
      Array.iter
        (fun (r : Tracestore.record) -> f (Hqc.u_of_record r) r.samples)
        records)

(* What the matrix needs of a target: the axes it spans ([slice =
   Some (d, c)]: only defense [d] under condition [c]; [None]: every
   defense and condition), the attack outcome of a grid point, its
   TVLA columns, and the template store of its profiled clone. *)
type evaluator = {
  slice : (Campaign.defense * Campaign.condition) option;
  outcome :
    Attack.Ctx.t -> experiments:int -> decoys:int -> point -> Metrics.outcome;
  assess : Attack.Ctx.t -> seed:int -> point -> tvla;
  clone : Attack.Ctx.t -> experiments:int -> seed:int -> point -> Attack.Profile.store;
}

let evaluators =
  [
    ( "falcon",
      {
        slice = None;
        outcome =
          (fun ctx ~experiments ~decoys p ->
            Metrics.run ~ctx ~condition:p.condition
              { Metrics.defense = p.defense; noise = p.sigma; budget = p.budget;
                experiments; decoys; seed = p.seed });
        assess = assess_falcon;
        clone = clone_falcon;
      } );
    ( "hqc",
      {
        slice = Some (`None, Campaign.baseline_condition);
        outcome =
          (fun ctx ~experiments ~decoys:_ p ->
            Metrics.run_hqc ~ctx
              { Metrics.noise = p.sigma; budget = p.budget; experiments;
                seed = p.seed });
        assess = assess_hqc;
        clone = clone_hqc;
      } );
  ]

(* {2 The grid} *)

(* [idx] advances once per grid point a target spans, across targets;
   the distinguisher axis is innermost and shares the point's seed, so
   the pearson and profiled cells evaluate the same victim campaign. *)
let grid ~targets ~defenses ~sigmas ~budgets ~conditions ~distinguishers ~seed =
  let refuse fmt = Printf.ksprintf (fun m -> invalid_arg ("Assess.Matrix: " ^ m)) fmt in
  let nonempty what l = if l = [] then refuse "empty %s axis" what in
  nonempty "target" targets;
  nonempty "defense" defenses;
  nonempty "sigma" sigmas;
  nonempty "budget" budgets;
  nonempty "condition" conditions;
  nonempty "distinguisher" distinguishers;
  let each l bad msg = List.iter (fun x -> if bad x then msg x) l in
  each targets (fun t -> not (List.mem_assoc t evaluators)) (refuse "unknown target %S");
  each distinguishers
    (fun d -> not (List.mem d known_distinguishers))
    (refuse "unknown distinguisher %S");
  each sigmas
    (fun s -> not (Float.is_finite s && s > 0.))
    (fun _ -> refuse "sigma must be positive and finite");
  each budgets (fun b -> b < 8) (fun _ -> refuse "budget must be at least 8");
  let slice t = (List.assoc t evaluators).slice in
  List.iter
    (fun t ->
      match slice t with
      | Some (d, c) when not (List.mem d defenses && List.mem c conditions) ->
          let c = Campaign.condition_name c in
          refuse
            "target %S has no cell on this grid: it spans only defense %s under \
             condition %s (add %s to --conditions)"
            t (Campaign.name d) c c
      | _ -> ())
    targets;
  let idx = ref 0 in
  List.concat_map
    (fun target ->
      let spans = match slice target with None -> Fun.const true | Some s -> ( = ) s in
      List.concat_map
        (fun defense ->
          List.concat_map
            (fun sigma ->
              List.concat_map
                (fun budget ->
                  List.concat_map
                    (fun condition ->
                      if not (spans (defense, condition)) then []
                      else begin
                        let seed = seed + (1009 * !idx) in
                        incr idx;
                        List.map
                          (fun distinguisher ->
                            { target; defense; sigma; budget; condition;
                              distinguisher; seed })
                          distinguishers
                      end)
                    conditions)
                budgets)
            sigmas)
        defenses)
    targets

let first_order_leak c = c.tvla.max_t1 > Tvla.threshold

(* {2 The cell columns}

   Each column is declared once: its name, its value as a JSON scalar
   (the CSV field is the same scalar, [null] as an empty field), and
   the check [validate] applies to it, which sees the cell's grid
   point and the report's experiment count.  A column that is a
   function of the grid point must equal it exactly. *)

type column = {
  name : string;
  get : cell -> Json.t;
  ok : point -> int -> Json.t -> bool;  (** grid point, report experiments *)
  why : string;  (** the failed check, as it reads after the field name *)
}

(* A cell's coordinates: its first report columns and the fields of
   its [matrix.cell] span. *)
let coordinates =
  [
    ("target", fun p -> Json.String p.target);
    ("defense", fun p -> Json.String (Campaign.name p.defense));
    ("sigma", fun p -> Json.Float p.sigma);
    ("budget", fun p -> Json.Int p.budget);
    ("condition", fun p -> Json.String (Campaign.condition_name p.condition));
    ("distinguisher", fun p -> Json.String p.distinguisher);
  ]

let columns =
  let on_point (name, f) =
    { name; get = (fun c -> f c.point); ok = (fun p _ j -> j = f p);
      why = "does not match the report's grid" }
  in
  let col name why ok get = { name; get; ok; why } in
  let number ok = function Json.Float x -> Float.is_finite x && ok x | _ -> false in
  let finite = number (fun _ -> true) in
  let int ok = function Json.Int i -> ok i | _ -> false in
  let int_opt ok = function Json.Null -> true | j -> int ok j in
  let opt = function Some d -> Json.Int d | None -> Json.Null in
  let disclosure p = int_opt (fun d -> d >= 1 && d <= p.budget) in
  let found e = int (fun k -> k >= 0 && k <= e) in
  List.map on_point coordinates
  @ [
    col "experiments" "is not the report's experiment count"
      (fun _ e -> ( = ) (Json.Int e))
      (fun c -> Json.Int c.outcome.experiments);
    col "success_rate" "is not a number in [0, 1]"
      (fun _ _ -> number (fun x -> x >= 0. && x <= 1.))
      (fun c -> Json.Float c.outcome.success_rate);
    col "guessing_entropy" "is not a number >= 1"
      (fun _ _ -> number (fun x -> x >= 1.))
      (fun c -> Json.Float c.outcome.guessing_entropy);
    col "ge_bits" "is not a finite number" (fun _ _ -> finite)
      (fun c -> Json.Float c.outcome.ge_bits);
    col "mtd" "is neither null nor in [1, budget]" (fun p _ -> disclosure p)
      (fun c -> opt c.outcome.mtd);
    col "mtd_found" "is not in [0, experiments]" (fun _ e -> found e)
      (fun c -> Json.Int c.outcome.mtd_found);
    col "mtd_conf" "is neither null nor in [1, budget]" (fun p _ -> disclosure p)
      (fun c -> opt c.outcome.mtd_conf);
    col "mtd_conf_found" "is not in [0, experiments]" (fun _ e -> found e)
      (fun c -> Json.Int c.outcome.mtd_conf_found);
    col "max_t1" "is not a finite number" (fun _ _ -> finite)
      (fun c -> Json.Float c.tvla.max_t1);
    col "max_t1_sample" "is not an integer" (fun _ _ -> int (fun _ -> true))
      (fun c -> Json.Int c.tvla.max_t1_sample);
    col "max_t2" "is not a finite number" (fun _ _ -> finite)
      (fun c -> Json.Float c.tvla.max_t2);
    col "rvr_max_t1" "is not a finite number" (fun _ _ -> finite)
      (fun c -> Json.Float c.tvla.rvr_max_t1);
    col "first_order_leak" "is not a boolean"
      (fun _ _ -> function Json.Bool _ -> true | _ -> false)
      (fun c -> Json.Bool (first_order_leak c));
    on_point ("overhead", fun p -> Json.Float (Campaign.overhead_factor p.defense));
    on_point ("dilution", fun p -> Json.Int (Campaign.dilution p.defense));
  ]

let run ?ctx:(c = Attack.Ctx.default ()) ?(targets = [ "falcon" ])
    ?(defenses = Campaign.all) ?(conditions = [ Campaign.baseline_condition ])
    ?(distinguishers = [ "pearson" ]) ?(progress = fun _ -> ())
    ~sigmas ~budgets ~experiments ~decoys ~seed () =
  let points =
    grid ~targets ~defenses ~sigmas ~budgets ~conditions ~distinguishers ~seed
  in
  let cells =
    List.map
      (fun p ->
        let ev = List.assoc p.target evaluators in
        let field = function
          | Json.Int i -> Obs.Int i
          | Json.Float x -> Obs.Float x
          | Json.String s -> Obs.Str s
          | j -> Obs.Str (Json.to_string j)
        in
        Obs.span c.Attack.Ctx.obs "matrix.cell"
          ~fields:(List.map (fun (name, f) -> (name, field (f p))) coordinates)
        @@ fun () ->
        (* the cell's label alone picks its distinguisher, whatever
           backend the caller's ctx carries *)
        let backend =
          if p.distinguisher = "profiled" then
            Attack.Distinguisher.Profiled
              (ev.clone c ~experiments ~seed:(p.seed + 4099) p)
          else Attack.Distinguisher.Pearson
        in
        let cell_ctx = Attack.Ctx.with_backend backend c in
        let outcome = ev.outcome cell_ctx ~experiments ~decoys p in
        let cell = { point = p; outcome; tvla = ev.assess c ~seed:(p.seed + 17) p } in
        progress cell;
        cell)
      points
  in
  { seed; experiments; decoys; targets; defenses; sigmas; budgets; conditions;
    distinguishers; cells }

(* {2 Serialisation} *)

let to_json r =
  let list f l = Json.List (List.map f l) in
  let str s = Json.String s in
  Json.Obj
    [
      ("schema", str schema);
      ("seed", Json.Int r.seed);
      ("experiments", Json.Int r.experiments);
      ("decoys", Json.Int r.decoys);
      ("targets", list str r.targets);
      ("defenses", list (fun d -> str (Campaign.name d)) r.defenses);
      ("sigmas", list (fun s -> Json.Float s) r.sigmas);
      ("budgets", list (fun b -> Json.Int b) r.budgets);
      ("conditions", list (fun c -> str (Campaign.condition_name c)) r.conditions);
      ("distinguishers", list str r.distinguishers);
      ( "cells",
        list (fun c -> Json.Obj (List.map (fun col -> (col.name, col.get c)) columns))
          r.cells );
    ]

let to_csv r =
  let field = function
    | Json.Float f -> Printf.sprintf "%g" f
    | Json.Int i -> string_of_int i
    | Json.String s -> s
    | Json.Bool b -> string_of_bool b
    | _ -> ""
  in
  let line l = String.concat "," l ^ "\n" in
  String.concat ""
    (line (List.map (fun col -> col.name) columns)
    :: List.map (fun c -> line (List.map (fun col -> field (col.get c)) columns)) r.cells)

(* {2 Schema validation} *)

let ( let* ) = Result.bind

let check cond msg = if cond then Ok () else Error msg

let field conv j key =
  match Option.map conv (Json.member key j) with
  | None -> Error (Printf.sprintf "report: missing field %S" key)
  | Some None -> Error (Printf.sprintf "report: field %S has the wrong type" key)
  | Some (Some x) -> Ok x

(* An axis of the report, each entry decoded by [conv]; a bad entry is
   an [Error], an empty axis is left to [grid]. *)
let axis conv j key =
  let* l = field Json.to_list_opt j key in
  List.fold_right
    (fun e acc ->
      let* xs = acc in
      match conv e with
      | Some x -> Ok (x :: xs)
      | None ->
          Error (Printf.sprintf "report: %s entry %s is not valid" key (Json.to_string e)))
    l (Ok [])

let validate_cell ~experiments i p j =
  List.fold_left
    (fun acc col ->
      let* () = acc in
      match Json.member col.name j with
      | None -> Error (Printf.sprintf "cell %d: missing field %S" i col.name)
      | Some v ->
          check (col.ok p experiments v)
            (Printf.sprintf "cell %d: field %S %s" i col.name col.why))
    (Ok ()) columns

let validate j =
  let* s = field Json.to_string_opt j "schema" in
  let* () = check (s = schema) (Printf.sprintf "report: schema %S, expected %S" s schema) in
  let* seed = field Json.to_int_opt j "seed" in
  let* experiments = field Json.to_int_opt j "experiments" in
  let* _ = field Json.to_int_opt j "decoys" in
  let named of_name e =
    Option.bind (Json.to_string_opt e) (fun s ->
        match of_name s with v -> Some v | exception Failure _ -> None)
  in
  let* targets = axis Json.to_string_opt j "targets" in
  let* defenses = axis (named Campaign.of_name) j "defenses" in
  let* sigmas = axis Json.to_number_opt j "sigmas" in
  let* budgets = axis Json.to_int_opt j "budgets" in
  let* conditions = axis (named Campaign.condition_of_name) j "conditions" in
  let* distinguishers = axis Json.to_string_opt j "distinguishers" in
  let* cells = field Json.to_list_opt j "cells" in
  let* points =
    match grid ~targets ~defenses ~sigmas ~budgets ~conditions ~distinguishers ~seed with
    | points -> Ok points
    | exception Invalid_argument msg -> Error ("report: " ^ msg)
  in
  let* () =
    check
      (List.length cells = List.length points)
      (Printf.sprintf "report: %d cells, grid is %d" (List.length cells)
         (List.length points))
  in
  List.fold_left
    (fun acc (i, (p, c)) ->
      let* () = acc in
      validate_cell ~experiments i p c)
    (Ok ())
    (List.mapi (fun i pc -> (i, pc)) (List.combine points cells))
