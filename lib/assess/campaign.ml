type defense = [ `None | `Masking | `Shuffle ]

let all = [ `None; `Masking; `Shuffle ]

let name = function
  | `None -> "none"
  | `Masking -> "masking"
  | `Shuffle -> "shuffle"

let of_name = function
  | "none" -> `None
  | "masking" -> `Masking
  | "shuffle" -> `Shuffle
  | s -> failwith (Printf.sprintf "Assess.Campaign: unknown defense %S" s)

let width = function
  | `Masking -> Defense.Masking.events_per_mul
  | `None | `Shuffle -> Leakage.events_per_mul

let overhead_factor = function
  | `Masking -> Defense.Masking.overhead_factor
  | `None | `Shuffle -> 1.0

let dilution = function `Shuffle -> Defense.Shuffle.dilution | `None | `Masking -> 1

let assessed_region = function
  | `None -> (2, 11)
  | `Shuffle -> (4, 9)
  | `Masking -> (0, 13)

let share_pairs = function
  | `Masking -> [| (2, 8); (3, 9); (4, 10); (5, 11); (6, 12); (7, 13) |]
  | `None | `Shuffle -> [||]

let attack_window defense samples =
  match defense with
  | `Masking -> Array.sub samples 0 Leakage.events_per_mul
  | `None | `Shuffle -> samples

let values defense rng ~known ~secret =
  match defense with
  | `None -> Leakage.mul_values ~known ~secret
  | `Masking -> Defense.Masking.values rng ~known ~secret
  | `Shuffle -> Defense.Shuffle.values rng ~known ~secret

(* {2 Acquisition conditions}

   The model x alignment axis of the evaluation matrix: which device
   model renders the intermediates (idealized Hamming weight vs bus
   Hamming distance), whether the probe clock jitters, and whether the
   analysis realigns the campaign before attacking. *)

type condition = {
  kind : [ `Hw | `Hd ];
  jitter : Leakage.jitter;
  realign : bool;
}

let baseline_condition =
  { kind = `Hw; jitter = Leakage.no_jitter; realign = false }

let default_jitter = { Leakage.max_shift = 2; drift = 0. }

let standard_conditions =
  [
    baseline_condition;
    { kind = `Hd; jitter = Leakage.no_jitter; realign = false };
    { kind = `Hd; jitter = default_jitter; realign = false };
    { kind = `Hd; jitter = default_jitter; realign = true };
  ]

let condition_name c =
  let kind = match c.kind with `Hw -> "hw" | `Hd -> "hd" in
  kind
  ^ (if c.jitter <> Leakage.no_jitter then "+jitter" else "")
  ^ if c.realign then "+realign" else ""

let condition_of_name s =
  let fail () =
    failwith (Printf.sprintf "Assess.Campaign: unknown condition %S" s)
  in
  match String.split_on_char '+' s with
  | kind :: mods ->
      let kind =
        match kind with "hw" -> `Hw | "hd" -> `Hd | _ -> fail ()
      in
      let c = { baseline_condition with kind } in
      List.fold_left
        (fun c m ->
          match m with
          | "jitter" -> { c with jitter = default_jitter }
          | "realign" -> { c with realign = true }
          | _ -> fail ())
        c mods
  | [] -> fail ()

let trace_under condition defense model rng ~known ~secret =
  let vals = values defense rng ~known ~secret in
  let signal =
    match condition.kind with
    | `Hw -> Array.map (fun v -> float_of_int (Bitops.popcount v)) vals
    | `Hd -> Array.map float_of_int (Leakage.bus_hd vals)
  in
  Leakage.render model condition.jitter rng signal

let m25 = (1 lsl 25) - 1

let random_operand rng =
  let sign = Stats.Rng.bits rng 1 in
  let exp = 1015 + Stats.Rng.int_below rng 16 in
  let mant = (Stats.Rng.bits rng 26 lsl 26) lor Stats.Rng.bits rng 26 in
  Fpr.make ~sign ~exp ~mant

let rec secret_operand rng =
  let v = random_operand rng in
  if Fpr.mantissa v land m25 = 0 then secret_operand rng else v

type cls = Fixed | Random
type entry = { cls : cls; known : Fpr.t; samples : float array }

let noise_model noise = { Leakage.default_model with noise_sigma = noise }

let stream ?(p_fixed = 0.5) ?(condition = baseline_condition) defense ~noise
    ~secret ~seed =
  if noise <= 0. then invalid_arg "Assess.Campaign: noise_sigma must be positive";
  let model = noise_model noise in
  let rng = Stats.Rng.create ~seed in
  fun () ->
    let cls = if Stats.Rng.float01 rng < p_fixed then Fixed else Random in
    let known = random_operand rng in
    let secret = match cls with Fixed -> secret | Random -> random_operand rng in
    { cls; known; samples = trace_under condition defense model rng ~known ~secret }

let iter ?p_fixed ?condition defense ~noise ~secret ~count ~seed f =
  let next = stream ?p_fixed ?condition defense ~noise ~secret ~seed in
  if count < 0 then invalid_arg "Assess.Campaign: negative trace count";
  for _ = 1 to count do
    f (next ())
  done

let generate ?p_fixed ?condition defense ~noise ~secret ~count ~seed =
  let acc = ref [] in
  iter ?p_fixed ?condition defense ~noise ~secret ~count ~seed (fun e ->
      acc := e :: !acc);
  Array.of_list (List.rev !acc)

(* {2 Analysis-side realignment}

   The realign half of a condition.  A 16-sample multiplication window
   carries too little landscape for blind cross-correlation — per-trace
   data deviations swamp the mean-trace shape — but the undefended
   window's first two samples load the known operand, whose predicted
   levels pin each trace's absolute offset: a matched template.
   Masked campaigns load random shares and shuffled campaigns scramble
   the event order per trace, so no static template exists; those fall
   back to blind two-pass realignment, which honestly fails — breaking
   static alignment is part of why the countermeasures work. *)

let load_template condition ~known =
  let vals = Leakage.mul_values ~known ~secret:known in
  let p0, p1 =
    match condition.kind with
    | `Hw -> (Bitops.popcount vals.(0), Bitops.popcount vals.(1))
    | `Hd -> (Bitops.popcount vals.(0), Bitops.popcount (vals.(0) lxor vals.(1)))
  in
  let level p =
    Leakage.default_model.Leakage.baseline
    +. (Leakage.default_model.Leakage.alpha *. float_of_int p)
  in
  [| (0, level p0); (1, level p1) |]

let realign_entries ?ctx condition defense entries =
  if (not condition.realign) || Array.length entries = 0 then
    (entries, Align.zero_stats)
  else begin
    let max_shift = condition.jitter.Leakage.max_shift in
    let fill = Leakage.default_model.Leakage.baseline in
    let rows = Array.map (fun e -> e.samples) entries in
    let rows, st =
      match defense with
      | `None ->
          let templates =
            Array.map (fun e -> load_template condition ~known:e.known) entries
          in
          Align.realign_matched ?ctx ~max_shift ~fill ~templates rows
      | `Masking | `Shuffle -> Align.realign_rows ?ctx ~max_shift ~fill rows
    in
    (Array.map2 (fun e samples -> { e with samples }) entries rows, st)
  end

(* {2 Store codec} *)

let bits_to_salt (x : Fpr.t) =
  String.init 8 (fun i ->
      Char.chr
        (Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * (7 - i))) 0xFFL)))

let salt_to_bits s =
  if String.length s <> 8 then
    failwith
      (Printf.sprintf
         "Assess.Campaign: salt field holds %d bytes, expected the 8-byte \
          known-operand encoding"
         (String.length s));
  let v = ref 0L in
  String.iter
    (fun c -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c)))
    s;
  !v

let to_record e =
  {
    Tracestore.msg = (match e.cls with Fixed -> "F" | Random -> "R");
    salt = bits_to_salt e.known;
    body = "";
    samples = e.samples;
  }

let of_record (r : Tracestore.record) =
  let cls =
    match r.Tracestore.msg with
    | "F" -> Fixed
    | "R" -> Random
    | m ->
        failwith
          (Printf.sprintf
             "Assess.Campaign: record class tag %S (expected \"F\" or \"R\")" m)
  in
  { cls; known = salt_to_bits r.Tracestore.salt; samples = r.Tracestore.samples }

(* {2 Sidecar}

   The trace store is attack-agnostic; the assessment-specific facts — which
   countermeasure produced the traces, the fixed-class secret, the campaign
   seed — ride in a small text sidecar next to the manifest, like the
   key-file sidecars of the CLI workflows. *)

let sidecar_name = "assess.fda"
let sidecar_magic = "falcon-down-assess v1"

let write_sidecar ~dir defense ~secret ~seed =
  let path = Filename.concat dir sidecar_name in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\ndefense %s\nsecret %016Lx\nseed %d\n" sidecar_magic
        (name defense) secret seed)

let read_sidecar dir =
  let path = Filename.concat dir sidecar_name in
  let ic =
    try open_in path
    with Sys_error _ ->
      failwith
        (Printf.sprintf
           "Assess.Campaign: %s is not an assessment campaign (missing %s)" dir
           sidecar_name)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line what =
        try input_line ic
        with End_of_file ->
          failwith (Printf.sprintf "Assess.Campaign: sidecar truncated before %s" what)
      in
      let field what l =
        let prefix = what ^ " " in
        let pl = String.length prefix in
        if String.length l > pl && String.sub l 0 pl = prefix then
          String.sub l pl (String.length l - pl)
        else
          failwith
            (Printf.sprintf "Assess.Campaign: sidecar line %S, expected \"%s ...\"" l
               what)
      in
      let magic = line "magic" in
      if magic <> sidecar_magic then
        failwith
          (Printf.sprintf "Assess.Campaign: sidecar magic %S, expected %S" magic
             sidecar_magic);
      let defense = of_name (field "defense" (line "defense")) in
      let secret =
        let s = field "secret" (line "secret") in
        match Int64.of_string_opt ("0x" ^ s) with
        | Some v -> v
        | None -> failwith (Printf.sprintf "Assess.Campaign: bad secret field %S" s)
      in
      let seed =
        let s = field "seed" (line "seed") in
        match int_of_string_opt s with
        | Some v -> v
        | None -> failwith (Printf.sprintf "Assess.Campaign: bad seed field %S" s)
      in
      (defense, secret, seed))

let record_store ?p_fixed ~dir defense ~noise ~secret ~count ~seed ~shard_traces () =
  let next = stream ?p_fixed defense ~noise ~secret ~seed in
  if count < 0 then invalid_arg "Assess.Campaign: negative trace count";
  Attack.Target.record ~ctx:(Attack.Ctx.default ()) ~traces:count
    (Tracestore.Writer.create ~dir ~n:2 ~width:(width defense) ~shard_traces
       ~model:(noise_model noise))
    (fun () -> to_record (next ()));
  write_sidecar ~dir defense ~secret ~seed

let open_store dir =
  let defense, secret, seed = read_sidecar dir in
  let reader = Tracestore.Reader.open_store dir in
  let meta = Tracestore.Reader.meta reader in
  if meta.Tracestore.width <> width defense then
    failwith
      (Printf.sprintf
         "Assess.Campaign: store width %d does not match defense %s (%d samples)"
         meta.Tracestore.width (name defense) (width defense));
  (defense, secret, seed, reader)

let seq_of_store reader = Seq.map of_record (Tracestore.Reader.to_seq reader)
