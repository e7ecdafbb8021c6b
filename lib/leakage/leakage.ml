type model = Tracestore.model_meta = {
  alpha : float;
  noise_sigma : float;
  baseline : float;
}

module Params = struct
  type t = model = { alpha : float; noise_sigma : float; baseline : float }

  let default = { alpha = 1.0; noise_sigma = 2.0; baseline = 10.0 }

  (* Malformed or non-finite overrides are ignored rather than fatal:
     an acquisition box with a stale FD_NOISE should fall back to the
     documented default, not crash the campaign. *)
  let env_float name fallback =
    match Sys.getenv_opt name with
    | None -> fallback
    | Some s -> (
        match float_of_string_opt (String.trim s) with
        | Some f when Float.is_finite f -> f
        | _ -> fallback)

  let of_env () =
    {
      alpha = env_float "FD_ALPHA" default.alpha;
      noise_sigma = env_float "FD_NOISE" default.noise_sigma;
      baseline = env_float "FD_BASELINE" default.baseline;
    }
end

let default_model = Params.default
let clean_model = { alpha = 1.0; noise_sigma = 0.0; baseline = 0.0 }

let events_per_mul = 16
let events_per_add = 3
let events_per_coeff = (4 * events_per_mul) + (2 * events_per_add)

let mul_event_order =
  [|
    Fpr.Load_x_lo; Fpr.Load_x_hi; Fpr.Load_y_lo; Fpr.Load_y_hi;
    Fpr.Mant_w00; Fpr.Mant_w10; Fpr.Mant_z1a; Fpr.Mant_w01; Fpr.Mant_z1;
    Fpr.Mant_w11; Fpr.Mant_zhigh; Fpr.Mant_norm; Fpr.Exp_sum; Fpr.Sign_xor;
    Fpr.Result_lo; Fpr.Result_hi;
  |]

let mul_event_offset label =
  let rec find i =
    if i >= Array.length mul_event_order then
      invalid_arg "Leakage.mul_event_offset: not a multiplication event"
    else if mul_event_order.(i) = label then i
    else find (i + 1)
  in
  find 0

let sample_of ~coeff ~mul label =
  assert (mul >= 0 && mul < 4);
  (coeff * events_per_coeff) + (mul * events_per_mul) + mul_event_offset label

(* {1 Register-transfer models} *)

module Register_file = struct
  type spec = {
    names : string array;
    widths : int array;
    schedule : Fpr.label -> int;
  }

  let check_spec spec =
    let k = Array.length spec.names in
    if k = 0 then invalid_arg "Leakage.Register_file: empty register file";
    if Array.length spec.widths <> k then
      invalid_arg "Leakage.Register_file: names/widths length mismatch";
    Array.iter
      (fun w ->
        if w < 1 || w > 64 then
          invalid_arg "Leakage.Register_file: register width outside [1, 64]")
      spec.widths

  (* One shared write-back bus: every intermediate crosses the same
     register, so the sample at event j leaks HD(v_{j-1}, v_j) — the
     transition between consecutive architecturally visible values.
     This is the register-transfer structure the HD hypothesis models in
     [Attack.Recover] are matched against. *)
  let bus = { names = [| "wb" |]; widths = [| 64 |]; schedule = (fun _ -> 0) }

  (* A split datapath: loads, multiplier output, accumulator, exponent
     adder, flags and result register each keep their own state, so a
     write leaks the distance to the *previous value of the same unit*
     (often a different coefficient's data).  Kept as an experimentation
     spec; the stock HD attack models assume [bus]. *)
  let datapath =
    {
      names = [| "ld_x"; "ld_y"; "mul"; "acc"; "exp"; "flag"; "res" |];
      widths = [| 64; 64; 64; 64; 32; 1; 64 |];
      schedule =
        (function
        | Fpr.Load_x_lo | Fpr.Load_x_hi -> 0
        | Fpr.Load_y_lo | Fpr.Load_y_hi -> 1
        | Fpr.Mant_w00 | Fpr.Mant_w10 | Fpr.Mant_w01 | Fpr.Mant_w11 -> 2
        | Fpr.Mant_z1a | Fpr.Mant_z1 | Fpr.Mant_zhigh | Fpr.Mant_norm
        | Fpr.Add_align | Fpr.Add_sum | Fpr.Add_norm -> 3
        | Fpr.Exp_sum -> 4
        | Fpr.Sign_xor -> 5
        | Fpr.Result_lo | Fpr.Result_hi -> 6);
    }

  type t = { spec : spec; regs : int array }

  let create spec =
    check_spec spec;
    { spec; regs = Array.make (Array.length spec.names) 0 }

  let reset t = Array.fill t.regs 0 (Array.length t.regs) 0

  let write t label value =
    let r = t.spec.schedule label in
    if r < 0 || r >= Array.length t.regs then
      invalid_arg "Leakage.Register_file.write: schedule index out of range";
    let w = t.spec.widths.(r) in
    let v = if w >= 63 then value else value land ((1 lsl w) - 1) in
    let hd = Bitops.popcount (t.regs.(r) lxor v) in
    t.regs.(r) <- v;
    hd
end

module Pipeline = struct
  type stage = { latency : int; weight : float }
  type t = stage array

  (* Three co-resident stages: the architectural write plus two trailing
     pipeline registers re-driving the value at decaying amplitude. *)
  let default =
    [|
      { latency = 0; weight = 1.0 };
      { latency = 1; weight = 0.5 };
      { latency = 2; weight = 0.25 };
    |]

  let check t =
    if Array.length t = 0 then invalid_arg "Leakage.Pipeline: empty pipeline";
    Array.iter
      (fun s ->
        if s.latency < 0 then invalid_arg "Leakage.Pipeline: negative latency";
        if not (Float.is_finite s.weight) then
          invalid_arg "Leakage.Pipeline: non-finite stage weight")
      t

  (* Each output sample is the weighted sum of the leakage of every
     stage resident at that clock: out[j] = sum_s w_s * in[j - lat_s]
     (stages that have not produced data yet contribute nothing). *)
  let mix t signal =
    check t;
    let len = Array.length signal in
    Array.init len (fun j ->
        Array.fold_left
          (fun acc s ->
            let k = j - s.latency in
            if k >= 0 then acc +. (s.weight *. signal.(k)) else acc)
          0. t)
end

type jitter = { max_shift : int; drift : float }

let no_jitter = { max_shift = 0; drift = 0.0 }

type kind =
  | Hw
  | Hd of Register_file.spec
  | Pipelined of Register_file.spec * Pipeline.t

type emitter = { kind : kind; jitter : jitter }

let default_emitter = { kind = Hw; jitter = no_jitter }
let hd_emitter = { kind = Hd Register_file.bus; jitter = no_jitter }

let pipelined_emitter =
  { kind = Pipelined (Register_file.bus, Pipeline.default); jitter = no_jitter }

let check model e =
  if not (Float.is_finite model.alpha && Float.is_finite model.baseline) then
    invalid_arg "Leakage: alpha and baseline must be finite";
  if not (Float.is_finite model.noise_sigma && model.noise_sigma >= 0.) then
    invalid_arg
      (Printf.sprintf "Leakage: noise sigma must be finite and >= 0 (got %g)"
         model.noise_sigma);
  (match e.kind with
  | Hw -> ()
  | Hd spec -> Register_file.check_spec spec
  | Pipelined (spec, pipe) ->
      Register_file.check_spec spec;
      Pipeline.check pipe);
  if e.jitter.max_shift < 0 then
    invalid_arg "Leakage: negative jitter max_shift";
  if (not (Float.is_finite e.jitter.drift)) || e.jitter.drift < 0. then
    invalid_arg "Leakage: jitter drift must be finite and non-negative"

(* Per-trace acquisition distortion.  A knob that is off consumes no RNG
   draws, so an emitter with [no_jitter] leaves the noise stream — and
   therefore every rendered sample — untouched. *)
let draw_jitter jitter rng =
  let offset =
    if jitter.max_shift > 0 then
      Stats.Rng.int_below rng ((2 * jitter.max_shift) + 1) - jitter.max_shift
    else 0
  in
  let drift =
    if jitter.drift > 0. then
      ((Stats.Rng.float01 rng *. 2.) -. 1.) *. jitter.drift
    else 0.
  in
  (offset, drift)

(* The probe sampled clock j while the device was at clock j - s(j),
   s(j) = offset + round(drift * j): a constant phase offset plus a
   linear clock-frequency error.  Samples displaced past the trace
   boundary see no signal (baseline + noise only). *)
let misalign ~offset ~drift signal =
  if offset = 0 && drift = 0. then signal
  else
    let len = Array.length signal in
    Array.init len (fun j ->
        let s = offset + int_of_float (Float.round (drift *. float_of_int j)) in
        let k = j - s in
        if k >= 0 && k < len then signal.(k) else 0.)

(* The one place a simulated sample is drawn: the jitter draw comes
   first, then one gaussian per sample in sample order. *)
let render model jitter rng signal =
  let offset, drift = draw_jitter jitter rng in
  let s = misalign ~offset ~drift signal in
  for j = 0 to Array.length s - 1 do
    s.(j) <- model.baseline +. (model.alpha *. s.(j))
  done;
  Stats.Rng.add_gaussian rng ~mu:0. ~sigma:model.noise_sigma s;
  s

let hw_trace model rng values =
  render model no_jitter rng
    (Array.map (fun v -> float_of_int (Bitops.popcount v)) values)

let mul_values ~known ~secret =
  let out = Array.make events_per_mul 0 in
  let i = ref 0 in
  let emit (e : Fpr.event) =
    out.(!i) <- e.value;
    incr i
  in
  ignore (Fpr.mul_emit ~emit known secret);
  assert (!i = events_per_mul);
  out

let bus_hd values =
  let prev = ref 0 in
  Array.map
    (fun v ->
      let hd = Bitops.popcount (!prev lxor v) in
      prev := v;
      hd)
    values

let mul_trace model rng ~known ~secret =
  hw_trace model rng (mul_values ~known ~secret)

type trace = {
  samples : float array;
  c_fft : Fft.t;
  msg : string;
  signature : Falcon.Scheme.signature;
}

let capture_stream ?(emitter = default_emitter) model ~seed
    (sk : Falcon.Scheme.secret_key) =
  check model emitter;
  (* The probe state (noise RNG, register file) and the victim's signer
     RNG live across calls, so an acquisition campaign can pull traces
     one at a time — appending each to an out-of-core store — and still
     produce exactly the stream a single batch capture would. *)
  let noise_rng = Stats.Rng.create ~seed in
  let signer_rng = Prng.of_seed (Printf.sprintf "victim signer %d" seed) in
  let file =
    match emitter.kind with
    | Hw -> None
    | Hd spec | Pipelined (spec, _) -> Some (Register_file.create spec)
  in
  let n = sk.params.n in
  let next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    let msg = Printf.sprintf "message %d-%d" seed i in
    let signal = Array.make (n * events_per_coeff) 0. in
    let pos = Array.make n 0 in
    Option.iter Register_file.reset file;
    let emit k (e : Fpr.event) =
      (* Events of coefficient k arrive in mul0..mul3, add0, add1 order;
         since Fft.mul_emit processes one coefficient at a time, a
         per-coefficient cursor places them.  Each event's leakage goes
         straight into the signal: its HW, or the register-file
         transition it causes, replayed in arrival order. *)
      if pos.(k) < events_per_coeff then begin
        signal.((k * events_per_coeff) + pos.(k)) <-
          float_of_int
            (match file with
            | None -> Bitops.popcount e.value
            | Some file -> Register_file.write file e.label e.value);
        pos.(k) <- pos.(k) + 1
      end
    in
    let signature, c_fft =
      Falcon.Scheme.sign_observed ~emit_cf:emit ~rng:signer_rng sk msg
    in
    let signal =
      match emitter.kind with
      | Pipelined (_, pipe) -> Pipeline.mix pipe signal
      | Hw | Hd _ -> signal
    in
    { samples = render model emitter.jitter noise_rng signal; c_fft; msg; signature }

let capture ?emitter model ~seed sk ~count =
  let next = capture_stream ?emitter model ~seed sk in
  Array.init count (fun _ -> next ())

let to_record t =
  {
    Tracestore.msg = t.msg;
    salt = t.signature.Falcon.Scheme.salt;
    body = t.signature.Falcon.Scheme.body;
    samples = t.samples;
  }

let raw_of_record (r : Tracestore.record) =
  (* non-FALCON targets keep their known operand in [msg]; there is no
     FFT(c) to recompute, so the field stays empty rather than lying *)
  {
    samples = r.samples;
    c_fft = { Fft.re = [||]; im = [||] };
    msg = r.msg;
    signature = { Falcon.Scheme.salt = r.salt; body = r.body };
  }

let of_record ~n (r : Tracestore.record) =
  (* the known input FFT(c) is recomputed from the stored public salt
     and message — exactly the information a real adversary keeps *)
  let c = Falcon.Hash.to_point ~n (r.salt ^ r.msg) in
  {
    samples = r.samples;
    c_fft = Fft.fft_of_int c;
    msg = r.msg;
    signature = { Falcon.Scheme.salt = r.salt; body = r.body };
  }
