type view = {
  traces : float array array;
  known : Fpr.t array;
}

let sample = Leakage.mul_event_offset

let sub_view traces ~coeff ~mul =
  let lo = (coeff * Leakage.events_per_coeff) + (mul * Leakage.events_per_mul) in
  let window (t : Leakage.trace) = Array.sub t.samples lo Leakage.events_per_mul in
  let known_of (t : Leakage.trace) =
    (* multiplication order in Fft.mul_emit: (c.re f.re), (c.im f.im),
       (c.re f.im), (c.im f.re) — the known operand is the c component *)
    match mul with
    | 0 | 2 -> t.c_fft.Fft.re.(coeff)
    | 1 | 3 -> t.c_fft.Fft.im.(coeff)
    | _ -> invalid_arg "Recover.sub_view: mul must be in 0..3"
  in
  { traces = Array.map window traces; known = Array.map known_of traces }

let views_for traces ~coeff ~component =
  (* each secret component of FFT(f) enters two real multiplications:
     f_re in (c_re x f_re) and (c_im x f_re); f_im in (c_im x f_im) and
     (c_re x f_im) *)
  match component with
  | `Re -> [ sub_view traces ~coeff ~mul:0; sub_view traces ~coeff ~mul:3 ]
  | `Im -> [ sub_view traces ~coeff ~mul:1; sub_view traces ~coeff ~mul:2 ]

let m25 = (1 lsl 25) - 1

let b25 y = (Fpr.mantissa y lor (1 lsl 52)) land m25
let a28 y = (Fpr.mantissa y lor (1 lsl 52)) lsr 25

(* ---- the attacked multiplier's events ----

   In the attacked multiply the known FFT(c) value is the first operand
   and the secret the second: B/A are the known low/high significand
   halves, the guess is D (secret low 25) or E (secret high 28).  Each
   event [Fpr.mul_emit] emits is written once below, in its order
   ({!Leakage.mul_event_order}), as a function of the guessed half and
   a small integer digest of the known operand; the test suite checks
   each against the emitter.  Every model is read off them: a
   Hamming-weight model is its event, a bus Hamming-distance model
   ({!Leakage.Register_file.bus}: sample j leaks HW(v_(j-1) lxor v_j))
   its event XOR the event before it, so it stays exact.  A model
   touches the known operand only through its digest, so it is a
   {!Hypothesis.Model.Split}: [prep] digests the operand once per sweep,
   [eval] runs the candidate loop on plain ints inside the fused kernel;
   the four partial products are {!Hypothesis.Model.Product}s, which
   the kernel multiplies inline.

   Every eval names the events it reads: ocamlopt without flambda
   inlines a known function of the same module, but neither one passed
   as a closure argument (a generic [hd prev cur] made the HD extend
   and prune ~1.7x slower) nor, under dune's [-opaque] dev profile, one
   of another module. *)

(* The 32-bit words of a value: the loads Load_x_lo and Load_x_hi of the
   known operand (the secret's loads read both guessed halves and have
   no model), and Result_lo of the result. *)
let word_lo y = Int64.to_int (Int64.logand y 0xFFFFFFFFL)
let word_hi y = Int64.to_int (Int64.shift_right_logical y 32)

(* B and A packed into one word: B is 25 bits, A is 28, total 53 < 63. *)
let pack_ba y = b25 y lor (a28 y lsl 25)

(* The low phase, guess D, digest [pack_ba]. *)
let[@inline] ev_w00 d p = d * (p land m25)
let[@inline] ev_w10 d p = d * (p lsr 25)
let[@inline] ev_z1a d p = (ev_w00 d p lsr 25) + (ev_w10 d p land m25)

(* The high phase, guess E given the recovered D, digest [pack_ba]; its
   first predecessor is the low phase's z1a. *)
let[@inline] ev_w01 e p = e * (p land m25)
let[@inline] ev_z1 ~d e p = ev_z1a d p + (ev_w01 e p land m25)
let[@inline] ev_w11 e p = e * (p lsr 25)

let[@inline] ev_zhigh ~d e p =
  ev_w11 e p + (ev_w01 e p lsr 25) + (ev_w10 d p lsr 25) + (ev_z1 ~d e p lsr 25)

(* The tail, given the recovered mantissa (D and E).  Mant_norm: the
   normalised 55-bit product with its sticky bit, digest [pack_ba]. *)
let ev_mant_norm ~d ~e p =
  let zhigh = ev_zhigh ~d e p in
  let sticky = if (ev_w00 d p land m25) lor (ev_z1 ~d e p land m25) <> 0 then 1 else 0 in
  (if zhigh >= 1 lsl 55 then (zhigh lsr 1) lor (zhigh land 1) else zhigh) lor sticky

(* Exp_sum: e = ex + ey - 2100 as its 32-bit two's complement, guess the
   secret's biased exponent ex, digest the known one ey.  Sign_xor:
   guess the secret's sign bit, digest the known one. *)
let[@inline] ev_exp_sum ex ey = (ex + ey - 2100) land 0xFFFFFFFF
let[@inline] ev_sign_xor s sy = s lxor sy

(* The stored result r.  Its significand does not depend on the guessed
   sign and exponent: [product ~mant y] multiplies the known operand by
   the secret significand at exponent 1023, which rounds the same
   significands, so Result_lo is its low word, and its exponent is the
   known one's plus the normalisation carry, [delta] = its biased
   exponent - 1023.  Result_hi's three fields are disjoint bits: the
   sign (bit 31), the exponent (bits 20-30) and the top 20 bits of the
   result's mantissa, [hi20] (bits 0-19). *)
let product ~mant =
  let x0 = Fpr.make ~sign:0 ~exp:1023 ~mant in
  fun y -> Fpr.mul x0 y

let[@inline] ev_result_hi s ex ~sy ~delta ~hi20 =
  ((ev_sign_xor s sy lsl 31) lor (((ex + delta) land 0x7FF) lsl 20) lor hi20)
  land 0xFFFFFFFF

(* ---- Hamming-weight models: each is its event ---- *)

let p_sign = Hypothesis.Model.split ~prep:Fpr.sign_bit ~eval:ev_sign_xor
let p_exp = Hypothesis.Model.split ~prep:Fpr.biased_exponent ~eval:ev_exp_sum
let p_w00 = Hypothesis.Model.product b25
let p_w10 = Hypothesis.Model.product a28
let p_w01 = Hypothesis.Model.product b25
let p_w11 = Hypothesis.Model.product a28
let p_z1a = Hypothesis.Model.split ~prep:pack_ba ~eval:ev_z1a
let p_z1 ~d = Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p -> ev_z1 ~d e p)
let p_zhigh ~d = Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p -> ev_zhigh ~d e p)

type leakage = [ `Hw | `Hd ]

(* ---- joint machinery over one or several windows ----

   A combined problem concatenates the windows of every view and indexes
   traces by position; per-view stage models are precomposed with that
   view's known-operand lookup ({!Hypothesis.Model.contramap}), so split
   models stay split across the index indirection. *)

(* The trace count every view shares.  Views of different lengths
   would lose a longer view's extra traces or index past a shorter
   one's end, so they are refused. *)
let trace_count who views =
  let counts = List.map (fun v -> Array.length v.traces) views in
  match counts with
  | [] -> invalid_arg (who ^ ": no views")
  | d :: rest ->
      if List.exists (( <> ) d) rest then
        invalid_arg
          (Printf.sprintf "%s: views hold different trace counts (%s)" who
             (String.concat ", " (List.map string_of_int counts)));
      d

let combine views =
  let d = trace_count "Recover.combine" views in
  let traces =
    Array.init d (fun i -> Array.concat (List.map (fun v -> v.traces.(i)) views))
  in
  (traces, Array.init d (fun i -> i))

let spread_parts views stage =
  List.concat
    (List.mapi
       (fun j v ->
         List.map
           (fun (lbl, m) ->
             ( (j * Leakage.events_per_mul) + sample lbl,
               Hypothesis.Model.contramap (fun i -> v.known.(i)) m ))
           stage)
       views)

(* The narrow form of [combine], for a stage that reads few samples:
   per trace, the samples at [labels] of every view, view by view. *)
let gather views labels =
  let samples = Array.of_list (List.map sample labels) in
  let windows = Array.of_list (List.map (fun v -> v.traces) views) in
  let width = Array.length samples and nv = Array.length windows in
  Array.init (trace_count "Recover.gather" views) (fun i ->
      let row = Array.create_float (nv * width) in
      for j = 0 to nv - 1 do
        let w = windows.(j).(i) in
        for k = 0 to width - 1 do
          row.((j * width) + k) <- w.(samples.(k))
        done
      done;
      row)

let attack_sign v =
  let col = Array.map (fun t -> t.(sample Fpr.Sign_xor)) v.traces in
  let h = Dema.hyp_vector ~model:p_sign ~known:v.known 1 in
  let r1 = Stats.Pearson.corr h col in
  (* guess 0 produces the complementary vector, r0 = -r1; the correct
     guess correlates positively *)
  if r1 >= 0. then (1, r1) else (0, -.r1)

(* Exponent recovery needs more than the raw e = ex + ey - 2100 register:
   over the narrow exponent spread of FFT(c) values, many wrong exponents
   produce Hamming-weight sequences affinely equivalent to the right one.
   The store of the result's high word disambiguates once the mantissa
   and sign are known — that is why the divide-and-conquer runs the
   mantissa first.  Its Hamming weight is exactly the weight of the
   guessed sign and exponent fields plus HW(hi20), and hi20 is fixed per
   trace by the recovered mantissa.  The HW high-word model therefore
   digests only what the guessed fields read: [prep_hi] packs the
   operand's exponent carry (delta + 2048, 12 bits) over its sign bit —
   a few dozen values over a campaign — and [sign_exponent_multi] takes
   the guess-free alpha * HW(hi20) out of the Result_hi column before
   ranking. *)
let prep_hi ~mant =
  let product = product ~mant in
  fun y -> ((Fpr.biased_exponent (product y) - 1023 + 2048) lsl 1) lor Fpr.sign_bit y

let hi20 ~mant =
  let product = product ~mant in
  fun y -> Fpr.mantissa (product y) lsr 32

(* Hypotheses e and e + 64k predict Hamming weights that differ by a
   per-trace constant over the narrow FFT(c) exponent spread, so Pearson
   cannot separate them (correlation is shift-invariant).  The magnitude
   prior breaks the tie: |FFT(f)_k| <= n * 127 < 2^33 and is essentially
   never below 2^-31, so exactly one member of each 64-spaced tie class
   lies in the 64-wide biased-exponent window [992, 1056). *)
let exponent_window = Seq.init 64 (fun i -> 992 + i)

(* Calibration regresses samples on the known operand's load events:
   their weights under HW, the low word's transition into the high word
   under bus HD. *)
let calibration_points = function
  | `Hw -> [ (Fpr.Load_x_lo, word_lo); (Fpr.Load_x_hi, word_hi) ]
  | `Hd -> [ (Fpr.Load_x_hi, fun y -> word_lo y lxor word_hi y) ]

(* Per-view calibration on the known-operand load events,
   averaged over the views whose fitted alpha sits within tolerance of
   the largest.  The load samples sit at the very start of the first
   multiplication window, so for the first coefficient they are the
   samples clock jitter pushes past the trace edge; realignment refills
   them with a flat level, and traces carrying no signal at the
   calibration sample can only flatten the fitted slope.  Contamination
   thus biases alpha strictly downward — views attenuated well below
   the best are dropped — while on clean captures every view agrees,
   all pass the tolerance, and the result is the plain mean over all
   views (arithmetic identical to the historical behaviour, so clean
   HW attacks are bit-for-bit unchanged).  Deterministic fold order, so
   results stay bit-identical across jobs.  [traces] holds the views'
   samples side by side, and [at j label] is the column of view [j]'s
   sample at [label]. *)
let calibrate_views ~leakage ~traces ~at views =
  let als =
    List.mapi
      (fun j v ->
        Calibrate.estimate ~traces ~known:v.known
          (List.map (fun (lbl, word) -> (at j lbl, word)) (calibration_points leakage)))
      views
  in
  let amax = List.fold_left (fun acc (a, _) -> Float.max acc a) neg_infinity als in
  let keep = List.filter (fun (a, _) -> a >= 0.9 *. amax) als in
  let nf = float_of_int (List.length keep) in
  ( List.fold_left (fun acc (a, _) -> acc +. a) 0. keep /. nf,
    List.fold_left (fun acc (_, b) -> acc +. b) 0. keep /. nf )

(* The joint sign/exponent stage on one view, as (label, model) parts
   over the view's trace index.  The 12-bit joint guess g packs
   (sign << 11) | exponent.  Under HW the parts are the Exp_sum,
   Sign_xor and Result_hi events, split models over the operand's
   digests.  Under bus HD they are the Exp_sum, Sign_xor, Result_lo and
   Result_hi transitions, each from its predecessor: the predecessors
   Mant_norm and Result_lo and the result's fields are guess-free, so
   they are computed once per trace and each part is a plain model,
   one class per trace. *)
let sign_exponent_parts ~leakage ~mant known =
  match (leakage : leakage) with
  | `Hw ->
      List.map
        (fun (lbl, m) -> (lbl, Hypothesis.Model.contramap (fun i -> known.(i)) m))
        [
          ( Fpr.Exp_sum,
            Hypothesis.Model.split ~prep:Fpr.biased_exponent ~eval:(fun g ey ->
                ev_exp_sum (g land 0x7FF) ey) );
          ( Fpr.Sign_xor,
            Hypothesis.Model.split ~prep:Fpr.sign_bit ~eval:(fun g sy ->
                ev_sign_xor (g lsr 11) sy) );
          ( Fpr.Result_hi,
            Hypothesis.Model.split ~prep:(prep_hi ~mant) ~eval:(fun g p ->
                ev_result_hi (g lsr 11) (g land 0x7FF) ~sy:(p land 1)
                  ~delta:((p lsr 1) - 2048) ~hi20:0) );
        ]
  | `Hd ->
      let xu = mant lor (1 lsl 52) in
      let d = xu land m25 and e = xu lsr 25 in
      let r = Array.map (product ~mant) known in
      let norm = Array.map (fun y -> ev_mant_norm ~d ~e (pack_ba y)) known in
      let ey = Array.map Fpr.biased_exponent known and sy = Array.map Fpr.sign_bit known in
      let lo = Array.map word_lo r in
      let delta = Array.map (fun r -> Fpr.biased_exponent r - 1023) r in
      let hi20 = Array.map (fun r -> Fpr.mantissa r lsr 32) r in
      [
        ( Fpr.Exp_sum,
          Hypothesis.Model.fn (fun g i -> norm.(i) lxor ev_exp_sum (g land 0x7FF) ey.(i)) );
        ( Fpr.Sign_xor,
          Hypothesis.Model.fn (fun g i ->
              ev_exp_sum (g land 0x7FF) ey.(i) lxor ev_sign_xor (g lsr 11) sy.(i)) );
        ( Fpr.Result_lo,
          Hypothesis.Model.fn (fun g i -> ev_sign_xor (g lsr 11) sy.(i) lxor lo.(i)) );
        ( Fpr.Result_hi,
          Hypothesis.Model.fn (fun g i ->
              lo.(i)
              lxor ev_result_hi (g lsr 11) (g land 0x7FF) ~sy:sy.(i) ~delta:delta.(i)
                     ~hi20:hi20.(i)) );
      ]

let sign_exponent_multi ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ~mant views =
  Obs.span c.Ctx.obs "recover.sign_exponent"
    ~fields:[ ("views", Obs.Int (List.length views)) ]
  @@ fun () ->
  let candidates =
    Seq.concat_map (fun e -> List.to_seq [ e; (1 lsl 11) lor e ]) exponent_window
  in
  let stages = List.map (fun v -> sign_exponent_parts ~leakage ~mant v.known) views in
  (* one pass over the windows reads every sample the stage uses: the
     calibration loads and the parts' own samples *)
  let labels =
    List.map fst (calibration_points leakage)
    @ match stages with s :: _ -> List.map fst s | [] -> []
  in
  let traces = gather views labels in
  let at j lbl = (j * List.length labels) + Option.get (List.find_index (( = ) lbl) labels) in
  let alpha, baseline = calibrate_views ~leakage ~traces ~at views in
  (* the high word's hi20 field is guess-free: under HW its alpha-scaled
     weight leaves the Result_hi column of [gather]'s fresh rows *)
  (match (leakage : leakage) with
  | `Hw ->
      let hi20 = hi20 ~mant in
      List.iteri
        (fun j v ->
          let col = at j Fpr.Result_hi in
          Array.iteri
            (fun i row ->
              row.(col) <-
                row.(col) -. (alpha *. float_of_int (Bitops.popcount (hi20 v.known.(i)))))
            traces)
        views
  | `Hd -> ());
  let parts =
    List.concat (List.mapi (fun j stage -> List.map (fun (lbl, m) -> (at j lbl, m)) stage) stages)
  in
  let ranked =
    Dema.rank_absolute ~ctx:c ~traces ~parts
      ~known:(Array.init (Array.length traces) Fun.id)
      ~top:8 ~alpha ~baseline candidates
  in
  match ranked with
  | best :: rest ->
      let sign = best.guess lsr 11 and exp = best.guess land 0x7FF in
      (match rest with
      | second :: _ ->
          Obs.gauge ~level:Obs.Debug
            ~fields:[ ("sign", Obs.Int sign); ("exponent", Obs.Int exp) ]
            c.Ctx.obs "recover.sign_exponent_gap" (best.corr -. second.corr)
      | [] -> ());
      (sign, exp, ranked)
  | [] -> invalid_arg "Recover.sign_exponent: empty candidate set"

type mantissa_result = {
  winner : int;
  extend : Dema.scored list;
  pruned : Dema.scored list;
}

(* Extend: every candidate ranked on the multiplication samples. *)
let extend_multi ~ctx:c ~top ~candidates ~stage views =
  let traces, idx = combine views in
  let extend =
    Obs.span c.Ctx.obs "recover.extend" (fun () ->
        Dema.rank ~ctx:c ~traces ~parts:(spread_parts views stage) ~known:idx ~top
          candidates)
  in
  Obs.gauge c.Ctx.obs "recover.extend_survivors" (float_of_int (List.length extend));
  extend

(* Prune: the addition sample breaks the multiplication's shift-alias
   ties; the multiplication samples still separate low-bit neighbours,
   so the extend survivors are re-ranked on the combined evidence. *)
let prune_multi ~ctx:c ~top ~extend ~extend_stage ~prune_stage views =
  let traces, idx = combine views in
  let survivors = List.to_seq (List.map (fun (s : Dema.scored) -> s.guess) extend) in
  let pruned =
    Obs.span c.Ctx.obs "recover.prune" (fun () ->
        Dema.rank ~ctx:c ~traces
          ~parts:(spread_parts views extend_stage @ spread_parts views prune_stage)
          ~known:idx ~top survivors)
  in
  Obs.gauge c.Ctx.obs "recover.prune_survivors" (float_of_int (List.length pruned));
  match pruned with
  | best :: _ -> { winner = best.guess; extend; pruned }
  | [] -> invalid_arg "Recover.extend_prune: empty candidate set"

let extend_prune_multi ~ctx ~top ~candidates ~extend_stage ~prune_stage views =
  let extend = extend_multi ~ctx ~top ~candidates ~stage:extend_stage views in
  prune_multi ~ctx ~top ~extend ~extend_stage ~prune_stage views

(* Extend phase: correlate the guess against both partial products
   (D x B at the w00 sample, D x A at the w10 sample) — Section III-C;
   prune on their addition z1a.  Under bus HD every model is its event
   XOR the one before it: the w00 transition needs the secret high
   word's load and drops out, so the d-only w10 and z1a transitions
   carry the stage. *)
type stage = (Fpr.label * Fpr.t Hypothesis.Model.t) list

let mantissa_low_width = 25

let low_stages = function
  | `Hw -> ([ (Fpr.Mant_w00, p_w00); (Fpr.Mant_w10, p_w10) ], [ (Fpr.Mant_z1a, p_z1a) ])
  | `Hd ->
      ( [ ( Fpr.Mant_w10,
            Hypothesis.Model.split ~prep:pack_ba ~eval:(fun d p ->
                ev_w00 d p lxor ev_w10 d p) ) ],
        [ ( Fpr.Mant_z1a,
            Hypothesis.Model.split ~prep:pack_ba ~eval:(fun d p ->
                ev_w10 d p lxor ev_z1a d p) ) ] )

(* The high phase given D: extend on E x B and E x A, prune on z1 and
   the high-word accumulation (their transitions under bus HD, the
   first from the low phase's z1a). *)
let high_stages ~d = function
  | `Hw ->
      ( [ (Fpr.Mant_w01, p_w01); (Fpr.Mant_w11, p_w11) ],
        [ (Fpr.Mant_z1, p_z1 ~d); (Fpr.Mant_zhigh, p_zhigh ~d) ] )
  | `Hd ->
      ( [
          ( Fpr.Mant_w01,
            Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
                ev_z1a d p lxor ev_w01 e p) );
          ( Fpr.Mant_w11,
            Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
                ev_z1 ~d e p lxor ev_w11 e p) );
        ],
        [
          ( Fpr.Mant_z1,
            Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
                ev_w01 e p lxor ev_z1 ~d e p) );
          ( Fpr.Mant_zhigh,
            Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
                ev_w11 e p lxor ev_zhigh ~d e p) );
        ] )

let mantissa_low_multi ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ?(top = 16)
    ~candidates views =
  Obs.span c.Ctx.obs "recover.mantissa_low"
    ~fields:[ ("part", Obs.Str "low25"); ("views", Obs.Int (List.length views)) ]
    (fun () ->
      let extend_stage, prune_stage = low_stages leakage in
      extend_prune_multi ~ctx:c ~top ~candidates ~extend_stage ~prune_stage views)

let attack_mantissa_low_naive ?ctx ?(top = 16) ~candidates v =
  Dema.rank ?ctx ~traces:v.traces
    ~parts:(List.map (fun (lbl, m) -> (sample lbl, m)) (fst (low_stages `Hw)))
    ~known:v.known ~top candidates

let mantissa_high_multi ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ?(top = 16)
    ~candidates ~d views =
  Obs.span c.Ctx.obs "recover.mantissa_high"
    ~fields:[ ("part", Obs.Str "high28"); ("views", Obs.Int (List.length views)) ]
    (fun () ->
      let extend_stage, prune_stage = high_stages ~d leakage in
      extend_prune_multi ~ctx:c ~top ~candidates ~extend_stage ~prune_stage views)

type strategy =
  | Exhaustive
  | Eval_sampled of { rng : Stats.Rng.t; decoys : int; truth : Fpr.t }

(* Extend survivors kept per mantissa half: enough that the truth
   cannot be displaced by its own alias class (up to ~25 exact ties for
   small D) plus noise. *)
let coefficient_top = 32

let finish_coefficient ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ~low ~high_extend
    views =
  let extend_stage, prune_stage = high_stages ~d:low.winner leakage in
  let high =
    Obs.span c.Ctx.obs "recover.mantissa_high"
      ~fields:[ ("part", Obs.Str "high28"); ("views", Obs.Int (List.length views)) ]
      (fun () ->
        prune_multi ~ctx:c ~top:coefficient_top ~extend:high_extend ~extend_stage
          ~prune_stage views)
  in
  let xu = (high.winner lsl 25) lor low.winner in
  let mant = xu land ((1 lsl 52) - 1) in
  let s, e, _ = sign_exponent_multi ~ctx:c ~leakage ~mant views in
  Fpr.make ~sign:s ~exp:e ~mant

(* The high set is drawn from [rng] before the low one: the order every
   driver has always drawn them in, so sampled candidate sets (and the
   rankings over them) stay reproducible. *)
let sampled_candidates ~rng ~decoys ~truth =
  let xu = Fpr.mantissa truth lor (1 lsl 52) in
  let high =
    Hypothesis.sampled rng ~width:28 ~lo:(1 lsl 27) ~truth:(xu lsr 25) ~decoys ()
  in
  (Hypothesis.sampled rng ~width:25 ~truth:(xu land m25) ~decoys (), high)

let coefficient ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ~strategy views =
  Obs.span c.Ctx.obs "recover.coefficient"
    ~fields:[ ("views", Obs.Int (List.length views)) ]
  @@ fun () ->
  let low_cands, high_cands =
    match strategy with
    | Exhaustive ->
        ( Hypothesis.exhaustive ~width:25 (),
          Hypothesis.exhaustive ~width:28 ~lo:(1 lsl 27) () )
    | Eval_sampled { rng; decoys; truth } ->
        let low, high = sampled_candidates ~rng ~decoys ~truth in
        (Array.to_seq low, Array.to_seq high)
  in
  let low =
    mantissa_low_multi ~ctx:c ~leakage ~top:coefficient_top ~candidates:low_cands views
  in
  let high_extend =
    extend_multi ~ctx:c ~top:coefficient_top ~candidates:high_cands
      ~stage:(fst (high_stages ~d:low.winner leakage))
      views
  in
  finish_coefficient ~ctx:c ~leakage ~low ~high_extend views
