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

(* ---- leakage models ----

   In the attacked multiply the known FFT(c) value is the first operand
   and the secret the second: B/A are the known low/high significand
   halves, the guess is D (secret low 25) or E (secret high 28).  Each
   model predicts the value [Fpr.mul_emit] emits at its label (the test
   suite checks them against it), and touches the known operand only
   through a few small integer digests (B, A, its sign, its exponent),
   so each is a {!Hypothesis.Model.Split}: [prep] digests the operand
   once per sweep, [eval] runs the candidate loop on plain ints inside
   the fused kernel.  The four partial products are
   {!Hypothesis.Model.Product}s: [eval] is the product itself, which
   the kernel computes inline. *)

(* B and A packed into one word: B is 25 bits, A is 28, total 53 < 63. *)
let pack_ba y = b25 y lor (a28 y lsl 25)

let p_sign = Hypothesis.Model.split ~prep:Fpr.sign_bit ~eval:(fun g s -> g lxor s)

let p_exp =
  Hypothesis.Model.split ~prep:Fpr.biased_exponent
    ~eval:(fun g e -> (g + e - 2100) land 0xFFFFFFFF)

let p_w00 = Hypothesis.Model.product b25
let p_w10 = Hypothesis.Model.product a28
let p_w01 = Hypothesis.Model.product b25
let p_w11 = Hypothesis.Model.product a28

let p_z1a =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun d p ->
      let b = p land m25 and a = p lsr 25 in
      ((d * b) lsr 25) + ((d * a) land m25))

let p_z1 ~d =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
      let b = p land m25 and a = p lsr 25 in
      ((d * b) lsr 25) + ((d * a) land m25) + ((e * b) land m25))

let p_zhigh ~d =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
      let b = p land m25 and a = p lsr 25 in
      let w01 = e * b and w10 = d * a in
      let z1 = ((d * b) lsr 25) + ((d * a) land m25) + (w01 land m25) in
      (e * a) + (w01 lsr 25) + (w10 lsr 25) + (z1 lsr 25))

(* ---- Hamming-distance (register-transfer) forms ----

   Under [Leakage.Register_file.bus] every intermediate crosses one
   shared write-back register, so the sample at event j leaks
   HD(v_(j-1), v_j) = HW(v_(j-1) lxor v_j) — the transition between
   consecutive architecturally visible values.  Within the 16-event
   multiply window the predecessor of every attacked intermediate is
   itself predictable from the guess and the known operand, so each HD
   model below is simply the XOR of two consecutive HW models:

     w10 sample:   (D.B)  xor (D.A)        (both d-dependent)
     z1a sample:   (D.A)  xor z1a(d)       (the prune target keeps its
                                            non-shift-covariance)
     w01 sample:   z1a(d) xor (E.B)        (needs the recovered d)
     z1  sample:   (E.B)  xor z1(d,e)
     w11 sample:   z1(d,e) xor (E.A)
     zhigh sample: (E.A)  xor zhigh(d,e)

   The load-window and secret-load transitions are either known-only
   (used for calibration, see [Calibrate.estimate_hd]) or depend on the
   not-yet-guessed secret words and are skipped.  The models stay exact,
   so the HD attack retains the full correlation of the HW one. *)

type leakage = [ `Hw | `Hd ]

let p_hd_w10 =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun d p ->
      let b = p land m25 and a = p lsr 25 in
      (d * b) lxor (d * a))

let p_hd_z1a =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun d p ->
      let b = p land m25 and a = p lsr 25 in
      let w10 = d * a in
      w10 lxor (((d * b) lsr 25) + (w10 land m25)))

let p_hd_w01 ~d =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
      let b = p land m25 and a = p lsr 25 in
      (((d * b) lsr 25) + ((d * a) land m25)) lxor (e * b))

let p_hd_z1 ~d =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
      let b = p land m25 and a = p lsr 25 in
      let w01 = e * b in
      w01 lxor (((d * b) lsr 25) + ((d * a) land m25) + (w01 land m25)))

let p_hd_w11 ~d =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
      let b = p land m25 and a = p lsr 25 in
      let z1 = ((d * b) lsr 25) + ((d * a) land m25) + ((e * b) land m25) in
      z1 lxor (e * a))

let p_hd_zhigh ~d =
  Hypothesis.Model.split ~prep:pack_ba ~eval:(fun e p ->
      let b = p land m25 and a = p lsr 25 in
      let w01 = e * b and w10 = d * a in
      let z1 = ((d * b) lsr 25) + ((d * a) land m25) + (w01 land m25) in
      let w11 = e * a in
      w11 lxor (w11 + (w01 lsr 25) + (w10 lsr 25) + (z1 lsr 25)))

(* The normalised 55-bit product (with sticky bit), recomputed from the
   recovered mantissa and the known operand exactly as [Fpr.mul_emit]
   forms it — the predecessor of the exponent register write under the
   shared bus. *)
let norm_value ~mant y =
  let b = b25 y and a = a28 y in
  let xu = mant lor (1 lsl 52) in
  let d = xu land m25 and e = xu lsr 25 in
  let w00 = d * b and w10 = d * a and w01 = e * b and w11 = e * a in
  let z1a = (w00 lsr 25) + (w10 land m25) in
  let z1 = z1a + (w01 land m25) in
  let zhigh = w11 + (w01 lsr 25) + (w10 lsr 25) + (z1 lsr 25) in
  let sticky = if (w00 land m25) lor (z1 land m25) <> 0 then 1 else 0 in
  let m =
    if zhigh >= 1 lsl 55 then (zhigh lsr 1) lor (zhigh land 1) else zhigh
  in
  m lor sticky

(* ---- joint machinery over one or several windows ----

   A combined problem concatenates the windows of every view and indexes
   traces by position; per-view stage models are precomposed with that
   view's known-operand lookup ({!Hypothesis.Model.contramap}), so split
   models stay split across the index indirection. *)

let combine views =
  match views with
  | [] -> invalid_arg "Recover.combine: no views"
  | v0 :: rest ->
      let d = Array.length v0.traces in
      List.iter (fun v -> assert (Array.length v.traces = d)) rest;
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
  Array.init
    (if nv = 0 then 0 else Array.length windows.(0))
    (fun i ->
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
   The store of the result's high 32-bit word (sign, exponent field, top
   mantissa bits) disambiguates once the mantissa and sign are known —
   that is why the divide-and-conquer runs the mantissa first.  The word's
   three fields are disjoint bits: the sign (bit 31), the exponent (bits
   20-30) and the top 20 bits of the result's mantissa, [hi20] (bits
   0-19).  So its Hamming weight is exactly the weight of the guessed
   sign and exponent fields plus HW(hi20), and hi20 is fixed per trace by
   the recovered mantissa.  The high-word model therefore digests only
   what the guessed fields read: [prep_hi] packs the operand's exponent
   carry (delta + 2048, 12 bits) over its sign bit — a few dozen values
   over a campaign — and [sign_exponent_multi] takes the guess-free
   alpha * HW(hi20) out of the Result_hi column before ranking. *)
let prep_hi ~mant =
  let x0 = Fpr.make ~sign:0 ~exp:1023 ~mant in
  fun y -> ((Fpr.biased_exponent (Fpr.mul x0 y) - 1023 + 2048) lsl 1) lor Fpr.sign_bit y

let hi20 ~mant =
  let x0 = Fpr.make ~sign:0 ~exp:1023 ~mant in
  fun y -> Fpr.mantissa (Fpr.mul x0 y) lsr 32

let eval_hi ~sign g p =
  let sy = p land 1 and delta = (p lsr 1) - 2048 in
  ((sign lxor sy) lsl 31) lor (((g + delta) land 0x7FF) lsl 20)

(* Hypotheses e and e + 64k predict Hamming weights that differ by a
   per-trace constant over the narrow FFT(c) exponent spread, so Pearson
   cannot separate them (correlation is shift-invariant).  The magnitude
   prior breaks the tie: |FFT(f)_k| <= n * 127 < 2^33 and is essentially
   never below 2^-31, so exactly one member of each 64-spaced tie class
   lies in the 64-wide biased-exponent window [992, 1056). *)
let exponent_window = Seq.init 64 (fun i -> 992 + i)

(* Per-view calibration on the known-operand load transitions,
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
        match (leakage : leakage) with
        | `Hw ->
            Calibrate.estimate ~traces ~known:v.known ~lo_sample:(at j Fpr.Load_x_lo)
              ~hi_sample:(at j Fpr.Load_x_hi)
        | `Hd -> Calibrate.estimate_hd ~traces ~known:v.known ~hi_sample:(at j Fpr.Load_x_hi))
      views
  in
  if als = [] then invalid_arg "Recover.calibrate_views: no views";
  let amax = List.fold_left (fun acc (a, _) -> Float.max acc a) neg_infinity als in
  let keep = List.filter (fun (a, _) -> a >= 0.9 *. amax) als in
  let nf = float_of_int (List.length keep) in
  ( List.fold_left (fun acc (a, _) -> acc +. a) 0. keep /. nf,
    List.fold_left (fun acc (_, b) -> acc +. b) 0. keep /. nf )

(* Bus-HD transitions around the tail of the window, as [Fn] closures
   over the recovered mantissa (the packed digests would overflow the
   63-bit split-prep word): the normalised product into the exponent
   register, the exponent word into the sign flag, the sign flag into
   the result's low word, and the result's low word into its high
   word.  The result-low transition only distinguishes the sign bit but
   rides along for free. *)
let hd_sign_exp_stage ~mant =
  let x0 = Fpr.make ~sign:0 ~exp:1023 ~mant in
  let exp_word g y =
    ((g land 0x7FF) + Fpr.biased_exponent y - 2100) land 0xFFFFFFFF
  in
  let sgn g y = (g lsr 11) lxor Fpr.sign_bit y in
  let lo_word y = Int64.to_int (Int64.logand (Fpr.mul x0 y) 0xFFFFFFFFL) in
  let hi_word g y =
    let r0 = Fpr.mul x0 y in
    let e_res = ((g land 0x7FF) + Fpr.biased_exponent r0 - 1023) land 0x7FF in
    ((sgn g y lsl 31) lor (e_res lsl 20) lor (Fpr.mantissa r0 lsr 32))
    land 0xFFFFFFFF
  in
  [
    ( Fpr.Exp_sum,
      Hypothesis.Model.fn (fun g y -> norm_value ~mant y lxor exp_word g y) );
    (Fpr.Sign_xor, Hypothesis.Model.fn (fun g y -> exp_word g y lxor sgn g y));
    (Fpr.Result_lo, Hypothesis.Model.fn (fun g y -> sgn g y lxor lo_word y));
    (Fpr.Result_hi, Hypothesis.Model.fn (fun g y -> lo_word y lxor hi_word g y));
  ]

let sign_exponent_multi ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ~mant views =
  Obs.span c.Ctx.obs "recover.sign_exponent"
    ~fields:[ ("views", Obs.Int (List.length views)) ]
  @@ fun () ->
  let candidates =
    Seq.concat_map (fun e -> List.to_seq [ e; (1 lsl 11) lor e ]) exponent_window
  in
  (* the 12-bit joint guess packs (sign << 11) | exponent; each part's
     eval unpacks it, so all three stay split models *)
  let stage =
    match (leakage : leakage) with
    | `Hd -> hd_sign_exp_stage ~mant
    | `Hw ->
        [
          ( Fpr.Exp_sum,
            Hypothesis.Model.split ~prep:Fpr.biased_exponent ~eval:(fun g e ->
                ((g land 0x7FF) + e - 2100) land 0xFFFFFFFF) );
          ( Fpr.Sign_xor,
            Hypothesis.Model.split ~prep:Fpr.sign_bit ~eval:(fun g s ->
                (g lsr 11) lxor s) );
          ( Fpr.Result_hi,
            Hypothesis.Model.split ~prep:(prep_hi ~mant) ~eval:(fun g p ->
                eval_hi ~sign:(g lsr 11) (g land 0x7FF) p) );
        ]
  in
  (* one pass over the windows reads every sample the stage uses: the
     calibration loads and the parts' own samples *)
  let labels = Fpr.Load_x_lo :: Fpr.Load_x_hi :: List.map fst stage in
  let traces = gather views labels in
  let at j lbl = (j * List.length labels) + Option.get (List.find_index (( = ) lbl) labels) in
  let alpha, baseline = calibrate_views ~leakage ~traces ~at views in
  (* the high word's hi20 field is guess-free: its alpha-scaled weight
     leaves the Result_hi column of [gather]'s fresh rows *)
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
    List.concat
      (List.mapi
         (fun j v ->
           List.map
             (fun (lbl, m) -> (at j lbl, Hypothesis.Model.contramap (fun i -> v.known.(i)) m))
             stage)
         views)
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
   (D x B at the w00 sample, D x A at the w10 sample) — Section III-C.
   Under bus-HD the w00 transition needs the secret high word and drops
   out; the w10 and z1a transitions are d-only and carry the stage. *)
let low_extend_stage = [ (Fpr.Mant_w00, p_w00); (Fpr.Mant_w10, p_w10) ]

type stage = (Fpr.label * Fpr.t Hypothesis.Model.t) list

let mantissa_low_width = 25

let low_stages = function
  | `Hw -> (low_extend_stage, [ (Fpr.Mant_z1a, p_z1a) ])
  | `Hd -> ([ (Fpr.Mant_w10, p_hd_w10) ], [ (Fpr.Mant_z1a, p_hd_z1a) ])

let high_stages ~d = function
  | `Hw ->
      ( [ (Fpr.Mant_w01, p_w01); (Fpr.Mant_w11, p_w11) ],
        [ (Fpr.Mant_z1, p_z1 ~d); (Fpr.Mant_zhigh, p_zhigh ~d) ] )
  | `Hd ->
      ( [ (Fpr.Mant_w01, p_hd_w01 ~d); (Fpr.Mant_w11, p_hd_w11 ~d) ],
        [ (Fpr.Mant_z1, p_hd_z1 ~d); (Fpr.Mant_zhigh, p_hd_zhigh ~d) ] )

let mantissa_low_multi ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ?(top = 16)
    ~candidates views =
  Obs.span c.Ctx.obs "recover.mantissa_low"
    ~fields:[ ("part", Obs.Str "low25"); ("views", Obs.Int (List.length views)) ]
    (fun () ->
      let extend_stage, prune_stage = low_stages leakage in
      extend_prune_multi ~ctx:c ~top ~candidates ~extend_stage ~prune_stage views)

let attack_mantissa_low_naive ?ctx ?(top = 16) ~candidates v =
  Dema.rank ?ctx ~traces:v.traces
    ~parts:[ (sample Fpr.Mant_w00, p_w00); (sample Fpr.Mant_w10, p_w10) ]
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
