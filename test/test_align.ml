(* Register-transfer leakage models and static trace realignment: the
   emitters must reproduce the historical capture bitwise when every
   knob is off, the jitter knob must be undoable by Align (exactly, on
   full-width traces), and the whole pipeline must stay deterministic
   across jobs and prefetch settings. *)

let n = 8
let sigma = 0.4
let model = { Leakage.default_model with Leakage.noise_sigma = sigma }
let sk, pk = Falcon.Scheme.keygen ~n ~seed:"align test victim"

let clean_hd =
  lazy (Leakage.capture ~emitter:Leakage.hd_emitter model ~seed:11 sk ~count:200)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let contains msg frag =
  let n = String.length frag and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = frag || go (i + 1)) in
  go 0

(* {2 Emitters} *)

(* The default emitter is the idealized probe: every sample is
   baseline + alpha * HW + one gaussian of the seeded noise RNG, drawn
   in sample order and trace after trace.  A noise-free capture of the
   same seed gives the HW signal (same messages, same signer). *)
let test_default_emitter_bitwise () =
  let a = Leakage.capture ~emitter:Leakage.default_emitter model ~seed:3 sk ~count:6 in
  let clean = Leakage.capture Leakage.clean_model ~seed:3 sk ~count:6 in
  let noise = Stats.Rng.create ~seed:3 in
  Alcotest.(check int) "count" (Array.length clean) (Array.length a);
  Array.iteri
    (fun i (t : Leakage.trace) ->
      let want =
        Array.map
          (fun hw ->
            model.baseline +. (model.alpha *. hw)
            +. Stats.Rng.gaussian noise ~mu:0. ~sigma:model.noise_sigma)
          clean.(i).Leakage.samples
      in
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "trace %d bitwise" i)
        want t.Leakage.samples)
    a

(* The baseline condition is the idealized probe over the undefended
   multiply: one RNG draws the class, the operands, then one gaussian
   per intermediate's HW. *)
let test_campaign_baseline_bitwise () =
  let secret = Assess.Campaign.secret_operand (Stats.Rng.create ~seed:5) in
  let entries =
    Assess.Campaign.generate ~condition:Assess.Campaign.baseline_condition `None
      ~noise:sigma ~secret ~count:40 ~seed:17
  in
  let rng = Stats.Rng.create ~seed:17 in
  Array.iteri
    (fun i (e : Assess.Campaign.entry) ->
      let fixed = Stats.Rng.float01 rng < 0.5 in
      let known = Assess.Campaign.random_operand rng in
      let secret = if fixed then secret else Assess.Campaign.random_operand rng in
      let want =
        Array.map
          (fun v ->
            model.baseline
            +. (model.alpha *. float_of_int (Bitops.popcount v))
            +. Stats.Rng.gaussian rng ~mu:0. ~sigma)
          (Leakage.mul_values ~known ~secret)
      in
      Alcotest.(check bool)
        (Printf.sprintf "entry %d class and operand" i)
        true
        (e.cls = (if fixed then Fixed else Random) && e.known = known);
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "entry %d bitwise" i)
        want e.Assess.Campaign.samples)
    entries

let test_register_file_bus () =
  let rf = Leakage.Register_file.create Leakage.Register_file.bus in
  let hd1 = Leakage.Register_file.write rf Fpr.Load_x_lo 0b1011 in
  Alcotest.(check int) "first write from zero" 3 hd1;
  let hd2 = Leakage.Register_file.write rf Fpr.Load_x_hi 0b0011 in
  Alcotest.(check int) "transition hd" (Bitops.popcount (0b1011 lxor 0b0011)) hd2;
  Leakage.Register_file.reset rf;
  let hd3 = Leakage.Register_file.write rf Fpr.Mant_w00 0b111 in
  Alcotest.(check int) "reset clears state" 3 hd3;
  Alcotest.check_raises "empty spec rejected" (Invalid_argument "Leakage.Register_file: empty register file")
    (fun () ->
      Leakage.Register_file.check_spec
        { Leakage.Register_file.bus with Leakage.Register_file.names = [||]; widths = [||] })

let test_bus_hd_consistency () =
  let known = Assess.Campaign.random_operand (Stats.Rng.create ~seed:8) in
  let secret = Assess.Campaign.secret_operand (Stats.Rng.create ~seed:9) in
  let vals = Leakage.mul_values ~known ~secret in
  let hds = Leakage.bus_hd vals in
  let prev = ref 0 in
  Array.iteri
    (fun i v ->
      Alcotest.(check int)
        (Printf.sprintf "hd %d" i)
        (Bitops.popcount (!prev lxor v))
        hds.(i);
      prev := v)
    vals

let test_pipeline_mix () =
  let impulse = [| 1.0; 0.0; 0.0; 0.0 |] in
  let out = Leakage.Pipeline.mix Leakage.Pipeline.default impulse in
  Alcotest.(check (array (float 1e-12))) "impulse response"
    [| 1.0; 0.5; 0.25; 0.0 |] out;
  match Leakage.Pipeline.check [||] with
  | () -> Alcotest.fail "empty pipeline accepted"
  | exception Invalid_argument _ -> ()

let test_jitter_draws () =
  (* a knob that is off must consume no RNG draws *)
  let r1 = Stats.Rng.create ~seed:21 and r2 = Stats.Rng.create ~seed:21 in
  let offset, drift = Leakage.draw_jitter Leakage.no_jitter r1 in
  Alcotest.(check int) "no offset" 0 offset;
  Alcotest.(check (float 0.)) "no drift" 0. drift;
  Alcotest.(check (float 0.)) "rng untouched"
    (Stats.Rng.gaussian r2 ~mu:0. ~sigma:1.)
    (Stats.Rng.gaussian r1 ~mu:0. ~sigma:1.);
  let j = { Leakage.max_shift = 2; drift = 0.1 } in
  let seen = Array.make 5 false in
  for _ = 1 to 200 do
    let o, d = Leakage.draw_jitter j r1 in
    if abs o > 2 then Alcotest.failf "offset %d out of bounds" o;
    if Float.abs d > 0.1 then Alcotest.failf "drift %f out of bounds" d;
    seen.(o + 2) <- true
  done;
  Alcotest.(check bool) "all offsets drawn" true (Array.for_all Fun.id seen)

(* {2 Shift machinery} *)

let test_shift_samples () =
  let row = Array.init 10 float_of_int in
  let r = Align.shift_samples ~fill:(-1.) ~shift:3 row in
  Alcotest.(check (array (float 0.))) "right shift"
    [| 3.; 4.; 5.; 6.; 7.; 8.; 9.; -1.; -1.; -1. |]
    r;
  let l = Align.shift_samples ~fill:(-1.) ~shift:(-2) row in
  Alcotest.(check (array (float 0.))) "left shift"
    [| -1.; -1.; 0.; 1.; 2.; 3.; 4.; 5.; 6.; 7. |]
    l;
  Alcotest.(check bool) "zero shift is physical identity" true
    (Align.shift_samples ~fill:0. ~shift:0 row == row)

let test_estimate_clamps () =
  let rng = Stats.Rng.create ~seed:33 in
  let reference = Array.init 20 (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
  let width = 60 and lo = 15 and s_true = 5 in
  let row = Array.make width 0. in
  Array.blit reference 0 row (lo + s_true) 20;
  Alcotest.(check int) "wide search finds the true shift" s_true
    (Align.estimate ~reference ~lo ~max_shift:8 row);
  let clamped = Align.estimate ~reference ~lo ~max_shift:2 row in
  Alcotest.(check bool) "estimate never exceeds max_shift" true (abs clamped <= 2)

let test_estimate_matched () =
  let template = [| (0, 20.); (1, 5.) |] in
  List.iter
    (fun s ->
      let row = Array.make 16 10. in
      if s >= 0 then row.(s) <- 20.;
      row.(1 + s) <- 5.;
      Alcotest.(check int)
        (Printf.sprintf "offset %d recovered" s)
        s
        (Align.estimate_matched ~template ~max_shift:2 row))
    [ -1; 0; 1; 2 ];
  let row = Array.make 16 10. in
  row.(3) <- 20.;
  row.(4) <- 5.;
  let clamped = Align.estimate_matched ~template ~max_shift:1 row in
  Alcotest.(check bool) "matched estimate clamps too" true (abs clamped <= 1);
  match Align.estimate_matched ~template:[||] ~max_shift:1 row with
  | _ -> Alcotest.fail "empty template accepted"
  | exception Invalid_argument _ -> ()

let test_realign_of_aligned_noop () =
  let rows = Array.map (fun t -> t.Leakage.samples) (Lazy.force clean_hd) in
  let out, st = Align.realign_rows ~max_shift:3 ~fill:model.Leakage.baseline rows in
  Alcotest.(check int) "no shifts applied" 0 st.Align.shifted;
  Alcotest.(check bool) "rows physically unchanged" true
    (Array.for_all2 ( == ) rows out)

let test_realign_recovers_known_shifts () =
  let rows = Array.map (fun t -> t.Leakage.samples) (Lazy.force clean_hd) in
  let pattern = [| -2; -1; 0; 1; 2 |] in
  let misaligned =
    Array.mapi
      (fun i row ->
        Align.shift_samples ~fill:model.Leakage.baseline
          ~shift:(-pattern.(i mod 5)) row)
      rows
  in
  let out, st = Align.realign_rows ~max_shift:2 ~fill:model.Leakage.baseline misaligned in
  Alcotest.(check int) "all displaced traces corrected" 160 st.Align.shifted;
  let width = Array.length rows.(0) in
  Array.iteri
    (fun i row ->
      for j = 2 to width - 3 do
        if out.(i).(j) <> row.(j) then
          Alcotest.failf "trace %d sample %d not restored" i j
      done)
    rows

(* [f tmp src traces] over a fresh 3-shard store at [src] (20 traces per
   shard) holding [traces], 60 clock-jittered bus-HD captures, with a
   public.key sidecar; [tmp] and everything in it go afterwards. *)
let with_jittered_store ~seed f =
  let jit =
    { Leakage.hd_emitter with Leakage.jitter = { Leakage.max_shift = 2; drift = 0. } }
  in
  let traces = Leakage.capture ~emitter:jit model ~seed sk ~count:60 in
  let tmp = Filename.temp_dir "fd_align_test" "" in
  let src = Filename.concat tmp "src" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun d ->
          let d = Filename.concat tmp d in
          if Sys.file_exists d then rm_rf d)
        (Sys.readdir tmp);
      rm_rf tmp)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir:src ~n
          ~width:(n * Leakage.events_per_coeff) ~shard_traces:20
          ~model
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      let oc = open_out (Filename.concat src "public.key") in
      output_string oc "sidecar";
      close_out oc;
      f tmp src traces)

let test_realign_store_deterministic () =
  with_jittered_store ~seed:13 @@ fun tmp src _traces ->
  let variant (jobs, prefetch) =
    let dst = Filename.concat tmp (Printf.sprintf "dst%d%b" jobs prefetch) in
    let st =
      Align.realign_store ~ctx:(Attack.Ctx.make ~jobs ()) ~prefetch ~max_shift:2 ~src
        ~dst ()
    in
    let r = Tracestore.Reader.open_store dst in
    let records = Array.of_seq (Tracestore.Reader.to_seq r) in
    Alcotest.(check bool)
      "sidecar copied" true
      (Sys.file_exists (Filename.concat dst "public.key"));
    (st, records)
  in
  match List.map variant [ (1, false); (2, true); (4, false) ] with
  | first :: rest ->
      List.iteri
        (fun i o ->
          Alcotest.(check bool)
            (Printf.sprintf "variant %d identical" i)
            true (o = first))
        rest
  | [] -> assert false

(* A corrupt bootstrap shard: under [`Skip] the bootstrap and both
   passes drop shard 0 alike, so the destination is exactly the
   in-memory realignment of the 40 surviving traces; under [`Fail] the
   error names the shard. *)
let test_realign_store_corrupt_shard () =
  with_jittered_store ~seed:17 @@ fun tmp src traces ->
  (* one payload byte of shard 0: header intact, CRC now wrong *)
  let shard0 = Filename.concat src (Tracestore.shard_name 0) in
  let fd = open_out_gen [ Open_binary; Open_wronly ] 0 shard0 in
  seek_out fd 40;
  output_char fd '\xff';
  close_out fd;
  let survivors = Array.sub traces 20 40 in
  let want, want_st =
    Align.realign_rows ~max_shift:2 ~fill:model.Leakage.baseline
      (Array.map (fun t -> t.Leakage.samples) survivors)
  in
  List.iter
    (fun (jobs, prefetch) ->
      let dst = Filename.concat tmp (Printf.sprintf "skip%d%b" jobs prefetch) in
      let st =
        Align.realign_store ~ctx:(Attack.Ctx.make ~jobs ()) ~on_corrupt:`Skip ~prefetch
          ~max_shift:2 ~src ~dst ()
      in
      let label = Printf.sprintf " at -j %d, prefetch %b" jobs prefetch in
      Alcotest.(check int) ("shards_skipped" ^ label) 1 st.Align.shards_skipped;
      Alcotest.(check bool) ("stats == realign_rows over survivors" ^ label) true
        ({ st with Align.shards_skipped = 0 } = want_st);
      let records =
        Array.of_seq (Tracestore.Reader.to_seq (Tracestore.Reader.open_store dst))
      in
      Alcotest.(check int) ("destination holds the survivors" ^ label) 40
        (Array.length records);
      Array.iteri
        (fun i (r : Tracestore.record) ->
          if r.Tracestore.msg <> survivors.(i).Leakage.msg then
            Alcotest.failf "trace %d is not survivor %d%s" i i label;
          if r.Tracestore.samples <> want.(i) then
            Alcotest.failf "trace %d differs from realign_rows%s" i label)
        records)
    [ (1, false); (1, true); (2, false) ];
  match
    Align.realign_store ~max_shift:2 ~src ~dst:(Filename.concat tmp "fail") ()
  with
  | _ -> Alcotest.fail "realign_store accepted a corrupt shard"
  | exception Failure msg ->
      Alcotest.(check bool) "error names shard 0" true (contains msg "shard 0");
      Alcotest.(check bool) "a refused source leaves no destination" false
        (Sys.file_exists (Filename.concat tmp "fail"))

(* Realignment reads every target's store, not only FALCON's: at
   max_shift 0 a record-tvla store and an HQC store come out record for
   record, with every sidecar (assess.fda, hqc.key) copied verbatim. *)
let test_realign_store_any_target () =
  let tmp = Filename.temp_dir "fd_align_targets" "" in
  let read dir name =
    In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
  in
  let records dir =
    Array.of_seq (Tracestore.Reader.to_seq (Tracestore.Reader.open_store dir))
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun d -> rm_rf (Filename.concat tmp d)) (Sys.readdir tmp);
      rm_rf tmp)
  @@ fun () ->
  List.iter
    (fun (label, sidecar, record) ->
      let src = Filename.concat tmp label in
      let dst = src ^ "-al" in
      record src;
      let st = Align.realign_store ~max_shift:0 ~src ~dst () in
      Alcotest.(check int) (label ^ ": nothing shifted") 0 st.Align.shifted;
      Alcotest.(check bool) (label ^ ": every record reproduced") true
        (records dst = records src);
      Alcotest.(check string) (label ^ ": " ^ sidecar ^ " copied") (read src sidecar)
        (read dst sidecar))
    [
      ( "tvla",
        Assess.Campaign.sidecar_name,
        fun dir ->
          Assess.Campaign.record_store ~dir `Masking ~noise:0.5
            ~secret:(Assess.Campaign.secret_operand (Stats.Rng.create ~seed:3))
            ~count:50 ~seed:3 ~shard_traces:20 () );
      ( "hqc",
        Hqc.key_file,
        fun dir ->
          Attack.Target.Hqc.record_store ~dir ~n:Hqc.Params.n_bits ~traces:50 ~noise:0.5
            ~seed:3 ~shard_traces:20 () );
    ]

(* {2 End-to-end} *)

let test_hd_fullkey_after_realign () =
  let jit =
    { Leakage.hd_emitter with Leakage.jitter = { Leakage.max_shift = 2; drift = 0. } }
  in
  let jittered = Leakage.capture ~emitter:jit model ~seed:19 sk ~count:200 in
  let strategy ~coeff ~mul =
    let truth =
      if mul = 0 then sk.Falcon.Scheme.f_fft.Fft.re.(coeff)
      else sk.Falcon.Scheme.f_fft.Fft.im.(coeff)
    in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 256; truth }
  in
  let attack traces =
    let res =
      Attack.Fullkey.recover_key ~ctx:(Attack.Ctx.make ~jobs:2 ()) ~leakage:`Hd ~traces
        ~h:pk.Falcon.Scheme.h strategy
    in
    ( Attack.Fullkey.count_correct res.Attack.Fullkey.f_fft
        ~truth:sk.Falcon.Scheme.f_fft,
      res.Attack.Fullkey.keypair )
  in
  let correct_un, _ = attack jittered in
  Alcotest.(check bool) "jitter degrades the unaligned attack" true
    (correct_un < 2 * n);
  let rows = Array.map (fun t -> t.Leakage.samples) jittered in
  let rows, _ =
    Align.realign_rows ~ctx:(Attack.Ctx.make ~jobs:2 ()) ~max_shift:2
      ~fill:model.Leakage.baseline rows
  in
  let realigned =
    Array.map2 (fun t samples -> { t with Leakage.samples = samples }) jittered rows
  in
  let correct_re, keypair = attack realigned in
  Alcotest.(check int) "realignment restores every coefficient" (2 * n) correct_re;
  Alcotest.(check bool) "full key reconstructed" true (keypair <> None)

let test_hd_stop_rejected () =
  let traces = Array.sub (Lazy.force clean_hd) 0 8 in
  let tmp = Filename.temp_dir "fd_align_test" "" in
  let dir = Filename.concat tmp "store" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf tmp)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n ~width:(n * Leakage.events_per_coeff)
          ~shard_traces:8
          ~model
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      let reader = Tracestore.Reader.open_store dir in
      let strategy ~coeff ~mul =
        let truth =
          if mul = 0 then sk.Falcon.Scheme.f_fft.Fft.re.(coeff)
          else sk.Falcon.Scheme.f_fft.Fft.im.(coeff)
        in
        Attack.Recover.Eval_sampled
          { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 8; truth }
      in
      match
        Attack.Fullkey.recover_key_store ~leakage:`Hd
          ~stop:(Sequential.Decision.spec ~alpha:1e-3 ()) ~reader
          ~h:pk.Falcon.Scheme.h strategy
      with
      | _ -> Alcotest.fail "`Hd with ?stop must be rejected"
      | exception Invalid_argument _ -> ())

(* {2 Conditions} *)

let test_condition_names_roundtrip () =
  List.iter
    (fun c ->
      let name = Assess.Campaign.condition_name c in
      Alcotest.(check bool)
        (Printf.sprintf "%s round trips" name)
        true
        (Assess.Campaign.condition_of_name name = c))
    Assess.Campaign.standard_conditions

let test_realign_entries () =
  let secret = Assess.Campaign.secret_operand (Stats.Rng.create ~seed:23) in
  let condition =
    {
      Assess.Campaign.kind = `Hd;
      jitter = Assess.Campaign.default_jitter;
      realign = true;
    }
  in
  let entries =
    Assess.Campaign.generate ~condition `None ~noise:sigma ~secret ~count:60
      ~seed:29
  in
  let off = { condition with Assess.Campaign.realign = false } in
  let same, st0 = Assess.Campaign.realign_entries off `None entries in
  Alcotest.(check bool) "realign off is identity" true (same == entries);
  Alcotest.(check int) "identity stats" 0 st0.Align.traces;
  let realigned, st = Assess.Campaign.realign_entries condition `None entries in
  Alcotest.(check int) "every entry examined" 60 st.Align.traces;
  Alcotest.(check int) "entry count preserved" 60 (Array.length realigned);
  (* defended campaigns have no load template; the blind fallback must
     still return a well-formed result *)
  let masked =
    Assess.Campaign.generate ~condition `Masking ~noise:sigma ~secret ~count:40
      ~seed:31
  in
  let _, stm = Assess.Campaign.realign_entries condition `Masking masked in
  Alcotest.(check int) "masking fallback examined all" 40 stm.Align.traces

let test_metrics_hd_realign_condition () =
  let run condition =
    Assess.Metrics.run ~ctx:(Attack.Ctx.make ~jobs:2 ()) ~condition
      {
        Assess.Metrics.defense = `None;
        noise = sigma;
        budget = 100;
        experiments = 2;
        decoys = 16;
        seed = 37;
      }
  in
  let jittered =
    run
      {
        Assess.Campaign.kind = `Hd;
        jitter = Assess.Campaign.default_jitter;
        realign = false;
      }
  in
  let realigned =
    run
      {
        Assess.Campaign.kind = `Hd;
        jitter = Assess.Campaign.default_jitter;
        realign = true;
      }
  in
  Alcotest.(check (float 0.)) "matched realignment restores the attack" 1.0
    realigned.Assess.Metrics.success_rate;
  Alcotest.(check bool) "realigned no worse than jittered" true
    (realigned.Assess.Metrics.guessing_entropy
    <= jittered.Assess.Metrics.guessing_entropy)

let suite =
  [
    Alcotest.test_case "default emitter bitwise identical" `Quick
      test_default_emitter_bitwise;
    Alcotest.test_case "campaign baseline condition bitwise" `Quick
      test_campaign_baseline_bitwise;
    Alcotest.test_case "register file bus transitions" `Quick test_register_file_bus;
    Alcotest.test_case "bus_hd matches register file" `Quick test_bus_hd_consistency;
    Alcotest.test_case "pipeline impulse response" `Quick test_pipeline_mix;
    Alcotest.test_case "jitter draw bounds and rng discipline" `Quick
      test_jitter_draws;
    Alcotest.test_case "shift_samples translation" `Quick test_shift_samples;
    Alcotest.test_case "estimate respects max_shift" `Quick test_estimate_clamps;
    Alcotest.test_case "matched template estimation" `Quick test_estimate_matched;
    Alcotest.test_case "realign of aligned campaign is a no-op" `Quick
      test_realign_of_aligned_noop;
    Alcotest.test_case "realign recovers known shifts" `Quick
      test_realign_recovers_known_shifts;
    Alcotest.test_case "realign_store deterministic across jobs x prefetch" `Quick
      test_realign_store_deterministic;
    Alcotest.test_case "realign_store under a corrupt shard" `Quick
      test_realign_store_corrupt_shard;
    Alcotest.test_case "realign_store keeps any target's records and sidecars" `Quick
      test_realign_store_any_target;
    Alcotest.test_case "hd full key after realignment" `Slow
      test_hd_fullkey_after_realign;
    Alcotest.test_case "hd leakage rejects adaptive stop" `Quick test_hd_stop_rejected;
    Alcotest.test_case "condition names round trip" `Quick
      test_condition_names_roundtrip;
    Alcotest.test_case "realign_entries matched and fallback" `Quick
      test_realign_entries;
    Alcotest.test_case "metrics hd realign condition" `Slow
      test_metrics_hd_realign_condition;
  ]
