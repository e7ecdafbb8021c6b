(* Target framework: the differential parity suite (the FALCON attack
   routed through the scheme-agnostic Attack.Target interface must be
   bit-identical to the direct Fullkey/Dema path at every jobs x
   prefetch x leakage combination), property tests of the HQC chained
   enumerator (totality, split-model / plain-model equivalence) and key
   sidecar codec, the HQC end-to-end determinism, early-stopping and Hd
   acceptance/rejection pins, and the option refusals. *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* the full determinism grid: jobs x prefetch *)
let grid = List.concat_map (fun jobs -> [ (jobs, false); (jobs, true) ]) [ 1; 2; 4 ]
let cfg_label (jobs, prefetch) = Printf.sprintf "jobs %d prefetch %b" jobs prefetch
let ctx_of (jobs, _) = Attack.Ctx.make ~jobs ()

(* {2 FALCON differential parity} *)

let falcon_n = 8
let falcon_traces = 150

let emitter_of = function
  | `Hw -> Leakage.default_emitter
  | `Hd -> Leakage.hd_emitter

let with_falcon_store ?(leakage = `Hw) ?(traces = falcon_traces) f =
  let dir = Filename.temp_dir "fd_target_falcon" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Attack.Target.Falcon.record_store ~emitter:(emitter_of leakage) ~dir
        ~n:falcon_n ~traces ~noise:0.3 ~seed:7 ~shard_traces:64 ();
      f dir)

(* the pre-target golden path: the exact [attack_cli crack] recovery —
   Fullkey.recover_key_store with the sampled-hypothesis strategy at
   seed [coeff*7 + mul], 512 decoys *)
let golden dir ~leakage =
  let pk =
    Option.get
      (Falcon.Keycodec.decode_public
         (Sidecar.read_file (Filename.concat dir "public.key")))
  in
  let kp =
    Option.get
      (Falcon.Keycodec.decode_secret
         (Sidecar.read_file (Filename.concat dir "secret.key")))
  in
  let sk = Falcon.Scheme.secret_of_keypair kp in
  let strategy ~coeff ~mul =
    let truth =
      if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff)
    in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 512; truth }
  in
  let reader = Tracestore.Reader.open_store dir in
  (Attack.Fullkey.recover_key_store ~leakage ~reader ~h:pk.h strategy, kp)

(* the golden witness encoding — 2n recovered FFT(f) bit patterns, hex,
   re/im interleaved in unit order, same layout the Target outcome
   carries *)
let witness_of_fft (f : Fft.t) =
  String.concat ","
    (List.init
       (2 * Array.length f.Fft.re)
       (fun i ->
         Printf.sprintf "%016Lx"
           (if i land 1 = 0 then f.Fft.re.(i lsr 1) else f.Fft.im.(i lsr 1))))

let check_falcon_parity leakage () =
  with_falcon_store ~leakage (fun dir ->
      let g, kp = golden dir ~leakage in
      Alcotest.(check bool)
        "golden path recovers the exact key" true
        (g.Attack.Fullkey.keypair <> None && g.Attack.Fullkey.f = kp.Ntru.Ntrugen.f);
      let golden_witness = witness_of_fft g.Attack.Fullkey.f_fft in
      List.iter
        (fun ((_, prefetch) as cfg) ->
          let reader = Tracestore.Reader.open_store dir in
          let o =
            Attack.Target.Falcon.recover_store ~ctx:(ctx_of cfg) ~leakage
              ~prefetch ~dir reader
          in
          Alcotest.(check string)
            (cfg_label cfg ^ ": witness = golden")
            golden_witness o.Attack.Target.witness;
          Alcotest.(check bool)
            (cfg_label cfg ^ ": success")
            true o.Attack.Target.success;
          Alcotest.(check int)
            (cfg_label cfg ^ ": all units attacked")
            (2 * falcon_n) o.Attack.Target.units;
          Alcotest.(check int)
            (cfg_label cfg ^ ": every unit correct")
            o.Attack.Target.units o.Attack.Target.units_ok)
        grid)

(* The hand-built streaming rank of one unit's low-mantissa phase finds
   the sidecar truth, with the same ranking at every jobs x prefetch
   setting. *)
let test_falcon_hand_ranking () =
  with_falcon_store (fun dir ->
      (* one `Re unit and one `Im unit, so both component mappings are
         exercised *)
      List.iter
        (fun unit_index ->
          let truth = Sidecar.falcon_unit_truth ~dir unit_index in
          let candidates =
            Attack.Hypothesis.sampled
              (Stats.Rng.create ~seed:(100 + unit_index))
              ~width:Attack.Recover.mantissa_low_width ~truth ~decoys:256 ()
          in
          let rank cfg =
            let _, prefetch = cfg in
            Attack.Dema.Stream.rank ~ctx:(ctx_of cfg) ~prefetch
              (Tracestore.Reader.open_store dir)
              ~parts:(Sidecar.falcon_unit_parts ~leakage:`Hw unit_index)
              ~known:(fun (t : Leakage.trace) -> t)
              ~top:16 (Array.to_seq candidates)
          in
          let reference = rank (1, false) in
          (match reference with
          | best :: _ ->
              Alcotest.(check int)
                (Printf.sprintf "unit %d: hand-built ranking finds the truth"
                   unit_index)
                truth best.Attack.Dema.guess
          | [] -> Alcotest.fail "empty ranking");
          List.iter
            (fun cfg ->
              Alcotest.(check bool)
                (Printf.sprintf "unit %d, %s: ranking = reference" unit_index
                   (cfg_label cfg))
                true
                (rank cfg = reference))
            grid)
        [ 0; 5 ])

(* The FALCON driver refuses ?stop under `Hd itself, before it reads a
   sidecar: pointed at a directory with none, it still raises the
   refusal rather than the missing-sidecar Failure. *)
let test_falcon_hd_stop_rejected () =
  with_falcon_store ~leakage:`Hd ~traces:16 (fun dir ->
      let reader = Tracestore.Reader.open_store dir in
      match
        Attack.Target.Falcon.recover_store ~leakage:`Hd
          ~stop:(Sequential.Decision.spec ~alpha:1e-3 ())
          ~dir:(Filename.concat dir "no-sidecars") reader
      with
      | _ -> Alcotest.fail "?stop under `Hd was accepted"
      | exception Invalid_argument msg ->
          Alcotest.(check bool) "message names a flag" true
            (String.starts_with ~prefix:"--" msg))

(* {2 HQC enumerator and key sidecar codec} *)

let prop_hqc_totality =
  QCheck.Test.make ~count:200 ~name:"hqc enumerator totality + truth coverage"
    QCheck.(pair (int_range 0 (Hqc.Params.weight - 1)) small_int)
    (fun (j, s) ->
      let secret = Hqc.keygen ~seed:s in
      let prev = Array.sub secret 0 j in
      let space = List.of_seq (Attack.Target.Hqc.guess_space ~unit_index:j ~prev) in
      List.length space = Attack.Target.Hqc.guess_count ~unit_index:j ~prev
      && List.mem secret.(j) space
      && List.for_all
           (fun g -> g >= 0 && g < Hqc.Params.n_bits && (j = 0 || g > prev.(j - 1)))
           space)

(* the HQC key sidecar (and the outcome witness) format *)
let prop_hqc_roundtrip =
  QCheck.Test.make ~count:200 ~name:"hqc encode_secret round-trip"
    QCheck.small_int (fun s ->
      let w = Hqc.keygen ~seed:s in
      Hqc.decode_secret (Hqc.encode_secret w) = Some w)

let test_hqc_decode_rejects () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "hqc rejects %S" s)
        true
        (Hqc.decode_secret s = None))
    [ ""; "garbage"; "HQCKEY1 "; "HQCKEY1 1,2,3"; "HQCKEY1 2,7,9,14,16,x" ]

(* split prep/eval factorisation: Model.apply of every HQC part equals
   the direct plain-model intermediate, which in turn equals the
   documented accumulator law *)
let prop_hqc_split_equivalence =
  QCheck.Test.make ~count:300 ~name:"hqc split model = plain model = accumulator"
    QCheck.(triple (int_range 0 (Hqc.Params.weight - 1)) small_int small_int)
    (fun (j, s, us) ->
      let secret = Hqc.keygen ~seed:s in
      let prev = Array.sub secret 0 j in
      let rng = Stats.Rng.create ~seed:us in
      let u =
        Stats.Rng.int_below rng (1 lsl Hqc.Params.word_bits)
        lor (Stats.Rng.int_below rng (1 lsl Hqc.Params.word_bits)
            lsl Hqc.Params.word_bits)
      in
      let g = secret.(j) in
      List.for_all
        (fun leakage ->
          let parts =
            Attack.Target.Hqc.parts ~leakage ~unit_index:j ~prev
          in
          List.length parts = Hqc.Params.words
          && List.for_all2
               (fun w (sample, m) ->
                 let direct =
                   match leakage with
                   | `Hw -> Hqc.m_acc ~prefix:prev ~word:w g u
                   | `Hd -> Hqc.m_rot ~word:w g u
                 in
                 let law =
                   match leakage with
                   | `Hw ->
                       Hqc.word w
                         (Hqc.accumulator
                            (Array.append prev [| g |])
                            ~prefix_len:(j + 1) u)
                   | `Hd -> Hqc.word w (Hqc.rotate u g)
                 in
                 sample = (j * Hqc.Params.words) + w
                 && Attack.Hypothesis.Model.apply m g u = direct
                 && direct = law
                 &&
                 match m with
                 | Attack.Hypothesis.Model.Split (prep, eval) ->
                     eval g (prep u) = direct
                 | Attack.Hypothesis.Model.Product prep -> g * prep u = direct
                 | Attack.Hypothesis.Model.Fn _ -> false)
               (List.init Hqc.Params.words Fun.id)
               parts)
        [ `Hw; `Hd ])

(* {2 HQC end-to-end} *)

let with_hqc_store ?(leakage = `Hw) f =
  let dir = Filename.temp_dir "fd_target_hqc" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Attack.Target.Hqc.record_store ~emitter:(emitter_of leakage) ~dir
        ~n:Hqc.Params.n_bits ~traces:220 ~noise:0.6 ~seed:11 ~shard_traces:64 ();
      f dir)

(* Sample-bit digests of the HQC capture under both probe models. *)
let test_hqc_capture_goldens () =
  let y = Hqc.keygen ~seed:11 in
  let model = { Leakage.default_model with noise_sigma = 0.6 } in
  List.iter
    (fun (emitter, want) ->
      let next = Hqc.capture_stream ~emitter model ~seed:11 y in
      let b = Buffer.create 4096 in
      for _ = 1 to 5 do
        let r = next () in
        Buffer.add_string b r.Tracestore.msg;
        Array.iter
          (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f))
          r.Tracestore.samples
      done;
      Alcotest.(check string)
        (match emitter with `Hw -> "hw" | `Hd -> "hd")
        want
        (Digest.to_hex (Digest.string (Buffer.contents b))))
    [
      (`Hw, "750d868652effc1b7df67aa778aea78f");
      (`Hd, "4abbb07dd5955ac36b5c3368ff1315fd");
    ]

let hqc_recover ?stop ?leakage dir cfg =
  let _, prefetch = cfg in
  Attack.Target.Hqc.recover_store ~ctx:(ctx_of cfg) ?stop ?leakage ~prefetch ~dir
    (Tracestore.Reader.open_store dir)

let test_hqc_e2e_determinism () =
  with_hqc_store (fun dir ->
      let truth =
        Option.get
          (Hqc.decode_secret (Sidecar.read_file (Filename.concat dir Hqc.key_file)))
      in
      let reference = hqc_recover dir (1, false) in
      Alcotest.(check bool) "recovers the secret" true
        reference.Attack.Target.success;
      Alcotest.(check string) "witness = encoded sidecar truth"
        (Hqc.encode_secret truth)
        reference.Attack.Target.witness;
      Alcotest.(check int) "all units attacked" Hqc.Params.weight
        reference.Attack.Target.units;
      Alcotest.(check int) "every unit correct" reference.Attack.Target.units
        reference.Attack.Target.units_ok;
      List.iter
        (fun cfg ->
          Alcotest.(check bool)
            (cfg_label cfg ^ ": outcome bit-identical")
            true
            (hqc_recover dir cfg = reference))
        grid)

(* A fixed-budget crack reports the traces it read: the shards that
   [`Skip] drops are not among them. *)
let test_hqc_skip_counts_traces_read () =
  with_hqc_store (fun dir ->
      let whole = hqc_recover dir (1, false) in
      Alcotest.(check int) "intact store: every trace" 220 whole.Attack.Target.traces;
      let shard = Filename.concat dir "shard-0001.fdt" in
      let bytes = Sidecar.read_file shard in
      let oc = open_out_bin shard in
      output_string oc (String.sub bytes 0 (String.length bytes / 2));
      close_out oc;
      let o =
        Attack.Target.Hqc.recover_store ~on_corrupt:`Skip ~dir
          (Tracestore.Reader.open_store dir)
      in
      Alcotest.(check int) "cut shard of 64 dropped" (220 - 64) o.Attack.Target.traces)

let test_hqc_stop_parity () =
  with_hqc_store (fun dir ->
      let stop = Sequential.Decision.spec ~alpha:1e-3 () in
      let reference =
        hqc_recover ~stop dir (1, false)
      in
      Alcotest.(check bool) "adaptive run recovers the secret" true
        reference.Attack.Target.success;
      (match reference.Attack.Target.stop with
      | None -> Alcotest.fail "no stopping summary from the adaptive run"
      | Some s ->
          Alcotest.(check int) "one decision per unit" Hqc.Params.weight
            (Array.length s.Sequential.Campaign.traces_used));
      List.iter
        (fun cfg ->
          Alcotest.(check bool)
            (cfg_label cfg ^ ": stops and winners bit-identical")
            true
            (hqc_recover ~stop dir cfg = reference))
        grid)

let test_hqc_hd_acceptance () =
  (* hqc stops under both leakage families (the HD hypothesis is
     prefix-free), and an hd-recorded store is recovered under the hd
     model — including adaptively *)
  with_hqc_store ~leakage:`Hd (fun dir ->
      let o =
        hqc_recover ~leakage:`Hd dir (2, true)
      in
      Alcotest.(check bool) "hd store + hd model recovers" true
        o.Attack.Target.success;
      let o_stop =
        hqc_recover
          ~stop:(Sequential.Decision.spec ~alpha:1e-3 ())
          ~leakage:`Hd dir
          (1, false)
      in
      Alcotest.(check bool) "hd adaptive run recovers" true
        o_stop.Attack.Target.success;
      Alcotest.(check string) "hd adaptive witness agrees"
        o.Attack.Target.witness o_stop.Attack.Target.witness)

let test_hqc_hd_rejection () =
  (* the mismatched model must not reconstruct the secret from an
     hw-recorded campaign *)
  with_hqc_store ~leakage:`Hw (fun dir ->
      let o = hqc_recover ~leakage:`Hd dir (1, false) in
      Alcotest.(check bool) "hw store + hd model fails" false
        o.Attack.Target.success;
      Alcotest.(check bool) "units_ok counts the wrong units" true
        (o.Attack.Target.units_ok < o.Attack.Target.units))

let test_hqc_rejects_falcon_store () =
  with_falcon_store ~traces:16 (fun dir ->
      match hqc_recover dir (1, false) with
      | _ -> Alcotest.fail "hqc recover accepted a FALCON store"
      | exception Failure _ -> ())

(* A fixed budget reads every stored trace: ?max_traces without ?stop
   is refused on both targets rather than silently ignored. *)
let test_max_traces_needs_stop () =
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s: ?max_traces without ?stop was accepted" what
    | exception Invalid_argument _ -> ()
  in
  with_falcon_store ~traces:16 (fun dir ->
      refused "falcon" (fun () ->
          Attack.Target.Falcon.recover_store ~max_traces:8 ~dir
            (Tracestore.Reader.open_store dir)));
  with_hqc_store (fun dir ->
      refused "hqc" (fun () ->
          Attack.Target.Hqc.recover_store ~max_traces:8 ~dir
            (Tracestore.Reader.open_store dir)))

(* Target.check_options refuses each combination a store crack cannot
   run on any target, naming the command-line flags and without
   touching a store, and lets every runnable one through. *)
let test_check_options () =
  let stop = Some (Sequential.Decision.spec ~alpha:1e-3 ()) in
  let label (stop, max_traces) =
    Printf.sprintf "stop=%b max_traces=%b" (stop <> None) (max_traces <> None)
  in
  let check (stop, max_traces) =
    Attack.Target.check_options ~stop ~max_traces ()
  in
  (match check (None, Some 8) with
  | () -> Alcotest.fail "max_traces without stop: accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names a flag" true
        (String.starts_with ~prefix:"--" msg));
  List.iter
    (fun c ->
      match check c with
      | () -> ()
      | exception Invalid_argument msg -> Alcotest.failf "%s: %s" (label c) msg)
    [ (stop, Some 8); (stop, None); (None, None) ]

(* {2 Registry} *)

let test_registry () =
  Alcotest.(check (list string)) "names" [ "falcon"; "hqc" ] Attack.Target.names;
  List.iter
    (fun n ->
      match Attack.Target.find n with
      | Some (module T : Attack.Target.S) ->
          Alcotest.(check string) "find returns the named target" n T.name
      | None -> Alcotest.failf "target %s not found" n)
    Attack.Target.names;
  Alcotest.(check bool) "unknown target absent" true
    (Attack.Target.find "kyber" = None);
  (* a store names its target by its shape alone *)
  let name_of ~n ~width =
    let model = { Tracestore.alpha = 1.; noise_sigma = 0.5; baseline = 0. } in
    Option.map
      (fun (module T : Attack.Target.S) -> T.name)
      (Attack.Target.of_meta { Tracestore.n; width; shard_traces = 8; model })
  in
  Alcotest.(check (option string)) "falcon-16 store" (Some "falcon")
    (name_of ~n:16 ~width:(16 * Leakage.events_per_coeff));
  Alcotest.(check (option string)) "hqc store" (Some "hqc")
    (name_of ~n:Hqc.Params.n_bits ~width:Hqc.Params.width);
  Alcotest.(check (option string)) "record-tvla store" None
    (name_of ~n:2 ~width:Leakage.events_per_mul)

let suite =
  [
    Alcotest.test_case "falcon parity vs golden path (hw)" `Slow
      (check_falcon_parity `Hw);
    Alcotest.test_case "falcon parity vs golden path (hd)" `Slow
      (check_falcon_parity `Hd);
    Alcotest.test_case "falcon hand-built rank finds truth" `Slow
      test_falcon_hand_ranking;
    Alcotest.test_case "falcon rejects ?stop under hd" `Quick
      test_falcon_hd_stop_rejected;
    QCheck_alcotest.to_alcotest prop_hqc_totality;
    QCheck_alcotest.to_alcotest prop_hqc_roundtrip;
    Alcotest.test_case "hqc decode_secret rejects garbage" `Quick
      test_hqc_decode_rejects;
    QCheck_alcotest.to_alcotest prop_hqc_split_equivalence;
    Alcotest.test_case "hqc capture goldens" `Quick test_hqc_capture_goldens;
    Alcotest.test_case "hqc end-to-end determinism" `Quick
      test_hqc_e2e_determinism;
    Alcotest.test_case "hqc fixed budget counts the traces read" `Quick
      test_hqc_skip_counts_traces_read;
    Alcotest.test_case "hqc early-stop parity across configurations" `Quick
      test_hqc_stop_parity;
    Alcotest.test_case "hqc hd acceptance (store + adaptive)" `Quick
      test_hqc_hd_acceptance;
    Alcotest.test_case "hqc hd rejection on an hw store" `Quick
      test_hqc_hd_rejection;
    Alcotest.test_case "hqc rejects a falcon store" `Quick
      test_hqc_rejects_falcon_store;
    Alcotest.test_case "?max_traces without ?stop refused" `Quick
      test_max_traces_needs_stop;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "check_options refuses before any I/O" `Quick
      test_check_options;
  ]
