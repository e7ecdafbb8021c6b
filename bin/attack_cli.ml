(* Attack driver: capture simulated EM traces of a FALCON victim and run
   the full Falcon-Down key-recovery + forgery pipeline.

     dune exec bin/attack_cli.exe -- run -n 32 -t 2500 --noise 2.0 -j 4
     dune exec bin/attack_cli.exe -- coefficient --traces 4000
     dune exec bin/attack_cli.exe -- crack --store campaign --log jsonl:run.jsonl *)

(* Exit statuses follow the repository-wide convention in Cli_common:
   expected failures (malformed or missing input files, failed key
   reconstruction) become a message on stderr and the data-error status
   rather than an uncaught exception.  The shared -j/--backend/--log
   flags are parsed once in Cli_common and arrive as an Attack.Ctx. *)

let cmd_run n traces noise seed flags =
  Cli_common.run flags @@ fun ctx ->
  let model = { Leakage.default_model with noise_sigma = noise } in
  Printf.printf "victim: FALCON-%d, %d traces, noise sigma %.2f, seed %d\n%!" n traces
    noise seed;
  let sk, pk = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim-%d" seed) in
  let captured = Leakage.capture model ~seed sk ~count:traces in
  let strategy ~coeff ~mul =
    let truth = if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff) in
    Attack.Recover.Eval_sampled
      { rng = Stats.Rng.create ~seed:(seed + (coeff * 7) + mul); decoys = 512; truth }
  in
  let res = Attack.Fullkey.recover_key ~ctx ~traces:captured ~h:pk.h strategy in
  Printf.printf "bit-exact FFT(f) coefficients: %d / %d\n"
    (Attack.Fullkey.count_correct res.f_fft ~truth:sk.f_fft)
    (2 * n);
  Printf.printf "f recovered exactly: %b\n" (res.f = sk.kp.f);
  match res.keypair with
  | None ->
      print_endline "key reconstruction failed — increase --traces";
      1
  | Some kp ->
      let msg = "attacker-chosen message" in
      let sg = Attack.Fullkey.forge ~keypair:kp ~seed:"forger" msg in
      Printf.printf "forged signature on %S verifies: %b\n" msg
        (Falcon.Scheme.verify pk msg sg);
      0

let cmd_coefficient traces noise seed flags =
  Cli_common.run flags @@ fun ctx ->
  let model = { Leakage.default_model with noise_sigma = noise } in
  let x = 0xC06017BC8036B580L in
  Printf.printf "attacking the paper's coefficient %Lx with %d traces\n%!" x traces;
  let known =
    Attack.Workload.known_inputs ~n:64 ~coeff:5 ~component:`Re ~count:traces
      ~seed:(Printf.sprintf "cli-%d" seed)
  in
  let v = Attack.Workload.mul_views model (Stats.Rng.create ~seed) ~x ~known in
  let got =
    Attack.Recover.coefficient ~ctx
      ~strategy:
        (Attack.Recover.Eval_sampled
           { rng = Stats.Rng.create ~seed:(seed + 1); decoys = 4096; truth = x })
      [ v ]
  in
  Printf.printf "recovered %Lx — %s\n" got
    (if got = x then "bit-exact match" else "MISMATCH");
  if got = x then 0 else 1

let cmd_capture n traces noise seed out flags =
  Cli_common.run flags @@ fun _ctx ->
  let model = { Leakage.default_model with noise_sigma = noise } in
  let sk, pk = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim-%d" seed) in
  Printf.printf "capturing %d traces of a fresh FALCON-%d victim...\n%!" traces n;
  let captured = Leakage.capture model ~seed sk ~count:traces in
  Leakage.save out captured;
  (* the attacker also holds the public key; store it alongside *)
  let oc = open_out (out ^ ".pk") in
  output_string oc (Falcon.Keycodec.encode_public pk);
  close_out oc;
  (* and, for evaluation of the sampled-hypothesis mode, the truth *)
  let oc = open_out (out ^ ".sk") in
  output_string oc (Falcon.Keycodec.encode_secret sk.kp);
  close_out oc;
  Printf.printf "wrote %s (traces), %s.pk (public key), %s.sk (ground truth)\n" out out
    out;
  0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The sampled-hypothesis evaluation strategy used by both crack paths:
   pure per (coeff, mul), so recovery is bit-identical at every -j. *)
let crack_strategy truth_sk ~coeff ~mul =
  let truth =
    if mul = 0 then truth_sk.Falcon.Scheme.f_fft.Fft.re.(coeff)
    else truth_sk.Falcon.Scheme.f_fft.Fft.im.(coeff)
  in
  Attack.Recover.Eval_sampled
    { rng = Stats.Rng.create ~seed:(coeff * 7 + mul); decoys = 512; truth }

let crack_report pk truth_kp (res : Attack.Fullkey.result) =
  Printf.printf "f recovered exactly: %b\n" (res.f = truth_kp.Ntru.Ntrugen.f);
  match res.keypair with
  | None ->
      print_endline "key reconstruction failed";
      1
  | Some kp ->
      let msg = "offline-cracked forgery" in
      let sg = Attack.Fullkey.forge ~keypair:kp ~seed:"forger" msg in
      Printf.printf "forged signature verifies: %b\n" (Falcon.Scheme.verify pk msg sg);
      0

let print_stop_summary (s : Sequential.Campaign.summary) =
  let used = Array.copy s.Sequential.Campaign.traces_used in
  Array.sort compare used;
  let n = Array.length used in
  let mean =
    Array.fold_left (fun acc u -> acc +. float_of_int u) 0. used /. float_of_int n
  in
  Printf.printf
    "sequential stopping: %d/%d units stopped early (%d looks)\n\
     traces-to-decision: mean %.1f, median %d of %d budgeted; %d trace-reads saved\n%!"
    s.Sequential.Campaign.stopped s.Sequential.Campaign.units
    s.Sequential.Campaign.looks mean
    used.((n - 1) / 2)
    s.Sequential.Campaign.total_traces s.Sequential.Campaign.traces_saved

(* Non-FALCON victims go through the target registry: same store
   streaming, same sequential stopping, scheme-specific enumerator and
   key reassembly behind Attack.Target.S. *)
let crack_target (module T : Attack.Target.S) dir leakage until_confident alpha
    max_traces flags ctx =
  let reader = Cli_common.open_store flags dir in
  Printf.printf "streaming %d traces (%d shards) of a %s victim from %s\n%!"
    (Tracestore.Reader.total_traces reader)
    (Tracestore.Reader.shard_count reader)
    T.name dir;
  let stop =
    if until_confident then begin
      Printf.printf "adaptive trace budget: stop per unit at confidence (alpha %g)\n%!"
        alpha;
      Some (Sequential.Decision.spec ~alpha ())
    end
    else None
  in
  let o =
    T.recover_store ~ctx ~leakage ?stop ?max_traces
      ~on_corrupt:flags.Cli_common.Common_flags.on_corrupt
      ~prefetch:flags.Cli_common.Common_flags.prefetch ~dir reader
  in
  (match o.Attack.Target.stop with Some s -> print_stop_summary s | None -> ());
  Printf.printf "recovered %d/%d key units from %d of %d traces\n" o.units o.units
    o.traces
    (Tracestore.Reader.total_traces reader);
  Printf.printf "witness: %s\n" (String.trim o.witness);
  Printf.printf "secret recovered exactly: %b\n" o.success;
  if o.success then 0 else 1

(* Profiling phase of the GALACTICS-style template attack: train
   per-intermediate Gaussian templates on a cloned-device campaign whose
   ground-truth sidecars the store carries, and persist them for
   `crack --backend profiled --templates PATH`. *)
let cmd_profile target dir out leakage npoi ndim max_traces flags =
  Cli_common.run flags @@ fun ctx ->
  match Attack.Target.find target with
  | None ->
      prerr_endline ("unknown --target " ^ target);
      1
  | Some t ->
      let reader = Cli_common.open_store flags dir in
      let module T = (val t : Attack.Target.S) in
      Printf.printf "profiling %d traces (%d shards) of a %s campaign from %s\n%!"
        (Tracestore.Reader.total_traces reader)
        (Tracestore.Reader.shard_count reader)
        T.name dir;
      let store =
        Attack.Target.profile ~ctx ~leakage
          ~on_corrupt:flags.Cli_common.Common_flags.on_corrupt
          ~prefetch:flags.Cli_common.Common_flags.prefetch ?npoi ?ndim ?max_traces t
          ~dir reader
      in
      Attack.Profile.save out store;
      Printf.printf "wrote %s: %s\n" out (Attack.Profile.describe store);
      0

let cmd_crack target input store leakage until_confident alpha max_traces flags =
  Cli_common.run flags @@ fun ctx ->
  (if leakage = `Hd then
     Printf.printf
       "matching bus Hamming-distance hypothesis models (campaign recorded \
        with --model hd)\n%!");
  match store with
  | Some dir when target <> "falcon" -> (
      match Attack.Target.find target with
      | Some t -> crack_target t dir leakage until_confident alpha max_traces flags ctx
      | None ->
          prerr_endline ("unknown --target " ^ target);
          1)
  | None when target <> "falcon" ->
      prerr_endline ("--target " ^ target ^ " needs a sharded campaign: pass --store");
      1
  | Some dir -> (
      (* out-of-core path: stream shards from the store, never holding
         the whole campaign in memory *)
      let reader = Cli_common.open_store flags dir in
      match
        ( Falcon.Keycodec.decode_public (read_file (Filename.concat dir "public.key")),
          Falcon.Keycodec.decode_secret (read_file (Filename.concat dir "secret.key"))
        )
      with
      | Some pk, Some truth_kp ->
          let truth_sk = Falcon.Scheme.secret_of_keypair truth_kp in
          Printf.printf
            "streaming %d traces (%d shards) of a FALCON-%d victim from %s\n%!"
            (Tracestore.Reader.total_traces reader)
            (Tracestore.Reader.shard_count reader)
            pk.params.n dir;
          let stop =
            if until_confident then begin
              Printf.printf
                "adaptive trace budget: stop per coefficient at confidence \
                 (alpha %g)\n%!"
                alpha;
              Some (Sequential.Decision.spec ~alpha ())
            end
            else None
          in
          let res =
            Attack.Fullkey.recover_key_store ~ctx
              ~on_corrupt:flags.Cli_common.Common_flags.on_corrupt
              ~prefetch:flags.Cli_common.Common_flags.prefetch ~leakage ?stop
              ?max_traces ~stop_report:print_stop_summary ~reader ~h:pk.h
              (crack_strategy truth_sk)
          in
          crack_report pk truth_kp res
      | _ ->
          prerr_endline "could not read the store's public.key/secret.key files";
          1)
  | None when until_confident || max_traces <> None ->
      prerr_endline
        "--until-confident/--max-traces need a sharded campaign: pass --store";
      1
  | None -> (
      let traces = Leakage.load input in
      match
        ( Falcon.Keycodec.decode_public (read_file (input ^ ".pk")),
          Falcon.Keycodec.decode_secret (read_file (input ^ ".sk")) )
      with
      | Some pk, Some truth_kp ->
          let truth_sk = Falcon.Scheme.secret_of_keypair truth_kp in
          Printf.printf "loaded %d traces of a FALCON-%d victim\n%!"
            (Array.length traces) pk.params.n;
          let res =
            Attack.Fullkey.recover_key ~ctx ~leakage ~traces ~h:pk.h
              (crack_strategy truth_sk)
          in
          crack_report pk truth_kp res
      | _ ->
          prerr_endline "could not read companion .pk/.sk files";
          1)

open Cmdliner

let n_arg = Cli_common.n_arg
let traces_arg = Cli_common.traces_arg ()
let noise_arg = Cli_common.noise_arg
let seed_arg = Cli_common.seed_arg ()
let flags = Cli_common.flags_term

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Full key extraction and forgery on a fresh victim")
    Term.(const cmd_run $ n_arg $ traces_arg $ noise_arg $ seed_arg $ flags)

let coeff_cmd =
  Cmd.v
    (Cmd.info "coefficient" ~doc:"Attack the single coefficient of the paper's Fig. 4")
    Term.(const cmd_coefficient $ traces_arg $ noise_arg $ seed_arg $ flags)

let out_arg =
  Arg.(value & opt string "traces.bin" & info [ "o"; "out" ] ~doc:"Trace file.")

let in_arg =
  Arg.(value & opt string "traces.bin" & info [ "i"; "input" ] ~doc:"Trace file.")

let store_arg =
  Cli_common.store_opt_arg
    ~doc:
      "Attack a sharded trace-store campaign (recorded with trace_cli) instead \
       of a single trace file, streaming shards so peak memory stays bounded by \
       one shard per worker plus a window buffer of at most 8 shards' worth.  \
       Overrides --input."

let capture_cmd =
  Cmd.v
    (Cmd.info "capture" ~doc:"Capture simulated EM traces of a fresh victim to a file")
    Term.(const cmd_capture $ n_arg $ traces_arg $ noise_arg $ seed_arg $ out_arg $ flags)

let leakage_arg =
  Arg.(
    value
    & opt (enum [ ("hw", `Hw); ("hd", `Hd) ]) `Hw
    & info [ "leakage" ] ~docv:"MODEL"
        ~doc:
          "Hypothesis models to match: $(b,hw) (Hamming weight, the default) \
           or $(b,hd) (bus Hamming-distance transitions — for campaigns \
           recorded with trace_cli $(b,--model hd)).  For the FALCON target \
           $(b,hd) cannot combine with $(b,--until-confident): its streaming \
           decision sweep has no d-free Hamming-distance part set (the HQC \
           transition hypothesis is prefix-free, so $(b,--target hqc) stops \
           under both).")

let until_confident_arg =
  Arg.(
    value
    & flag
    & info [ "until-confident" ]
        ~doc:
          "Adaptive trace budget (needs $(b,--store)): each coefficient stops \
           reading traces once the sequential Fisher-z test on its top-1 vs \
           runner-up correlation gap reaches confidence, instead of consuming \
           the whole campaign.  The recovered key and every stop point are \
           bit-identical across -j and $(b,--no-prefetch).")

let alpha_arg =
  Arg.(
    value
    & opt float 1e-4
    & info [ "alpha" ] ~docv:"ALPHA"
        ~doc:
          "Family-wise error budget of the sequential test behind \
           $(b,--until-confident): the probability that any coefficient stops \
           on a wrong winner is at most ALPHA.")

let max_traces_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-traces" ] ~docv:"N"
        ~doc:
          "Cap the streamed campaign at N traces (needs $(b,--store)); with \
           $(b,--until-confident), undecided coefficients fall back to their \
           full buffered prefix at the cap.")

let crack_cmd =
  Cmd.v
    (Cmd.info "crack"
       ~doc:"Recover the key and forge from a stored trace file or trace store")
    Term.(
      const cmd_crack $ Cli_common.target_arg $ in_arg $ store_arg $ leakage_arg
      $ until_confident_arg $ alpha_arg $ max_traces_arg $ flags)

let profile_store_arg =
  Cli_common.store_default_arg
    ~doc:
      "Sharded profiling campaign recorded on the cloned device (with its \
       ground-truth key sidecars, as trace_cli record writes them)."

let profile_out_arg =
  Arg.(
    value
    & opt string "templates.bin"
    & info [ "o"; "out" ] ~docv:"PATH"
        ~doc:"Template store to write (the $(b,--templates) input of crack).")

let npoi_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "npoi" ] ~docv:"K"
        ~doc:"Points of interest per template (default 8).")

let ndim_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "ndim" ] ~docv:"R"
        ~doc:"LDA output dimensions per template (default 3).")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Train profiled Gaussian templates on a cloned-device campaign with \
          known key")
    Term.(
      const cmd_profile $ Cli_common.target_arg $ profile_store_arg
      $ profile_out_arg $ leakage_arg $ npoi_arg $ ndim_arg $ max_traces_arg
      $ flags)

let () =
  let doc = "Falcon Down side-channel attack driver" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "attack_cli" ~doc)
          [ run_cmd; coeff_cmd; capture_cmd; crack_cmd; profile_cmd ]))
