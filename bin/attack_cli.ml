(* Attack driver: run the full Falcon-Down key-recovery + forgery
   pipeline on a fresh in-memory victim, or crack a trace store recorded
   with trace_cli offline.

     dune exec bin/attack_cli.exe -- run -n 32 -t 2500 --noise 2.0 -j 4
     dune exec bin/attack_cli.exe -- coefficient --traces 4000
     dune exec bin/attack_cli.exe -- crack --store campaign --log jsonl:run.jsonl
     dune exec bin/attack_cli.exe -- crack --store campaign --until-confident=1e-3 *)

(* Exit statuses follow the repository-wide convention in Cli_common:
   expected failures (malformed or missing input files, failed key
   reconstruction) become a message on stderr and the data-error status
   rather than an uncaught exception.  The -j/--templates/--log flags
   are parsed in Cli_common and arrive as an Attack.Ctx. *)

let cmd_run n traces noise seed jobs log templates =
  Cli_common.run ~jobs ?templates log @@ fun ctx ->
  let model = { Leakage.default_model with noise_sigma = noise } in
  Printf.printf "victim: FALCON-%d, %d traces, noise sigma %.2f, seed %d\n%!" n traces
    noise seed;
  let sk, pk = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim-%d" seed) in
  let captured = Leakage.capture model ~seed sk ~count:traces in
  let res =
    Attack.Fullkey.recover_key ~ctx ~traces:captured ~h:pk.h
      (Attack.Fullkey.sampled_strategy ~seed sk.f_fft)
  in
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

let cmd_coefficient traces noise seed jobs log templates =
  Cli_common.run ~jobs ?templates log @@ fun ctx ->
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

(* Profiling phase of the GALACTICS-style template attack: train
   per-intermediate Gaussian templates on a cloned-device campaign whose
   ground-truth sidecars the store carries, and persist them for
   `crack --templates PATH`. *)
let cmd_profile dir out leakage npoi ndim max_traces log (sf : Cli_common.stream) =
  Cli_common.run log @@ fun ctx ->
  let reader = Tracestore.Reader.open_store dir in
  let t = Cli_common.target_of_store dir reader in
  let module T = (val t : Attack.Target.S) in
  Printf.printf "profiling %d traces (%d shards) of a %s campaign from %s\n%!"
    (Tracestore.Reader.total_traces reader)
    (Tracestore.Reader.shard_count reader)
    T.name dir;
  let store =
    Attack.Target.profile ~ctx ~leakage ~on_corrupt:sf.on_corrupt ~prefetch:sf.prefetch
      ?npoi ?ndim ?max_traces t ~dir reader
  in
  Attack.Profile.save out store;
  Printf.printf "wrote %s: %s\n" out (Attack.Profile.describe store);
  0

(* Every store crack goes through the target registry: the store's
   manifest names its target, and the same store streaming, sequential
   stopping and outcome format serve every scheme. *)
let cmd_crack dir leakage until_confident max_traces jobs log templates
    (sf : Cli_common.stream) =
  Cli_common.run ~jobs ?templates log @@ fun ctx ->
  let stop =
    Option.map (fun alpha -> Sequential.Decision.spec ~alpha ()) until_confident
  in
  (* the flag-only refusals come before the first line of output or I/O *)
  Attack.Target.check_options ~ctx ~stop ~max_traces ();
  (if leakage = `Hd then
     Printf.printf
       "matching bus Hamming-distance hypothesis models (campaign recorded \
        with --model hd)\n%!");
  let reader = Tracestore.Reader.open_store dir in
  let module T = (val Cli_common.target_of_store dir reader : Attack.Target.S) in
  Printf.printf "streaming %d traces (%d shards) of a %s victim from %s\n%!"
    (Tracestore.Reader.total_traces reader)
    (Tracestore.Reader.shard_count reader)
    T.name dir;
  Option.iter
    (Printf.printf "adaptive trace budget: stop per unit at confidence (alpha %g)\n%!")
    until_confident;
  let o =
    T.recover_store ~ctx ~leakage ?stop ?max_traces ~on_corrupt:sf.on_corrupt
      ~prefetch:sf.prefetch ~dir reader
  in
  (match o.Attack.Target.stop with Some s -> print_stop_summary s | None -> ());
  Printf.printf "recovered %d/%d key units from %d of %d traces\n" o.units_ok o.units
    o.traces
    (Tracestore.Reader.total_traces reader);
  Printf.printf "witness: %s\n" (String.trim o.witness);
  Printf.printf "secret recovered exactly: %b\n" o.success;
  if o.success then 0 else 1

open Cmdliner

let n_arg = Cli_common.n_arg
let traces_arg = Cli_common.traces_arg
let noise_arg = Cli_common.noise_arg
let seed_arg = Cli_common.seed_arg ()
let jobs_arg = Cli_common.jobs_arg
let log_term = Cli_common.log_term
let templates_arg = Cli_common.templates_arg

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Full key extraction and forgery on a fresh victim")
    Term.(
      const cmd_run $ n_arg $ traces_arg $ noise_arg $ seed_arg $ jobs_arg
      $ log_term $ templates_arg)

let coeff_cmd =
  Cmd.v
    (Cmd.info "coefficient" ~doc:"Attack the single coefficient of the paper's Fig. 4")
    Term.(
      const cmd_coefficient $ traces_arg $ noise_arg $ seed_arg $ jobs_arg
      $ log_term $ templates_arg)

let store_arg =
  Cli_common.store_default_arg
    ~doc:
      "Sharded trace-store campaign to attack (recorded with trace_cli); its \
       manifest names the target (FALCON or HQC).  Shards are streamed: a \
       fixed-budget crack holds one shard per worker plus a window buffer of \
       at most 8 shards' worth.  Under $(b,--until-confident) a FALCON \
       crack also buffers, for each undecided unit, its two 16-sample \
       windows of every trace read so far: up to D x 2n x 32 floats after D \
       traces."

let leakage_arg =
  Arg.(
    value
    & opt (enum [ ("hw", `Hw); ("hd", `Hd) ]) `Hw
    & info [ "leakage" ] ~docv:"MODEL"
        ~doc:
          "Hypothesis models to match: $(b,hw) (Hamming weight, the default) \
           or $(b,hd) (bus Hamming-distance transitions — for campaigns \
           recorded with trace_cli $(b,--model hd)).  On a FALCON store \
           $(b,hd) cannot combine with $(b,--until-confident): its streaming \
           decision sweep has no d-free Hamming-distance part set (the HQC \
           transition hypothesis is prefix-free, so an HQC store stops under \
           both).")

let until_confident_arg =
  Arg.(
    value
    & opt ~vopt:(Some 1e-4) (some float) None
    & info [ "until-confident" ] ~docv:"ALPHA"
        ~doc:
          "Adaptive trace budget: each unit stops reading traces once the \
           sequential Fisher-z test on its top-1 vs runner-up correlation gap \
           reaches confidence, instead of consuming the whole campaign.  \
           ALPHA is the nominal per-unit level: every unit runs its own \
           one-sided test and spends ALPHA across its looks (ALPHA 2^-k at \
           look k).  This bounds no family-wise error: each of the 2n units \
           spends the full ALPHA, and in practice a unit can stop on a wrong \
           winner more often than that (an open item of the ROADMAP).  The \
           recovered key and every stop point are bit-identical across -j \
           and $(b,--no-prefetch).")

let max_traces_arg ~doc =
  Arg.(value & opt (some int) None & info [ "max-traces" ] ~docv:"N" ~doc)

let crack_cmd =
  Cmd.v
    (Cmd.info "crack"
       ~doc:"Recover the key and forge from a recorded trace store")
    Term.(
      const cmd_crack $ store_arg $ leakage_arg $ until_confident_arg
      $ max_traces_arg
          ~doc:
            "Cap the adaptive campaign at N traces (needs \
             $(b,--until-confident)): undecided units fall back to their \
             full buffered prefix at the cap.  A fixed-budget crack reads the \
             whole store, so without $(b,--until-confident) the option is \
             refused."
      $ jobs_arg $ log_term $ templates_arg $ Cli_common.stream_term)

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
      const cmd_profile $ profile_store_arg $ profile_out_arg $ leakage_arg
      $ npoi_arg $ ndim_arg
      $ max_traces_arg ~doc:"Train on the first N traces of the campaign only."
      $ log_term $ Cli_common.stream_term)

let () =
  let doc = "Falcon Down side-channel attack driver" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "attack_cli" ~doc)
          [ run_cmd; coeff_cmd; crack_cmd; profile_cmd ]))
