(* Trace-campaign driver: record, extend, inspect and verify sharded
   on-disk trace stores (lib/tracestore), the acquisition side of the
   out-of-core attack pipeline.  [record] hands every --target to its
   Attack.Target instance with the device model built from
   --model/--jitter/--drift; every store is written by Target.record,
   and every sample is drawn by Leakage.render.

     dune exec bin/trace_cli.exe -- record -n 32 -t 5000 --shard 1000 -o campaign
     dune exec bin/trace_cli.exe -- verify -i campaign
     dune exec bin/attack_cli.exe -- crack --store campaign -j 4 *)

(* --model/--jitter/--drift compose into a Leakage.emitter; a target
   refuses one it cannot simulate (HQC: hw or hd, no jitter). *)
let emitter_of kind jitter drift =
  let kind =
    match kind with
    | `Hw -> Leakage.Hw
    | `Hd -> Leakage.Hd Leakage.Register_file.bus
    | `Pipeline ->
        Leakage.Pipelined (Leakage.Register_file.bus, Leakage.Pipeline.default)
  in
  { Leakage.kind; jitter = { Leakage.max_shift = jitter; drift } }

let emitter_label kind jitter drift =
  let k =
    match kind with `Hw -> "hw" | `Hd -> "hd" | `Pipeline -> "pipeline"
  in
  if jitter = 0 && drift = 0. then k
  else Printf.sprintf "%s, jitter max %d samples, drift %.3f" k jitter drift

(* Every target records through the registry: the instance owns its
   victim generation, refuses a bad emitter or noise model before the
   store is created, and writes its ground-truth sidecars. *)
let cmd_record target n traces noise model_kind jitter drift seed shard out log =
  Cli_common.run log @@ fun ctx ->
  let module T = (val Option.get (Attack.Target.find target)) in
  T.record_store ~ctx
    ~emitter:(emitter_of model_kind jitter drift)
    ~dir:out ~n ~traces ~noise ~seed ~shard_traces:shard ();
  Printf.printf
    "recorded %d traces of a fresh %s-%d victim into %s (noise sigma %.2f, \
     device model %s): %d shards of %d + manifest and key sidecars\n"
    traces T.name n out noise
    (emitter_label model_kind jitter drift)
    ((traces + shard - 1) / shard)
    shard;
  0

(* The victim a store's manifest names, e.g. "FALCON-16": the registered
   target whose codec accepts it; none for a record-tvla campaign. *)
let victim_of (m : Tracestore.meta) =
  Option.map
    (fun (module T : Attack.Target.S) ->
      Printf.sprintf "%s-%d" (String.uppercase_ascii T.name) m.Tracestore.n)
    (Attack.Target.of_meta m)

(* Appending re-signs with the FALCON secret.key sidecar, so any other
   store is refused, naming its target, before the writer is opened. *)
let cmd_append store traces seed log =
  Cli_common.run log @@ fun ctx ->
  let module T =
    (val Cli_common.target_of_store store (Tracestore.Reader.open_store store))
  in
  if T.name <> Attack.Target.Falcon.name then
    failwith
      (Printf.sprintf
         "%s: append extends FALCON campaigns only (this store's target is %s)" store
         T.name);
  let writer = Tracestore.Writer.open_append store in
  let meta = Tracestore.Writer.meta writer in
  match
    Falcon.Keycodec.decode_secret
      (Cli_common.read_file (Filename.concat store "secret.key"))
  with
  | None ->
      prerr_endline "could not read the store's secret.key (needed to keep signing)";
      1
  | Some kp ->
      let sk = Falcon.Scheme.secret_of_keypair kp in
      let next = Leakage.capture_stream meta.Tracestore.model ~seed sk in
      let before = Tracestore.Writer.total_traces writer in
      Printf.printf
        "appending %d traces (campaign seed %d) to %s holding %d; existing shards \
         are never rewritten\n%!"
        traces seed store before;
      Attack.Target.record ~ctx writer ~traces (fun () -> Leakage.to_record (next ()));
      Printf.printf "store now records %d traces\n" (before + traces);
      0

let cmd_inspect store =
  Cli_common.with_errors @@ fun () ->
  let reader = Tracestore.Reader.open_store store in
  let m = Tracestore.Reader.meta reader in
  Printf.printf "store      %s\n" store;
  (match victim_of m with
  | Some v -> Printf.printf "victim     %s (%d samples/trace)\n" v m.Tracestore.width
  | None ->
      Printf.printf "shape      n %d, %d samples/trace (no registered victim)\n"
        m.Tracestore.n m.Tracestore.width);
  Printf.printf "model      alpha %.3f, noise sigma %.3f, baseline %.3f\n"
    m.Tracestore.model.alpha m.Tracestore.model.noise_sigma m.Tracestore.model.baseline;
  Printf.printf "sharding   %d traces per full shard\n" m.Tracestore.shard_traces;
  if Tracestore.Reader.shard_count reader = 0 then
    (* a just-created or fully-pruned campaign is a valid store *)
    Printf.printf "empty store: 0 traces in 0 shards\n"
  else begin
    (* the cumulative column maps a sequential stop at n traces back to
       the shard boundary where the adaptive campaign stopped reading *)
    Printf.printf "shard | traces | cumul  | bytes    | crc32\n";
    Printf.printf "------+--------+--------+----------+---------\n";
    let cumul = ref 0 in
    for i = 0 to Tracestore.Reader.shard_count reader - 1 do
      let e = Tracestore.Reader.entry reader i in
      cumul := !cumul + e.Tracestore.count;
      Printf.printf "%5d | %6d | %6d | %8d | %08x\n" i e.Tracestore.count !cumul
        e.Tracestore.bytes e.Tracestore.crc
    done;
    Printf.printf "total %d traces in %d shards\n"
      (Tracestore.Reader.total_traces reader)
      (Tracestore.Reader.shard_count reader)
  end;
  0

let cmd_verify store =
  Cli_common.with_errors @@ fun () ->
  let meta, results = Tracestore.verify store in
  Printf.printf "verifying %s (%s, %d samples/trace)\n%!" store
    (match victim_of meta with
    | Some v -> v
    | None -> Printf.sprintf "n %d" meta.Tracestore.n)
    meta.Tracestore.width;
  if results = [] then begin
    (* an empty store has nothing left to corrupt — it verifies *)
    Printf.printf "empty store: 0 shards, nothing to verify\n";
    0
  end
  else begin
    let bad = ref 0 in
    List.iter
      (fun (i, r) ->
        match r with
        | Ok count -> Printf.printf "shard %4d: OK (%d traces)\n" i count
        | Error msg ->
            incr bad;
            Printf.printf "shard %4d: CORRUPT — %s\n" i msg)
      results;
    if !bad = 0 then begin
      Printf.printf "store OK: %d shards verified\n" (List.length results);
      0
    end
    else begin
      Printf.printf "%d of %d shards corrupt\n" !bad (List.length results);
      1
    end
  end

let default_max_shift = 3

(* Without --max-shift, the widest search up to [default_max_shift]
   that the store's trace width leaves a window for; a given one the
   width cannot hold is refused with the largest that fits. *)
let fit_max_shift src max_shift =
  let width =
    (Tracestore.Reader.meta (Tracestore.Reader.open_store src)).Tracestore.width
  in
  let wanted = Option.value max_shift ~default:default_max_shift in
  match (max_shift, Align.widest_max_shift ~up_to:wanted ~width) with
  | _ when wanted < 0 -> failwith (Printf.sprintf "--max-shift %d is negative" wanted)
  | None, Some s -> s
  | Some s, Some fit when fit = s -> s
  | Some s, Some fit ->
      failwith
        (Printf.sprintf
           "--max-shift %d leaves no alignment window in %s's %d-sample traces; \
            --max-shift %d fits"
           s src width fit)
  | _, None ->
      failwith (Printf.sprintf "%s: %d-sample traces are too narrow to align" src width)

(* Streaming static realignment: undo the integer part of acquisition
   jitter by cross-correlating each trace against a reference window and
   writing the shift-corrected campaign to a fresh store. *)
let cmd_align src dst max_shift ref_traces jobs log (sf : Cli_common.stream) =
  Cli_common.run ~jobs log @@ fun ctx ->
  let max_shift = fit_max_shift src max_shift in
  Printf.printf
    "realigning %s into %s (max shift %d samples, reference from first %d \
     traces)\n%!"
    src dst max_shift ref_traces;
  let st =
    Align.realign_store ~ctx ~on_corrupt:sf.on_corrupt ~prefetch:sf.prefetch ~max_shift
      ~reference_traces:ref_traces ~src ~dst ()
  in
  if st.Align.traces = 0 then Printf.printf "empty store: 0 traces realigned\n"
  else
    Printf.printf
      "realigned %d traces: %d shifted, max |shift| %d, mean |shift| %.3f%s\n"
      st.Align.traces st.Align.shifted st.Align.max_abs_shift
      st.Align.mean_abs_shift
      (if st.Align.shards_skipped > 0 then
         Printf.sprintf " (%d corrupt shards skipped)" st.Align.shards_skipped
       else "");
  0

(* Single-multiply fixed-vs-random campaign for the leakage-assessment
   workflow (assess_cli): the class label and known operand ride in each
   record, defense/secret/seed in the assess.fda sidecar. *)
let cmd_record_tvla defense traces noise seed p_fixed shard out =
  Cli_common.with_errors @@ fun () ->
  let secret = Assess.Campaign.secret_operand (Stats.Rng.create ~seed:(seed lxor 0x7e57)) in
  Assess.Campaign.record_store ~p_fixed ~dir:out defense ~noise ~secret ~count:traces
    ~seed ~shard_traces:shard ();
  Printf.printf
    "recorded %d single-multiply traces (defense %s, fixed-class fraction %.2f, \
     noise sigma %.2f) into %s\n"
    traces
    (Assess.Campaign.name defense)
    p_fixed noise out;
  0

open Cmdliner

let n_arg = Cli_common.n_arg
let traces_arg = Cli_common.traces_arg
let noise_arg = Cli_common.noise_arg
let log_term = Cli_common.log_term

let seed_arg =
  Cli_common.seed_arg
    ~doc:
      "Campaign seed (probe noise, victim messages).  Append runs must use a \
       seed distinct from every earlier run on the same store, or messages and \
       noise repeat."
    ()

let shard_arg =
  Arg.(
    value
    & opt int 1024
    & info [ "shard" ] ~docv:"TRACES"
        ~doc:"Traces per shard — the out-of-core analysis memory unit.")

let out_arg =
  Arg.(value & opt string "campaign" & info [ "o"; "out" ] ~doc:"Store directory.")

let store_arg = Cli_common.store_default_arg ~doc:"Store directory."

(* --target dispatches on the Attack.Target registry; the conv rejects
   unknown names with the registry's own list, so the CLI never drifts
   from the library. *)
let target_arg =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Attack.Target.names)) "falcon"
    & info [ "target" ] ~docv:"SCHEME"
        ~doc:
          (Printf.sprintf
             "Victim scheme to record: %s.  $(b,falcon) (the default) is the \
              paper's FALCON FFT multiplier; $(b,hqc) is the HQC sparse \
              polynomial rotate-and-accumulate victim."
             (String.concat " or "
                (List.map (Printf.sprintf "$(b,%s)") Attack.Target.names))))

let model_arg =
  Arg.(
    value
    & opt (enum [ ("hw", `Hw); ("hd", `Hd); ("pipeline", `Pipeline) ]) `Hw
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Device leakage model: $(b,hw) (idealized Hamming-weight probe, the \
           default), $(b,hd) (bus Hamming-distance over a shared write-back \
           register) or $(b,pipeline) (bus HD with overlapping pipeline \
           stages; FALCON only).")

let jitter_arg =
  Arg.(
    value
    & opt int 0
    & info [ "jitter" ] ~docv:"SAMPLES"
        ~doc:
          "Per-trace clock jitter: each trace is misaligned by a uniform \
           integer offset in [-SAMPLES, SAMPLES] (FALCON only).  0 (default) \
           draws nothing and leaves the capture untouched; undo with \
           $(b,align).")

let drift_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "drift" ] ~docv:"RATE"
        ~doc:
          "Per-trace clock drift bound: a uniform rate in [-RATE, RATE] \
           accumulates a sample-index-proportional misalignment (a linear \
           clock-frequency error; FALCON only).  0 (default) draws nothing.")

let record_cmd =
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Record a fresh victim's campaign into a sharded trace store plus its \
          key sidecars, through the --target's recorder.  A device model the \
          target cannot simulate, or a negative noise or jitter, is refused \
          (exit 1) before the store directory is created")
    Term.(
      const cmd_record $ target_arg $ n_arg $ traces_arg $ noise_arg
      $ model_arg $ jitter_arg $ drift_arg $ seed_arg $ shard_arg $ out_arg
      $ log_term)

let append_cmd =
  Cmd.v
    (Cmd.info "append" ~doc:"Extend an existing campaign with more traces (append-only)")
    Term.(const cmd_append $ store_arg $ traces_arg $ seed_arg $ log_term)

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Print the manifest: metadata and per-shard inventory")
    Term.(const cmd_inspect $ store_arg)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"CRC-check and fully parse every shard; exit 1 if any is corrupt")
    Term.(const cmd_verify $ store_arg)

let defense_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("masking", `Masking); ("shuffle", `Shuffle) ]) `None
    & info [ "defense" ] ~docv:"DEFENSE"
        ~doc:"Countermeasure producing the traces: $(b,none), $(b,masking) or \
              $(b,shuffle).")

let p_fixed_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "p-fixed" ] ~docv:"P"
        ~doc:"Fixed-class probability per trace (1.0 records an all-fixed attack \
              campaign).")

let record_tvla_cmd =
  Cmd.v
    (Cmd.info "record-tvla"
       ~doc:
         "Record a fixed-vs-random single-multiply campaign for leakage assessment \
          (analysed with assess_cli)")
    Term.(
      const cmd_record_tvla $ defense_arg $ traces_arg $ noise_arg $ seed_arg
      $ p_fixed_arg $ shard_arg $ out_arg)

let align_src_arg = Cli_common.store_default_arg ~doc:"Source store directory."

let align_dst_arg =
  Arg.(
    value
    & opt string "campaign-aligned"
    & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Destination store directory.")

let max_shift_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-shift" ] ~docv:"SAMPLES"
        ~doc:
          "Largest correction searched, in samples; match (or exceed) the \
           acquisition's $(b,--jitter) bound.  Defaults to the largest value \
           up to 3 that the store's trace width leaves an alignment window \
           for; a value the width cannot hold is refused.")

let ref_traces_arg =
  Arg.(
    value
    & opt int 64
    & info [ "ref-traces" ] ~docv:"N"
        ~doc:"Traces averaged into the cross-correlation reference window.")

let align_cmd =
  Cmd.v
    (Cmd.info "align"
       ~doc:
         "Realign a jittered campaign of any target against its own mean \
          reference window (integer-shift correction) into a fresh store, \
          copying every sidecar file; deterministic at every -j and prefetch \
          setting")
    Term.(
      const cmd_align $ align_src_arg $ align_dst_arg $ max_shift_arg
      $ ref_traces_arg $ Cli_common.jobs_arg $ log_term $ Cli_common.stream_term)

let () =
  let doc = "Falcon Down trace-campaign store driver" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "trace_cli" ~doc)
          [
            record_cmd; record_tvla_cmd; append_cmd; inspect_cmd; verify_cmd;
            align_cmd;
          ]))
