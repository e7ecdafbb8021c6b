(* Observability layer (lib/obs): JSONL schema round-trip and crash
   tolerance, Pretty rendering under an injected clock, deterministic
   event streams from parallel fan-outs, and — the load-bearing
   property — observational transparency: every instrumented pipeline
   returns bit-identical results with any sink, at every jobs level. *)

(* Deterministic injectable clock: monotone nanoseconds, domain-safe. *)
let fake_ns () =
  let c = Atomic.make 0 in
  fun () -> Int64.of_int (1000 * (1 + Atomic.fetch_and_add c 1))

let jsonl_ctx ?level () =
  let buf = Buffer.create 4096 in
  let t = Obs.make ?level ~clock:(fake_ns ()) (Obs.Jsonl.to_buffer buf) in
  (t, buf)

let emit_sample_log () =
  let t, buf = jsonl_ctx () in
  Obs.span t "outer" ~fields:[ ("n", Obs.Int 3); ("tag", Obs.Str "x") ] (fun () ->
      Obs.count t "items" 3;
      Obs.span t "inner" (fun () -> Obs.gauge t "ratio" 0.5));
  Buffer.contents buf

(* {2 JSONL codec} *)

let test_jsonl_roundtrip () =
  let log = emit_sample_log () in
  let records = Obs.Jsonl.read_string log in
  Alcotest.(check int) "record count" 4 (List.length records);
  (match Obs.Jsonl.validate records with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid log rejected: %s" msg);
  (* closed-span order: counter, gauge, inner span, outer span *)
  let name r =
    match Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt with
    | Some s -> s
    | None -> Alcotest.fail "record without name"
  in
  Alcotest.(check (list string))
    "emission order (spans close inside-out)"
    [ "items"; "ratio"; "inner"; "outer" ]
    (List.map name records);
  (* the inner span carries the nesting path of its enclosing spans *)
  let inner = List.nth records 2 in
  let path =
    match Option.bind (Obs.Json.member "path" inner) Obs.Json.to_list_opt with
    | Some l -> List.filter_map Obs.Json.to_string_opt l
    | None -> []
  in
  Alcotest.(check (list string)) "inner path" [ "outer" ] path;
  match Option.bind (Obs.Json.member "schema" (List.hd records)) Obs.Json.to_string_opt with
  | Some s -> Alcotest.(check string) "schema tag" Obs.Jsonl.schema s
  | None -> Alcotest.fail "missing schema tag"

let test_jsonl_torn_final_line () =
  let log = emit_sample_log () in
  (* tear the log mid-way through its final record, as a crash would *)
  let torn = String.sub log 0 (String.length log - 25) in
  let records = Obs.Jsonl.read_string torn in
  Alcotest.(check int) "final record dropped" 3 (List.length records);
  match Obs.Jsonl.validate records with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "torn log rejected: %s" msg

let test_jsonl_malformed_interior_line () =
  let log = emit_sample_log () in
  let lines = String.split_on_char '\n' log in
  let broken =
    String.concat "\n"
      (List.mapi (fun i l -> if i = 1 then "{\"broken" else l) lines)
  in
  match Obs.Jsonl.read_string broken with
  | _ -> Alcotest.fail "interior corruption accepted"
  | exception Failure msg ->
      let prefix = "Obs.Jsonl: malformed record on line 2" in
      Alcotest.(check string)
        "error names the line" prefix
        (String.sub msg 0 (min (String.length prefix) (String.length msg)))

let replace ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - n do
    if String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.add_string b (String.sub s !i (String.length s - !i));
  Buffer.contents b

let test_validate_rejections () =
  let good = Obs.Jsonl.read_string (emit_sample_log ()) in
  let reject what records =
    match Obs.Jsonl.validate records with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  reject "wrong schema"
    (Obs.Jsonl.read_string
       (replace ~sub:Obs.Jsonl.schema ~by:"bogus/v9" (emit_sample_log ())));
  (* seq gap: drop the first record *)
  reject "seq gap" (List.tl good);
  reject "unknown type"
    (Obs.Jsonl.read_string
       (replace ~sub:"\"type\":\"counter\"" ~by:"\"type\":\"bogus\""
          (emit_sample_log ())))

(* {2 Pretty sink under an injected clock} *)

let test_pretty_fake_clock () =
  let path = Filename.temp_file "fd_obs_pretty" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let now = ref 0. in
      let sink =
        Obs.Pretty.create ~clock:(fun () -> !now) ~out:oc ~min_interval:0. ()
      in
      let t = Obs.make ~clock:(fake_ns ()) sink in
      Obs.span t "recover.coefficient" (fun () ->
          for i = 1 to 5 do
            now := float_of_int i;
            Obs.progress ~total:5 t "traces" i
          done);
      sink.Obs.flush ();
      close_out oc;
      let ic = open_in path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let contains needle =
        let n = String.length needle and l = String.length s in
        let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "span line rendered" true (contains "recover.coefficient");
      Alcotest.(check bool) "progress label rendered" true (contains "traces");
      Alcotest.(check bool) "progress total rendered" true (contains "5/5"))

(* {2 Observational transparency} *)

(* Shared per-coefficient workload, small enough for the test budget. *)
let paper_coeff = 0xC06017BC8036B580L
let d_true = (Fpr.mantissa paper_coeff lor (1 lsl 52)) land 0x1FFFFFF
let model = { Leakage.default_model with noise_sigma = 0.6 }

let view =
  lazy
    (let known =
       Attack.Workload.known_inputs ~n:16 ~coeff:3 ~component:`Re ~count:500
         ~seed:"obs transparency"
     in
     Attack.Workload.mul_views model (Stats.Rng.create ~seed:91) ~x:paper_coeff ~known)

let candidates =
  lazy
    (Attack.Hypothesis.sampled
       (Stats.Rng.create ~seed:92)
       ~width:25 ~truth:d_true ~decoys:512 ())

(* Every (jobs, sink) combination the harness sweeps. *)
let sweep check =
  List.iter
    (fun jobs ->
      List.iter
        (fun sink ->
          let obs =
            match sink with
            | `Null -> Obs.null
            | `Jsonl ->
                Obs.make ~clock:(fake_ns ()) (Obs.Jsonl.to_buffer (Buffer.create 4096))
          in
          check (Attack.Ctx.make ~jobs ~obs ()))
        [ `Null; `Jsonl ])
    [ 1; 4 ]

let test_transparency_recover () =
  let v = Lazy.force view and cands = Lazy.force candidates in
  let reference =
    Attack.Recover.mantissa_low_multi ~top:8 ~candidates:(Array.to_seq cands) [ v ]
  in
  sweep (fun ctx ->
      let r =
        Attack.Recover.mantissa_low_multi ~ctx ~top:8
          ~candidates:(Array.to_seq cands) [ v ]
      in
      if r <> reference then
        Alcotest.failf "mantissa_low_multi diverged at jobs=%d"
          ctx.Attack.Ctx.jobs)

let test_transparency_tvla () =
  let secret = Assess.Campaign.secret_operand (Stats.Rng.create ~seed:93) in
  let entries =
    Assess.Campaign.generate `Masking ~noise:0.5 ~secret ~count:300 ~seed:94
  in
  let reference =
    Assess.Tvla.of_entries ~classify:Assess.Tvla.fixed_vs_random entries
  in
  sweep (fun ctx ->
      let r =
        Assess.Tvla.of_entries ~ctx ~classify:Assess.Tvla.fixed_vs_random entries
      in
      if r <> reference then
        Alcotest.failf "Tvla.of_entries diverged at jobs=%d" ctx.Attack.Ctx.jobs)

(* Store-backed sweep: the streaming ranking and the full event stream. *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_campaign f =
  let sk = fst (Falcon.Scheme.keygen ~n:16 ~seed:"obs stream key") in
  let traces = Leakage.capture model ~seed:95 sk ~count:40 in
  let dir = Filename.temp_dir "fd_obs_test" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:16
          ~model
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      f sk (Tracestore.Reader.open_store dir))

let test_transparency_stream_rank () =
  with_campaign @@ fun sk reader ->
  let d0 = (Fpr.mantissa sk.Falcon.Scheme.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  let cands =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:96) ~width:25 ~truth:d0
      ~decoys:256 ()
  in
  let parts =
    [
      (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
      (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
    ]
  in
  let known (t : Leakage.trace) = t.c_fft.Fft.re.(0) in
  let reference =
    Attack.Dema.Stream.rank reader ~parts ~known ~top:8 (Array.to_seq cands)
  in
  sweep (fun ctx ->
      let r =
        Attack.Dema.Stream.rank ~ctx reader ~parts ~known ~top:8
          (Array.to_seq cands)
      in
      if r <> reference then
        Alcotest.failf "Stream.rank diverged at jobs=%d" ctx.Attack.Ctx.jobs)

(* {2 Deterministic event streams} *)

(* A small full-key recovery under the JSONL sink: at jobs=1 with an
   injected clock the whole byte stream is reproducible; at any jobs the
   stream modulo span durations is — buffered per-task children are
   drained in task order, so domain scheduling cannot reorder events. *)

let fullkey_strategy sk ~coeff ~mul =
  let truth =
    if mul = 0 then sk.Falcon.Scheme.f_fft.Fft.re.(coeff)
    else sk.Falcon.Scheme.f_fft.Fft.im.(coeff)
  in
  Attack.Recover.Eval_sampled
    { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 64; truth }

(* [?stop] runs the adaptive campaign at Debug level, so the log also
   carries its per-unit [seq.unit] stop events. *)
let fullkey_log ?stop ~jobs () =
  with_campaign @@ fun sk reader ->
  let buf = Buffer.create (1 lsl 14) in
  let level = if stop = None then Obs.Info else Obs.Debug in
  let obs = Obs.make ~level ~clock:(fake_ns ()) (Obs.Jsonl.to_buffer buf) in
  let ctx = Attack.Ctx.make ~jobs ~obs () in
  ignore (Attack.Fullkey.recover_f_fft_store ~ctx ?stop ~reader (fullkey_strategy sk));
  Buffer.contents buf

(* Strip per-run measurement noise: span durations always, and — when
   comparing across jobs levels — the "jobs" fields that legitimately
   record the worker count a stage ran with. *)
let normalize ?(strip_jobs = false) records =
  List.map
    (fun r ->
      match r with
      | Obs.Json.Obj kvs ->
          Obs.Json.Obj
            (List.filter_map
               (fun (k, v) ->
                 if k = "elapsed_ns" then None
                 else if strip_jobs && k = "fields" then
                   match v with
                   | Obs.Json.Obj fs ->
                       Some
                         (k, Obs.Json.Obj (List.filter (fun (f, _) -> f <> "jobs") fs))
                   | v -> Some (k, v)
                 else Some (k, v))
               kvs)
      | r -> r)
    records

let test_fullkey_log_deterministic () =
  let a = fullkey_log ~jobs:1 () in
  let b = fullkey_log ~jobs:1 () in
  Alcotest.(check string) "jobs=1 byte-identical" a b;
  (match Obs.Jsonl.validate (Obs.Jsonl.read_string a) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fullkey log invalid: %s" msg);
  let c = fullkey_log ~jobs:4 () in
  let d = fullkey_log ~jobs:4 () in
  (match Obs.Jsonl.validate (Obs.Jsonl.read_string c) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "fullkey jobs=4 log invalid: %s" msg);
  (* domain scheduling may only move span durations, never events *)
  Alcotest.(check bool) "jobs=4 reruns identical modulo durations" true
    (normalize (Obs.Jsonl.read_string c) = normalize (Obs.Jsonl.read_string d));
  (* across jobs levels the stream is identical once the recorded worker
     counts are masked out too *)
  Alcotest.(check bool) "jobs=1 vs jobs=4 identical modulo durations+jobs" true
    (normalize ~strip_jobs:true (Obs.Jsonl.read_string a)
    = normalize ~strip_jobs:true (Obs.Jsonl.read_string c));
  (* the adaptive campaign's per-unit stop events (unit, n_traces,
     looks, winner, boundary) are just as deterministic *)
  let stop = Sequential.Decision.spec ~alpha:1e-2 ~min_traces:8 () in
  let a = Obs.Jsonl.read_string (fullkey_log ~stop ~jobs:1 ()) in
  let c = Obs.Jsonl.read_string (fullkey_log ~stop ~jobs:4 ()) in
  (match Obs.Jsonl.validate a with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "adaptive fullkey log invalid: %s" msg);
  Alcotest.(check bool) "adaptive: jobs=1 vs jobs=4 identical modulo durations+jobs"
    true
    (normalize ~strip_jobs:true a = normalize ~strip_jobs:true c);
  let field f r = Option.bind (Obs.Json.member "fields" r) (Obs.Json.member f) in
  let units =
    List.filter
      (fun r -> Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt = Some "seq.unit")
      a
  in
  Alcotest.(check int) "one seq.unit event per unit" 32 (List.length units);
  let stopped r = field "stopped" r = Some (Obs.Json.Bool true) in
  List.iter
    (fun r ->
      Alcotest.(check bool) "winner iff stopped" (stopped r) (field "winner" r <> None);
      let looked =
        Option.bind (field "looks" r) Obs.Json.to_int_opt <> Some 0
      in
      Alcotest.(check bool) "boundary iff looked" looked (field "boundary" r <> None))
    units;
  Alcotest.(check bool) "some unit stops" true (List.exists stopped units)

(* Every extend runs inside its mantissa half's span: in a traced
   full-key crack each [recover.extend] span, the high half's included,
   has a [recover.mantissa_low] or [recover.mantissa_high] ancestor. *)
let test_extend_spans_nested () =
  let records = Obs.Jsonl.read_string (fullkey_log ~jobs:1 ()) in
  let paths =
    List.filter_map
      (fun r ->
        if Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt
           = Some "recover.extend"
        then
          Option.map
            (List.filter_map Obs.Json.to_string_opt)
            (Option.bind (Obs.Json.member "path" r) Obs.Json.to_list_opt)
        else None)
      records
  in
  Alcotest.(check int) "two extends per unit" 64 (List.length paths);
  List.iter
    (fun path ->
      if not (List.mem "recover.mantissa_low" path || List.mem "recover.mantissa_high" path)
      then Alcotest.failf "recover.extend under %s" (String.concat " > " path))
    paths

(* A fixed-budget store recovery reads a campaign of a few shards once
   for all 2n units: the stream's shard and trace counters appear
   exactly once, covering the whole store, at every jobs level. *)
let test_fullkey_store_one_pass () =
  with_campaign @@ fun sk reader ->
  List.iter
    (fun jobs ->
      let t, buf = jsonl_ctx () in
      ignore
        (Attack.Fullkey.recover_f_fft_store
           ~ctx:(Attack.Ctx.make ~jobs ~obs:t ())
           ~reader (fullkey_strategy sk));
      let records = Obs.Jsonl.read_string (Buffer.contents buf) in
      let counts name =
        List.filter_map
          (fun r ->
            if Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt = Some name
            then Option.bind (Obs.Json.member "value" r) Obs.Json.to_int_opt
            else None)
          records
      in
      Alcotest.(check (list int))
        (Printf.sprintf "one tracestore.shards count at jobs=%d" jobs)
        [ Tracestore.Reader.shard_count reader ]
        (counts "tracestore.shards");
      Alcotest.(check (list int))
        (Printf.sprintf "one tracestore.traces count at jobs=%d" jobs)
        [ Tracestore.Reader.total_traces reader ]
        (counts "tracestore.traces"))
    [ 1; 2 ]

(* {2 Buffered children} *)

let test_buffered_drain_order () =
  let t, buf = jsonl_ctx () in
  let c1 = Obs.buffered t and c2 = Obs.buffered t in
  (* children record out of order; the drain order decides the log *)
  Obs.count c2 "second" 2;
  Obs.count c1 "first" 1;
  Obs.drain ~into:t c1;
  Obs.drain ~into:t c2;
  let names =
    List.map
      (fun r ->
        match Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt with
        | Some s -> s
        | None -> "?")
      (Obs.Jsonl.read_string (Buffer.contents buf))
  in
  Alcotest.(check (list string)) "drain order wins" [ "first"; "second" ] names

(* The absolute statistic reports its work in digest classes:
   [dema.classes] counts the classes of every part (3 digests, plus one
   per trace for the plain part) and [dema.flops_est] is guesses x
   classes x 6.  The sign/exponent stage logs its leader gap at Debug,
   naming the winning sign and exponent. *)
let test_absolute_counters () =
  let records obs_run =
    let t, buf = jsonl_ctx ~level:Obs.Debug () in
    obs_run (Attack.Ctx.make ~obs:t ());
    Obs.Jsonl.read_string (Buffer.contents buf)
  in
  let find name rs =
    match
      List.filter
        (fun r -> Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt = Some name)
        rs
    with
    | [ r ] -> r
    | l -> Alcotest.failf "%d %s records, want one" (List.length l) name
  in
  let number key r =
    match Option.bind (Obs.Json.member key r) Obs.Json.to_number_opt with
    | Some x -> x
    | None -> Alcotest.failf "record without %s" key
  in
  let d = 40 and guesses = 16 in
  let rng = Stats.Rng.create ~seed:11 in
  let traces =
    Array.init d (fun _ -> Array.init 2 (fun _ -> Stats.Rng.gaussian rng ~mu:10. ~sigma:1.))
  in
  let rs =
    records (fun ctx ->
        ignore
          (Attack.Dema.rank_absolute ~ctx ~traces
             ~parts:
               [
                 (0, Attack.Hypothesis.Model.split ~prep:(fun i -> i mod 3) ~eval:( + ));
                 (1, Attack.Hypothesis.Model.fn (fun g i -> g lxor i));
               ]
             ~known:(Array.init d Fun.id) ~top:4 ~alpha:1. ~baseline:10.
             (Seq.init guesses Fun.id)))
  in
  Alcotest.(check (float 0.)) "dema.classes" (float_of_int (3 + d))
    (number "value" (find "dema.classes" rs));
  Alcotest.(check (float 0.)) "dema.flops_est"
    (float_of_int (guesses * (3 + d) * 6))
    (number "value" (find "dema.flops_est" rs));
  let x = Fpr.make ~sign:1 ~exp:1030 ~mant:0x2B7E151628AED in
  let known =
    Attack.Workload.known_inputs ~n:16 ~coeff:2 ~component:`Re ~count:120 ~seed:"obs gap"
  in
  let v = Attack.Workload.mul_views Leakage.default_model (Stats.Rng.create ~seed:5) ~x ~known in
  let won = ref (0, 0, []) in
  let gap =
    find "recover.sign_exponent_gap"
      (records (fun ctx ->
           won := Attack.Recover.sign_exponent_multi ~ctx ~mant:(Fpr.mantissa x) [ v ]))
  in
  let sign, exp, ranked = !won in
  let field key =
    match Option.bind (Obs.Json.member "fields" gap) (Obs.Json.member key) with
    | Some f -> Obs.Json.to_int_opt f
    | None -> None
  in
  Alcotest.(check (pair (option int) (option int))) "gap names the winner"
    (Some sign, Some exp) (field "sign", field "exponent");
  match ranked with
  | best :: second :: _ ->
      Alcotest.(check (float 0.)) "gap = leader - runner-up"
        (best.Attack.Dema.corr -. second.Attack.Dema.corr)
        (number "value" gap)
  | _ -> Alcotest.fail "fewer than two ranked guesses"

let suite =
  [
    Alcotest.test_case "jsonl round-trip + validate" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl tolerates torn final line" `Quick
      test_jsonl_torn_final_line;
    Alcotest.test_case "jsonl rejects interior corruption" `Quick
      test_jsonl_malformed_interior_line;
    Alcotest.test_case "validate rejects bad logs" `Quick test_validate_rejections;
    Alcotest.test_case "pretty sink with injected clock" `Quick
      test_pretty_fake_clock;
    Alcotest.test_case "transparency: extend-and-prune" `Slow
      test_transparency_recover;
    Alcotest.test_case "transparency: TVLA" `Slow test_transparency_tvla;
    Alcotest.test_case "transparency: streaming rank" `Slow
      test_transparency_stream_rank;
    Alcotest.test_case "fullkey JSONL stream deterministic" `Slow
      test_fullkey_log_deterministic;
    Alcotest.test_case "every extend inside its mantissa span" `Quick
      test_extend_spans_nested;
    Alcotest.test_case "fullkey store reads the campaign once" `Slow
      test_fullkey_store_one_pass;
    Alcotest.test_case "buffered children drain in order" `Quick
      test_buffered_drain_order;
    Alcotest.test_case "absolute statistic counts classes, logs its gap" `Quick
      test_absolute_counters;
  ]
