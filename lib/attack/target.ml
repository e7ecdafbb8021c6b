(* First-class attack targets — see target.mli.  The FALCON instance is
   a re-expression of the existing Recover/Fullkey attack (same entry
   points, same strategy seeds), locked bit-exact by the differential
   parity suite; the HQC instance is the chained per-unit driver over
   lib/hqc's victim. *)

type leakage = Recover.leakage

type outcome = {
  target : string;
  success : bool;
  witness : string;
  units : int;
  units_ok : int;
  traces : int;
  stop : Sequential.Campaign.summary option;
}

module type S = sig
  val name : string
  val profile_window : n:int -> int

  val profile_parts :
    leakage:leakage ->
    n:int ->
    dir:string ->
    (int * int * (Leakage.trace -> int)) list

  val codec : Dema.Stream.codec
  val check_leakage : leakage:leakage -> stop:Sequential.Decision.spec option -> unit

  val record_store :
    ?ctx:Ctx.t ->
    ?emitter:Leakage.emitter ->
    dir:string ->
    n:int ->
    traces:int ->
    noise:float ->
    seed:int ->
    shard_traces:int ->
    unit ->
    unit

  val recover_store :
    ?ctx:Ctx.t ->
    ?leakage:leakage ->
    ?stop:Sequential.Decision.spec ->
    ?max_traces:int ->
    ?on_corrupt:[ `Fail | `Skip ] ->
    ?prefetch:bool ->
    dir:string ->
    Tracestore.Reader.t ->
    outcome
end

let check_options ?ctx ~stop ~max_traces () =
  if max_traces <> None && stop = None then
    invalid_arg
      "--max-traces needs --until-confident: a fixed-budget crack reads every \
       stored trace";
  match (stop, ctx) with
  | Some _, Some c when not (Distinguisher.has_gap_test c.Ctx.backend) ->
      invalid_arg
        (Printf.sprintf
           "--until-confident is not available with --templates: the %s \
            distinguisher has no sequential gap statistic"
           (Distinguisher.name c.Ctx.backend))
  | _ -> ()

let check_store ~dir reader =
  if Tracestore.Reader.total_traces reader = 0 then
    failwith (Printf.sprintf "store %s holds no traces (empty campaign)" dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* The traces a fixed-budget crack reads: every stored trace but those
   of the shards [`Skip] drops.  A corrupt shard fails every strict load
   the same way, so under [`Skip] one more load per shard tells which;
   under [`Fail] a crack that returns has read them all. *)
let fixed_budget_traces ~on_corrupt reader =
  match on_corrupt with
  | Some `Skip ->
      let read = ref 0 in
      for i = 0 to Tracestore.Reader.shard_count reader - 1 do
        match Tracestore.Reader.load_shard reader i with
        | records -> read := !read + Array.length records
        | exception Failure _ -> ()
      done;
      !read
  | None | Some `Fail -> Tracestore.Reader.total_traces reader

(* The one recorder: every campaign store, whatever its target, is
   written by this loop under one span. *)
let record ~ctx writer ~traces next =
  let obs = ctx.Ctx.obs in
  Obs.span obs "tracestore.record" ~fields:[ ("traces", Obs.Int traces) ]
  @@ fun () ->
  for i = 1 to traces do
    Tracestore.Writer.append writer (next ());
    if Obs.enabled obs then Obs.progress ~total:traces obs "traces" i
  done;
  Tracestore.Writer.close writer

let noise_model noise = { Leakage.default_model with noise_sigma = noise }

(* ---------------- FALCON ---------------- *)

module Falcon = struct
  let name = "falcon"

  (* templates key on the 16-sample multiplication window — the shape
     of the [Recover.view] slices every ranking phase works over — so
     one template per multiplication event pools all coefficients and
     muls *)
  let profile_window ~n:_ = Leakage.events_per_mul
  let codec = Dema.Stream.falcon_codec

  let record_store ?(ctx = Ctx.default ()) ?(emitter = Leakage.default_emitter) ~dir
      ~n ~traces ~noise ~seed ~shard_traces () =
    let model = noise_model noise in
    let sk, pk = Falcon.Scheme.keygen ~n ~seed:(Printf.sprintf "victim-%d" seed) in
    let next = Leakage.capture_stream ~emitter model ~seed sk in
    record ~ctx ~traces
      (Tracestore.Writer.create ~dir ~n ~width:(n * Leakage.events_per_coeff)
         ~shard_traces ~model)
      (fun () -> Leakage.to_record (next ()));
    write_file (Filename.concat dir "public.key") (Falcon.Keycodec.encode_public pk);
    write_file (Filename.concat dir "secret.key") (Falcon.Keycodec.encode_secret sk.kp)

  let read_keys dir =
    match
      ( Falcon.Keycodec.decode_public (read_file (Filename.concat dir "public.key")),
        Falcon.Keycodec.decode_secret (read_file (Filename.concat dir "secret.key"))
      )
    with
    | Some pk, Some kp -> (pk, kp)
    | _ ->
        failwith
          (Printf.sprintf "Target.falcon: could not read %s/{public,secret}.key"
             dir)
    | exception Sys_error e -> failwith ("Target.falcon: " ^ e)

  (* Profiling plan: both mantissa phases of every (coefficient,
     multiplication) window, classed by the stage models applied to the
     true mantissa halves — profiling truth and attack hypotheses share
     one model source.  The sign/exponent phase stays correlation-based
     (calibrated absolute levels have no template form), so its samples
     are not profiled. *)
  let profile_parts ~leakage ~n ~dir =
    let _, kp = read_keys dir in
    let sk = Falcon.Scheme.secret_of_keypair kp in
    List.concat
      (List.init n (fun coeff ->
           List.concat
             (List.mapi
                (fun mul (m : Recover.mul) ->
                  let secret = Recover.component_of sk.f_fft ~coeff m.f in
                  let xu = Fpr.mantissa secret lor (1 lsl 52) in
                  let d = xu land ((1 lsl Recover.mantissa_low_width) - 1) in
                  let e = xu lsr Recover.mantissa_low_width in
                  let low_extend, low_prune = Recover.low_stages leakage in
                  let high_extend, high_prune = Recover.high_stages ~d leakage in
                  let base = Recover.window_start ~coeff ~mul in
                  List.concat_map
                    (fun (g, stage) ->
                      List.map
                        (fun (lbl, model) ->
                          let apply = Hypothesis.Model.apply model in
                          ( base,
                            Recover.sample lbl,
                            fun (tr : Leakage.trace) ->
                              apply g (Recover.component_of tr.c_fft ~coeff m.c) ))
                        stage)
                    [ (d, low_extend @ low_prune); (e, high_extend @ high_prune) ])
                (Array.to_list Recover.layout))))

  (* the canonical witness of a full recovery: the 2n recovered 64-bit
     FFT(f) patterns, hex, re/im interleaved in unit order *)
  let witness_of_fft (f : Fft.t) =
    let n = Array.length f.Fft.re in
    String.concat ","
      (List.init (2 * n) (fun i ->
           Printf.sprintf "%016Lx"
             (if i land 1 = 0 then f.Fft.re.(i lsr 1) else f.Fft.im.(i lsr 1))))

  (* Success is the paper's end point (Section IV): the key rebuilds,
     f is the sidecar's, and a forgery on a fixed message verifies
     under the store's public key. *)
  let forgery_message = "offline-cracked forgery"

  (* The adaptive driver's decision sweeps need a d-free part set per
     half; under bus HD every usable high-half transition reads the
     recovered d, so there is no high sweep to decide on. *)
  let check_leakage ~leakage ~stop =
    if stop <> None && leakage = `Hd then
      invalid_arg
        "--until-confident is not available with --leakage hd on falcon: the \
         streaming decision sweeps have no d-free Hamming-distance part set"

  let recover_store ?ctx ?(leakage = `Hw) ?stop ?max_traces ?on_corrupt ?prefetch
      ~dir reader =
    check_options ?ctx ~stop ~max_traces ();
    check_leakage ~leakage ~stop;
    check_store ~dir reader;
    let pk, truth_kp = read_keys dir in
    let truth_sk = Falcon.Scheme.secret_of_keypair truth_kp in
    let summary = ref None in
    let res =
      Fullkey.recover_key_store ?ctx ?on_corrupt ?prefetch ~leakage ?stop
        ?max_traces
        ~stop_report:(fun s -> summary := Some s)
        ~reader ~h:pk.h
        (Fullkey.sampled_strategy ~seed:0 truth_sk.f_fft)
    in
    let traces =
      match !summary with
      | Some s -> Array.fold_left max 0 s.Sequential.Campaign.traces_used
      | None -> fixed_budget_traces ~on_corrupt reader
    in
    let success =
      match res.Fullkey.keypair with
      | None -> false
      | Some keypair ->
          res.Fullkey.f = truth_kp.Ntru.Ntrugen.f
          && Falcon.Scheme.verify pk forgery_message
               (Fullkey.forge ~keypair ~seed:"forger" forgery_message)
    in
    {
      target = name;
      success;
      witness = witness_of_fft res.Fullkey.f_fft;
      units = 2 * pk.params.n;
      units_ok = Fullkey.count_correct res.Fullkey.f_fft ~truth:truth_sk.f_fft;
      traces;
      stop = !summary;
    }
end

(* ---------------- HQC ---------------- *)

module Hqc_target = struct
  let name = "hqc"

  (* templates key on the per-unit accumulator word block: unit j's
     part w sits at absolute sample j*words + w, offset w *)
  let profile_window ~n:_ = Hqc.Params.words

  let codec =
    {
      Dema.Stream.check =
        (fun m ->
          if
            m.Tracestore.n <> Hqc.Params.n_bits
            || m.Tracestore.width <> Hqc.Params.width
          then
            failwith
              (Printf.sprintf
                 "Target.hqc: store (n %d, width %d) is not an HQC campaign \
                  (want n %d, width %d)"
                 m.Tracestore.n m.Tracestore.width Hqc.Params.n_bits
                 Hqc.Params.width));
      decode = (fun _ r -> Leakage.raw_of_record r);
    }

  (* the HD hypothesis (the accumulator transition rot(u, p_j)) is
     prefix-free, so the decision sweep exists under both families *)
  let check_leakage ~leakage:_ ~stop:_ = ()

  let check_n n =
    if n <> Hqc.Params.n_bits then
      invalid_arg
        (Printf.sprintf "Target.hqc: ring size is fixed at %d (got %d)"
           Hqc.Params.n_bits n)

  (* the victim's two probe models; pipeline mixing, other register
     files and clock jitter are FALCON capture knobs *)
  let probe (e : Leakage.emitter) =
    match e with
    | { kind = Hw; jitter } when jitter = Leakage.no_jitter -> `Hw
    | { kind = Hd spec; jitter }
      when spec == Leakage.Register_file.bus && jitter = Leakage.no_jitter ->
        `Hd
    | _ ->
        invalid_arg
          "Target.hqc: records under the hw or bus hd model only, without \
           jitter or drift"

  let record_store ?(ctx = Ctx.default ()) ?(emitter = Leakage.default_emitter) ~dir
      ~n ~traces ~noise ~seed ~shard_traces () =
    check_n n;
    let probe = probe emitter in
    let model = noise_model noise in
    let y = Hqc.keygen ~seed in
    let next = Hqc.capture_stream ~emitter:probe model ~seed y in
    record ~ctx ~traces
      (Tracestore.Writer.create ~dir ~n ~width:Hqc.Params.width ~shard_traces ~model)
      next;
    write_file (Filename.concat dir Hqc.key_file) (Hqc.encode_secret y)

  let known_of_trace = Hqc.u_of_trace

  (* positions are recovered in ascending order: unit j's candidates
     start above the previous winner and leave room for the remaining
     weight - 1 - j strictly larger positions *)
  let bounds ~unit_index ~prev =
    let lo = if Array.length prev = 0 then 0 else prev.(Array.length prev - 1) + 1 in
    let hi = Hqc.Params.n_bits - (Hqc.Params.weight - 1 - unit_index) in
    (lo, hi)

  let guess_count ~unit_index ~prev =
    let lo, hi = bounds ~unit_index ~prev in
    Hypothesis.range_count ~lo ~hi

  let guess_space ~unit_index ~prev =
    let lo, hi = bounds ~unit_index ~prev in
    Hypothesis.range ~lo ~hi

  let parts ~leakage ~unit_index ~prev =
    List.init Hqc.Params.words (fun w ->
        let sample = (unit_index * Hqc.Params.words) + w in
        let model =
          match leakage with
          | `Hw ->
              Hypothesis.Model.split
                ~prep:(Hqc.prep_acc ~prefix:prev ~word:w)
                ~eval:(Hqc.eval_acc ~word:w)
          | `Hd ->
              Hypothesis.Model.split
                ~prep:(fun u -> u)
                ~eval:(fun g u -> Hqc.m_rot ~word:w g u)
        in
        (sample, model))

  let profile_plan ~leakage secret =
    List.concat
      (List.init Hqc.Params.weight (fun j ->
           let prev = Array.sub secret 0 j in
           let base = j * Hqc.Params.words in
           List.map
             (fun (s, m) -> (base, s - base, Hypothesis.Model.apply m secret.(j)))
             (parts ~leakage ~unit_index:j ~prev)))

  let read_secret dir =
    let path = Filename.concat dir Hqc.key_file in
    match Hqc.decode_secret (read_file path) with
    | Some y -> y
    | None -> failwith (Printf.sprintf "Target.hqc: malformed key sidecar %s" path)
    | exception Sys_error e -> failwith ("Target.hqc: " ^ e)

  let profile_parts ~leakage ~n ~dir =
    check_n n;
    List.map
      (fun (base, target, value) -> (base, target, fun tr -> value (known_of_trace tr)))
      (profile_plan ~leakage (read_secret dir))

  let recover_store ?ctx ?(leakage = `Hw) ?stop ?max_traces ?on_corrupt ?prefetch
      ~dir reader =
    check_options ?ctx ~stop ~max_traces ();
    check_store ~dir reader;
    let total = Tracestore.Reader.total_traces reader in
    let budget = match max_traces with None -> total | Some k -> min k total in
    let read = lazy (fixed_budget_traces ~on_corrupt reader) in
    let w = Hqc.Params.weight in
    let winners = Array.make w 0 in
    (* one sequential result per unit: a forced position consumes no
       traces, a fixed-budget ranking reads the whole budget *)
    let results =
      Array.make w
        { Sequential.Campaign.stop = None; n_traces = 0; looks = 0; history = [] }
    in
    for j = 0 to w - 1 do
      let prev = Array.sub winners 0 j in
      let cands = Array.of_seq (guess_space ~unit_index:j ~prev) in
      let parts = parts ~leakage ~unit_index:j ~prev in
      if Array.length cands = 0 then
        failwith "Target.hqc: empty candidate set (corrupt recovered prefix)"
      else if Array.length cands = 1 then
        (* forced position: nothing to rank (a decision sweep needs a
           runner-up) *)
        winners.(j) <- cands.(0)
      else
        let ranking, result =
          match stop with
          | None ->
              ( Dema.Stream.rank ?ctx ?on_corrupt ?prefetch ~codec reader ~parts
                  ~known:known_of_trace ~top:1 (Array.to_seq cands),
                { results.(j) with n_traces = Lazy.force read } )
          | Some spec ->
              let r =
                Dema.Stream.rank_until ?ctx ?on_corrupt ?prefetch ~codec ~spec
                  ?max_traces reader ~parts ~known:known_of_trace ~top:1
                  (Array.to_seq cands)
              in
              ( r.Dema.ranking,
                { results.(j) with
                  stop = r.Dema.stop;
                  n_traces = r.Dema.n_traces;
                  looks = r.Dema.looks } )
        in
        (match ranking with
        | best :: _ -> winners.(j) <- best.Dema.guess
        | [] -> failwith "Target.hqc: empty ranking");
        results.(j) <- result
    done;
    let truth = read_secret dir in
    {
      target = name;
      success = winners = truth;
      witness = Hqc.encode_secret winners;
      units = w;
      units_ok =
        Array.fold_left ( + ) 0
          (Array.map2 (fun a b -> if a = b then 1 else 0) winners truth);
      traces =
        Array.fold_left (fun m (r : Sequential.Campaign.result) -> max m r.n_traces) 0
          results;
      stop =
        Option.map (fun _ -> Sequential.Campaign.summarize ~total:budget results) stop;
    }
end


module Hqc = Hqc_target

let all : (module S) list = [ (module Falcon); (module Hqc) ]

let names =
  List.map
    (fun m ->
      let module T = (val m : S) in
      T.name)
    all

let find name =
  List.find_opt
    (fun m ->
      let module T = (val m : S) in
      T.name = name)
    all

let of_meta meta =
  List.find_opt
    (fun m ->
      let module T = (val m : S) in
      match T.codec.Dema.Stream.check meta with () -> true | exception Failure _ -> false)
    all

(* ---------------- generic profiled training ----------------

   One trainer for every target: stream the cloned-device campaign
   twice through the target's profiling plan ([Profile.train_plan],
   which classes each observation by the Hamming weight of its true
   intermediate).  Shards are pulled strictly in order on
   the owner domain, so the store is bit-identical across jobs and
   prefetch. *)

let profile ?ctx:(c = Ctx.default ()) ?(leakage = `Hw) ?on_corrupt ?prefetch ?npoi
    ?ndim ?max_traces (module T : S) ~dir reader =
  let meta = Tracestore.Reader.meta reader in
  T.codec.Dema.Stream.check meta;
  let n = meta.Tracestore.n in
  let window = T.profile_window ~n in
  let plan = T.profile_parts ~leakage ~n ~dir in
  if plan = [] then failwith "Target.profile: empty profiling plan";
  let spec =
    let d = Profile.default_spec ~window in
    {
      d with
      Profile.npoi = Option.value npoi ~default:d.Profile.npoi;
      ndim = Option.value ndim ~default:d.Profile.ndim;
    }
  in
  let observations f =
    let fd =
      Dema.Stream.shard_feed ?on_corrupt ?prefetch ~codec:T.codec ?max_traces reader
    in
    Fun.protect ~finally:(fun () -> fd.Dema.Stream.close ()) @@ fun () ->
    let rec loop () =
      match fd.Dema.Stream.next () with
      | None -> ()
      | Some traces ->
          Array.iter (fun (tr : Leakage.trace) -> f tr tr.Leakage.samples) traces;
          loop ()
    in
    loop ()
  in
  Obs.span c.Ctx.obs "target.profile"
    ~fields:[ ("target", Obs.Str T.name); ("plan", Obs.Int (List.length plan)) ]
    (fun () -> Profile.train_plan spec ~plan observations)
