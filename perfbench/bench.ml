(* Time-to-key benchmark program.  One process per set-up or attack, so
   peak RSS and GC counters belong to one phase of one workload;
   perfbench/run.py builds it and drives it.  By hand:

     bench.exe setup  --workload crack-store --seed 1 --dir D [--trace] [--toy]
     bench.exe attack --workload crack-store --seed 1 --dir D [--trace] [--toy] [--rep R]
     bench.exe reference

   Each invocation prints one JSON object on stdout.

   Untraced, set-up and attack are the library calls `trace_cli record`,
   `attack_cli profile`, `attack_cli run` and `attack_cli crack --store`
   make.  Traced, they are replays of the same pipeline from public
   calls, with timers around each layer call: the replayed set-up must
   write byte-identical files, and the replayed attack prints a digest of
   its recovered FFT(f), keypair and stop points that run.py compares
   with the untraced digest. *)

let now = Unix.gettimeofday

(* ---------------- workloads ---------------- *)

type kind = Store | Memory | Adaptive | Profiled

type workload = {
  kind : kind;
  n : int;  (** FALCON ring degree *)
  traces : int;  (** victim campaign size *)
  shard : int;  (** traces per store shard *)
  noise : float;  (** probe noise sigma *)
  clone_traces : int;  (** profiling campaign size (crack-profiled) *)
}

let workload ~toy name =
  let w kind n traces shard noise clone_traces = { kind; n; traces; shard; noise; clone_traces } in
  match (name, toy) with
  | "crack-store", false -> w Store 16 200 25 0.4 0
  | "crack-store", true -> w Store 8 120 40 0.4 0
  | "run-memory", false -> w Memory 16 400 0 0.5 0
  | "run-memory", true -> w Memory 8 120 0 0.4 0
  | "crack-adaptive", false -> w Adaptive 16 1600 50 0.5 0
  | "crack-adaptive", true -> w Adaptive 8 600 100 0.4 0
  | "crack-profiled", false -> w Profiled 8 150 25 0.5 1000
  | "crack-profiled", true -> w Profiled 8 100 50 0.4 400
  | _ -> failwith ("perfbench: unknown workload " ^ name)

(* Every workload attacks on one domain: -j 1 and no shard prefetch.
   Where domains wait for each other -- at -j 2, or with a prefetch
   domain -- timings on the two-core machine the benchmark was tuned on
   swung by up to 3x as its CPU time was taken away, and -j 2 with
   prefetch runs four domains on two cores. *)
let jobs = 1
let prefetch = false

let alpha = 1e-4  (* crack --until-confident's default family-wise error *)

(* crack --until-confident's stop rule, with no look before 200 traces:
   without that floor one key in about eighty came out with a wrong
   unit, at alpha 1e-6 too. *)
let stop_spec = Sequential.Decision.spec ~alpha ~min_traces:200 ()
let decoys = 512  (* the sampled-hypothesis decoys of attack_cli *)
let victim_seed seed = Printf.sprintf "victim-%d" seed
let clone_seed seed = seed + 7919  (* a different key and capture seed *)
let model w = { Leakage.default_model with noise_sigma = w.noise }

(* ---------------- layer timers ---------------- *)

(* Per-layer totals of one traced process: seconds for [*_s] names,
   plain counts otherwise.  Locked, so a fan-out over several domains
   adds correctly. *)
module Layer = struct
  let lock = Mutex.create ()
  let table : (string, float) Hashtbl.t = Hashtbl.create 64

  let add name v =
    Mutex.protect lock (fun () ->
        let old = Option.value (Hashtbl.find_opt table name) ~default:0. in
        Hashtbl.replace table name (old +. v))

  let get name = Mutex.protect lock (fun () -> Option.value (Hashtbl.find_opt table name) ~default:0.)

  let time name f =
    let t0 = now () in
    let r = f () in
    add name (now () -. t0);
    r
end

(* How a step shared by the library path and the replay is timed: not
   at all, or as a layer. *)
type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }
let timed = { time = Layer.time }

(* The layers' self times, which never overlap: their sum over the
   traced wall is trace.coverage. *)
let self_layers =
  [
    "tracestore.open_s"; "profile.load_s"; "leakage.capture_s"; "tracestore.read_s";
    "leakage.decode_s"; "dema.extract_s"; "hypothesis.prep_s"; "recover.mantissa_low_s";
    "recover.mantissa_high_s"; "recover.sign_exponent_s"; "sequential.feed_wait_s";
    "sequential.fold_s"; "sequential.decide_s"; "ntru.recover_s"; "falcon.forge_s";
    "falcon.verify_s";
  ]

(* A [Dema.Stream.falcon_codec] that times every decode.  One codec per
   streaming call, whose shards are read and decoded one after another
   on the caller.  A shard's read is the gap to its first decode from
   the later of the previous shard's last decode ([mark]) and the
   caller's request for it ([call], set by a pull-based feed): Reader
   load, CRC and parse. *)
type probe = {
  mutable mark : float;
  mutable call : float;
  mutable left : int;  (** records left in the current shard *)
  mutable pending : (int * int) list;  (** (records, bytes) of shards not started *)
  mutable read : float;
  mutable decode : float;
  mutable records : int;
  mutable shards : int;
  mutable bytes : int;
}

let timing_codec reader =
  let p =
    {
      mark = now ();
      call = 0.;
      left = 0;
      pending =
        List.filter_map
          (fun i ->
            let e = Tracestore.Reader.entry reader i in
            if e.Tracestore.count > 0 then Some (e.Tracestore.count, e.Tracestore.bytes)
            else None)
          (List.init (Tracestore.Reader.shard_count reader) Fun.id);
      read = 0.;
      decode = 0.;
      records = 0;
      shards = 0;
      bytes = 0;
    }
  in
  let base = Attack.Dema.Stream.falcon_codec in
  let decode m r =
    let t0 = now () in
    if p.left = 0 then begin
      match p.pending with
      | (count, bytes) :: rest ->
          p.read <- p.read +. (t0 -. Float.max p.mark p.call);
          p.left <- count;
          p.pending <- rest;
          p.shards <- p.shards + 1;
          p.bytes <- p.bytes + bytes
      | [] -> failwith "perfbench: more records decoded than the manifest declares"
    end;
    let tr = base.Attack.Dema.Stream.decode m r in
    let t1 = now () in
    p.decode <- p.decode +. (t1 -. t0);
    p.records <- p.records + 1;
    p.left <- p.left - 1;
    if p.left = 0 then p.mark <- t1;
    tr
  in
  ({ base with Attack.Dema.Stream.decode }, p)

let record_probe p =
  Layer.add "tracestore.read_s" p.read;
  Layer.add "leakage.decode_s" p.decode;
  Layer.add "leakage.decode_records" (float_of_int p.records);
  Layer.add "tracestore.shard_loads" (float_of_int p.shards);
  Layer.add "tracestore.bytes_read" (float_of_int p.bytes)

(* ---------------- files ---------------- *)

let ( // ) = Filename.concat
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec tree_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let p = dir // name in
         if Sys.is_directory p then List.map (fun q -> name // q) (tree_files p)
         else [ name ])

let tree_bytes dir =
  List.fold_left
    (fun acc f -> acc + (Unix.stat (dir // f)).Unix.st_size)
    0 (tree_files dir)

let same_tree a b =
  tree_files a = tree_files b
  && List.for_all (fun f -> read_file (a // f) = read_file (b // f)) (tree_files a)

let write_keys dir (sk : Falcon.Scheme.secret_key) pk =
  write_file (dir // "public.key") (Falcon.Keycodec.encode_public pk);
  write_file (dir // "secret.key") (Falcon.Keycodec.encode_secret sk.kp)

let read_keys dir =
  match
    ( Falcon.Keycodec.decode_public (read_file (dir // "public.key")),
      Falcon.Keycodec.decode_secret (read_file (dir // "secret.key")) )
  with
  | Some pk, Some kp -> (pk, Falcon.Scheme.secret_of_keypair kp)
  | _ -> failwith ("perfbench: unreadable key sidecars in " ^ dir)

(* ---------------- set-up ---------------- *)

(* Victim keygen, the recorded campaign(s) and, on crack-profiled, the
   templates trained on a clone campaign. *)
let setup t w ~seed ~dir ~record =
  match w.kind with
  | Memory ->
      let sk, pk =
        t.time "falcon.keygen_s" (fun () -> Falcon.Scheme.keygen ~n:w.n ~seed:(victim_seed seed))
      in
      Sys.mkdir (dir // "victim") 0o755;
      write_keys (dir // "victim") sk pk
  | Store | Adaptive -> record ~dir:(dir // "victim") ~traces:w.traces ~seed
  | Profiled ->
      record ~dir:(dir // "clone") ~traces:w.clone_traces ~seed:(clone_seed seed);
      t.time "profile.train_s" (fun () ->
          Attack.Profile.save (dir // "templates.bin")
            (Attack.Target.profile
               (module Attack.Target.Falcon)
               ~dir:(dir // "clone")
               (Tracestore.Reader.open_store (dir // "clone"))));
      record ~dir:(dir // "victim") ~traces:w.traces ~seed

let setup_library w ~seed ~dir =
  setup untimed w ~seed ~dir ~record:(fun ~dir ~traces ~seed ->
      Attack.Target.Falcon.record_store ~dir ~n:w.n ~traces ~noise:w.noise ~seed
        ~shard_traces:w.shard ())

(* [Target.Falcon.record_store], one layer call at a time. *)
let record_replay w ~dir ~traces ~seed =
  let m = model w in
  let sk, pk =
    Layer.time "falcon.keygen_s" (fun () -> Falcon.Scheme.keygen ~n:w.n ~seed:(victim_seed seed))
  in
  let writer =
    Layer.time "tracestore.write_s" (fun () ->
        Tracestore.Writer.create ~dir ~n:w.n
          ~width:(w.n * Leakage.events_per_coeff)
          ~shard_traces:w.shard
          ~model:{ Tracestore.alpha = m.alpha; noise_sigma = m.noise_sigma; baseline = m.baseline })
  in
  let next = Leakage.capture_stream m ~seed sk in
  for _ = 1 to traces do
    let tr = Layer.time "leakage.capture_s" next in
    Layer.time "tracestore.write_s" (fun () ->
        Tracestore.Writer.append writer (Leakage.to_record tr))
  done;
  Layer.time "tracestore.write_s" (fun () ->
      Tracestore.Writer.close writer;
      write_keys dir sk pk);
  Layer.add "leakage.captured" (float_of_int traces);
  Layer.add "tracestore.bytes_written" (float_of_int (tree_bytes dir))

let setup_replay w ~seed ~dir =
  setup timed w ~seed ~dir ~record:(record_replay w);
  if w.kind = Profiled then Layer.add "profile.trained" (float_of_int w.clone_traces)

(* ---------------- attack: shared pieces ---------------- *)

let truth (sk : Falcon.Scheme.secret_key) ~coeff ~mul =
  if mul = 0 then sk.f_fft.Fft.re.(coeff) else sk.f_fft.Fft.im.(coeff)

(* The per-unit sampled strategies: [crack] seeds units by (coeff, mul),
   [run] additionally by the experiment seed. *)
let strategy w ~seed sk ~coeff ~mul =
  let base = if w.kind = Memory then seed else 0 in
  Attack.Recover.Eval_sampled
    { rng = Stats.Rng.create ~seed:(base + (coeff * 7) + mul); decoys; truth = truth sk ~coeff ~mul }

let component_of t = if t land 1 = 0 then `Re else `Im
let mul_of = function `Re -> 0 | `Im -> 1

let window_samples ~coeff muls =
  List.concat_map
    (fun m ->
      List.init Leakage.events_per_mul (fun i ->
          (coeff * Leakage.events_per_coeff) + (m * Leakage.events_per_mul) + i))
    muls

(* Split 32-sample window rows back into the two per-multiplication
   views, as [Fullkey] does. *)
let views_of_rows muls rows ks =
  List.mapi
    (fun vi m ->
      {
        Attack.Recover.traces =
          Array.map
            (fun row -> Array.sub row (vi * Leakage.events_per_mul) Leakage.events_per_mul)
            rows;
        known = Array.map (fun k -> Attack.Fullkey.mul_known k m) ks;
      })
    muls

(* Candidate sets of a sampled strategy, with [Recover.coefficient]'s
   RNG threading. *)
let candidates = function
  | Attack.Recover.Eval_sampled { rng; decoys; truth } ->
      let xu = Fpr.mantissa truth lor (1 lsl 52) in
      ( Attack.Hypothesis.sampled rng ~width:25 ~truth:(xu land ((1 lsl 25) - 1)) ~decoys (),
        Attack.Hypothesis.sampled rng ~width:28 ~lo:(1 lsl 27) ~truth:(xu lsr 25) ~decoys () )
  | Attack.Recover.Exhaustive -> invalid_arg "perfbench: sampled strategies only"

(* [Recover.coefficient] as its three public phases.  Also counts the
   guesses scored and the computed scoring work, guesses x traces x
   parts, behind pearson.mcorr_per_s. *)
let replay_coefficient ~ctx strategy views =
  let low_c, high_c = Layer.time "hypothesis.prep_s" (fun () -> candidates strategy) in
  let low =
    Layer.time "recover.mantissa_low_s" (fun () ->
        Attack.Recover.mantissa_low_multi ~ctx ~top:32 ~candidates:(Array.to_seq low_c) views)
  in
  let high =
    Layer.time "recover.mantissa_high_s" (fun () ->
        Attack.Recover.mantissa_high_multi ~ctx ~top:32 ~candidates:(Array.to_seq high_c)
          ~d:low.winner views)
  in
  let mant = ((high.winner lsl 25) lor low.winner) land ((1 lsl 52) - 1) in
  let sign, exp, _ =
    Layer.time "recover.sign_exponent_s" (fun () ->
        Attack.Recover.sign_exponent_multi ~ctx ~mant views)
  in
  let parts stage = List.length stage * List.length views in
  let lx, lp = Attack.Recover.low_stages `Hw in
  let hx, hp = Attack.Recover.high_stages ~d:0 `Hw in
  let low_kept = List.length low.extend and high_kept = List.length high.extend in
  (* sign x the default exponent window [992, 1056), on 3 parts *)
  let sign_exp = 2 * 64 in
  Layer.add "recover.guesses"
    (float_of_int (Array.length low_c + low_kept + Array.length high_c + high_kept + sign_exp));
  Layer.add "pearson.ops"
    (float_of_int (Array.length (List.hd views).Attack.Recover.traces)
    *. float_of_int
         ((Array.length low_c * parts lx)
         + (low_kept * (parts lx + parts lp))
         + (Array.length high_c * parts hx)
         + (high_kept * (parts hx + parts hp))
         + (sign_exp * 3 * List.length views)));
  Fpr.make ~sign ~exp ~mant

(* [Fullkey]'s fan-out of the 2n (coefficient, component) units. *)
let fan ~n task =
  let t0 = now () in
  let results =
    Parallel.map_array ~jobs
      (fun t ->
        let s = now () in
        let r = task ~coeff:(t lsr 1) ~component:(component_of t) in
        Layer.add "parallel.busy_s" (now () -. s);
        r)
      (Array.init (2 * n) Fun.id)
  in
  let wall = now () -. t0 in
  Layer.add "parallel.utilisation" (Layer.get "parallel.busy_s" /. (wall *. float_of_int jobs));
  let out = Fft.zero n in
  Array.iteri
    (fun t v -> if t land 1 = 0 then out.Fft.re.(t lsr 1) <- v else out.Fft.im.(t lsr 1) <- v)
    results;
  out

type outcome = {
  f_fft : Fft.t;
  keypair : Ntru.Ntrugen.keypair option;
  forged : bool;  (** the forgery verifies under the victim's public key *)
  used : int array;  (** traces read per unit before its decision *)
  looks : int;
}

let forgery_message ~seed ~rep = Printf.sprintf "perfbench forgery %d.%d" seed rep

(* Everything the untraced and traced runs must agree on, bit for bit. *)
let digest o =
  let b = Buffer.create 4096 in
  let ints a = Array.iter (fun x -> Buffer.add_string b (string_of_int x ^ ",")) a in
  let n = Fft.length o.f_fft in
  for k = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "%Lx,%Lx;" o.f_fft.Fft.re.(k) o.f_fft.Fft.im.(k))
  done;
  (match o.keypair with
  | Some kp -> List.iter ints [ kp.f; kp.g; kp.big_f; kp.big_g ]
  | None -> Buffer.add_string b "nokey");
  ints o.used;
  Buffer.add_string b (string_of_int o.looks);
  Digest.to_hex (Digest.string (Buffer.contents b))

let make_ctx ~templates =
  Parallel.set_default_jobs jobs;
  match templates with
  | Some store -> Attack.Ctx.make ~jobs ~distinguisher:(Attack.Distinguisher.Profiled store) ()
  | None -> Attack.Ctx.make ~jobs ()

(* What crack does before it attacks: open the store, read the key
   sidecars and, for the profiled backend, load the templates. *)
let open_campaign t w ~dir =
  let reader, (pk, sk) =
    t.time "tracestore.open_s" (fun () ->
        (Tracestore.Reader.open_store (dir // "victim"), read_keys (dir // "victim")))
  in
  let templates =
    if w.kind = Profiled then
      Some (t.time "profile.load_s" (fun () -> Attack.Profile.load (dir // "templates.bin")))
    else None
  in
  (reader, pk, sk, make_ctx ~templates)

(* A forgery on a fresh message with the rebuilt key, verified under the
   victim's public key. *)
let forge_verify t ~pk ~msg = function
  | None -> false
  | Some kp ->
      let sg =
        t.time "falcon.forge_s" (fun () -> Attack.Fullkey.forge ~keypair:kp ~seed:"forger" msg)
      in
      t.time "falcon.verify_s" (fun () -> Falcon.Scheme.verify pk msg sg)

(* ---------------- attack: library path ---------------- *)

let attack_library w ~seed ~rep ~dir =
  let msg = forgery_message ~seed ~rep in
  let t0 = ref 0. in
  let (res : Attack.Fullkey.result), pk, sk, used, looks =
    match w.kind with
    | Memory ->
        let pk, sk = read_keys (dir // "victim") in
        let ctx = make_ctx ~templates:None in
        t0 := now ();
        let traces = Leakage.capture (model w) ~seed sk ~count:w.traces in
        ( Attack.Fullkey.recover_key ~ctx ~traces ~h:pk.h (strategy w ~seed sk),
          pk, sk, Array.make (2 * w.n) w.traces, 0 )
    | Store | Adaptive | Profiled ->
        t0 := now ();
        let reader, pk, sk, ctx = open_campaign untimed w ~dir in
        let stop = if w.kind = Adaptive then Some stop_spec else None in
        let summary = ref None in
        let res =
          Attack.Fullkey.recover_key_store ~ctx ~on_corrupt:`Fail ~prefetch ~leakage:`Hw
            ?stop
            ~stop_report:(fun s -> summary := Some s)
            ~reader ~h:pk.h (strategy w ~seed sk)
        in
        let used, looks =
          match !summary with
          | Some s -> (s.Sequential.Campaign.traces_used, s.Sequential.Campaign.looks)
          | None -> (Array.make (2 * w.n) (Tracestore.Reader.total_traces reader), 0)
        in
        (res, pk, sk, used, looks)
  in
  let forged = forge_verify untimed ~pk ~msg res.keypair in
  (now () -. !t0, sk, { f_fft = res.f_fft; keypair = res.keypair; forged; used; looks })

(* ---------------- attack: traced replays ---------------- *)

let replay_key ~(pk : Falcon.Scheme.public_key) ~msg f_fft =
  let keypair =
    Layer.time "ntru.recover_s" (fun () ->
        let f = Fft.round_to_int (Fft.ifft f_fft) in
        Ntru.Ntrugen.recover_from_f ~n:(Array.length pk.h) ~f ~h:pk.h)
  in
  (keypair, forge_verify timed ~pk ~msg keypair)

(* One fixed-budget store unit: a [Dema.Stream.extract] pass through the
   timing codec, then the three recovery phases. *)
let store_unit ~ctx ~reader ~strategy ~coeff ~component =
  let t0 = now () in
  let codec, p = timing_codec reader in
  let muls = Attack.Fullkey.component_muls component in
  let rows, ks =
    Attack.Dema.Stream.extract ~ctx:(Attack.Ctx.sequential ctx) ~on_corrupt:`Fail
      ~prefetch ~codec reader ~samples:(window_samples ~coeff muls)
      ~known:(fun (t : Leakage.trace) -> (t.c_fft.Fft.re.(coeff), t.c_fft.Fft.im.(coeff)))
  in
  let views = views_of_rows muls rows ks in
  Layer.add "dema.extract_s" (now () -. t0 -. p.read -. p.decode);
  record_probe p;
  replay_coefficient ~ctx (strategy ~coeff ~mul:(mul_of component)) views

(* [Fullkey]'s adaptive unit: buffered windows plus low/high decision
   sweeps over the strategy's candidate sets. *)
type adaptive_unit = {
  samples : int array;
  muls : int list;
  mutable segs : (float array array * (Fpr.t * Fpr.t) array) list;  (** newest first *)
  low : Fpr.t Attack.Dema.Sweep.t;
  high : Fpr.t Attack.Dema.Sweep.t;
}

let adaptive_unit ~backend strategy ~coeff ~component =
  let muls = Attack.Fullkey.component_muls component in
  let low_c, high_c = candidates (strategy ~coeff ~mul:(mul_of component)) in
  let spread models = List.concat_map (fun m -> List.map (fun _ -> m) muls) models in
  let open Attack.Recover in
  {
    samples = Array.of_list (window_samples ~coeff muls);
    muls;
    segs = [];
    low = Attack.Dema.Sweep.create ~backend ~parts:(spread [ p_w00; p_w10; p_z1a ]) low_c;
    high = Attack.Dema.Sweep.create ~backend ~parts:(spread [ p_w01; p_w11 ]) high_c;
  }

let replay_adaptive w ~ctx ~reader ~strategy =
  let n = w.n in
  let codec, p = timing_codec reader in
  let fd = Attack.Dema.Stream.shard_feed ~on_corrupt:`Fail ~prefetch ~codec reader in
  let feed_s = ref 0. and gather_s = ref 0. and fold_s = ref 0. in
  let units =
    Layer.time "hypothesis.prep_s" (fun () ->
        Array.init (2 * n) (fun t ->
            adaptive_unit ~backend:(Attack.Ctx.kernel ctx) strategy ~coeff:(t lsr 1)
              ~component:(component_of t)))
  in
  let fold t (batch : Leakage.trace array) =
    let u = units.(t) and coeff = t lsr 1 in
    let t0 = now () in
    let rows = Array.map (fun (tr : Leakage.trace) -> Array.map (fun s -> tr.samples.(s)) u.samples) batch in
    let ks =
      Array.map (fun (tr : Leakage.trace) -> (tr.c_fft.Fft.re.(coeff), tr.c_fft.Fft.im.(coeff))) batch
    in
    u.segs <- (rows, ks) :: u.segs;
    let kvs = Array.of_list (List.map (fun m -> Array.map (fun k -> Attack.Fullkey.mul_known k m) ks) u.muls) in
    let segs labels =
      Array.concat
        (List.map
           (fun lbl ->
             Array.init (Array.length kvs) (fun vi ->
                 let off = (vi * Leakage.events_per_mul) + Attack.Recover.sample lbl in
                 (Array.map (fun row -> row.(off)) rows, kvs.(vi))))
           labels)
    in
    let low = segs [ Fpr.Mant_w00; Fpr.Mant_w10; Fpr.Mant_z1a ] in
    let high = segs [ Fpr.Mant_w01; Fpr.Mant_w11 ] in
    let t1 = now () in
    Attack.Dema.Sweep.fold ~jobs:1 u.low low;
    Attack.Dema.Sweep.fold ~jobs:1 u.high high;
    gather_s := !gather_s +. (t1 -. t0);
    fold_s := !fold_s +. (now () -. t1)
  in
  (* the weaker of the two sweeps' standardised gaps *)
  let leaders t () =
    let u = units.(t) in
    let ll = Attack.Dema.Sweep.leaders ~jobs:1 u.low in
    let lh = Attack.Dema.Sweep.leaders ~jobs:1 u.high in
    let z (l : Sequential.Campaign.leaders) =
      Stats.Signif.corr_gap_z ~n:(Attack.Dema.Sweep.n u.low) ~r1:l.best ~r2:l.runner_up
    in
    if z ll <= z lh then ll else lh
  in
  let feed () =
    let t0 = now () in
    p.call <- t0;
    let r = fd.Attack.Dema.Stream.next () in
    feed_s := !feed_s +. (now () -. t0);
    r
  in
  let t0 = now () in
  let results =
    Fun.protect ~finally:fd.Attack.Dema.Stream.close (fun () ->
        Sequential.Campaign.run ~jobs:1 ~spec:stop_spec
          ~total:fd.Attack.Dema.Stream.total ~feed ~length:Array.length
          (Array.init (2 * n) (fun t -> { Sequential.Campaign.fold = fold t; leaders = leaders t })))
  in
  let run_s = now () -. t0 in
  record_probe p;
  Layer.add "sequential.feed_wait_s" (!feed_s -. p.read -. p.decode);
  Layer.add "sequential.fold_s" !fold_s;
  Layer.add "sequential.decide_s" (run_s -. !feed_s -. !gather_s -. !fold_s);
  Layer.add "dema.extract_s" !gather_s;
  let s = Sequential.Campaign.summarize ~total:fd.Attack.Dema.Stream.total results in
  Layer.add "sequential.looks" (float_of_int s.looks);
  Layer.add "sequential.stopped" (float_of_int s.stopped);
  Layer.add "sequential.traces_saved" (float_of_int s.traces_saved);
  let f_fft =
    fan ~n (fun ~coeff ~component ->
        let u = units.((2 * coeff) + mul_of component) in
        let views =
          Layer.time "dema.extract_s" (fun () ->
              views_of_rows u.muls
                (Array.concat (List.rev_map fst u.segs))
                (Array.concat (List.rev_map snd u.segs)))
        in
        replay_coefficient ~ctx
          (strategy ~coeff ~mul:(mul_of component))
          views)
  in
  (f_fft, s.traces_used, s.looks)

let attack_replay w ~seed ~rep ~dir =
  let msg = forgery_message ~seed ~rep in
  match w.kind with
  | Memory ->
      let pk, sk = read_keys (dir // "victim") in
      let ctx = make_ctx ~templates:None in
      let t0 = now () in
      let traces =
        Layer.time "leakage.capture_s" (fun () -> Leakage.capture (model w) ~seed sk ~count:w.traces)
      in
      Layer.add "leakage.captured" (float_of_int w.traces);
      let f_fft =
        fan ~n:w.n (fun ~coeff ~component ->
            let views =
              Layer.time "dema.extract_s" (fun () -> Attack.Recover.views_for traces ~coeff ~component)
            in
            replay_coefficient ~ctx
              (strategy w ~seed sk ~coeff ~mul:(mul_of component))
              views)
      in
      let keypair, forged = replay_key ~pk ~msg f_fft in
      (now () -. t0, sk, { f_fft; keypair; forged; used = Array.make (2 * w.n) w.traces; looks = 0 })
  | Store | Adaptive | Profiled ->
      let t0 = now () in
      let reader, pk, sk, ctx = open_campaign timed w ~dir in
      let strategy = strategy w ~seed sk in
      let f_fft, used, looks =
        if w.kind = Adaptive then replay_adaptive w ~ctx ~reader ~strategy
        else
          ( fan ~n:w.n (store_unit ~ctx ~reader ~strategy),
            Array.make (2 * w.n) (Tracestore.Reader.total_traces reader),
            0 )
      in
      let keypair, forged = replay_key ~pk ~msg f_fft in
      (now () -. t0, sk, { f_fft; keypair; forged; used; looks })

(* ---------------- output ---------------- *)

let json_num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let layers_json extra =
  let names = List.sort_uniq compare (List.map fst extra @ List.of_seq (Hashtbl.to_seq_keys Layer.table)) in
  json_obj
    (List.map
       (fun k -> (k, json_num (match List.assoc_opt k extra with Some v -> v | None -> Layer.get k)))
       names)

(* Derived per-layer rates, emitted only where their base was measured. *)
let rates l = List.filter_map (fun (k, a, b) -> if b > 0. then Some (k, a /. b) else None) l

let cmd_setup w ~seed ~dir ~trace =
  Sys.mkdir dir 0o755;
  let t0 = now () in
  setup_library w ~seed ~dir;
  let setup_s = now () -. t0 in
  let fields = [ ("setup_s", json_num setup_s) ] in
  let fields =
    if not trace then fields
    else begin
      let replay = dir ^ ".replay" in
      Sys.mkdir replay 0o755;
      setup_replay w ~seed ~dir:replay;
      let identical = same_tree dir replay in
      let extra =
        rates
          [
            ("leakage.capture_tps", Layer.get "leakage.captured", Layer.get "leakage.capture_s");
            ("profile.train_tps", Layer.get "profile.trained", Layer.get "profile.train_s");
          ]
      in
      fields @ [ ("replay_identical", string_of_bool identical); ("layers", layers_json extra) ]
    end
  in
  print_endline (json_obj fields)

(* A fixed reference computation, timed: what a Pearson ranking does --
   Hamming-weight hypotheses of known words correlated with float
   samples -- in the benchmark's own code, so no change to the library
   moves it.  run.py runs it between set-ups and between attacks and
   divides their times by it, so a machine that slows down and speeds
   up by itself for seconds at a time slows the reference as much. *)
let reference () =
  let traces = 256 and guesses = 8000 in
  let popcount x =
    let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
    go x 0
  in
  let known = Array.init traces (fun i -> ((i * 2654435761) lxor (i lsl 7)) land 0xFFFFFF) in
  let samples = Array.init traces (fun i -> float_of_int (popcount (known.(i) * 977)) +. (0.01 *. float_of_int (i mod 13))) in
  let model = Array.make traces 0. in
  let t0 = now () in
  let best = ref neg_infinity in
  for g = 1 to guesses do
    for i = 0 to traces - 1 do
      model.(i) <- float_of_int (popcount (known.(i) * g))
    done;
    let sx = ref 0. and sy = ref 0. and sxx = ref 0. and syy = ref 0. and sxy = ref 0. in
    for i = 0 to traces - 1 do
      let x = model.(i) and y = samples.(i) in
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      syy := !syy +. (y *. y);
      sxy := !sxy +. (x *. y)
    done;
    let n = float_of_int traces in
    let r =
      ((n *. !sxy) -. (!sx *. !sy))
      /. sqrt (((n *. !sxx) -. (!sx *. !sx)) *. ((n *. !syy) -. (!sy *. !sy)) +. 1e-12)
    in
    if r > !best then best := r
  done;
  let ref_s = now () -. t0 in
  print_endline (json_obj [ ("ref_s", json_num ref_s); ("best", json_num !best) ])

let cmd_attack w ~seed ~rep ~dir ~trace =
  let wall, sk, o = (if trace then attack_replay else attack_library) w ~seed ~rep ~dir in
  let units = 2 * w.n in
  let units_ok = Attack.Fullkey.count_correct o.f_fft ~truth:sk.f_fft in
  let key_ok = o.keypair <> None && o.forged in
  let campaign_bytes =
    if w.kind = Memory then w.traces * w.n * Leakage.events_per_coeff * 8 else tree_bytes dir
  in
  let gc = Gc.quick_stat () in
  let used = Array.fold_left (fun a u -> a +. float_of_int u) 0. o.used /. float_of_int units in
  let fields =
    [
      ("attack_s", json_num wall);
      ("units", string_of_int units);
      ("units_ok", string_of_int units_ok);
      ("key_ok", if key_ok then "1" else "0");
      ("traces_used", json_num used);
      ("campaign_bytes", string_of_int campaign_bytes);
      ("digest", Printf.sprintf "%S" (digest o));
    ]
  in
  let fields =
    if not trace then fields
    else begin
      let scoring =
        Layer.get "recover.mantissa_low_s" +. Layer.get "recover.mantissa_high_s"
        +. Layer.get "recover.sign_exponent_s"
      in
      let self = List.fold_left (fun a k -> a +. Layer.get k) 0. self_layers in
      let extra =
        rates
          [
            ("leakage.capture_tps", Layer.get "leakage.captured", Layer.get "leakage.capture_s");
            ("pearson.mcorr_per_s", Layer.get "pearson.ops" /. 1e6, scoring);
            ("trace.coverage", self, wall);
          ]
        @ [
            ("gc.minor_mwords", gc.Gc.minor_words /. 1e6);
            ("gc.major_collections", float_of_int gc.Gc.major_collections);
          ]
      in
      fields @ [ ("layers", layers_json extra) ]
    end
  in
  print_endline (json_obj fields)

let () =
  let cmd = ref "" and name = ref "" and seed = ref 1 and dir = ref "" in
  let trace = ref false and toy = ref false and rep = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--dir", Arg.Set_string dir, "DIR set-up directory");
      ("--trace", Arg.Set trace, " traced replay with per-layer timers");
      ("--toy", Arg.Set toy, " toy sizes, for the self-check");
      ("--rep", Arg.Set_int rep, "N repetition index (forgery message)");
    ]
    (fun c -> cmd := c)
    "bench.exe (setup|attack) --workload NAME --seed N --dir DIR [--trace] [--toy] | bench.exe reference";
  match !cmd with
  | "setup" -> cmd_setup (workload ~toy:!toy !name) ~seed:!seed ~dir:!dir ~trace:!trace
  | "attack" -> cmd_attack (workload ~toy:!toy !name) ~seed:!seed ~rep:!rep ~dir:!dir ~trace:!trace
  | "reference" -> reference ()
  | c -> failwith ("perfbench: unknown command " ^ c)
