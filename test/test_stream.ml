(* Streaming (out-of-core) analysis engine: the property tests of the
   determinism contract.  Streaming Pearson (one Welford.Cov per trace
   column) must equal the two-pass computation to 1e-9; its merges must
   be associative and split-point independent; shard-checkpointed evolution
   must match prefix rescans; and the store-backed rank / full-key paths
   must be bit-identical to the in-memory ones at every jobs value. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs a)

let sk16 = lazy (fst (Falcon.Scheme.keygen ~n:16 ~seed:"stream test key"))
let model = { Leakage.default_model with noise_sigma = 0.4 }

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* [traces] written to a temporary FALCON-16 store in shards of
   [shard_traces], handed to [f] as a reader *)
let with_store ~shard_traces traces f =
  let dir = Filename.temp_dir "fd_stream_test" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces
          ~model:
            {
              Tracestore.alpha = model.alpha;
              noise_sigma = model.noise_sigma;
              baseline = model.baseline;
            }
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      f (Tracestore.Reader.open_store dir))

(* one campaign, shared across the suite: 30 traces in shards of 8 *)
let with_campaign f =
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture model ~seed:77 sk ~count:30 in
  with_store ~shard_traces:8 traces (f sk traces)

(* A streaming per-column correlation tracker: one Welford.Cov per
   trace column, every column fed the same hypothesis stream. *)
let tracker ~hyps ~rows ~width lo hi =
  let cols = Array.init width (fun _ -> Stats.Welford.Cov.create ()) in
  for i = lo to hi - 1 do
    Array.iteri (fun j acc -> Stats.Welford.Cov.add acc hyps.(i) rows.(i).(j)) cols
  done;
  cols

let merge_trackers = Array.map2 Stats.Welford.Cov.merge

let test_streaming_pearson_matches_two_pass () =
  let rng = Stats.Rng.create ~seed:31 in
  let d = 200 and width = 5 in
  let hyps = Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:4. ~sigma:1.5) in
  let rows =
    Array.map
      (fun h ->
        Array.init width (fun j ->
            (float_of_int (j + 1) *. h) +. Stats.Rng.gaussian rng ~mu:0. ~sigma:2.))
      hyps
  in
  let s = tracker ~hyps ~rows ~width 0 d in
  Array.iteri
    (fun j acc ->
      Alcotest.(check int) "count" d (Stats.Welford.Cov.count acc);
      let col = Array.map (fun r -> r.(j)) rows in
      let two_pass = Stats.Pearson.corr hyps col in
      let streaming = Stats.Welford.Cov.correlation acc in
      if not (feq streaming two_pass) then
        Alcotest.failf "column %d: streaming %.12f vs two-pass %.12f" j streaming
          two_pass)
    s

let test_streaming_merge_split_independent () =
  let rng = Stats.Rng.create ~seed:32 in
  let d = 120 and width = 3 in
  let hyps = Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
  let rows =
    Array.map
      (fun h ->
        Array.init width (fun _ -> h +. Stats.Rng.gaussian rng ~mu:0. ~sigma:0.7))
      hyps
  in
  let tracker = tracker ~hyps ~rows ~width in
  let agree what a b =
    Array.iteri
      (fun j x ->
        if
          not
            (feq (Stats.Welford.Cov.correlation x) (Stats.Welford.Cov.correlation b.(j)))
        then Alcotest.failf "%s: col %d diverges" what j)
      a
  in
  let whole = tracker 0 d in
  (* any split into consecutive chunks must merge back to the whole *)
  List.iter
    (fun cuts ->
      let bounds = (0 :: cuts) @ [ d ] in
      let rec pieces = function
        | lo :: (hi :: _ as rest) -> tracker lo hi :: pieces rest
        | _ -> []
      in
      let merged =
        match pieces bounds with
        | p :: ps -> List.fold_left merge_trackers p ps
        | [] -> assert false
      in
      agree ("split " ^ String.concat "," (List.map string_of_int cuts)) merged whole)
    [ [ 60 ]; [ 17 ]; [ 40; 80 ]; [ 8; 16; 100 ] ];
  (* associativity: (a + b) + c == a + (b + c) *)
  let a = tracker 0 40 and b = tracker 40 80 and c = tracker 80 d in
  agree "merge associativity"
    (merge_trackers (merge_trackers a b) c)
    (merge_trackers a (merge_trackers b c))

let test_stream_rank_bit_identical () =
  with_campaign @@ fun sk traces reader ->
  let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  let candidates =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:5)
      ~width:25 ~truth:d_true ~decoys:200 ()
  in
  let parts =
    [
      (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
      (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
    ]
  in
  let rows = Array.map (fun (t : Leakage.trace) -> t.samples) traces in
  let ks = Array.map (fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0)) traces in
  let mem jobs =
    Attack.Dema.rank ~ctx:(Attack.Ctx.make ~jobs ()) ~traces:rows ~parts ~known:ks ~top:5
      (Array.to_seq candidates)
  in
  let streamed jobs =
    Attack.Dema.Stream.rank ~ctx:(Attack.Ctx.make ~jobs ()) reader ~parts
      ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
      ~top:5 (Array.to_seq candidates)
  in
  let reference = mem 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "stream rank == memory rank at -j %d" jobs)
        true
        (streamed jobs = reference))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "memory rank itself jobs-invariant" true (mem 2 = reference)

let test_stream_evolution_matches_prefix_rescan () =
  with_campaign @@ fun sk traces reader ->
  let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  let rows = Array.map (fun (t : Leakage.trace) -> t.samples) traces in
  let ks = Array.map (fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0)) traces in
  let streamed jobs =
    Attack.Dema.Stream.evolution ~ctx:(Attack.Ctx.make ~jobs ()) reader
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.m_w00
      ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
      ~guess:d_true
  in
  let checkpoints = streamed 1 in
  (* one checkpoint per shard boundary: 8, 16, 24, 30 *)
  Alcotest.(check (list int))
    "checkpoint trace counts" [ 8; 16; 24; 30 ] (List.map fst checkpoints);
  let rescans =
    Attack.Dema.evolution ~traces:rows
      ~sample:(Attack.Recover.sample Fpr.Mant_w00)
      ~model:Attack.Recover.m_w00 ~known:ks ~guess:d_true ~step:1
  in
  List.iter
    (fun (d, r) ->
      match List.assoc_opt d rescans with
      | None -> Alcotest.failf "no rescan at %d traces" d
      | Some r' ->
          if not (feq r r') then
            Alcotest.failf "checkpoint at %d traces: %.12f vs rescan %.12f" d r r')
    checkpoints;
  (* deterministic across jobs (same shard-order merge) *)
  Alcotest.(check bool) "evolution jobs-invariant" true (streamed 2 = checkpoints)

let fullkey_strategy sk ~coeff ~mul =
  let truth =
    if mul = 0 then sk.Falcon.Scheme.f_fft.Fft.re.(coeff)
    else sk.Falcon.Scheme.f_fft.Fft.im.(coeff)
  in
  Attack.Recover.Eval_sampled
    { rng = Stats.Rng.create ~seed:((coeff * 7) + mul); decoys = 32; truth }

(* The values of every [name] counter in a JSONL log. *)
let counts buf name =
  List.filter_map
    (fun r ->
      if Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt = Some name
      then Option.bind (Obs.Json.member "value" r) Obs.Json.to_int_opt
      else None)
    (Obs.Jsonl.read_string (Buffer.contents buf))

let test_fullkey_store_matches_memory () =
  with_campaign @@ fun sk traces reader ->
  let strategy = fullkey_strategy sk in
  let mem =
    Attack.Fullkey.recover_f_fft ~ctx:(Attack.Ctx.make ~jobs:1 ()) ~traces ~n:16 strategy
  in
  List.iter
    (fun jobs ->
      let st =
        Attack.Fullkey.recover_f_fft_store ~ctx:(Attack.Ctx.make ~jobs ()) ~reader strategy
      in
      Alcotest.(check bool)
        (Printf.sprintf "store FFT(f) == memory FFT(f) at -j %d" jobs)
        true
        (st.Fft.re = mem.Fft.re && st.Fft.im = mem.Fft.im))
    [ 1; 2 ]

(* 64 traces in 32 two-trace shards outgrow the fixed-budget window
   buffer (8 decoded shards' worth): the recovery takes several
   passes, each reading the whole store, and stays bit-identical to the
   in-memory path. *)
let test_fullkey_store_multi_pass () =
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture model ~seed:79 sk ~count:64 in
  with_store ~shard_traces:2 traces @@ fun reader ->
  let strategy = fullkey_strategy sk in
  let mem =
    Attack.Fullkey.recover_f_fft ~ctx:(Attack.Ctx.make ~jobs:1 ()) ~traces ~n:16 strategy
  in
  List.iter
    (fun jobs ->
      let buf = Buffer.create 4096 in
      let ctx = Attack.Ctx.make ~jobs ~obs:(Obs.make (Obs.Jsonl.to_buffer buf)) () in
      let st = Attack.Fullkey.recover_f_fft_store ~ctx ~reader strategy in
      Alcotest.(check bool)
        (Printf.sprintf "multi-pass FFT(f) == memory FFT(f) at -j %d" jobs)
        true
        (st.Fft.re = mem.Fft.re && st.Fft.im = mem.Fft.im);
      let passes = counts buf "tracestore.shards" in
      Alcotest.(check bool)
        (Printf.sprintf "several whole-store passes, fewer than 2n, at -j %d" jobs)
        true
        (List.length passes > 1
        && List.length passes < 32
        && List.for_all (( = ) (Tracestore.Reader.shard_count reader)) passes))
    [ 1; 2 ]

let contains_frag msg frag =
  let fl = String.length frag and ml = String.length msg in
  let rec scan i = i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1)) in
  scan 0

let test_stream_evolution_single_shard () =
  (* a shard wide enough to swallow the whole campaign: exactly one
     checkpoint, equal to the full in-memory batch correlation *)
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture model ~seed:78 sk ~count:24 in
  let dir = Filename.temp_dir "fd_stream_one" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:64
          ~model:
            {
              Tracestore.alpha = model.alpha;
              noise_sigma = model.noise_sigma;
              baseline = model.baseline;
            }
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      let reader = Tracestore.Reader.open_store dir in
      let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
      let known (t : Leakage.trace) = t.c_fft.Fft.re.(0) in
      match
        Attack.Dema.Stream.evolution reader
          ~sample:(Attack.Recover.sample Fpr.Mant_w00)
          ~model:Attack.Recover.m_w00 ~known ~guess:d_true
      with
      | [ (d, r) ] ->
          Alcotest.(check int) "checkpoint at full campaign" 24 d;
          let acc = Stats.Welford.Cov.create () in
          Array.iter
            (fun (t : Leakage.trace) ->
              Stats.Welford.Cov.add acc
                (float_of_int (Bitops.popcount (Attack.Recover.m_w00 d_true (known t))))
                t.samples.(Attack.Recover.sample Fpr.Mant_w00))
            traces;
          Alcotest.(check bool) "equals full batch correlation" true
            (feq r (Stats.Welford.Cov.correlation acc))
      | cps -> Alcotest.failf "expected one checkpoint, got %d" (List.length cps))

let test_stream_evolution_empty_store () =
  (* a store holding zero traces is a data error, not an empty series *)
  let dir = Filename.temp_dir "fd_stream_empty" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:8
          ~model:{ Tracestore.alpha = 1.; noise_sigma = 0.; baseline = 0. }
      in
      Tracestore.Writer.close w;
      let reader = Tracestore.Reader.open_store dir in
      match
        Attack.Dema.Stream.evolution reader ~sample:0 ~model:(fun _ _ -> 0)
          ~known:(fun _ -> 0) ~guess:0
      with
      | _ -> Alcotest.fail "empty store accepted"
      | exception Failure msg ->
          Alcotest.(check bool) "message says the store is empty" true
            (contains_frag msg "no traces"))

let test_stream_rejects_width_mismatch () =
  (* a store whose sample width does not match 70n must be refused by
     the streaming engine up front *)
  let dir = Filename.temp_dir "fd_stream_bad" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16 ~width:7 ~shard_traces:4
          ~model:{ Tracestore.alpha = 1.; noise_sigma = 0.; baseline = 0. }
      in
      Tracestore.Writer.append w
        { Tracestore.msg = "m"; salt = "s"; body = "b"; samples = Array.make 7 0. };
      Tracestore.Writer.close w;
      let reader = Tracestore.Reader.open_store dir in
      match
        Attack.Dema.Stream.evolution reader ~sample:0 ~model:(fun _ _ -> 0)
          ~known:(fun _ -> 0) ~guess:0
      with
      | _ -> Alcotest.fail "width mismatch accepted"
      | exception Failure msg ->
          Alcotest.(check bool) "message names the width" true
            (let frag = "width" in
             let fl = String.length frag and ml = String.length msg in
             let rec scan i =
               i + fl <= ml && (String.sub msg i fl = frag || scan (i + 1))
             in
             scan 0))

(* ---- shard-loss, mmap and prefetch robustness ----

   Same campaign as [with_campaign], but the directory outlives the
   store creation so individual shard files can be damaged and reopened:
   30 traces in shards of 8 → shards 0..3 holding 8/8/8/6 traces. *)
let with_campaign_dir f =
  let sk = Lazy.force sk16 in
  let traces = Leakage.capture model ~seed:77 sk ~count:30 in
  let dir = Filename.temp_dir "fd_stream_dir" "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w =
        Tracestore.Writer.create ~dir ~n:16
          ~width:(16 * Leakage.events_per_coeff)
          ~shard_traces:8
          ~model:
            {
              Tracestore.alpha = model.alpha;
              noise_sigma = model.noise_sigma;
              baseline = model.baseline;
            }
      in
      Array.iter (fun t -> Tracestore.Writer.append w (Leakage.to_record t)) traces;
      Tracestore.Writer.close w;
      f sk traces dir)

(* flip one payload byte in place: CRC mismatch, size unchanged *)
let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.read fd b 0 1);
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write fd b 0 1))

let truncate_file path by =
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - by)

let rank_parts () =
  [
    (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
    (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
  ]

let candidates_for sk =
  let d_true = (Fpr.mantissa sk.Falcon.Scheme.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
  Attack.Hypothesis.sampled
    (Stats.Rng.create ~seed:5)
    ~width:25 ~truth:d_true ~decoys:200 ()

let known_re0 (t : Leakage.trace) = t.c_fft.Fft.re.(0)

let test_corrupt_shard_fails_loudly () =
  with_campaign_dir @@ fun sk _traces dir ->
  (* damage a payload byte of shard 1 — header intact, CRC now wrong *)
  flip_byte (Filename.concat dir (Tracestore.shard_name 1)) 40;
  let candidates = candidates_for sk in
  let reader = Tracestore.Reader.open_store dir in
  let expect_loud name run =
    match run () with
    | _ -> Alcotest.failf "%s accepted a corrupt shard" name
    | exception Failure msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s error names shard 1" name)
          true (contains_frag msg "shard 1")
  in
  expect_loud "Stream.rank" (fun () ->
      Attack.Dema.Stream.rank reader ~parts:(rank_parts ()) ~known:known_re0 ~top:5
        (Array.to_seq candidates));
  expect_loud "Stream.extract" (fun () ->
      Attack.Dema.Stream.extract reader ~samples:[ 0 ] ~known:known_re0);
  expect_loud "Stream.evolution" (fun () ->
      Attack.Dema.Stream.evolution reader
        ~sample:(Attack.Recover.sample Fpr.Mant_w00)
        ~model:Attack.Recover.m_w00 ~known:known_re0 ~guess:1)

let test_truncated_shard_fails_loudly () =
  with_campaign_dir @@ fun sk _traces dir ->
  truncate_file (Filename.concat dir (Tracestore.shard_name 2)) 5;
  let reader = Tracestore.Reader.open_store dir in
  match
    Attack.Dema.Stream.rank reader ~parts:(rank_parts ()) ~known:known_re0 ~top:5
      (Array.to_seq (candidates_for sk))
  with
  | _ -> Alcotest.fail "truncated shard accepted"
  | exception Failure msg ->
      Alcotest.(check bool) "error names shard 2" true (contains_frag msg "shard 2");
      Alcotest.(check bool) "error says truncated" true (contains_frag msg "truncated")

let test_skip_policy_drops_and_counts () =
  with_campaign_dir @@ fun sk traces dir ->
  flip_byte (Filename.concat dir (Tracestore.shard_name 1)) 40;
  let candidates = candidates_for sk in
  let buf = Buffer.create 256 in
  let ctx =
    Attack.Ctx.make ~obs:(Obs.make (Obs.Jsonl.to_buffer buf)) ()
  in
  let reader = Tracestore.Reader.open_store ~policy:`Skip dir in
  let streamed =
    Attack.Dema.Stream.rank ~ctx ~on_corrupt:`Skip reader ~parts:(rank_parts ())
      ~known:known_re0 ~top:5 (Array.to_seq candidates)
  in
  (* dropping shard 1 leaves traces 0..7 and 16..29: the ranking must be
     exactly the in-memory one over that subset *)
  let kept =
    Array.of_list
      (List.filteri (fun i _ -> i < 8 || i >= 16) (Array.to_list traces))
  in
  let mem =
    Attack.Dema.rank
      ~traces:(Array.map (fun (t : Leakage.trace) -> t.samples) kept)
      ~parts:(rank_parts ())
      ~known:(Array.map known_re0 kept)
      ~top:5 (Array.to_seq candidates)
  in
  Alcotest.(check bool) "skip rank == memory rank over surviving shards" true
    (streamed = mem);
  let skipped =
    List.exists
      (fun r ->
        Option.bind (Obs.Json.member "name" r) Obs.Json.to_string_opt
          = Some "dema.shards_skipped"
        && Option.bind (Obs.Json.member "value" r) Obs.Json.to_int_opt = Some 1)
      (Obs.Jsonl.read_string (Buffer.contents buf))
  in
  Alcotest.(check bool) "dema.shards_skipped == 1 emitted" true skipped

(* The fixed-budget full-key path under both corrupt-shard policies:
   [`Skip] recovers exactly the in-memory FFT(f) over the surviving
   traces and counts the drop once; [`Fail] names the shard. *)
let test_fullkey_store_corrupt_shard () =
  with_campaign_dir @@ fun sk traces dir ->
  flip_byte (Filename.concat dir (Tracestore.shard_name 1)) 40;
  let strategy = fullkey_strategy sk in
  let kept =
    Array.of_list
      (List.filteri (fun i _ -> i < 8 || i >= 16) (Array.to_list traces))
  in
  let mem =
    Attack.Fullkey.recover_f_fft ~ctx:(Attack.Ctx.make ~jobs:1 ()) ~traces:kept ~n:16
      strategy
  in
  List.iter
    (fun jobs ->
      let buf = Buffer.create 4096 in
      let ctx = Attack.Ctx.make ~jobs ~obs:(Obs.make (Obs.Jsonl.to_buffer buf)) () in
      let reader = Tracestore.Reader.open_store ~policy:`Skip dir in
      let st =
        Attack.Fullkey.recover_f_fft_store ~ctx ~on_corrupt:`Skip ~reader strategy
      in
      Alcotest.(check bool)
        (Printf.sprintf "skip FFT(f) == memory FFT(f) over survivors at -j %d" jobs)
        true
        (st.Fft.re = mem.Fft.re && st.Fft.im = mem.Fft.im);
      Alcotest.(check (list int))
        (Printf.sprintf "dema.shards_skipped once, value 1, at -j %d" jobs)
        [ 1 ] (counts buf "dema.shards_skipped"))
    [ 1; 2 ];
  match
    Attack.Fullkey.recover_f_fft_store ~reader:(Tracestore.Reader.open_store dir)
      strategy
  with
  | _ -> Alcotest.fail "recover_f_fft_store accepted a corrupt shard"
  | exception Failure msg ->
      Alcotest.(check bool) "error names shard 1" true (contains_frag msg "shard 1")

let test_mmap_matches_read () =
  with_campaign_dir @@ fun sk _traces dir ->
  let mmap = Tracestore.Reader.open_store ~access:`Mmap dir in
  let read = Tracestore.Reader.open_store ~access:`Read dir in
  for i = 0 to Tracestore.Reader.shard_count read - 1 do
    let a = Tracestore.Reader.load_shard mmap i in
    let b = Tracestore.Reader.load_shard read i in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d decodes identically under mmap" i)
      true (a = b)
  done;
  let candidates = candidates_for sk in
  let rank reader =
    Attack.Dema.Stream.rank reader ~parts:(rank_parts ()) ~known:known_re0 ~top:5
      (Array.to_seq candidates)
  in
  Alcotest.(check bool) "mmap rank == read rank" true (rank mmap = rank read)

let test_prefetch_parity () =
  with_campaign_dir @@ fun sk _traces dir ->
  let candidates = candidates_for sk in
  let reader = Tracestore.Reader.open_store dir in
  let rank ~prefetch jobs =
    Attack.Dema.Stream.rank ~ctx:(Attack.Ctx.make ~jobs ()) ~prefetch reader
      ~parts:(rank_parts ())
      ~known:known_re0 ~top:5 (Array.to_seq candidates)
  in
  let reference = rank ~prefetch:false 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "prefetch on == off at -j %d" jobs)
        true
        (rank ~prefetch:true jobs = reference
        && rank ~prefetch:false jobs = reference))
    [ 1; 2; 4; 8 ]


(* Rankings over 0, 1, 512 and 513 candidates — the empty, the single,
   an exactly-one-chunk and a one-past-a-chunk sweep — digested over
   every entry's guess and score bits. *)
let ranking_digest ranked =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (s : Attack.Dema.scored) ->
               Printf.sprintf "%x:%Lx" s.Attack.Dema.guess
                 (Int64.bits_of_float s.Attack.Dema.corr))
             ranked)))

let candidate_count_digests sk traces reader =
  let d_true =
    (Fpr.mantissa sk.Falcon.Scheme.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF
  in
  let pool =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:6) ~width:25 ~truth:d_true
      ~decoys:600 ()
  in
  let rows = Array.map (fun (t : Leakage.trace) -> t.samples) traces in
  let ks = Array.map known_re0 traces in
  List.map
    (fun count ->
      let cands () = Array.to_seq (Array.sub pool 0 count) in
      ( count,
        ranking_digest
          (Attack.Dema.rank ~traces:rows ~parts:(rank_parts ()) ~known:ks ~top:600
             (cands ())),
        ranking_digest
          (Attack.Dema.Stream.rank reader ~parts:(rank_parts ()) ~known:known_re0
             ~top:600 (cands ())),
        ranking_digest
          (Attack.Dema.rank_absolute ~traces:rows
             ~parts:[ (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00) ]
             ~known:ks ~top:600 ~alpha:1.0 ~baseline:10.0 (cands ())) ))
    [ 0; 1; 512; 513 ]

(* Digests of the same sweeps computed by the per-path scoring loops
   that preceded the one-engine driver: [rank] and [Stream.rank] share
   one value per count, [rank_absolute] (a single part, so its sum order
   is unchanged) has its own. *)
let candidate_count_goldens =
  [
    (0, "d41d8cd98f00b204e9800998ecf8427e", "d41d8cd98f00b204e9800998ecf8427e");
    (1, "4a133bede21352fce792fdb837329940", "36312621a083d807b045ad1ad59dfb94");
    (512, "fa38e2a069544efae13ec94e8038c673", "14f9dbcf2b0defa61bf4e769fa304955");
    (513, "fc97003ab14f2aeed571b1eec311de25", "411c952046c6ca5be3e816d9b21d32d0");
  ]

let test_candidate_count_goldens () =
  with_campaign @@ fun sk traces reader ->
  List.iter2
    (fun (count, r, s, a) (count', pearson, absolute) ->
      assert (count = count');
      List.iter
        (fun (what, got, want) ->
          Alcotest.(check string)
            (Printf.sprintf "%s over %d candidates" what count)
            want got)
        [
          ("rank", r, pearson);
          ("Stream.rank", s, pearson);
          ("rank_absolute", a, absolute);
        ])
    (candidate_count_digests sk traces reader)
    candidate_count_goldens

(* Dema.corr_time, the Fig. 4 (a-d) matrices: Pearson.corr_matrix over
   hyp_vector rows, bit for bit, on a fixed simulated multiplication
   view under the sign and exponent models.  The goldens digest every
   entry's float bits and were captured from the hypothesis-block
   kernel that computed these matrices before corr_matrix did. *)
let corr_time_x = Fpr.make ~sign:1 ~exp:1030 ~mant:0x2B7E151628AED

let corr_time_view () =
  let known =
    Attack.Workload.known_inputs ~n:16 ~coeff:2 ~component:`Re ~count:120
      ~seed:"corr_time golden"
  in
  Attack.Workload.mul_views Leakage.default_model (Stats.Rng.create ~seed:404)
    ~x:corr_time_x ~known

let matrix_digest m =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (Array.to_list
             (Array.map
                (fun row ->
                  String.concat ","
                    (Array.to_list
                       (Array.map
                          (fun r -> Printf.sprintf "%Lx" (Int64.bits_of_float r))
                          row)))
                m))))

let test_corr_time () =
  let v = corr_time_view () in
  let traces = v.Attack.Recover.traces and known = v.Attack.Recover.known in
  let e = Fpr.biased_exponent corr_time_x in
  List.iter
    (fun (what, model, guesses, golden) ->
      let m = Attack.Dema.corr_time ~traces ~model ~known ~guesses () in
      let reference =
        Stats.Pearson.corr_matrix ~traces
          ~hyps:(Array.map (Attack.Dema.hyp_vector ~model ~known) guesses)
      in
      Alcotest.(check string)
        (what ^ ": corr_time == corr_matrix over hyp_vector (bits)")
        (matrix_digest reference) (matrix_digest m);
      Alcotest.(check string) (what ^ ": golden") golden (matrix_digest m))
    [
      ("sign", Attack.Recover.m_sign, [| 0; 1 |], "066537a4dd35b18662a5a659fb74ca0a");
      ( "exponent",
        Attack.Recover.m_exp,
        [| e; e - 1; e + 1; e - 7; e + 16 |],
        "54e7e0351c8c5331d3551c2e8dd5bbd0" );
    ];
  Alcotest.(check int) "G = 0: empty matrix" 0
    (Array.length
       (Attack.Dema.corr_time ~traces ~model:Attack.Recover.m_sign ~known ~guesses:[||]
          ()));
  Alcotest.(check (array (array (float 0.))))
    "D = 0: one empty row per guess" [| [||]; [||] |]
    (Attack.Dema.corr_time ~traces:[||] ~model:Attack.Recover.m_sign ~known:[||]
       ~guesses:[| 0; 1 |] ())

(* A fixed-budget sweep reads the candidate sequence lazily in chunks:
   ranking all 2^20 20-bit guesses keeps the reachable heap within a
   few MB — a materialised candidate sequence alone is ~25 MB.  The
   probe forces a full major every 2^16 candidates drawn and reads the
   live words then, so the peak counts reachable data only and GC
   pacing cannot move it. *)
let test_fixed_sweep_is_lazy () =
  with_campaign @@ fun _sk traces _reader ->
  let traces = Array.sub traces 0 16 in
  let rows = Array.map (fun (t : Leakage.trace) -> t.samples) traces in
  let ks = Array.map known_re0 traces in
  let live_mb () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
  in
  let base = live_mb () in
  let peak = ref 0. in
  let probed =
    Seq.mapi
      (fun i g ->
        if i land 0xFFFF = 0xFFFF then peak := Float.max !peak (live_mb () -. base);
        g)
      (Attack.Hypothesis.exhaustive ~width:20 ())
  in
  let ranked =
    Attack.Dema.rank ~ctx:(Attack.Ctx.make ~jobs:1 ()) ~traces:rows ~parts:(rank_parts ())
      ~known:ks ~top:8 probed
  in
  Alcotest.(check int) "top-8 returned" 8 (List.length ranked);
  Printf.printf "reachable heap peak over baseline: %.3f MB\n" !peak;
  if !peak > 4. then
    Alcotest.failf "reachable heap grew by %.1f MB over a 2^20-candidate sweep" !peak

let suite =
  [
    Alcotest.test_case "streaming pearson == two-pass" `Quick
      test_streaming_pearson_matches_two_pass;
    Alcotest.test_case "merge split-independent and associative" `Quick
      test_streaming_merge_split_independent;
    Alcotest.test_case "stream rank bit-identical" `Quick
      test_stream_rank_bit_identical;
    Alcotest.test_case "evolution checkpoints == prefix rescans" `Quick
      test_stream_evolution_matches_prefix_rescan;
    Alcotest.test_case "fullkey store path == memory path" `Slow
      test_fullkey_store_matches_memory;
    Alcotest.test_case "fullkey store path splits into bounded passes" `Slow
      test_fullkey_store_multi_pass;
    Alcotest.test_case "stream rejects width mismatch" `Quick
      test_stream_rejects_width_mismatch;
    Alcotest.test_case "evolution on a single-shard store" `Quick
      test_stream_evolution_single_shard;
    Alcotest.test_case "evolution rejects an empty store" `Quick
      test_stream_evolution_empty_store;
    Alcotest.test_case "corrupt shard fails loudly with its index" `Quick
      test_corrupt_shard_fails_loudly;
    Alcotest.test_case "truncated shard fails loudly" `Quick
      test_truncated_shard_fails_loudly;
    Alcotest.test_case "skip policy drops the shard and counts it" `Quick
      test_skip_policy_drops_and_counts;
    Alcotest.test_case "fullkey store path under a corrupt shard" `Slow
      test_fullkey_store_corrupt_shard;
    Alcotest.test_case "mmap and read decode identically" `Quick
      test_mmap_matches_read;
    Alcotest.test_case "prefetch on/off bit-identical at every jobs" `Quick
      test_prefetch_parity;
    Alcotest.test_case "rank over 0/1/512/513 candidates matches goldens" `Quick
      test_candidate_count_goldens;
    Alcotest.test_case "fixed sweep reads candidates lazily" `Quick
      test_fixed_sweep_is_lazy;
    Alcotest.test_case "corr_time == corr_matrix, goldens, empty shapes" `Quick
      test_corr_time;
  ]
