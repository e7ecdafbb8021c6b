(* The profiled template distinguisher and the Distinguisher.S seam:
   the scalar Pearson reference against the fused kernel and every
   entry point that runs it, profiled scorer determinism across jobs /
   batch splits, template-store round-trip with corruption rejection,
   and the pooled-covariance symmetric-PSD property. *)

let m25 = (1 lsl 25) - 1
let budget = 300
let noise = 0.5

let victim_secret =
  Assess.Campaign.secret_operand (Stats.Rng.create ~seed:(123 lxor 0x5eed))

let d_true = Fpr.mantissa victim_secret land m25

let victim =
  lazy
    (Assess.Campaign.generate ~p_fixed:1.0 `None ~noise ~secret:victim_secret
       ~count:budget ~seed:123)

let clone_secret =
  Assess.Campaign.secret_operand (Stats.Rng.create ~seed:(9999 lxor 0x5eed))

let store =
  lazy
    (let entries =
       Assess.Campaign.generate ~p_fixed:1.0 `None ~noise ~secret:clone_secret
         ~count:budget ~seed:9999
     in
     Assess.Metrics.profile_entries ~defense:`None ~truth:clone_secret entries)

(* the low-mantissa part set over the victim's fixed class, in the
   shape Dema.rank consumes *)
let low_parts =
  lazy
    (let extend, prune = Attack.Recover.low_stages `Hw in
     List.map
       (fun (lbl, m) -> (Attack.Recover.sample lbl, m))
       (extend @ prune))

let victim_view =
  lazy
    (let entries = Lazy.force victim in
     ( Array.map
         (fun (e : Assess.Campaign.entry) ->
           Assess.Campaign.attack_window `None e.Assess.Campaign.samples)
         entries,
       Array.map (fun (e : Assess.Campaign.entry) -> e.Assess.Campaign.known)
         entries ))

let candidates =
  lazy
    (Attack.Hypothesis.sampled
       (Stats.Rng.create ~seed:31)
       ~width:25 ~truth:d_true ~decoys:200 ())

(* Drive an instance by hand through plan / needs / prepare / acc /
   fold / finalize: the traces split into [chunks] global-order
   segments, the guesses into [jobs] contiguous slices with one
   accumulator each. *)
let drive_instance (module D : Attack.Distinguisher.S) ~parts ~traces ~known
    ~guesses ~jobs ~chunks =
  let plan = D.plan ~parts in
  let needs = D.needs plan in
  let g = Array.length guesses in
  let slice = (g + jobs - 1) / jobs in
  let accs =
    List.init jobs (fun k ->
        let lo = min g (k * slice) in
        D.acc plan (Array.sub guesses lo (min slice (g - lo))))
  in
  let total = Array.length traces in
  let per = (total + chunks - 1) / chunks in
  let rec go lo =
    if lo < total then begin
      let len = min per (total - lo) in
      let batch =
        Array.of_list
          (List.map
             (fun cols ->
               ( Array.of_list
                   (List.map
                      (fun c -> Array.init len (fun i -> traces.(lo + i).(c)))
                      cols),
                 Array.sub known lo len ))
             needs)
      in
      let seg = D.prepare plan batch in
      List.iter (fun a -> D.fold a seg) accs;
      go (lo + len)
    end
  in
  go 0;
  (guesses, Array.concat (List.map (D.finalize plan) accs))

let drive sel ~jobs ~chunks =
  let traces, known = Lazy.force victim_view in
  drive_instance
    (Attack.Dema.distinguisher sel)
    ~parts:(Lazy.force low_parts) ~traces ~known
    ~guesses:(Lazy.force candidates) ~jobs ~chunks

let scores_of_rank sel =
  let traces, known = Lazy.force victim_view in
  let guesses = Lazy.force candidates in
  let ranked =
    Attack.Dema.rank
      ~ctx:(Attack.Ctx.make ~distinguisher:sel ())
      ~traces ~parts:(Lazy.force low_parts) ~known
      ~top:(Array.length guesses) (Array.to_seq guesses)
  in
  List.map (fun (s : Attack.Dema.scored) -> (s.Attack.Dema.guess, s.Attack.Dema.corr)) ranked

let check_scores_equal what (g1, s1) (g2, s2) =
  Alcotest.(check bool) (what ^ ": same guess array") true (g1 = g2);
  Array.iteri
    (fun i v ->
      if not (Float.equal v s2.(i)) then
        Alcotest.failf "%s: score %d differs (%.17g vs %.17g)" what i v s2.(i))
    s1

let test_profiled_determinism () =
  let sel = Attack.Distinguisher.Profiled (Lazy.force store) in
  let r0 = drive sel ~jobs:1 ~chunks:1 in
  List.iter
    (fun (jobs, chunks) ->
      check_scores_equal
        (Printf.sprintf "profiled j%d c%d" jobs chunks)
        r0
        (drive sel ~jobs ~chunks))
    [ (1, 4); (2, 1); (4, 7) ];
  (* finalize is pure: calling it twice yields the same scores *)
  let module D = (val Attack.Dema.distinguisher sel : Attack.Distinguisher.S)
  in
  let traces, known = Lazy.force victim_view in
  let plan = D.plan ~parts:(Lazy.force low_parts) in
  let st = D.acc plan (Lazy.force candidates) in
  let needs = D.needs plan in
  let batch =
    Array.of_list
      (List.map
         (fun cols ->
           ( Array.of_list
               (List.map
                  (fun c -> Array.map (fun t -> t.(c)) traces)
                  cols),
             known ))
         needs)
  in
  D.fold st (D.prepare plan batch);
  Alcotest.(check bool) "finalize idempotent" true
    (D.finalize plan st = D.finalize plan st)

let test_profiled_rank_recovers () =
  (* the template scorer puts the true low half first on the
     unprotected victim, through the ordinary Dema.rank entry point *)
  let sel = Attack.Distinguisher.Profiled (Lazy.force store) in
  match scores_of_rank sel with
  | (best, _) :: _ ->
      Alcotest.(check int) "profiled top-1 is the truth" d_true best;
      (* and the full ranking is jobs-invariant *)
      let traces, known = Lazy.force victim_view in
      let guesses = Lazy.force candidates in
      let at jobs =
        Attack.Dema.rank
          ~ctx:(Attack.Ctx.make ~jobs ~distinguisher:sel ())
          ~traces ~parts:(Lazy.force low_parts) ~known
          ~top:(Array.length guesses) (Array.to_seq guesses)
      in
      Alcotest.(check bool) "ranking identical at jobs 1/4" true (at 1 = at 4)
  | [] -> Alcotest.fail "empty profiled ranking"

let test_store_roundtrip () =
  let s = Lazy.force store in
  let enc = Attack.Profile.encode s in
  Alcotest.(check bool) "decode inverts encode" true (Attack.Profile.decode enc = s);
  let path = Filename.temp_file "fd_test_templates" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Attack.Profile.save path s;
      Alcotest.(check bool) "load inverts save" true (Attack.Profile.load path = s));
  Alcotest.(check string) "describe is stable" (Attack.Profile.describe s)
    (Attack.Profile.describe (Attack.Profile.decode enc))

let expect_failure what f =
  match f () with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: expected Failure" what

let test_store_corruption_rejected () =
  let enc = Attack.Profile.encode (Lazy.force store) in
  let flip s i =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    Bytes.to_string b
  in
  expect_failure "truncated payload" (fun () ->
      Attack.Profile.decode (String.sub enc 0 (String.length enc - 7)));
  expect_failure "truncated header" (fun () ->
      Attack.Profile.decode (String.sub enc 0 4));
  expect_failure "bad magic" (fun () -> Attack.Profile.decode (flip enc 0));
  expect_failure "payload bit-flip" (fun () ->
      Attack.Profile.decode (flip enc (String.length enc / 2)));
  expect_failure "crc bit-flip" (fun () ->
      Attack.Profile.decode (flip enc (String.length enc - 1)))

let test_uncovered_sample_rejected () =
  let s = Lazy.force store in
  (* find a window offset the low-stage plan does not profile *)
  let uncovered = ref (-1) in
  for o = s.Attack.Profile.window - 1 downto 0 do
    if not (Attack.Profile.covers s ~sample:o) then uncovered := o
  done;
  if !uncovered >= 0 then
    expect_failure "point on un-profiled offset" (fun () ->
        ignore (Attack.Profile.point s ~sample:!uncovered))

let prop_pooled_covariance_psd =
  QCheck.Test.make ~count:100 ~name:"pooled covariance is symmetric PSD"
    QCheck.(triple (int_range 2 6) (int_range 4 40) (int_range 2 8))
    (fun (dim, n, nclass) ->
      let rng = Stats.Rng.create ~seed:(dim + (31 * n) + (997 * nclass)) in
      let rows =
        Array.init n (fun _ ->
            Array.init dim (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.))
      in
      let classes = Array.init n (fun _ -> Stats.Rng.int_below rng nclass) in
      let cov = Attack.Profile.pooled_covariance ~nclass ~classes rows in
      let symmetric = ref true in
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          if Float.abs (cov.(i).(j) -. cov.(j).(i)) > 1e-9 then
            symmetric := false
        done
      done;
      let evs = Attack.Profile.eigenvalues cov in
      let scale =
        Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1.0 evs
      in
      !symmetric && Array.for_all (fun v -> v >= -1e-9 *. scale) evs)

(* One engine, three routes.  A FALCON-8 victim store (160 traces in
   uneven 23-trace shards) and templates trained on a clone: the
   profiled statistic scores bit-identically through Dema.rank,
   Dema.Stream.rank and the instance driven by hand, and the absolute
   statistic through Dema.rank_absolute and by hand — at jobs 1 and 4
   and at batch splits 1, 4 and 7. *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_store ~prefix ~traces ~seed ~shard_traces f =
  let dir = Filename.temp_dir prefix "" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Attack.Target.Falcon.record_store ~dir ~n:8 ~traces ~noise:0.5 ~seed ~shard_traces
        ();
      f dir (Tracestore.Reader.open_store dir))

let with_victim_store f =
  with_store ~prefix:"fd_profile_victim" ~traces:160 ~seed:42 ~shard_traces:23 f

let with_falcon_stores f =
  with_store ~prefix:"fd_profile_clone" ~traces:400 ~seed:41 ~shard_traces:100
  @@ fun clone clone_reader ->
  let store =
    Attack.Target.profile (module Attack.Target.Falcon) ~dir:clone clone_reader
  in
  with_victim_store (f store)

let scores_by_guess guesses ranked =
  let tbl = Hashtbl.create (List.length ranked) in
  List.iter
    (fun (s : Attack.Dema.scored) -> Hashtbl.replace tbl s.Attack.Dema.guess s.Attack.Dema.corr)
    ranked;
  (guesses, Array.map (Hashtbl.find tbl) guesses)

let test_engine_routes_agree () =
  with_falcon_stores @@ fun store dir reader ->
  let parts =
    Attack.Target.Falcon.parts ~leakage:`Hw ~n:8 ~unit_index:0 ~prev:[||]
  in
  let guesses =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:43)
      ~width:25
      ~truth:(Attack.Target.Falcon.truth ~n:8 ~dir).(0)
      ~decoys:600 ()
  in
  let top = Array.length guesses in
  let width = (Tracestore.Reader.meta reader).Tracestore.width in
  let traces, known =
    Attack.Dema.Stream.extract reader ~samples:(List.init width Fun.id) ~known:Fun.id
  in
  let sel = Attack.Distinguisher.Profiled store in
  let by_hand instance parts ~jobs ~chunks =
    drive_instance instance ~parts ~traces ~known ~guesses ~jobs ~chunks
  in
  let check_routes what reference routes =
    List.iter (fun (route, got) -> check_scores_equal (what ^ " " ^ route) reference got) routes
  in
  let splits = [ (1, 1); (1, 4); (1, 7); (4, 1); (4, 4); (4, 7) ] in
  let profiled = Attack.Dema.distinguisher sel in
  check_routes "profiled"
    (by_hand profiled parts ~jobs:1 ~chunks:1)
    (List.map
       (fun (jobs, chunks) ->
         (Printf.sprintf "by hand j%d c%d" jobs chunks, by_hand profiled parts ~jobs ~chunks))
       splits
    @ List.concat_map
        (fun jobs ->
          let ctx = Attack.Ctx.make ~jobs ~distinguisher:sel () in
          [
            ( Printf.sprintf "rank j%d" jobs,
              scores_by_guess guesses
                (Attack.Dema.rank ~ctx ~traces ~parts ~known ~top (Array.to_seq guesses)) );
            ( Printf.sprintf "Stream.rank j%d" jobs,
              scores_by_guess guesses
                (Attack.Dema.Stream.rank ~ctx reader ~parts ~known:Fun.id ~top
                   (Array.to_seq guesses)) );
          ])
        [ 1; 4 ]);
  let parts = List.filteri (fun i _ -> i < 3) parts in
  let absolute = Attack.Dema.absolute ~alpha:1.0 ~baseline:10.0 in
  check_routes "absolute"
    (by_hand absolute parts ~jobs:1 ~chunks:1)
    (List.map
       (fun (jobs, chunks) ->
         (Printf.sprintf "by hand j%d c%d" jobs chunks, by_hand absolute parts ~jobs ~chunks))
       splits
    @ List.map
        (fun jobs ->
          ( Printf.sprintf "rank_absolute j%d" jobs,
            scores_by_guess guesses
              (Attack.Dema.rank_absolute ~ctx:(Attack.Ctx.make ~jobs ()) ~traces ~parts
                 ~known ~top ~alpha:1.0 ~baseline:10.0 (Array.to_seq guesses)) ))
        [ 1; 4 ])

(* The scalar Pearson loop is the reference the fused kernel answers
   to.  Over a FALCON-8 victim store (160 traces in uneven 23-trace
   shards), for the low and high mantissa stages under both leakage
   families, with split and plain forms of every model: the scalar and
   batched instances driven by hand at jobs 1/4 x segment splits 1/4/7,
   Dema.rank and Dema.Stream.rank at jobs 1/4 all score bit-identically
   to the scalar instance at jobs 1 in one segment — and scalar and
   batched Dema.Sweep report identical leaders and rankings at every
   intermediate look of a shard-by-shard fold. *)
let test_pearson_instance_parity () =
  with_victim_store @@ fun dir reader ->
  let width = (Tracestore.Reader.meta reader).Tracestore.width in
  let traces, known =
    Attack.Dema.Stream.extract reader ~samples:(List.init width Fun.id) ~known:Fun.id
  in
  let d = (Attack.Target.Falcon.truth ~n:8 ~dir).(0) in
  let low_guesses =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:43) ~width:25 ~truth:d
      ~decoys:300 ()
  in
  let high_guesses =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:44) ~width:28 ~lo:(1 lsl 27)
      ~truth:(1 lsl 27) ~decoys:300 ()
  in
  let plain m = Attack.Hypothesis.Model.fn (Attack.Hypothesis.Model.apply m) in
  (* unit 0's views: coefficient 0, real component, multiplications 0 and 3 *)
  let view_parts form stage =
    List.concat_map
      (fun mul ->
        List.map
          (fun (lbl, m) ->
            let m =
              Attack.Hypothesis.Model.contramap
                (fun (t : Leakage.trace) ->
                  Attack.Fullkey.mul_known (t.c_fft.Fft.re.(0), t.c_fft.Fft.im.(0)) mul)
                m
            in
            (Leakage.sample_of ~coeff:0 ~mul lbl, form m))
          stage)
      (Attack.Fullkey.component_muls `Re)
  in
  let scalar = Attack.Dema.pearson Stats.Pearson.Batch.Scalar in
  let batched = Attack.Dema.pearson Stats.Pearson.Batch.Batched in
  let splits = [ (1, 1); (1, 4); (1, 7); (4, 1); (4, 4); (4, 7) ] in
  let check_set what guesses parts =
    let top = Array.length guesses in
    let by_hand instance ~jobs ~chunks =
      drive_instance instance ~parts ~traces ~known ~guesses ~jobs ~chunks
    in
    let reference = by_hand scalar ~jobs:1 ~chunks:1 in
    let check route got = check_scores_equal (what ^ " " ^ route) reference got in
    List.iter
      (fun (jobs, chunks) ->
        let label arm = Printf.sprintf "%s j%d c%d" arm jobs chunks in
        check (label "scalar") (by_hand scalar ~jobs ~chunks);
        check (label "batched") (by_hand batched ~jobs ~chunks))
      splits;
    List.iter
      (fun jobs ->
        let ctx = Attack.Ctx.make ~jobs () in
        check (Printf.sprintf "rank j%d" jobs)
          (scores_by_guess guesses
             (Attack.Dema.rank ~ctx ~traces ~parts ~known ~top (Array.to_seq guesses)));
        check (Printf.sprintf "Stream.rank j%d" jobs)
          (scores_by_guess guesses
             (Attack.Dema.Stream.rank ~ctx reader ~parts ~known:Fun.id ~top
                (Array.to_seq guesses))))
      [ 1; 4 ];
    (* the incremental form, one look per shard *)
    let sweep backend =
      Attack.Dema.Sweep.create ~backend ~parts:(List.map snd parts) guesses
    in
    let ref_sweep = sweep Stats.Pearson.Batch.Scalar in
    let sweeps =
      List.map (fun jobs -> (jobs, sweep Stats.Pearson.Batch.Batched)) [ 1; 4 ]
    in
    for sh = 0 to Tracestore.Reader.shard_count reader - 1 do
      let rows =
        Array.map (fun r -> Leakage.of_record ~n:8 r)
          (Option.get (Tracestore.Reader.read_shard reader sh))
      in
      let batch =
        Array.of_list
          (List.map
             (fun (s, _) ->
               (Array.map (fun (t : Leakage.trace) -> t.samples.(s)) rows, rows))
             parts)
      in
      Attack.Dema.Sweep.fold ref_sweep batch;
      let leaders = Attack.Dema.Sweep.leaders ref_sweep in
      let ranking = Attack.Dema.Sweep.ranking ref_sweep ~top:8 in
      List.iter
        (fun (jobs, sw) ->
          Attack.Dema.Sweep.fold ~jobs sw batch;
          if Attack.Dema.Sweep.leaders ~jobs sw <> leaders then
            Alcotest.failf "%s: Sweep leaders differ at look %d, jobs %d" what sh jobs;
          if Attack.Dema.Sweep.ranking ~jobs sw ~top:8 <> ranking then
            Alcotest.failf "%s: Sweep ranking differs at look %d, jobs %d" what sh jobs)
        sweeps
    done
  in
  List.iter
    (fun leakage ->
      let lname = match leakage with `Hw -> "hw" | `Hd -> "hd" in
      let low_x, low_p = Attack.Recover.low_stages leakage in
      let high_x, high_p = Attack.Recover.high_stages ~d leakage in
      List.iter
        (fun (fname, form) ->
          check_set (Printf.sprintf "low %s %s" lname fname) low_guesses
            (view_parts form (low_x @ low_p));
          check_set (Printf.sprintf "high %s %s" lname fname) high_guesses
            (view_parts form (high_x @ high_p)))
        [ ("split", Fun.id); ("plain", plain) ])
    [ `Hw; `Hd ]

let suite =
  [
    Alcotest.test_case "pearson instances parity" `Quick
      test_pearson_instance_parity;
    Alcotest.test_case "profiled determinism" `Quick test_profiled_determinism;
    Alcotest.test_case "profiled rank recovers truth" `Quick
      test_profiled_rank_recovers;
    Alcotest.test_case "template store round-trip" `Quick test_store_roundtrip;
    Alcotest.test_case "corrupt store rejected" `Quick
      test_store_corruption_rejected;
    Alcotest.test_case "un-profiled sample rejected" `Quick
      test_uncovered_sample_rejected;
    QCheck_alcotest.to_alcotest prop_pooled_covariance_psd;
    Alcotest.test_case "profiled and absolute routes agree" `Quick
      test_engine_routes_agree;
  ]
