(* The profiled template distinguisher and the Distinguisher.S seam:
   the scalar Pearson reference against the fused kernel and every
   entry point that runs it, profiled scorer determinism across jobs /
   batch splits, profiled rankings pinned by digest, the flat class
   table against the per-trace score formula (QCheck oracle), the C
   product tile against the per-guess OCaml loop,
   template-store round-trip with corruption rejection, the decoder's
   refusal of templates training never produces, a truncation / xor
   mutation harness over the store bytes, and the pooled-covariance
   symmetric-PSD property. *)

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
let drive_instance ?subset (module D : Attack.Distinguisher.S) ~parts ~traces ~known
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
  let subset = Option.value subset ~default:(List.init (List.length parts) Fun.id) in
  (guesses, Array.concat (List.map (D.finalize plan ~parts:subset) accs))

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
  let parts = List.init (List.length needs) Fun.id in
  Alcotest.(check bool) "finalize idempotent" true
    (D.finalize plan ~parts st = D.finalize plan ~parts st)

(* [finalize] on an ordered subset of the plan's parts scores exactly
   as a one-shot rank whose parts are that subset in that order, at any
   batch split and accumulator chunking. *)
let prop_profiled_subset_equals_rank =
  QCheck.Test.make ~count:20
    ~name:"profiled finalize ~parts == rank on that subset (Float.equal)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create ~seed in
      let sel = Attack.Distinguisher.Profiled (Lazy.force store) in
      let parts = Lazy.force low_parts in
      let order = Array.init (List.length parts) Fun.id in
      Stats.Rng.shuffle rng order;
      let subset =
        Array.to_list (Array.sub order 0 (1 + Stats.Rng.int_below rng (Array.length order)))
      in
      let traces, known = Lazy.force victim_view in
      let guesses = Lazy.force candidates in
      let ranked =
        Attack.Dema.rank
          ~ctx:(Attack.Ctx.make ~distinguisher:sel ())
          ~traces ~parts:(List.map (List.nth parts) subset) ~known
          ~top:(Array.length guesses) (Array.to_seq guesses)
      in
      let by_guess = Hashtbl.create 256 in
      List.iter
        (fun (s : Attack.Dema.scored) -> Hashtbl.replace by_guess s.guess s.corr)
        ranked;
      let _, got =
        drive_instance ~subset (Attack.Dema.distinguisher sel) ~parts ~traces ~known
          ~guesses
          ~jobs:(1 + Stats.Rng.int_below rng 2)
          ~chunks:(1 + Stats.Rng.int_below rng 5)
      in
      Array.for_all2 (fun g v -> Float.equal v (Hashtbl.find by_guess g)) guesses got)

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

(* The Jacobi solver behind the LDA whitening, on the matrices it
   whitens: a random Gram matrix A·Aᵀ is symmetric PSD, so its
   eigenvalues must be non-negative (to rounding) and sum to its
   trace. *)
let prop_gram_eigenvalues =
  QCheck.Test.make ~count:100 ~name:"Gram matrix eigenvalues: PSD, sum to trace"
    QCheck.(pair (int_range 2 6) (int_range 1 12))
    (fun (dim, k) ->
      let rng = Stats.Rng.create ~seed:(dim + (31 * k)) in
      let a =
        Array.init dim (fun _ ->
            Array.init k (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.))
      in
      let gram =
        Array.init dim (fun i ->
            Array.init dim (fun j ->
                let s = ref 0. in
                for l = 0 to k - 1 do
                  s := !s +. (a.(i).(l) *. a.(j).(l))
                done;
                !s))
      in
      let evs = Attack.Profile.eigenvalues gram in
      let scale = Array.fold_left (fun a v -> Float.max a (Float.abs v)) 1.0 evs in
      let trace = ref 0. in
      Array.iteri (fun i row -> trace := !trace +. row.(i)) gram;
      Array.length evs = dim
      && Array.for_all (fun v -> v >= -1e-9 *. scale) evs
      && Float.abs (Array.fold_left ( +. ) 0. evs -. !trace)
         <= 1e-9 *. scale *. float_of_int dim)

(* ---- the decoder refuses templates training never produces ----

   Each fixture is the trained store with template 0 hand-edited and
   passed back through [encode], so only the invariant under test can
   object. *)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let expect_refusal what ~mentions edit =
  let s = Lazy.force store in
  let t0 = s.Attack.Profile.templates.(0) in
  let templates = Array.copy s.Attack.Profile.templates in
  templates.(0) <- edit t0;
  let enc = Attack.Profile.encode { s with Attack.Profile.templates } in
  match Attack.Profile.decode enc with
  | _ -> Alcotest.failf "%s: decoded" what
  | exception Failure msg ->
      List.iter
        (fun m ->
          if not (contains msg m) then Alcotest.failf "%s: %S does not mention %S" what msg m)
        (Printf.sprintf "target %d" t0.Attack.Profile.target :: mentions)

(* keep the first [k] observed classes of [t], zeroing the others' counts *)
let keep_observed k (t : Attack.Profile.template) =
  let seen = ref 0 in
  {
    t with
    counts =
      Array.map
        (fun c ->
          if c > 0 && !seen < k then begin
            incr seen;
            c
          end
          else 0)
        t.counts;
  }

let test_decode_refuses_one_class () =
  expect_refusal "one observed class" ~mentions:[ "observed 1 class" ] (keep_observed 1);
  expect_refusal "no observed class" ~mentions:[ "observed 0 class" ] (keep_observed 0)

let test_decode_refuses_no_pois () =
  expect_refusal "npoi = 0" ~mentions:[ "no points of interest" ] (fun t ->
      {
        t with
        pois = [||];
        grand = [||];
        means = Array.map (fun _ -> [||]) t.means;
        proj = [||];
        pmeans = Array.map (fun _ -> [||]) t.pmeans;
      })

let test_decode_refuses_lda_dimension () =
  expect_refusal "r = 0" ~mentions:[ "LDA dimension 0" ] (fun t ->
      {
        t with
        proj = Array.map (fun _ -> [||]) t.proj;
        pmeans = Array.map (fun _ -> [||]) t.pmeans;
      });
  (* r = 3 over three observed classes: at most two directions separate them *)
  let r = Array.length (Lazy.force store).Attack.Profile.templates.(0).proj.(0) in
  Alcotest.(check int) "fixture keeps 3 LDA directions" 3 r;
  expect_refusal "r > observed - 1" ~mentions:[ "LDA dimension 3 outside 1 .. 2" ]
    (keep_observed 3)

(* ---- mutation: the template decoder refuses damaged bytes loudly ----

   A two-template store small enough to try exhaustively (5 classes,
   3 POIs, 2 LDA directions; 648 payload bytes).  Every payload
   truncation and seeded single-byte xors of the payload, each with the
   trailing CRC recomputed so only the structural checks stand between
   the damage and a loaded store: [decode] must return a store training
   could have produced or raise [Failure], never anything else, and
   allocate no more than a fixed bound whatever the damaged lengths
   claim. *)
let tiny_store =
  lazy
    (let rng = Stats.Rng.create ~seed:5 in
     let obs =
       List.init 80 (fun i ->
           let cls = i / 2 mod 4 and target = if i land 1 = 0 then 0 else 2 in
           let samples =
             Array.init 8 (fun j ->
                 float_of_int (if j = target + 4 then cls else 0)
                 +. Stats.Rng.gaussian rng ~mu:0. ~sigma:0.3)
           in
           (target, cls, samples))
     in
     Attack.Profile.train
       { Attack.Profile.window = 4; nclass = 5; npoi = 3; ndim = 2 }
       ~targets:[| 0; 2 |]
       (fun add -> List.iter (fun (target, cls, samples) -> add ~base:4 ~target ~cls samples) obs))

let sealed payload =
  let crc = Tracestore.Crc32.digest_string payload in
  Attack.Profile.magic ^ payload
  ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xff))

let trainable (s : Attack.Profile.store) =
  Array.for_all
    (fun (t : Attack.Profile.template) ->
      let npoi = Array.length t.pois in
      let present = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 t.counts in
      let r = if npoi = 0 then 0 else Array.length t.proj.(0) in
      npoi >= 1 && present >= 2 && r >= 1 && r <= min npoi (present - 1)
      && Array.length t.counts = s.nclass
      && Array.for_all (fun p -> Array.length p = r) t.pmeans)
    s.templates

let decode_bound = 256 lsl 10

let mutant_verdict bytes =
  (* an empty minor heap keeps a collection (which skews the counter)
     out of the measured window *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r =
    match Attack.Profile.decode bytes with
    | s -> if trainable s then Ok () else Error "decoded an untrainable store"
    | exception Failure _ -> Ok ()
    | exception e -> Error ("raised " ^ Printexc.to_string e)
  in
  let grew = Gc.allocated_bytes () -. before in
  if r = Ok () && grew > float_of_int decode_bound then
    Error (Printf.sprintf "allocated %.0f bytes" grew)
  else r

let tiny_payload () =
  let enc = Attack.Profile.encode (Lazy.force tiny_store) in
  let m = String.length Attack.Profile.magic in
  String.sub enc m (String.length enc - m - 4)

let test_every_payload_truncation () =
  let payload = tiny_payload () in
  Alcotest.(check int) "fixture size" 648 (String.length payload);
  Alcotest.(check bool) "intact store decodes" true
    (mutant_verdict (sealed payload) = Ok ());
  for len = 0 to String.length payload - 1 do
    match mutant_verdict (sealed (String.sub payload 0 len)) with
    | Ok () -> ()
    | Error why -> Alcotest.failf "payload cut to %d bytes: %s" len why
  done

let test_payload_xor () =
  let payload = tiny_payload () in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 23 |])
    (QCheck.Test.make ~count:3000 ~name:"template payload xor refused or trainable"
       QCheck.(pair (int_bound (String.length payload - 1)) (int_range 1 255))
       (fun (off, x) ->
         let b = Bytes.of_string payload in
         Bytes.set b off (Char.chr (Char.code payload.[off] lxor x));
         match mutant_verdict (sealed (Bytes.to_string b)) with
         | Ok () -> true
         | Error why -> QCheck.Test.fail_reportf "byte %d xor 0x%02x: %s" off x why))

(* ---- the flat class table against the per-trace formula ----

   The oracle is the per-trace score vector [class_table] replaced,
   copied verbatim: observed classes by projected distance, unseen
   classes by a full scan of the observed ones.  Random templates (2..65
   classes; exactly two observed, both ends observed, scattered with
   gaps, or one contiguous block; 1..3 LDA directions) over columns
   that include +-inf and NaN must agree entry by entry under
   [Float.equal]. *)
let oracle_scores (store : Attack.Profile.store) (tpl : Attack.Profile.template) x =
  let nclass = store.nclass in
  let npoi = Array.length tpl.pois in
  let r = if npoi = 0 then 0 else Array.length tpl.proj.(0) in
  let u =
    Array.init r (fun d ->
        let s = ref 0.0 in
        for i = 0 to npoi - 1 do
          s := !s +. (tpl.proj.(i).(d) *. (x.(i) -. tpl.grand.(i)))
        done;
        !s)
  in
  let scores = Array.make nclass neg_infinity in
  for c = 0 to nclass - 1 do
    if tpl.counts.(c) > 0 then begin
      let s = ref 0.0 in
      let pm = tpl.pmeans.(c) in
      for d = 0 to r - 1 do
        let e = u.(d) -. pm.(d) in
        s := !s -. (0.5 *. e *. e)
      done;
      scores.(c) <- !s
    end
  done;
  for c = 0 to nclass - 1 do
    if tpl.counts.(c) = 0 then begin
      let best = ref neg_infinity in
      for c' = 0 to nclass - 1 do
        if tpl.counts.(c') > 0 then begin
          let d = float_of_int (c - c') in
          let cand = scores.(c') -. (0.5 *. d *. d) in
          if cand > !best then best := cand
        end
      done;
      scores.(c) <- !best
    end
  done;
  scores

let random_template rng ~nclass ~shape ~r =
  let pick n = Stats.Rng.int_below rng n in
  let observed = Array.make nclass false in
  (match shape with
  | 0 ->
      let a = pick nclass in
      let b = (a + 1 + pick (nclass - 1)) mod nclass in
      observed.(a) <- true;
      observed.(b) <- true
  | 1 ->
      observed.(0) <- true;
      observed.(nclass - 1) <- true;
      for c = 1 to nclass - 2 do
        if pick 3 = 0 then observed.(c) <- true
      done
  | 2 ->
      let keep = 1 + pick 4 in
      for c = 0 to nclass - 1 do
        if pick 5 < keep then observed.(c) <- true
      done;
      observed.(pick nclass) <- true;
      observed.(pick nclass) <- true
  | _ ->
      let lo = pick (nclass - 1) in
      let hi = lo + 1 + pick (nclass - lo - 1) in
      for c = lo to hi do
        observed.(c) <- true
      done);
  if Array.fold_left (fun k o -> if o then k + 1 else k) 0 observed < 2 then begin
    observed.(0) <- true;
    observed.(nclass - 1) <- true
  end;
  let npoi = r + pick 3 in
  let g () = Stats.Rng.gaussian rng ~mu:0. ~sigma:2. in
  let grand = Array.init npoi (fun _ -> g ()) in
  {
    Attack.Profile.target = 0;
    pois = Array.init npoi Fun.id;
    counts = Array.map (fun o -> if o then 1 + pick 9 else 0) observed;
    grand;
    means = Array.make nclass grand;
    proj = Array.init npoi (fun _ -> Array.init r (fun _ -> g ()));
    pmeans = Array.map (fun o -> Array.init r (fun _ -> if o then 3. *. g () else 0.)) observed;
  }

let random_value rng =
  match Stats.Rng.int_below rng 12 with
  | 0 -> Float.nan
  | 1 -> Float.infinity
  | 2 -> Float.neg_infinity
  | 3 -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1e200
  | _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:3.

let prop_class_table_oracle =
  QCheck.Test.make ~count:500 ~name:"class table equals the per-trace formula"
    QCheck.(quad (int_range 2 65) (int_range 0 3) (int_range 1 3) (int_bound 1_000_000))
    (fun (nclass, shape, r, seed) ->
      let rng = Stats.Rng.create ~seed in
      let tpl = random_template rng ~nclass ~shape ~r in
      let npoi = Array.length tpl.pois in
      let store =
        { Attack.Profile.window = npoi; nclass; trained = 0; templates = [| tpl |] }
      in
      let len = 1 + Stats.Rng.int_below rng 12 in
      let cols = Array.init npoi (fun _ -> Array.init len (fun _ -> random_value rng)) in
      let table = Attack.Profile.class_table store tpl cols ~len in
      Array.length table = len * nclass
      && List.for_all
           (fun i ->
             let want = oracle_scores store tpl (Array.init npoi (fun k -> cols.(k).(i))) in
             Array.for_all Fun.id
               (Array.init nclass (fun c ->
                    Float.equal table.((i * nclass) + c) want.(c)
                    || QCheck.Test.fail_reportf "trace %d class %d: %h vs oracle %h" i c
                         table.((i * nclass) + c) want.(c))))
           (List.init len Fun.id))

(* The profiled sweep's product tile (C, hardware popcount) against the
   per-guess OCaml loop over [eval = ( * )] it replaced, bit for bit:
   products up to 2^62 (guesses below 2^28, preps below 2^34), G never
   a multiple of 4, D down to 0 and 1, nclass from 1 (every weight
   clamps to class 0) to 65, and accumulators that start non-zero. *)
let prop_class_product_tile =
  QCheck.Test.make ~count:300 ~name:"fold_class_product == per-guess loop (bitwise)"
    QCheck.(pair (int_range 1 65) (int_bound 1_000_000))
    (fun (nclass, seed) ->
      let rng = Stats.Rng.create ~seed in
      let g = (4 * Stats.Rng.int_below rng 5) + 1 + Stats.Rng.int_below rng 3 in
      let len =
        match Stats.Rng.int_below rng 8 with
        | 0 -> 0
        | 1 -> 1
        | _ -> 2 + Stats.Rng.int_below rng 40
      in
      let guesses = Array.init g (fun _ -> Stats.Rng.bits rng 28) in
      let prepped = Array.init len (fun _ -> Stats.Rng.bits rng 34) in
      guesses.(Stats.Rng.int_below rng g) <- (1 lsl 28) - 1;
      let tbl =
        Array.init (len * nclass) (fun _ -> Stats.Rng.gaussian rng ~mu:(-3.) ~sigma:4.)
      in
      let start = Array.init g (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:10.) in
      let want =
        Array.mapi
          (fun r gu ->
            let e = ref start.(r) in
            for i = 0 to len - 1 do
              let cls = min (Bitops.popcount (gu * prepped.(i))) (nclass - 1) in
              e := !e +. tbl.((i * nclass) + cls)
            done;
            !e)
          guesses
      in
      let acc = Array.copy start in
      Stats.Pearson.Batch.Fused.fold_class_product ~acc ~tbl ~nclass ~guesses ~prepped
        ~len;
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        want acc)

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
  let parts = Sidecar.falcon_unit_parts ~leakage:`Hw 0 in
  let guesses =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:43)
      ~width:25
      ~truth:(Sidecar.falcon_unit_truth ~dir 0)
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

(* Profiled rankings pinned by digest.  Every (guess, score bits) of the
   full Dema.rank ranking under the profiled statistic, on the assess
   fixture (low-mantissa parts over the unprotected victim) and on the
   FALCON-8 store fixture (unit 0's parts), at jobs 1 and 4, for 0, 1,
   3, 4, 5, 512 and 513 candidates: the empty sweep, the 4-guess tile's
   tails and the chunk edges.  The assess fixture runs its split models
   and their plain form, which must score the same bits.  The goldens were captured from the
   per-trace class-score vectors and the per-guess fold that preceded
   the flat class tables and the tiled fold. *)
let ranking_digest ranked =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map
             (fun (s : Attack.Dema.scored) ->
               Printf.sprintf "%x:%Lx" s.Attack.Dema.guess
                 (Int64.bits_of_float s.Attack.Dema.corr))
             ranked)))

let pinned_counts = [ 0; 1; 3; 4; 5; 512; 513 ]

let profiled_digests store ~traces ~parts ~known pool =
  List.map
    (fun count ->
      let digest jobs =
        ranking_digest
          (Attack.Dema.rank
             ~ctx:(Attack.Ctx.make ~jobs ~distinguisher:(Attack.Distinguisher.Profiled store) ())
             ~traces ~parts ~known ~top:count
             (Array.to_seq (Array.sub pool 0 count)))
      in
      let d1 = digest 1 in
      if digest 4 <> d1 then Alcotest.failf "profiled digest over %d candidates differs at jobs 4" count;
      (count, d1))
    pinned_counts

let check_digests what goldens got =
  List.iter2
    (fun (count, want) (count', got) ->
      assert (count = count');
      Alcotest.(check string) (Printf.sprintf "%s over %d candidates" what count) want got)
    goldens got

let assess_goldens =
  [
    (0, "d41d8cd98f00b204e9800998ecf8427e");
    (1, "ce91ec79a15cae8b0a67e743fdeca394");
    (3, "450c32b61f0bf66f00fdeb787cf55c9f");
    (4, "21c7c7ef6e31c8f529eed8476e3a7851");
    (5, "27e7de1196cc010aba319e50b919f37e");
    (512, "1367e4044402d05c414a3ae25245c1fc");
    (513, "a083b9aed4c54dbc2e3e2b6ec735bf8c");
  ]
let falcon8_goldens =
  [
    (0, "d41d8cd98f00b204e9800998ecf8427e");
    (1, "62ec9ac2b6d343547c3baee3194865d4");
    (3, "023597fa07e3a89c0d103c65eaa32c6e");
    (4, "8e80b8a6db9de0b6ca454ff4ff760690");
    (5, "fea6980226f0b9e52c455f3e08a76b3f");
    (512, "56e05cd5d02036c8bfe4f6684147b320");
    (513, "aeadecd3e6c82b2774fed33128a0fb57");
  ]

let test_profiled_digests_pinned () =
  let traces, known = Lazy.force victim_view in
  let pool =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:47) ~width:25 ~truth:d_true
      ~decoys:600 ()
  in
  let parts = Lazy.force low_parts in
  check_digests "assess" assess_goldens
    (profiled_digests (Lazy.force store) ~traces ~parts ~known pool);
  (* the plain form of the same models takes the per-guess loop *)
  let plain = Attack.Hypothesis.Model.(List.map (fun (s, m) -> (s, fn (apply m))) parts) in
  check_digests "assess, plain models" assess_goldens
    (profiled_digests (Lazy.force store) ~traces ~parts:plain ~known pool);
  with_falcon_stores @@ fun store dir reader ->
  let width = (Tracestore.Reader.meta reader).Tracestore.width in
  let traces, known =
    Attack.Dema.Stream.extract reader ~samples:(List.init width Fun.id) ~known:Fun.id
  in
  let pool =
    Attack.Hypothesis.sampled (Stats.Rng.create ~seed:43) ~width:25
      ~truth:(Sidecar.falcon_unit_truth ~dir 0)
      ~decoys:600 ()
  in
  let parts = Sidecar.falcon_unit_parts ~leakage:`Hw 0 in
  let got = profiled_digests store ~traces ~parts ~known pool in
  check_digests "FALCON-8 store" falcon8_goldens got

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
  let d = Sidecar.falcon_unit_truth ~dir 0 in
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
          (Tracestore.Reader.load_shard reader sh)
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
    QCheck_alcotest.to_alcotest prop_gram_eigenvalues;
    Alcotest.test_case "profiled and absolute routes agree" `Quick
      test_engine_routes_agree;
    Alcotest.test_case "profiled digests pinned" `Quick test_profiled_digests_pinned;
    QCheck_alcotest.to_alcotest prop_class_table_oracle;
    Alcotest.test_case "decode refuses < 2 observed classes" `Quick
      test_decode_refuses_one_class;
    Alcotest.test_case "decode refuses npoi = 0" `Quick test_decode_refuses_no_pois;
    Alcotest.test_case "decode refuses LDA dimension out of range" `Quick
      test_decode_refuses_lda_dimension;
    Alcotest.test_case "every payload truncation" `Quick test_every_payload_truncation;
    Alcotest.test_case "payload xor refused or trainable" `Quick test_payload_xor;
    QCheck_alcotest.to_alcotest prop_profiled_subset_equals_rank;
    QCheck_alcotest.to_alcotest prop_class_product_tile;
  ]
