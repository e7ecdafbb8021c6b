(* Equivalence harness for the batched Pearson kernel: the determinism
   contract of Stats.Pearson.Batch says corr_block is *bit-identical* to
   mapping corr_with over the rows — for every block shape, every cache
   tile, constant columns, constant rows, G = 0 / G = 1 blocks and block
   sizes that do not divide the guess count — and that the batched
   attack paths (extend-and-prune, streaming rank) return exactly the
   scalar results at every jobs level.  Everything here checks float
   *bits*, not tolerances. *)

let bits_eq a b = Int64.bits_of_float a = Int64.bits_of_float b

let array_bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits_eq x y) a b

let matrix_bits_eq a b =
  Array.length a = Array.length b && Array.for_all2 array_bits_eq a b

(* Deterministic random problem from an int seed (the QCheck idiom of
   this suite: shrinkable scalar input, rich derived structure). *)
let random_block seed =
  let rng = Stats.Rng.create ~seed in
  let g = Stats.Rng.int_below rng 34 in
  let d = 1 + Stats.Rng.int_below rng 60 in
  let mode = Stats.Rng.int_below rng 4 in
  let col =
    match mode with
    | 0 -> Array.make d 3.25 (* constant column: every correlation is 0 *)
    | _ -> Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:2.)
  in
  let rows =
    Array.init g (fun r ->
        match if mode = 1 then r mod 3 else 3 with
        | 0 -> Array.make d 0. (* zero row *)
        | 1 -> Array.make d 7.5 (* constant row *)
        | _ ->
            Array.init d (fun i ->
                float_of_int (Stats.Rng.int_below rng 40)
                +. (0.5 *. col.(i) *. float_of_int (Stats.Rng.int_below rng 2))))
  in
  let traces = Array.map (fun x -> [| x |]) col in
  (g, d, col, rows, traces)

let prop_corr_block_matches_scalar =
  QCheck.Test.make ~count:300 ~name:"corr_block == map corr_with (bitwise)"
    QCheck.(pair (int_bound 1_000_000) (int_bound 69))
    (fun (seed, dblock) ->
      let dblock = dblock + 1 in
      let _, d, _, rows, traces = random_block seed in
      let c = Stats.Pearson.column_stats traces 0 in
      let want = Array.map (Stats.Pearson.corr_with c) rows in
      let blk = Stats.Pearson.Batch.of_rows ~cols:d rows in
      array_bits_eq want (Stats.Pearson.Batch.corr_block ~dblock c blk))

let prop_dblock_invariant =
  QCheck.Test.make ~count:200 ~name:"corr_block invariant in dblock"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, d, _, rows, traces = random_block seed in
      let c = Stats.Pearson.column_stats traces 0 in
      let blk = Stats.Pearson.Batch.of_rows ~cols:d rows in
      let ref_scores = Stats.Pearson.Batch.corr_block ~dblock:1 c blk in
      List.for_all
        (fun dblock ->
          array_bits_eq ref_scores (Stats.Pearson.Batch.corr_block ~dblock c blk))
        [ 2; 3; 7; d; d + 1; 2048 ])

let prop_fill_matches_hyp_vector =
  QCheck.Test.make ~count:200 ~name:"Block.fill rows == hyp_vector (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create ~seed in
      let g = 1 + Stats.Rng.int_below rng 20 in
      let d = 1 + Stats.Rng.int_below rng 50 in
      let known = Array.init d (fun _ -> Stats.Rng.bits rng 24) in
      let guesses = Array.init g (fun _ -> Stats.Rng.bits rng 20) in
      let model gg y = (gg * (y lor 1)) land 0xFFFFFF in
      let blk = Attack.Hypothesis.Block.create ~rows:(g + 3) ~cols:d in
      let blk = Attack.Hypothesis.Block.fill blk ~model ~known guesses in
      Stats.Pearson.Batch.rows blk = g
      && Array.for_all
           (fun r ->
             array_bits_eq
               (Attack.Dema.hyp_vector ~model ~known guesses.(r))
               (Stats.Pearson.Batch.row blk r))
           (Array.init g Fun.id))

let prop_corr_matrix_blocked_matches =
  QCheck.Test.make ~count:150 ~name:"corr_matrix_blocked == corr_matrix (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create ~seed:(seed lxor 0x5ca1e) in
      let g = Stats.Rng.int_below rng 10 in
      let d = 1 + Stats.Rng.int_below rng 40 in
      let t = 1 + Stats.Rng.int_below rng 6 in
      let traces =
        Array.init d (fun _ ->
            Array.init t (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.5))
      in
      let hyps =
        Array.init g (fun r ->
            if r = 0 then Array.make d 2.0
            else Array.init d (fun _ -> float_of_int (Stats.Rng.int_below rng 30)))
      in
      let blk = Stats.Pearson.Batch.of_rows ~cols:d hyps in
      matrix_bits_eq
        (Stats.Pearson.corr_matrix ~traces ~hyps)
        (Stats.Pearson.Batch.corr_matrix_blocked ~traces blk))

(* ---- fused hypothesis tile (Batch.Fused) ----

   The fused accumulator generates each hypothesis row inside the
   scoring loop instead of materialising a block, and must still be
   bit-identical to corr_with over the explicit rows — single and
   multi column, whole-campaign and arbitrarily segmented folds, and
   the split-model fast path against the generic generator. *)

let random_fused seed =
  let rng = Stats.Rng.create ~seed in
  let g = Stats.Rng.int_below rng 22 in
  let d = 1 + Stats.Rng.int_below rng 50 in
  let k = 1 + Stats.Rng.int_below rng 3 in
  let known = Array.init d (fun _ -> Stats.Rng.bits rng 24) in
  let guesses = Array.init g (fun _ -> Stats.Rng.bits rng 20) in
  let cols =
    Array.init k (fun c ->
        match c with
        | 1 -> Array.make d 2.75 (* constant column: correlation 0 *)
        | _ -> Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.5))
  in
  (g, d, k, known, guesses, cols)

let fused_model gg y = (gg * (y lor 1)) land 0xFFFFFF

(* scalar reference: corr_with over hyp_vector, one column at a time *)
let fused_reference ~model ~known ~guesses ~cols =
  Array.map
    (fun col ->
      let c = Stats.Pearson.column_stats (Array.map (fun x -> [| x |]) col) 0 in
      Array.map
        (fun gg -> Stats.Pearson.corr_with c (Attack.Dema.hyp_vector ~model ~known gg))
        guesses)
    cols

let fused_corr_all t ~d ~cols =
  Array.mapi
    (fun ci col ->
      let c = Stats.Pearson.column_stats (Array.map (fun x -> [| x |]) col) 0 in
      Stats.Pearson.Batch.Fused.corr t ~index:ci ~n:d
        ~sum_t:c.Stats.Pearson.sum ~var_t:c.Stats.Pearson.var_n)
    cols

let prop_fused_fold_matches_corr_with =
  QCheck.Test.make ~count:300 ~name:"Fused.fold == corr_with (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, d, k, known, guesses, cols = random_fused seed in
      let want = fused_reference ~model:fused_model ~known ~guesses ~cols in
      let t = Stats.Pearson.Batch.Fused.create ~rows:g ~ncols:k in
      Stats.Pearson.Batch.Fused.fold t
        ~gen:(fun r i -> fused_model guesses.(r) known.(i))
        ~cols ~len:d;
      matrix_bits_eq want (fused_corr_all t ~d ~cols))

let prop_fused_segmented_matches_whole =
  QCheck.Test.make ~count:300 ~name:"Fused segmented folds == one fold (bitwise)"
    QCheck.(pair (int_bound 1_000_000) (int_bound 59))
    (fun (seed, cut) ->
      let g, d, k, known, guesses, cols = random_fused seed in
      let cut = min cut d in
      let gen off r i = fused_model guesses.(r) known.(off + i) in
      let whole = Stats.Pearson.Batch.Fused.create ~rows:g ~ncols:k in
      Stats.Pearson.Batch.Fused.fold whole ~gen:(gen 0) ~cols ~len:d;
      (* same traces split at [cut]: the accumulators must end bitwise
         equal because each receives the same additions in trace order *)
      let seg = Stats.Pearson.Batch.Fused.create ~rows:g ~ncols:k in
      let slice off len = Array.map (fun c -> Array.sub c off len) cols in
      Stats.Pearson.Batch.Fused.fold seg ~gen:(gen 0) ~cols:(slice 0 cut) ~len:cut;
      Stats.Pearson.Batch.Fused.fold seg ~gen:(gen cut)
        ~cols:(slice cut (d - cut))
        ~len:(d - cut);
      matrix_bits_eq (fused_corr_all whole ~d ~cols) (fused_corr_all seg ~d ~cols))

let prop_fused_split_matches_fold =
  QCheck.Test.make ~count:300 ~name:"Fused.fold_split == Fused.fold (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g, d, k, known, guesses, cols = random_fused seed in
      (* the same model factored through a prep table *)
      let prep y = y lor 1 in
      let eval gg p = (gg * p) land 0xFFFFFF in
      let a = Stats.Pearson.Batch.Fused.create ~rows:g ~ncols:k in
      Stats.Pearson.Batch.Fused.fold a
        ~gen:(fun r i -> fused_model guesses.(r) known.(i))
        ~cols ~len:d;
      let b = Stats.Pearson.Batch.Fused.create ~rows:g ~ncols:k in
      Stats.Pearson.Batch.Fused.fold_split b ~eval ~guesses
        ~prepped:(Array.map prep known) ~cols ~len:d;
      matrix_bits_eq (fused_corr_all a ~d ~cols) (fused_corr_all b ~d ~cols))

(* Degenerate shapes the generator cannot shrink to reliably. *)
let test_edge_shapes () =
  let d = 17 in
  let col = Array.init d (fun i -> float_of_int (((i * 7) mod 11) - 5)) in
  let traces = Array.map (fun x -> [| x |]) col in
  let c = Stats.Pearson.column_stats traces 0 in
  (* G = 0: empty block scores to an empty array *)
  let empty = Stats.Pearson.Batch.of_rows ~cols:d [||] in
  Alcotest.(check int) "G=0" 0
    (Array.length (Stats.Pearson.Batch.corr_block c empty));
  (* G = 1 and a block capacity far above the row count *)
  let row = Array.init d (fun i -> col.(i) +. float_of_int (i mod 3)) in
  let blk = Attack.Hypothesis.Block.create ~rows:64 ~cols:d in
  Stats.Pearson.Batch.set_rows blk 1;
  Array.iteri (fun i x -> Stats.Pearson.Batch.set blk 0 i x) row;
  Alcotest.(check bool) "G=1 bitwise" true
    (array_bits_eq
       [| Stats.Pearson.corr_with c row |]
       (Stats.Pearson.Batch.corr_block c blk));
  (* 5 rows: not a multiple of the 4-row register tile *)
  let rows5 = Array.init 5 (fun r -> Array.map (fun x -> x +. float_of_int r) row) in
  Alcotest.(check bool) "5 rows (partial tile) bitwise" true
    (array_bits_eq
       (Array.map (Stats.Pearson.corr_with c) rows5)
       (Stats.Pearson.Batch.corr_block c (Stats.Pearson.Batch.of_rows rows5)))

(* Allocation canary: a warm corr_block call over a large block must not
   allocate per guess x trace (the regression would be rebuilding a
   D-length vector per row, ~2 MB here).  The legitimate footprint is
   the three moment arrays plus the result (4 x G floats ~ 2 kB). *)
let test_allocation_canary () =
  let g = 64 and d = 4096 in
  let rng = Stats.Rng.create ~seed:99 in
  let col = Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
  let traces = Array.map (fun x -> [| x |]) col in
  let c = Stats.Pearson.column_stats traces 0 in
  let rows =
    Array.init g (fun _ ->
        Array.init d (fun _ -> float_of_int (Stats.Rng.int_below rng 50)))
  in
  let blk = Stats.Pearson.Batch.of_rows rows in
  let want = Array.map (Stats.Pearson.corr_with c) rows in
  ignore (Stats.Pearson.Batch.corr_block c blk) (* warm-up *);
  let before = Gc.allocated_bytes () in
  let got = Stats.Pearson.Batch.corr_block c blk in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "scores still bitwise equal" true (array_bits_eq want got);
  if allocated > 65536. then
    Alcotest.failf "corr_block allocated %.0f bytes for G=%d D=%d (expected O(G))"
      allocated g d

(* ---- end-to-end pins: the real attack entry points must agree
   exactly, sequentially and parallel (the scalar reference is pinned
   against the same entry points in test_profile) ---- *)

let scored_eq (a : Attack.Dema.scored) (b : Attack.Dema.scored) =
  a.guess = b.guess && bits_eq a.corr b.corr

let ranking_eq a b = List.length a = List.length b && List.for_all2 scored_eq a b

let test_extend_prune_jobs_parity () =
  let rng = Stats.Rng.create ~seed:2025 in
  let x = Fpr.make ~sign:0 ~exp:1026 ~mant:0x0A5C3017BC8F2 in
  let known =
    Attack.Workload.known_inputs ~n:64 ~coeff:3 ~component:`Re ~count:600
      ~seed:"pearson batch pin"
  in
  let v = Attack.Workload.mul_views Leakage.default_model rng ~x ~known in
  let d_true = (Fpr.mantissa x lor (1 lsl 52)) land 0x1FFFFFF in
  let candidates =
    Attack.Hypothesis.sampled
      (Stats.Rng.create ~seed:7)
      ~width:25 ~truth:d_true ~decoys:700 ()
  in
  let run jobs =
    Attack.Recover.attack_mantissa_low ~ctx:(Attack.Ctx.make ~jobs ())
      ~candidates:(Array.to_seq candidates) v
  in
  let reference = run 1 in
  Alcotest.(check int) "recovers the low mantissa" d_true reference.winner;
  let r = run 4 in
  Alcotest.(check int) "-j 4: same winner" reference.winner r.winner;
  Alcotest.(check bool) "-j 4: same extend ranking" true
    (ranking_eq reference.extend r.extend);
  Alcotest.(check bool) "-j 4: same pruned ranking" true
    (ranking_eq reference.pruned r.pruned)

(* Streaming rank through a real on-disk campaign: sequential and
   parallel, prefetch on and off, one identical top-k. *)
let test_stream_rank_jobs_parity () =
  let sk = fst (Falcon.Scheme.keygen ~n:16 ~seed:"pearson stream key") in
  let model = { Leakage.default_model with noise_sigma = 0.4 } in
  let traces = Leakage.capture model ~seed:78 sk ~count:30 in
  let dir = Filename.temp_dir "fd_pearson_test" "" in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
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
      let reader = Tracestore.Reader.open_store dir in
      let d_true = (Fpr.mantissa sk.f_fft.Fft.re.(0) lor (1 lsl 52)) land 0x1FFFFFF in
      let candidates =
        Attack.Hypothesis.sampled
          (Stats.Rng.create ~seed:8)
          ~width:25 ~truth:d_true ~decoys:250 ()
      in
      let parts =
        [
          (Attack.Recover.sample Fpr.Mant_w00, Attack.Recover.p_w00);
          (Attack.Recover.sample Fpr.Mant_z1a, Attack.Recover.p_z1a);
        ]
      in
      let run ~jobs ~prefetch =
        Attack.Dema.Stream.rank ~ctx:(Attack.Ctx.make ~jobs ()) ~prefetch reader ~parts
          ~known:(fun (t : Leakage.trace) -> t.c_fft.Fft.re.(0))
          ~top:6 (Array.to_seq candidates)
      in
      let reference = run ~jobs:1 ~prefetch:false in
      List.iter
        (fun (jobs, prefetch) ->
          Alcotest.(check bool)
            (Printf.sprintf "-j %d prefetch %b == -j 1" jobs prefetch)
            true
            (ranking_eq reference (run ~jobs ~prefetch)))
        [ (1, true); (4, false); (4, true) ])

let suite =
  [
    QCheck_alcotest.to_alcotest prop_corr_block_matches_scalar;
    QCheck_alcotest.to_alcotest prop_dblock_invariant;
    QCheck_alcotest.to_alcotest prop_fill_matches_hyp_vector;
    QCheck_alcotest.to_alcotest prop_corr_matrix_blocked_matches;
    QCheck_alcotest.to_alcotest prop_fused_fold_matches_corr_with;
    QCheck_alcotest.to_alcotest prop_fused_segmented_matches_whole;
    QCheck_alcotest.to_alcotest prop_fused_split_matches_fold;
    Alcotest.test_case "edge shapes (G=0, G=1, partial tile)" `Quick test_edge_shapes;
    Alcotest.test_case "allocation canary (O(G), not O(GxD))" `Quick
      test_allocation_canary;
    Alcotest.test_case "extend-and-prune jobs parity" `Slow
      test_extend_prune_jobs_parity;
    Alcotest.test_case "stream rank jobs parity" `Quick test_stream_rank_jobs_parity;
  ]
