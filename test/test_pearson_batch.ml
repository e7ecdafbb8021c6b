(* Equivalence harness for the batched Pearson kernel: the determinism
   contract of Stats.Pearson.Batch says the fused tile is *bit-identical*
   to corr_with over hyp_vector's rows — for every guess count (G = 0,
   G = 1, counts that do not fill the 4-row register tile), constant
   columns, whole-campaign and arbitrarily segmented folds, through both
   entries (the C product tile against fold_split with eval = ( * ),
   over products up to 2^62 and wrapped ones, with bit 62 refused; a
   prep table against the index table a plain model runs over) — and
   that the batched attack paths (extend-and-prune,
   streaming rank) return exactly the scalar results at every jobs
   level.  Everything here checks float *bits*, not tolerances. *)

let bits_eq a b = Int64.bits_of_float a = Int64.bits_of_float b

let array_bits_eq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits_eq x y) a b

module Fused = Stats.Pearson.Batch.Fused

(* Deterministic random problem from an int seed (the QCheck idiom of
   this suite: shrinkable scalar input, rich derived structure).  One
   seed in four draws a constant column, whose every correlation is 0. *)
let random_fused seed =
  let rng = Stats.Rng.create ~seed in
  let g = Stats.Rng.int_below rng 22 in
  let d = 1 + Stats.Rng.int_below rng 50 in
  let known = Array.init d (fun _ -> Stats.Rng.bits rng 24) in
  let guesses = Array.init g (fun _ -> Stats.Rng.bits rng 20) in
  let col =
    if Stats.Rng.int_below rng 4 = 0 then Array.make d 2.75
    else Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.5)
  in
  (g, d, known, guesses, col)

let fused_model gg y = (gg * (y lor 1)) land 0xFFFFFF

(* the same model factored through a prep table *)
let fused_prep y = y lor 1
let fused_eval gg p = (gg * p) land 0xFFFFFF

(* the product model [g * prep y]: at most 44 bits here *)
let product_model gg y = gg * fused_prep y

let column col = Stats.Pearson.column_stats (Array.map (fun x -> [| x |]) col) 0

(* scalar reference: corr_with over hyp_vector *)
let reference ~model ~known ~guesses ~col =
  let c = column col in
  Array.map
    (fun gg -> Stats.Pearson.corr_with c (Attack.Dema.hyp_vector ~model ~known gg))
    guesses

let fused_reference = reference ~model:(Attack.Hypothesis.Model.fn fused_model)
let product_reference = reference ~model:(Attack.Hypothesis.Model.fn product_model)

let fused_corr t ~d ~col =
  let c = column col in
  Fused.corr t ~n:d ~sum_t:c.Stats.Pearson.sum ~var_t:c.Stats.Pearson.var_n

let fold_with f ~guesses =
  let t = Fused.create ~rows:(Array.length guesses) in
  f t;
  t

(* One whole-campaign fold of [fused_model] through a plain model's
   index table: [eval] reads the known operand itself *)
let fold_index ~known ~guesses ~col ~d =
  fold_with ~guesses (fun t ->
      Fused.fold_split t
        ~eval:(fun gg i -> fused_model gg known.(i))
        ~guesses ~prepped:(Array.init d Fun.id) ~col ~len:d)

(* ... and through its prep table *)
let fold_split ~known ~guesses ~col ~d =
  fold_with ~guesses (fun t ->
      Fused.fold_split t ~eval:fused_eval ~guesses
        ~prepped:(Array.map fused_prep known)
        ~col ~len:d)

(* [product_model] through the product tile and through fold_split *)
let fold_product ~known ~guesses ~col ~d =
  fold_with ~guesses (fun t ->
      Fused.fold_product t ~guesses ~prepped:(Array.map fused_prep known) ~col ~len:d)

let fold_split_mul ~known ~guesses ~col ~d =
  fold_with ~guesses (fun t ->
      Fused.fold_split t ~eval:( * ) ~guesses
        ~prepped:(Array.map fused_prep known)
        ~col ~len:d)

let prop_fused_index_matches_corr_with =
  QCheck.Test.make ~count:300 ~name:"Fused.fold_split index table == corr_with (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, d, known, guesses, col = random_fused seed in
      array_bits_eq
        (fused_reference ~known ~guesses ~col)
        (fused_corr (fold_index ~known ~guesses ~col ~d) ~d ~col))

(* The same traces split at [cut]: the accumulators must end bitwise
   equal because each receives the same additions in trace order.
   [fold_seg t ~off ~len] folds traces [off, off + len). *)
let segmented_matches_whole ~whole ~fold_seg ~g ~d ~col ~cut =
  let cut = min cut d in
  let seg = Fused.create ~rows:g in
  fold_seg seg ~off:0 ~len:cut;
  fold_seg seg ~off:cut ~len:(d - cut);
  array_bits_eq (fused_corr whole ~d ~col) (fused_corr seg ~d ~col)

let prop_fused_segmented_matches_whole =
  QCheck.Test.make ~count:300 ~name:"Fused segmented folds == one fold (bitwise)"
    QCheck.(pair (int_bound 1_000_000) (int_bound 59))
    (fun (seed, cut) ->
      let g, d, known, guesses, col = random_fused seed in
      segmented_matches_whole ~g ~d ~col ~cut
        ~whole:(fold_index ~known ~guesses ~col ~d)
        ~fold_seg:(fun t ~off ~len ->
          Fused.fold_split t
            ~eval:(fun gg i -> fused_model gg known.(off + i))
            ~guesses ~prepped:(Array.init len Fun.id) ~col:(Array.sub col off len) ~len))

let prop_fused_split_matches_index =
  QCheck.Test.make ~count:300 ~name:"Fused.fold_split prep table == index table (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, d, known, guesses, col = random_fused seed in
      array_bits_eq
        (fused_corr (fold_index ~known ~guesses ~col ~d) ~d ~col)
        (fused_corr (fold_split ~known ~guesses ~col ~d) ~d ~col))

(* Degenerate shapes the generator cannot shrink to reliably, through
   every entry. *)
let test_edge_shapes () =
  let d = 17 in
  let col = Array.init d (fun i -> float_of_int (((i * 7) mod 11) - 5)) in
  let known = Array.init d (fun i -> (i * 0x9E37) land 0xFFFFFF) in
  List.iter
    (fun (what, guesses) ->
      let want = fused_reference ~known ~guesses ~col in
      let want_product = product_reference ~known ~guesses ~col in
      List.iter
        (fun (entry, fold, expect) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s via %s bitwise" what entry)
            true
            (array_bits_eq expect (fused_corr (fold ~known ~guesses ~col ~d) ~d ~col)))
        [
          ("fold_split (index table)", fold_index, want);
          ("fold_split", fold_split, want);
          ("fold_product", fold_product, want_product);
          ("fold_split ~eval:( * )", fold_split_mul, want_product);
        ])
    [
      ("G=0", [||]);
      ("G=1", [| 0x5A5A5 |]);
      (* guess 0 models an all-zero (constant) row: correlation 0 *)
      ( "5 rows (partial tile)",
        Array.init 5 (fun r -> if r = 2 then 0 else 0x1234 + (r * 0x777)) );
    ];
  Alcotest.(check int) "G=0 scores to an empty array" 0
    (Array.length (fused_corr (fold_index ~known ~guesses:[||] ~col ~d) ~d ~col))

(* Allocation canary: a warm fold over a large segment must not allocate
   per guess x trace (the regression would be boxing every hypothesis
   float, ~6 MB here).  The legitimate footprint is the three moment
   arrays plus the result (4 x G floats ~ 2 kB). *)
let test_allocation_canary () =
  let g = 64 and d = 4096 in
  let rng = Stats.Rng.create ~seed:99 in
  let col = Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.) in
  let known = Array.init d (fun _ -> Stats.Rng.bits rng 24) in
  let guesses = Array.init g (fun _ -> Stats.Rng.bits rng 20) in
  let prepped = Array.map fused_prep known in
  let index = Array.init d Fun.id in
  let c = column col in
  let want = fused_reference ~known ~guesses ~col in
  let want_product = product_reference ~known ~guesses ~col in
  let eval_index gg i = fused_model gg known.(i) in
  List.iter
    (fun (entry, fold, expect) ->
      let score () =
        let t = Fused.create ~rows:g in
        fold t;
        Fused.corr t ~n:d ~sum_t:c.Stats.Pearson.sum ~var_t:c.Stats.Pearson.var_n
      in
      ignore (score ()) (* warm-up *);
      let before = Gc.allocated_bytes () in
      let got = score () in
      let allocated = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) (entry ^ ": scores still bitwise equal") true
        (array_bits_eq expect got);
      if allocated > 65536. then
        Alcotest.failf "%s allocated %.0f bytes for G=%d D=%d (expected O(G))" entry
          allocated g d)
    [
      ( "fold_split (index table)",
        (fun t -> Fused.fold_split t ~eval:eval_index ~guesses ~prepped:index ~col ~len:d),
        want );
      ( "fold_split",
        (fun t -> Fused.fold_split t ~eval:fused_eval ~guesses ~prepped ~col ~len:d),
        want );
      ( "fold_product",
        (fun t -> Fused.fold_product t ~guesses ~prepped ~col ~len:d),
        want_product );
    ];
  (* the profiled sweep's product tile: one sum per guess *)
  let nclass = 65 in
  let tbl = Array.init (d * nclass) (fun k -> float_of_int (k mod 97) *. 0.25) in
  let acc = Array.make g 0. in
  let fold () = Fused.fold_class_product ~acc ~tbl ~nclass ~guesses ~prepped ~len:d in
  fold () (* warm-up *);
  let before = Gc.allocated_bytes () in
  fold ();
  let allocated = Gc.allocated_bytes () -. before in
  if allocated > 65536. then
    Alcotest.failf "fold_class_product allocated %.0f bytes for G=%d D=%d" allocated g d

let prop_product_matches_corr_with =
  QCheck.Test.make ~count:300 ~name:"Fused.fold_product == corr_with (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, d, known, guesses, col = random_fused seed in
      array_bits_eq
        (product_reference ~known ~guesses ~col)
        (fused_corr (fold_product ~known ~guesses ~col ~d) ~d ~col))

let prop_product_matches_split =
  QCheck.Test.make ~count:300 ~name:"Fused.fold_product == fold_split ~eval:( * ) (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, d, known, guesses, col = random_fused seed in
      array_bits_eq
        (fused_corr (fold_split_mul ~known ~guesses ~col ~d) ~d ~col)
        (fused_corr (fold_product ~known ~guesses ~col ~d) ~d ~col))

let prop_product_segmented_matches_whole =
  QCheck.Test.make ~count:300 ~name:"Fused.fold_product segmented == one fold (bitwise)"
    QCheck.(pair (int_bound 1_000_000) (int_bound 59))
    (fun (seed, cut) ->
      let g, d, known, guesses, col = random_fused seed in
      let prepped = Array.map fused_prep known in
      segmented_matches_whole ~g ~d ~col ~cut
        ~whole:(fold_product ~known ~guesses ~col ~d)
        ~fold_seg:(fun t ~off ~len ->
          Fused.fold_product t ~guesses ~prepped:(Array.sub prepped off len)
            ~col:(Array.sub col off len) ~len))

(* Products over the whole range the product tile takes: guesses below
   2^28 and preps below 2^34, so every g * p is below 2^62 (one of each
   pinned at its maximum).  G is never a multiple of 4, so the one-row
   tail always runs, and one seed in four has D = 0 or D = 1. *)
let random_wide seed =
  let rng = Stats.Rng.create ~seed in
  let g = (4 * Stats.Rng.int_below rng 5) + 1 + Stats.Rng.int_below rng 3 in
  let d =
    match Stats.Rng.int_below rng 8 with
    | 0 -> 0
    | 1 -> 1
    | _ -> 2 + Stats.Rng.int_below rng 48
  in
  let guesses = Array.init g (fun _ -> Stats.Rng.bits rng 28) in
  let prepped = Array.init d (fun _ -> Stats.Rng.bits rng 34) in
  guesses.(Stats.Rng.int_below rng g) <- (1 lsl 28) - 1;
  if d > 0 then prepped.(Stats.Rng.int_below rng d) <- (1 lsl 34) - 1;
  let col = Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:0. ~sigma:1.5) in
  (g, d, prepped, guesses, col)

let prop_product_wide_range =
  QCheck.Test.make ~count:300
    ~name:"Fused.fold_product over g * p < 2^62 == corr_with == fold_split (bitwise)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let _, d, prepped, guesses, col = random_wide seed in
      let via_c =
        fused_corr
          (fold_with ~guesses (fun t -> Fused.fold_product t ~guesses ~prepped ~col ~len:d))
          ~d ~col
      in
      let via_split =
        fused_corr
          (fold_with ~guesses (fun t ->
               Fused.fold_split t ~eval:( * ) ~guesses ~prepped ~col ~len:d))
          ~d ~col
      in
      array_bits_eq via_split via_c
      && array_bits_eq
           (reference ~model:(Attack.Hypothesis.Model.fn ( * )) ~known:prepped ~guesses ~col)
           via_c)

(* A product of 2^63 or more wraps in OCaml's 63-bit int; while its bit
   62 is clear the C tile counts the same wrapped bits.  A product with
   bit 62 set is refused by both tiles, as [Bitops.popcount] refuses
   it. *)
let test_product_top_bits () =
  let col = [| 0.5; -1.25; 2.0 |] in
  let prepped = [| 1 lsl 31; (1 lsl 33) + 5; 3 |] in
  let guesses = [| 1 lsl 32; (1 lsl 31) - 1; 7; (1 lsl 30) + 1; 1 |] in
  let fold f = fused_corr (fold_with ~guesses f) ~d:3 ~col in
  Alcotest.(check bool) "wrapped products: C tile == fold_split ~eval:( * )" true
    (array_bits_eq
       (fold (fun t -> Fused.fold_split t ~eval:( * ) ~guesses ~prepped ~col ~len:3))
       (fold (fun t -> Fused.fold_product t ~guesses ~prepped ~col ~len:3)));
  let bad = [| 3; 1 lsl 31 |] and prepped = [| 1; 1 lsl 31 |] in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s accepted a product with bit 62 set" what
    | exception Invalid_argument _ -> ()
  in
  refused "fold_product" (fun () ->
      Fused.fold_product (Fused.create ~rows:2) ~guesses:bad ~prepped ~col:[| 1.; 2. |]
        ~len:2);
  refused "fold_class_product" (fun () ->
      Fused.fold_class_product ~acc:[| 0.; 0. |] ~tbl:(Array.make 4 1.) ~nclass:2
        ~guesses:bad ~prepped ~len:2);
  Alcotest.(check bool) "Bitops.popcount refuses it too" true
    (match Bitops.popcount ((1 lsl 31) * (1 lsl 31)) with
     | _ -> false
     | exception Assert_failure _ -> true)

(* ---- subset scoring: [Distinguisher.S.finalize ~parts] and
   [Dema.Sweep.scores ?parts] ----

   A sweep folded over every part must score any ordered subset of its
   parts exactly as a one-shot rank whose [parts] are that subset in
   that order: each per-(part, guess) term depends only on that part's
   accumulators, and the subset's terms are summed in the given order. *)

module Model = Attack.Hypothesis.Model

(* A random problem: [np] parts, each with its own column and known
   operands, split, plain and product models in turn; distinct guesses (one
   seed in four spans more than one 512-candidate sweep chunk); a random
   ordered subset of the parts; random segment cuts. *)
let random_parts seed =
  let rng = Stats.Rng.create ~seed in
  let np = 2 + Stats.Rng.int_below rng 5 in
  let d = 8 + Stats.Rng.int_below rng 60 in
  let g =
    if Stats.Rng.int_below rng 4 = 0 then 513 + Stats.Rng.int_below rng 100
    else 2 + Stats.Rng.int_below rng 40
  in
  let cols =
    Array.init np (fun _ ->
        Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:10. ~sigma:1.5))
  in
  let ks = Array.init np (fun _ -> Array.init d (fun _ -> Stats.Rng.bits rng 24)) in
  let models =
    Array.init np (fun j ->
        match j mod 3 with
        | 0 -> Model.split ~prep:fused_prep ~eval:fused_eval
        | 1 -> Model.fn (fun gg y -> ((gg lxor y) * 3) land 0xFFFF)
        | _ -> Model.product fused_prep)
  in
  let guesses = Array.init g (fun r -> (r lsl 12) lor Stats.Rng.bits rng 12) in
  let order = Array.init np Fun.id in
  Stats.Rng.shuffle rng order;
  let subset = Array.to_list (Array.sub order 0 (1 + Stats.Rng.int_below rng np)) in
  let cuts =
    List.sort_uniq compare
      (0 :: d :: List.init (Stats.Rng.int_below rng 4) (fun _ -> Stats.Rng.int_below rng (d + 1)))
  in
  (cols, ks, models, guesses, subset, cuts)

(* consecutive [cuts] as (offset, length) segments *)
let rec segments = function
  | a :: (b :: _ as rest) -> (a, b - a) :: segments rest
  | _ -> []

(* The one-shot reference: per guess, the score a rank whose parts are
   [subset] (in order) gives it over the whole campaign. *)
let subset_reference rank (cols, ks, models, guesses, subset, _) =
  let d = Array.length cols.(0) in
  let traces = Array.init d (fun i -> Array.map (fun c -> c.(i)) cols) in
  let parts =
    List.map (fun j -> (j, Model.contramap (fun i -> ks.(j).(i)) models.(j))) subset
  in
  let ranked =
    rank ~traces ~parts ~known:(Array.init d Fun.id) ~top:(Array.length guesses)
      (Array.to_seq guesses)
  in
  let by_guess = Hashtbl.create 64 in
  List.iter (fun (s : Attack.Dema.scored) -> Hashtbl.replace by_guess s.guess s.corr) ranked;
  Array.map (Hashtbl.find by_guess) guesses

let float_equal_all a b = Array.length a = Array.length b && Array.for_all2 Float.equal a b

let prop_sweep_subset_equals_rank =
  QCheck.Test.make ~count:100
    ~name:"Sweep.scores ?parts == rank on that part subset (Float.equal)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let ((cols, ks, models, guesses, subset, cuts) as p) = random_parts seed in
      let want =
        subset_reference
          (fun ~traces ~parts ~known ~top c -> Attack.Dema.rank ~traces ~parts ~known ~top c)
          p
      in
      List.for_all
        (fun (backend, jobs) ->
          let sweep =
            Attack.Dema.Sweep.create ~backend ~parts:(Array.to_list models) guesses
          in
          List.iter
            (fun (off, len) ->
              Attack.Dema.Sweep.fold ~jobs sweep
                (Array.mapi (fun j c -> (Array.sub c off len, Array.sub ks.(j) off len)) cols))
            (segments cuts);
          float_equal_all want (Attack.Dema.Sweep.scores ~jobs ~parts:subset sweep))
        [
          (Stats.Pearson.Batch.Scalar, 1);
          (Stats.Pearson.Batch.Batched, 1);
          (Stats.Pearson.Batch.Scalar, 2);
          (Stats.Pearson.Batch.Batched, 2);
        ])

(* The same contract on any instance, driven by hand: every part in the
   plan, the guesses in [chunks] accumulators, [finalize] on the
   subset. *)
let finalize_subset (module D : Attack.Distinguisher.S) (cols, ks, models, guesses, subset, cuts)
    ~chunks =
  let plan = D.plan ~parts:(Array.to_list (Array.mapi (fun j m -> (j, m)) models)) in
  let g = Array.length guesses in
  let per = (g + chunks - 1) / chunks in
  let accs =
    List.init chunks (fun k ->
        let lo = min g (k * per) in
        D.acc plan (Array.sub guesses lo (min per (g - lo))))
  in
  List.iter
    (fun (off, len) ->
      let seg =
        D.prepare plan
          (Array.mapi (fun j c -> ([| Array.sub c off len |], Array.sub ks.(j) off len)) cols)
      in
      List.iter (fun a -> D.fold a seg) accs)
    (segments cuts);
  Array.concat (List.map (D.finalize plan ~parts:subset) accs)

let prop_absolute_subset_equals_rank =
  QCheck.Test.make ~count:100
    ~name:"absolute finalize ~parts == rank_absolute on that subset (Float.equal)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = random_parts seed in
      let alpha = 0.7 and baseline = 9.5 in
      let want =
        subset_reference
          (fun ~traces ~parts ~known ~top c ->
            Attack.Dema.rank_absolute ~traces ~parts ~known ~top ~alpha ~baseline c)
          p
      in
      List.for_all
        (fun chunks ->
          float_equal_all want
            (finalize_subset (Attack.Dema.absolute ~alpha ~baseline) p ~chunks))
        [ 1; 2 ])

(* The product model's shape: [apply] is the product, and a contramap
   keeps it a product (so the sweeps still reach the product tile). *)
let prop_model_product =
  QCheck.Test.make ~count:300 ~name:"Model.product applies g * prep y, contramap keeps it"
    QCheck.(pair (int_bound 0xFFFFF) (int_bound 0xFFFFFF))
    (fun (gg, y) ->
      let m = Model.product fused_prep in
      Model.apply m gg y = gg * fused_prep y
      &&
      match Model.contramap int_of_string m with
      | Model.Product prep as m' ->
          let y' = string_of_int y in
          prep y' = fused_prep y && Model.apply m' gg y' = gg * fused_prep y
      | Model.Split _ | Model.Fn _ -> false)

(* The absolute statistic pinned to the arithmetic it restates, not
   just to a second route: per guess and per part in plan order, a fresh
   error summing (col - (baseline + alpha * HW))^2 in trace order, the
   parts added to 0 in order, negated and divided by the trace count.
   Parts whose digests are all distinct (product and split) and a plain
   part (a class per trace) score exactly that, under Float.equal.
   Parts with 1, 2 and 8 distinct digests fold their traces into shared
   classes and agree with it to 1e-12 relative.  Every score is
   bit-equal at jobs 1 and 4 and over one, two and random segments.
   G = 513 spans two 512-candidate chunks. *)
let test_absolute_pinned () =
  let alpha = 0.7 and baseline = 9.5 and d = 37 in
  let rng = Stats.Rng.create ~seed:4242 in
  let few k =
    Model.split ~prep:(fun y -> y mod k) ~eval:(fun gg p -> (gg * (p + 1)) land 0xFFFFFF)
  in
  let models =
    [|
      Model.product fused_prep;
      Model.split ~prep:fused_prep ~eval:fused_eval;
      Model.fn (fun gg y -> ((gg lxor y) * 3) land 0xFFFF);
      few 1;
      few 2;
      Model.product (fun y -> 1 + (y mod 8));
    |]
  in
  let exact = [ 0; 1; 2 ] and all = List.init (Array.length models) Fun.id in
  let cols =
    Array.map (fun _ -> Array.init d (fun _ -> Stats.Rng.gaussian rng ~mu:10. ~sigma:1.5)) models
  in
  let ks = Array.map (fun _ -> Array.init d (fun _ -> Stats.Rng.bits rng 24)) models in
  let distinct j =
    List.length (List.sort_uniq compare (Array.to_list (Array.map fused_prep ks.(j))))
  in
  Alcotest.(check (list int)) "the exact parts' digests are all distinct" [ d; d ]
    [ distinct 0; distinct 1 ];
  let traces = Array.init d (fun i -> Array.map (fun c -> c.(i)) cols) in
  let hand subset gg =
    let s = ref 0. in
    List.iter
      (fun j ->
        let e = ref 0. in
        for i = 0 to d - 1 do
          let hw = Bitops.popcount (Model.apply models.(j) gg ks.(j).(i)) in
          let rr = cols.(j).(i) -. (baseline +. (alpha *. float_of_int hw)) in
          e := !e +. (rr *. rr)
        done;
        s := !s +. !e)
      subset;
    -. !s /. float_of_int d
  in
  let rank subset ~jobs guesses =
    let parts =
      List.map (fun j -> (j, Model.contramap (fun i -> ks.(j).(i)) models.(j))) subset
    in
    Attack.Dema.rank_absolute ~ctx:(Attack.Ctx.make ~jobs ()) ~traces ~parts
      ~known:(Array.init d Fun.id) ~top:(max 1 (Array.length guesses)) ~alpha ~baseline
      (Array.to_seq guesses)
  in
  let by_guess ranked =
    let tbl = Hashtbl.create 64 in
    List.iter (fun (s : Attack.Dema.scored) -> Hashtbl.replace tbl s.guess s.corr) ranked;
    Hashtbl.find tbl
  in
  let splits =
    [
      ("one segment", [ 0; d ]);
      ("two segments", [ 0; d / 2; d ]);
      ( "random segments",
        List.sort_uniq compare (0 :: d :: List.init 5 (fun _ -> Stats.Rng.int_below rng d)) );
    ]
  in
  List.iter
    (fun g ->
      let guesses = Array.init g (fun r -> (r lsl 12) lor Stats.Rng.bits rng 12) in
      let what = Printf.sprintf "G=%d" g in
      let reference = rank all ~jobs:1 guesses in
      Alcotest.(check (list int))
        (what ^ ": every guess scored")
        (List.sort compare (Array.to_list guesses))
        (List.sort compare (List.map (fun (s : Attack.Dema.scored) -> s.guess) reference));
      List.iter
        (fun (s : Attack.Dema.scored) ->
          let want = hand all s.guess in
          if Float.abs (s.corr -. want) > 1e-12 *. Float.abs want then
            Alcotest.failf "%s: guess 0x%x scored %h, the per-trace loop %h" what s.guess
              s.corr want)
        reference;
      let score = by_guess reference in
      let bit_equal route got =
        Array.iteri
          (fun r gg ->
            if not (Float.equal (score gg) got.(r)) then
              Alcotest.failf "%s %s: guess 0x%x scored %h, -j 1 %h" what route gg got.(r)
                (score gg))
          guesses
      in
      bit_equal "-j 4" (Array.map (by_guess (rank all ~jobs:4 guesses)) guesses);
      List.iter
        (fun (route, cuts) ->
          bit_equal route
            (finalize_subset
               (Attack.Dema.absolute ~alpha ~baseline)
               (cols, ks, models, guesses, all, cuts)
               ~chunks:2))
        splits;
      List.iter
        (fun jobs ->
          List.iter
            (fun (s : Attack.Dema.scored) ->
              if not (Float.equal s.corr (hand exact s.guess)) then
                Alcotest.failf "%s -j %d: guess 0x%x scored %h on the exact parts, the \
                                per-trace loop %h"
                  what jobs s.guess s.corr (hand exact s.guess))
            (rank exact ~jobs guesses))
        [ 1; 4 ])
    [ 0; 1; 3; 4; 5; 513 ]

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
    Attack.Recover.mantissa_low_multi ~ctx:(Attack.Ctx.make ~jobs ())
      ~candidates:(Array.to_seq candidates) [ v ]
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
          ~model
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
    QCheck_alcotest.to_alcotest prop_fused_index_matches_corr_with;
    QCheck_alcotest.to_alcotest prop_fused_segmented_matches_whole;
    QCheck_alcotest.to_alcotest prop_fused_split_matches_index;
    QCheck_alcotest.to_alcotest prop_sweep_subset_equals_rank;
    QCheck_alcotest.to_alcotest prop_absolute_subset_equals_rank;
    Alcotest.test_case "edge shapes (G=0, G=1, partial tile)" `Quick test_edge_shapes;
    Alcotest.test_case "allocation canary (O(G), not O(GxD))" `Quick
      test_allocation_canary;
    Alcotest.test_case "extend-and-prune jobs parity" `Slow
      test_extend_prune_jobs_parity;
    Alcotest.test_case "stream rank jobs parity" `Quick test_stream_rank_jobs_parity;
    QCheck_alcotest.to_alcotest prop_product_matches_corr_with;
    QCheck_alcotest.to_alcotest prop_product_matches_split;
    QCheck_alcotest.to_alcotest prop_product_segmented_matches_whole;
    QCheck_alcotest.to_alcotest prop_model_product;
    Alcotest.test_case "absolute class sums == per-trace residual loop" `Quick
      test_absolute_pinned;
    QCheck_alcotest.to_alcotest prop_product_wide_range;
    Alcotest.test_case "product tile: wrapped products, bit 62 refused" `Quick
      test_product_top_bits;
  ]
