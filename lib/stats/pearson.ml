let corr xs ys =
  let n = Array.length xs in
  assert (n = Array.length ys);
  if n < 2 then 0.
  else begin
    let sx = ref 0. and sy = ref 0. and sxx = ref 0. and syy = ref 0. and sxy = ref 0. in
    for i = 0 to n - 1 do
      let x = xs.(i) and y = ys.(i) in
      sx := !sx +. x;
      sy := !sy +. y;
      sxx := !sxx +. (x *. x);
      syy := !syy +. (y *. y);
      sxy := !sxy +. (x *. y)
    done;
    let nf = float_of_int n in
    let cov = !sxy -. (!sx *. !sy /. nf) in
    let vx = !sxx -. (!sx *. !sx /. nf) in
    let vy = !syy -. (!sy *. !sy /. nf) in
    if vx <= 0. || vy <= 0. then 0. else cov /. sqrt (vx *. vy)
  end

(* Per-sample column statistics shared across all guesses of a sweep:
   computed once, then read-only — safe to share across domains. *)
type col_stats = { col : float array; sum : float; var_n : float }

let column_stats traces sample =
  let d = Array.length traces in
  let col = Array.make d 0. in
  let s = ref 0. and ss = ref 0. in
  for i = 0 to d - 1 do
    let v = traces.(i).(sample) in
    col.(i) <- v;
    s := !s +. v;
    ss := !ss +. (v *. v)
  done;
  let nf = float_of_int d in
  { col; sum = !s; var_n = !ss -. (!s *. !s /. nf) }

let corr_with { col; sum = sum_t; var_n = var_t } h =
  let d = Array.length col in
  let nf = float_of_int d in
  let sh = ref 0. and shh = ref 0. and sht = ref 0. in
  for i = 0 to d - 1 do
    let x = h.(i) in
    sh := !sh +. x;
    shh := !shh +. (x *. x);
    sht := !sht +. (x *. col.(i))
  done;
  let vh = !shh -. (!sh *. !sh /. nf) in
  let cov = !sht -. (!sh *. sum_t /. nf) in
  if vh <= 0. || var_t <= 0. then 0. else cov /. sqrt (vh *. var_t)

(* The per-sample trace sums and sums of squares — hence the column
   variances — are a function of the traces alone, so they are computed
   once, outside the guess loop, and each guess only pays its own
   moments and one cross-term pass. *)
let corr_matrix ~traces ~hyps =
  let d = Array.length traces in
  Array.iter
    (fun h ->
      if Array.length h <> d then
        invalid_arg
          (Printf.sprintf
             "Pearson.corr_matrix: a hypothesis row has %d entries for %d traces"
             (Array.length h) d))
    hyps;
  if d = 0 then Array.map (fun _ -> [||]) hyps
  else begin
    let t = Array.length traces.(0) in
    let st = Array.make t 0. and stt = Array.make t 0. in
    for i = 0 to d - 1 do
      let tr = traces.(i) in
      for j = 0 to t - 1 do
        let v = tr.(j) in
        st.(j) <- st.(j) +. v;
        stt.(j) <- stt.(j) +. (v *. v)
      done
    done;
    let nf = float_of_int d in
    let vt = Array.init t (fun j -> stt.(j) -. (st.(j) *. st.(j) /. nf)) in
    Array.map
      (fun h ->
        let sh = ref 0. and shh = ref 0. in
        for i = 0 to d - 1 do
          sh := !sh +. h.(i);
          shh := !shh +. (h.(i) *. h.(i))
        done;
        let sht = Array.make t 0. in
        for i = 0 to d - 1 do
          let hv = h.(i) and tr = traces.(i) in
          if hv <> 0. then
            for j = 0 to t - 1 do
              sht.(j) <- sht.(j) +. (hv *. tr.(j))
            done
        done;
        let vh = !shh -. (!sh *. !sh /. nf) in
        Array.init t (fun j ->
            let cov = sht.(j) -. (!sh *. st.(j) /. nf) in
            if vh <= 0. || vt.(j) <= 0. then 0. else cov /. sqrt (vh *. vt.(j))))
      hyps
  end

let steps ~step d =
  if step < 1 then invalid_arg "Pearson.steps: step must be >= 1";
  List.filter (fun n -> n mod step = 0 || n = d) (List.init d succ)

let evolution ~traces ~hyp ~sample ~at =
  let d = Array.length traces in
  if Array.length hyp <> d then invalid_arg "Pearson.evolution: one hypothesis per trace";
  ignore
    (List.fold_left
       (fun prev n ->
         if n <= prev || n > d then
           invalid_arg "Pearson.evolution: checkpoints must rise within 1..traces";
         n)
       0 at);
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and syy = ref 0. and sxy = ref 0. in
  let out = ref [] and at = ref at in
  for i = 0 to d - 1 do
    let x = hyp.(i) and y = traces.(i).(sample) in
    sx := !sx +. x;
    sy := !sy +. y;
    sxx := !sxx +. (x *. x);
    syy := !syy +. (y *. y);
    sxy := !sxy +. (x *. y);
    match !at with
    | n :: rest when n = i + 1 ->
        at := rest;
        let nf = float_of_int n in
        let cov = !sxy -. (!sx *. !sy /. nf) in
        let vx = !sxx -. (!sx *. !sx /. nf) in
        let vy = !syy -. (!sy *. !sy /. nf) in
        let r = if vx <= 0. || vy <= 0. || n < 2 then 0. else cov /. sqrt (vx *. vy) in
        out := (n, r) :: !out
    | _ -> ()
  done;
  List.rev !out

(* ---- the batched Pearson kernel ----

   One column, G hypotheses, no hypothesis vectors: each guess is
   combined with a per-trace prep table into the modelled *integer*
   intermediate on the fly and the tile computes [float (popcount v)]
   inline — in OCaml for split models, in C (tile_stubs.c, the
   hardware popcount) for the product model.  The accumulator state
   lives in the [t] record and survives across folds, which is what
   lets a streaming sweep feed the campaign one shard segment at a
   time.  Determinism contract: per row, the three accumulators (sum,
   sum of squares, cross term) receive exactly the additions of
   [corr_with], in global trace order — the four-row register tile
   only re-interleaves updates of *distinct* accumulators, so every
   correlation is bit-identical to the scalar path as long as segments
   arrive in order. *)
module Batch = struct
  type backend = Scalar | Batched

  module Fused = struct
    type t = { g : int; sh : float array; shh : float array; sht : float array }

    let create ~rows =
      if rows < 0 then invalid_arg "Pearson.Batch.Fused.create: negative row count";
      let zeros () = Array.make rows 0. in
      { g = rows; sh = zeros (); shh = zeros (); sht = zeros () }

    let check entry t ~guesses ~prepped ~col ~len =
      let fail what = invalid_arg ("Pearson.Batch.Fused." ^ entry ^ ": " ^ what) in
      if len < 0 then fail "negative segment length";
      if Array.length col < len then fail "segment longer than its column";
      if Array.length guesses <> t.g then fail "one guess per row required";
      if Array.length prepped < len then fail "segment longer than prepped table"

    (* Row r is [eval guesses.(r) prepped.(i)], the guess hoisted out of
       the inner loop: one indirect call (the integer [eval]) per
       element.  Four rows per register tile: each column and prep load
       is amortised over four guesses and the twelve accumulators are
       local float refs — unboxed by the native compiler (no flambda
       needed), so the hot loop allocates nothing.  Each accumulator
       receives its additions in trace order. *)
    let fold_split t ~eval ~guesses ~prepped ~col ~len =
      check "fold_split" t ~guesses ~prepped ~col ~len;
      let g = t.g in
      let sh = t.sh and shh = t.shh and sht = t.sht in
      let r = ref 0 in
      while !r + 4 <= g do
        let r0 = !r in
        let g0 = Array.unsafe_get guesses r0
        and g1 = Array.unsafe_get guesses (r0 + 1)
        and g2 = Array.unsafe_get guesses (r0 + 2)
        and g3 = Array.unsafe_get guesses (r0 + 3) in
        let a0 = ref (Array.unsafe_get sh r0)
        and q0 = ref (Array.unsafe_get shh r0)
        and c0 = ref (Array.unsafe_get sht r0) in
        let a1 = ref (Array.unsafe_get sh (r0 + 1))
        and q1 = ref (Array.unsafe_get shh (r0 + 1))
        and c1 = ref (Array.unsafe_get sht (r0 + 1)) in
        let a2 = ref (Array.unsafe_get sh (r0 + 2))
        and q2 = ref (Array.unsafe_get shh (r0 + 2))
        and c2 = ref (Array.unsafe_get sht (r0 + 2)) in
        let a3 = ref (Array.unsafe_get sh (r0 + 3))
        and q3 = ref (Array.unsafe_get shh (r0 + 3))
        and c3 = ref (Array.unsafe_get sht (r0 + 3)) in
        for i = 0 to len - 1 do
          let t = Array.unsafe_get col i in
          let p = Array.unsafe_get prepped i in
          let x0 = float_of_int (Bitops.popcount (eval g0 p)) in
          let x1 = float_of_int (Bitops.popcount (eval g1 p)) in
          let x2 = float_of_int (Bitops.popcount (eval g2 p)) in
          let x3 = float_of_int (Bitops.popcount (eval g3 p)) in
          a0 := !a0 +. x0; q0 := !q0 +. (x0 *. x0); c0 := !c0 +. (x0 *. t);
          a1 := !a1 +. x1; q1 := !q1 +. (x1 *. x1); c1 := !c1 +. (x1 *. t);
          a2 := !a2 +. x2; q2 := !q2 +. (x2 *. x2); c2 := !c2 +. (x2 *. t);
          a3 := !a3 +. x3; q3 := !q3 +. (x3 *. x3); c3 := !c3 +. (x3 *. t)
        done;
        sh.(r0) <- !a0; shh.(r0) <- !q0; sht.(r0) <- !c0;
        sh.(r0 + 1) <- !a1; shh.(r0 + 1) <- !q1; sht.(r0 + 1) <- !c1;
        sh.(r0 + 2) <- !a2; shh.(r0 + 2) <- !q2; sht.(r0 + 2) <- !c2;
        sh.(r0 + 3) <- !a3; shh.(r0 + 3) <- !q3; sht.(r0 + 3) <- !c3;
        r := r0 + 4
      done;
      while !r < g do
        let r0 = !r in
        let gu = Array.unsafe_get guesses r0 in
        let a = ref sh.(r0) and q = ref shh.(r0) and c = ref sht.(r0) in
        for i = 0 to len - 1 do
          let x =
            float_of_int (Bitops.popcount (eval gu (Array.unsafe_get prepped i)))
          in
          a := !a +. x;
          q := !q +. (x *. x);
          c := !c +. (x *. Array.unsafe_get col i)
        done;
        sh.(r0) <- !a;
        shh.(r0) <- !q;
        sht.(r0) <- !c;
        incr r
      done

    (* The product model's tiles live in tile_stubs.c: the same loops
       as [fold_split ~eval:( * )] and the profiled sweep's split tile,
       with [popcount] one instruction instead of a SWAR sequence.  Each
       returns whether some product had bit 62 set — OCaml's sign bit,
       which [Bitops.popcount] refuses — and the wrapper refuses it
       too. *)
    external product_tile :
      float array -> float array -> float array -> int array -> int array ->
      float array -> int -> bool = "fd_product_tile_byte" "fd_product_tile"
    [@@noalloc]

    external class_product_tile :
      float array -> float array -> int -> int array -> int array -> int -> bool
      = "fd_class_product_tile_byte" "fd_class_product_tile"
    [@@noalloc]

    let negative_product entry =
      invalid_arg
        ("Pearson.Batch.Fused." ^ entry ^ ": a product guess * prep has bit 62 set")

    let fold_product t ~guesses ~prepped ~col ~len =
      check "fold_product" t ~guesses ~prepped ~col ~len;
      if product_tile t.sh t.shh t.sht guesses prepped col len then
        negative_product "fold_product"

    let fold_class_product ~acc ~tbl ~nclass ~guesses ~prepped ~len =
      let fail what = invalid_arg ("Pearson.Batch.Fused.fold_class_product: " ^ what) in
      if len < 0 then fail "negative segment length";
      if nclass < 1 then fail "no class";
      if Array.length acc <> Array.length guesses then fail "one guess per row required";
      if Array.length prepped < len then fail "segment longer than prepped table";
      if Array.length tbl / nclass < len then fail "segment longer than class table";
      if class_product_tile acc tbl nclass guesses prepped len then
        negative_product "fold_class_product"

    (* Finalisation: exactly [corr_with]'s epilogue per row, with the
       column statistics supplied by the caller (they are global to the
       sweep even when the folds arrived as segments). *)
    let corr t ~n ~sum_t ~var_t =
      let nf = float_of_int n in
      Array.init t.g (fun r ->
          let s = t.sh.(r) in
          let vh = t.shh.(r) -. (s *. s /. nf) in
          let cov = t.sht.(r) -. (s *. sum_t /. nf) in
          if vh <= 0. || var_t <= 0. then 0. else cov /. sqrt (vh *. var_t))
  end
end
