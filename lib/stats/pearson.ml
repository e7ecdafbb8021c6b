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

(* Shared per-sample trace statistics: sums and sums of squares over the
   trace dimension, so each guess only pays one cross-term pass. *)
let trace_moments traces =
  let d = Array.length traces in
  assert (d > 0);
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
  (d, t, st, stt)

(* Per-sample column variances, hoisted out of the guess loop: in the
   G x T sweep they are a function of the traces alone, so computing
   them inside the per-guess closure repeated the same subtraction
   G times per sample. *)
let column_variances ~d ~st ~stt =
  let nf = float_of_int d in
  Array.init (Array.length st) (fun j -> stt.(j) -. (st.(j) *. st.(j) /. nf))

let corr_matrix ~traces ~hyps =
  let d, t, st, stt = trace_moments traces in
  let nf = float_of_int d in
  let vt = column_variances ~d ~st ~stt in
  Array.map
    (fun h ->
      assert (Array.length h = d);
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

let corr_at_sample ~traces ~hyps ~sample =
  let col = Array.map (fun tr -> tr.(sample)) traces in
  Array.map (fun h -> corr h col) hyps

let evolution ~traces ~hyp ~sample ~step =
  let d = Array.length traces in
  assert (step > 0 && Array.length hyp = d);
  let sx = ref 0. and sy = ref 0. and sxx = ref 0. and syy = ref 0. and sxy = ref 0. in
  let out = ref [] in
  for i = 0 to d - 1 do
    let x = hyp.(i) and y = traces.(i).(sample) in
    sx := !sx +. x;
    sy := !sy +. y;
    sxx := !sxx +. (x *. x);
    syy := !syy +. (y *. y);
    sxy := !sxy +. (x *. y);
    let n = i + 1 in
    if n mod step = 0 || n = d then begin
      let nf = float_of_int n in
      let cov = !sxy -. (!sx *. !sy /. nf) in
      let vx = !sxx -. (!sx *. !sx /. nf) in
      let vy = !syy -. (!sy *. !sy /. nf) in
      let r = if vx <= 0. || vy <= 0. || n < 2 then 0. else cov /. sqrt (vx *. vy) in
      out := (n, r) :: !out
    end
  done;
  List.rev !out

module Streaming = struct
  type t = { width : int; mutable n : int; cols : Welford.Cov.t array }

  let create ~width =
    if width < 0 then invalid_arg "Pearson.Streaming.create: negative width";
    { width; n = 0; cols = Array.init width (fun _ -> Welford.Cov.create ()) }

  let add t ~hyp row =
    if Array.length row <> t.width then
      invalid_arg
        (Printf.sprintf "Pearson.Streaming.add: row has %d samples, tracker width is %d"
           (Array.length row) t.width);
    t.n <- t.n + 1;
    for j = 0 to t.width - 1 do
      Welford.Cov.add t.cols.(j) hyp row.(j)
    done

  let count t = t.n
  let width t = t.width
  let corr t j = Welford.Cov.correlation t.cols.(j)
  let corr_all t = Array.init t.width (corr t)

  let merge a b =
    if a.width <> b.width then
      invalid_arg
        (Printf.sprintf "Pearson.Streaming.merge: widths %d and %d differ" a.width
           b.width);
    {
      width = a.width;
      n = a.n + b.n;
      cols = Array.init a.width (fun j -> Welford.Cov.merge a.cols.(j) b.cols.(j));
    }
end

(* ---- batched hypothesis-block kernel ----

   One column, G hypotheses: instead of one [hyp_vector] allocation and
   one [corr_with] pass per guess, a whole block of guesses lives in a
   flat Bigarray (row r = guess r's modelled leakage) and is scored in a
   single fused pass.  Determinism contract: for every row, the three
   accumulators (sum, sum of squares, cross term) receive exactly the
   additions of [corr_with], in the same trace order — the row-quad
   register blocking and the D-blocking only re-interleave updates of
   *distinct* accumulators, so every correlation is bit-identical to the
   scalar path at every block size. *)
module Batch = struct
  type backend = Scalar | Batched

  type hyp_block = {
    data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
    capacity : int;
    cols : int;
    mutable rows : int;
  }

  let create ~rows ~cols =
    if rows < 0 || cols < 0 then
      invalid_arg "Pearson.Batch.create: negative dimension";
    let data =
      Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (rows * cols)
    in
    Bigarray.Array1.fill data 0.;
    { data; capacity = rows; cols; rows }

  let rows b = b.rows
  let cols b = b.cols
  let capacity b = b.capacity

  let set_rows b r =
    if r < 0 || r > b.capacity then
      invalid_arg
        (Printf.sprintf "Pearson.Batch.set_rows: %d rows, capacity %d" r b.capacity);
    b.rows <- r

  let check b r i =
    if r < 0 || r >= b.rows || i < 0 || i >= b.cols then
      invalid_arg
        (Printf.sprintf "Pearson.Batch: index (%d, %d) outside %d x %d block" r i
           b.rows b.cols)

  let set b r i v =
    check b r i;
    Bigarray.Array1.unsafe_set b.data ((r * b.cols) + i) v

  let get b r i =
    check b r i;
    Bigarray.Array1.unsafe_get b.data ((r * b.cols) + i)

  let unsafe_set b r i v = Bigarray.Array1.unsafe_set b.data ((r * b.cols) + i) v

  let of_rows ?cols rows_arr =
    let g = Array.length rows_arr in
    let d =
      match cols with
      | Some c -> c
      | None -> if g = 0 then 0 else Array.length rows_arr.(0)
    in
    let b = create ~rows:g ~cols:d in
    Array.iteri
      (fun r row ->
        if Array.length row <> d then
          invalid_arg "Pearson.Batch.of_rows: ragged hypothesis rows";
        for i = 0 to d - 1 do
          unsafe_set b r i row.(i)
        done)
      rows_arr;
    b

  let row b r =
    if r < 0 || r >= b.rows then invalid_arg "Pearson.Batch.row: row out of range";
    Array.init b.cols (fun i -> Bigarray.Array1.unsafe_get b.data ((r * b.cols) + i))

  (* Column tile kept small enough for L1 while every row of the block
     streams over it; 2048 samples = 16 kB of column data. *)
  let default_dblock = 2048

  let corr_block ?(dblock = default_dblock) { col; sum = sum_t; var_n = var_t } blk =
    if dblock < 1 then invalid_arg "Pearson.Batch.corr_block: dblock must be >= 1";
    let d = blk.cols and g = blk.rows in
    if Array.length col <> d then
      invalid_arg
        (Printf.sprintf "Pearson.Batch.corr_block: column has %d traces, block %d"
           (Array.length col) d);
    let nf = float_of_int d in
    let data = blk.data in
    let sh = Array.make g 0. and shh = Array.make g 0. and sht = Array.make g 0. in
    (* Four rows per register tile: each column load is amortised over
       four guesses and the twelve accumulators are local float refs —
       unboxed by the native compiler (no flambda needed), so the hot
       loop allocates nothing.  Each accumulator receives exactly its
       corr_with additions in trace order, so the result is bit-identical
       for every tiling. *)
    let d0 = ref 0 in
    while !d0 < d do
      let lo = !d0 in
      let hi = min d (lo + dblock) in
      let r = ref 0 in
      while !r + 4 <= g do
        let r0 = !r in
        let b0 = r0 * d and b1 = (r0 + 1) * d and b2 = (r0 + 2) * d
        and b3 = (r0 + 3) * d in
        let a0 = ref sh.(r0) and q0 = ref shh.(r0) and c0 = ref sht.(r0) in
        let a1 = ref sh.(r0 + 1) and q1 = ref shh.(r0 + 1) and c1 = ref sht.(r0 + 1) in
        let a2 = ref sh.(r0 + 2) and q2 = ref shh.(r0 + 2) and c2 = ref sht.(r0 + 2) in
        let a3 = ref sh.(r0 + 3) and q3 = ref shh.(r0 + 3) and c3 = ref sht.(r0 + 3) in
        for i = lo to hi - 1 do
          let t = Array.unsafe_get col i in
          let x0 = Bigarray.Array1.unsafe_get data (b0 + i) in
          let x1 = Bigarray.Array1.unsafe_get data (b1 + i) in
          let x2 = Bigarray.Array1.unsafe_get data (b2 + i) in
          let x3 = Bigarray.Array1.unsafe_get data (b3 + i) in
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
        let base = r0 * d in
        let a = ref sh.(r0) and q = ref shh.(r0) and c = ref sht.(r0) in
        for i = lo to hi - 1 do
          let x = Bigarray.Array1.unsafe_get data (base + i) in
          a := !a +. x;
          q := !q +. (x *. x);
          c := !c +. (x *. Array.unsafe_get col i)
        done;
        sh.(r0) <- !a;
        shh.(r0) <- !q;
        sht.(r0) <- !c;
        incr r
      done;
      d0 := hi
    done;
    Array.init g (fun r ->
        let vh = shh.(r) -. (sh.(r) *. sh.(r) /. nf) in
        let cov = sht.(r) -. (sh.(r) *. sum_t /. nf) in
        if vh <= 0. || var_t <= 0. then 0. else cov /. sqrt (vh *. var_t))

  (* ---- fused hypothesis/correlation kernel ----

     The blocked kernel above still pays a G x D Bigarray fill per
     (slice, part).  The fused kernel skips the block entirely: a row
     generator produces the modelled *integer* intermediate on the fly
     and the tile computes [float (popcount v)] inline, so the
     hypothesis floats are never materialised anywhere.  The accumulator
     state lives in the [t] record and survives across [fold] calls,
     which is what lets a streaming sweep feed the campaign one shard
     segment at a time and still produce bit-identical correlations: the
     per-row accumulators see exactly the additions of [corr_with], in
     global trace order, as long as segments arrive in order. *)
  module Fused = struct
    type t = {
      g : int;
      k : int;
      sh : float array;
      shh : float array;
      sht : float array;  (* column-major: index c * g + r *)
    }

    let create ~rows ~ncols =
      if rows < 0 || ncols < 1 then
        invalid_arg "Pearson.Batch.Fused.create: invalid shape";
      {
        g = rows;
        k = ncols;
        sh = Array.make rows 0.;
        shh = Array.make rows 0.;
        sht = Array.make (rows * ncols) 0.;
      }

    let rows t = t.g
    let ncols t = t.k

    let check_cols t cols len =
      if len < 0 then invalid_arg "Pearson.Batch.Fused: negative segment length";
      if Array.length cols <> t.k then
        invalid_arg
          (Printf.sprintf "Pearson.Batch.Fused: %d columns for a %d-column accumulator"
             (Array.length cols) t.k);
      Array.iter
        (fun c ->
          if Array.length c < len then
            invalid_arg "Pearson.Batch.Fused: segment longer than its columns")
        cols

    (* Single-column four-row register tile, mirroring [corr_block]: the
       twelve accumulators are local float refs (unboxed natively), and
       each receives its additions in trace order. *)
    let fold1 t ~gen ~col ~len =
      let g = t.g in
      let sh = t.sh and shh = t.shh and sht = t.sht in
      let r = ref 0 in
      while !r + 4 <= g do
        let r0 = !r in
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
          let x0 = float_of_int (Bitops.popcount (gen r0 i)) in
          let x1 = float_of_int (Bitops.popcount (gen (r0 + 1) i)) in
          let x2 = float_of_int (Bitops.popcount (gen (r0 + 2) i)) in
          let x3 = float_of_int (Bitops.popcount (gen (r0 + 3) i)) in
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
        let a = ref sh.(r0) and q = ref shh.(r0) and c = ref sht.(r0) in
        for i = 0 to len - 1 do
          let x = float_of_int (Bitops.popcount (gen r0 i)) in
          a := !a +. x;
          q := !q +. (x *. x);
          c := !c +. (x *. Array.unsafe_get col i)
        done;
        sh.(r0) <- !a;
        shh.(r0) <- !q;
        sht.(r0) <- !c;
        incr r
      done

    (* Generic multi-column path (consecutive parts sharing one model):
       the hypothesis moments are computed once and only the cross term
       is per column — bit-identical to scoring each column separately
       because [sh]/[shh] receive the very same additions either way. *)
    let foldk t ~gen ~cols ~len =
      let g = t.g and k = t.k in
      let sh = t.sh and shh = t.shh and sht = t.sht in
      for r0 = 0 to g - 1 do
        let a = ref (Array.unsafe_get sh r0) and q = ref (Array.unsafe_get shh r0) in
        let acc = Array.init k (fun c -> Array.unsafe_get sht ((c * g) + r0)) in
        for i = 0 to len - 1 do
          let x = float_of_int (Bitops.popcount (gen r0 i)) in
          a := !a +. x;
          q := !q +. (x *. x);
          for c = 0 to k - 1 do
            Array.unsafe_set acc c
              (Array.unsafe_get acc c
              +. (x *. Array.unsafe_get (Array.unsafe_get cols c) i))
          done
        done;
        Array.unsafe_set sh r0 !a;
        Array.unsafe_set shh r0 !q;
        for c = 0 to k - 1 do
          Array.unsafe_set sht ((c * g) + r0) acc.(c)
        done
      done

    let fold t ~gen ~cols ~len =
      check_cols t cols len;
      if t.k = 1 then fold1 t ~gen ~col:cols.(0) ~len else foldk t ~gen ~cols ~len

    (* Split-model fast path: row r is [eval guesses.(r) prepped.(i)].
       Hoisting the guess out of the inner loop leaves one indirect call
       (the integer [eval]) per element — no per-element row-generator
       closure.  Produces exactly the [fold] additions whenever
       [eval g prepped.(i) = gen r i] (integer equality), so the two
       entries are interchangeable bit for bit. *)
    let fold_split t ~eval ~guesses ~prepped ~cols ~len =
      if Array.length guesses <> t.g then
        invalid_arg "Pearson.Batch.Fused.fold_split: one guess per row required";
      if Array.length prepped < len then
        invalid_arg "Pearson.Batch.Fused.fold_split: segment longer than prepped table";
      check_cols t cols len;
      if t.k <> 1 then
        fold t
          ~gen:(fun r i ->
            eval (Array.unsafe_get guesses r) (Array.unsafe_get prepped i))
          ~cols ~len
      else begin
        let col = cols.(0) in
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
      end

    (* Finalisation: exactly [corr_with]'s epilogue per row, with the
       column statistics supplied by the caller (they are global to the
       sweep even when the folds arrived as segments). *)
    let corr t ~index ~n ~sum_t ~var_t =
      if index < 0 || index >= t.k then
        invalid_arg "Pearson.Batch.Fused.corr: column index out of range";
      let nf = float_of_int n in
      let base = index * t.g in
      Array.init t.g (fun r ->
          let s = t.sh.(r) in
          let vh = t.shh.(r) -. (s *. s /. nf) in
          let cov = t.sht.(base + r) -. (s *. sum_t /. nf) in
          if vh <= 0. || var_t <= 0. then 0. else cov /. sqrt (vh *. var_t))
  end

  let corr_matrix_blocked ~traces blk =
    let d = Array.length traces in
    if d <> blk.cols then
      invalid_arg
        (Printf.sprintf
           "Pearson.Batch.corr_matrix_blocked: %d traces, block has %d columns" d
           blk.cols);
    if d = 0 then Array.make blk.rows [||]
    else begin
      let d, t, st, stt = trace_moments traces in
      let nf = float_of_int d in
      let vt = column_variances ~d ~st ~stt in
      let data = blk.data in
      Array.init blk.rows (fun r ->
          let base = r * blk.cols in
          let sh = ref 0. and shh = ref 0. in
          for i = 0 to d - 1 do
            let hv = Bigarray.Array1.unsafe_get data (base + i) in
            sh := !sh +. hv;
            shh := !shh +. (hv *. hv)
          done;
          let sht = Array.make t 0. in
          for i = 0 to d - 1 do
            let hv = Bigarray.Array1.unsafe_get data (base + i) in
            if hv <> 0. then begin
              let tr = traces.(i) in
              for j = 0 to t - 1 do
                sht.(j) <- sht.(j) +. (hv *. Array.unsafe_get tr j)
              done
            end
          done;
          let vh = !shh -. (!sh *. !sh /. nf) in
          Array.init t (fun j ->
              let cov = sht.(j) -. (!sh *. st.(j) /. nf) in
              if vh <= 0. || vt.(j) <= 0. then 0. else cov /. sqrt (vh *. vt.(j))))
    end
end

let best_sample r =
  let best = ref 0 in
  Array.iteri (fun j v -> if Float.abs v > Float.abs r.(!best) then best := j) r;
  (!best, r.(!best))

let rank_guesses r =
  let idx = Array.init (Array.length r) (fun i -> i) in
  Array.sort (fun a b -> compare (Float.abs r.(b)) (Float.abs r.(a))) idx;
  idx
