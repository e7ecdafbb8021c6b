type spec = { window : int; nclass : int; npoi : int; ndim : int }

let default_spec ~window = { window; nclass = 65; npoi = 8; ndim = 3 }

type template = {
  target : int;
  pois : int array;
  counts : int array;
  grand : float array;
  means : float array array;
  proj : float array array;
  pmeans : float array array;
}

type store = {
  window : int;
  nclass : int;
  trained : int;
  templates : template array;
}

(* {2 Small dense symmetric linear algebra}

   The POI count is single-digit, so a cyclic Jacobi sweep is both the
   simplest and an entirely adequate eigensolver — and, unlike anything
   iterative-with-shifts, trivially deterministic. *)

let mat_copy a = Array.map Array.copy a

(* [jacobi a] diagonalises symmetric [a] in place (a copy), returning
   (eigenvalues, eigenvector columns as v.(row).(col)). *)
let jacobi a0 =
  let n = Array.length a0 in
  let a = mat_copy a0 in
  let v = Array.init n (fun i -> Array.init n (fun j -> if i = j then 1.0 else 0.0)) in
  let off () =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        s := !s +. (a.(i).(j) *. a.(i).(j))
      done
    done;
    !s
  in
  let frob =
    let s = ref 0.0 in
    Array.iter (Array.iter (fun x -> s := !s +. (x *. x))) a;
    sqrt !s
  in
  let tol = 1e-24 *. ((frob *. frob) +. 1.0) in
  let sweeps = ref 0 in
  while off () > tol && !sweeps < 64 do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = a.(p).(q) in
        if abs_float apq > 0.0 then begin
          let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
          let t =
            let s = if theta >= 0.0 then 1.0 else -1.0 in
            s /. (abs_float theta +. sqrt ((theta *. theta) +. 1.0))
          in
          let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
          let s = t *. c in
          for k = 0 to n - 1 do
            let akp = a.(k).(p) and akq = a.(k).(q) in
            a.(k).(p) <- (c *. akp) -. (s *. akq);
            a.(k).(q) <- (s *. akp) +. (c *. akq)
          done;
          for k = 0 to n - 1 do
            let apk = a.(p).(k) and aqk = a.(q).(k) in
            a.(p).(k) <- (c *. apk) -. (s *. aqk);
            a.(q).(k) <- (s *. apk) +. (c *. aqk)
          done;
          for k = 0 to n - 1 do
            let vkp = v.(k).(p) and vkq = v.(k).(q) in
            v.(k).(p) <- (c *. vkp) -. (s *. vkq);
            v.(k).(q) <- (s *. vkp) +. (c *. vkq)
          done
        end
      done
    done
  done;
  (Array.init n (fun i -> a.(i).(i)), v)

(* eigenvalue order: descending value, ties by ascending original index *)
let eigen_order vals =
  let idx = Array.init (Array.length vals) Fun.id in
  Array.sort
    (fun i j ->
      let c = compare vals.(j) vals.(i) in
      if c <> 0 then c else compare i j)
    idx;
  idx

let eigenvalues a =
  let vals, _ = jacobi a in
  let order = eigen_order vals in
  Array.map (fun i -> vals.(i)) order

(* {2 Training} *)

(* per-template streaming accumulators *)
type acc = {
  t_target : int;
  (* pass 1: per-class count / per-sample sum / per-sample sum of squares
     over the whole window *)
  a_count : int array;
  a_sum : float array array;
  a_sq : float array array;
  (* set between the passes *)
  mutable a_pois : int array;
  mutable a_means : float array array; (* nclass x npoi; absent -> grand *)
  mutable a_grand : float array;
  (* pass 2: pooled second moment at the POIs *)
  mutable a_m2 : float array array;
  mutable a_n2 : int;
}

let check_spec (s : spec) =
  if s.window < 1 then invalid_arg "Profile: window must be >= 1";
  if s.nclass < 2 then invalid_arg "Profile: need at least two classes";
  if s.npoi < 1 then invalid_arg "Profile: npoi must be >= 1";
  if s.ndim < 1 then invalid_arg "Profile: ndim must be >= 1"

let ridge = 1e-9

let finalize_template (spec : spec) acc =
  let nclass = spec.nclass in
  let npoi = Array.length acc.a_pois in
  let counts = acc.a_count in
  let n = Array.fold_left ( + ) 0 counts in
  let present = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 counts in
  if present < 2 then
    failwith
      (Printf.sprintf
         "Profile: target %d saw %d leakage class(es); a class-constant \
          intermediate cannot be profiled"
         acc.t_target present);
  let grand = acc.a_grand in
  let means = acc.a_means in
  (* pooled within-class covariance with a tiny ridge for invertibility *)
  let denom = float_of_int (max 1 (acc.a_n2 - present)) in
  let sw = Array.map (Array.map (fun x -> x /. denom)) acc.a_m2 in
  let tr = ref 0.0 in
  for j = 0 to npoi - 1 do
    tr := !tr +. sw.(j).(j)
  done;
  let eps = (ridge *. (!tr /. float_of_int npoi)) +. 1e-12 in
  for j = 0 to npoi - 1 do
    sw.(j).(j) <- sw.(j).(j) +. eps
  done;
  (* between-class scatter, count-weighted *)
  let sb = Array.make_matrix npoi npoi 0.0 in
  for c = 0 to nclass - 1 do
    if counts.(c) > 0 then begin
      let w = float_of_int counts.(c) /. float_of_int n in
      for j = 0 to npoi - 1 do
        let dj = means.(c).(j) -. grand.(j) in
        for k = 0 to npoi - 1 do
          sb.(j).(k) <- sb.(j).(k) +. (w *. dj *. (means.(c).(k) -. grand.(k)))
        done
      done
    end
  done;
  (* whiten Sw, diagonalise Sb in the whitened basis, keep the top r *)
  let wvals, wu = jacobi sw in
  let w1 = Array.make_matrix npoi npoi 0.0 in
  for j = 0 to npoi - 1 do
    let l = max wvals.(j) eps in
    let inv = 1.0 /. sqrt l in
    for i = 0 to npoi - 1 do
      w1.(i).(j) <- wu.(i).(j) *. inv
    done
  done;
  let m = Array.make_matrix npoi npoi 0.0 in
  for i = 0 to npoi - 1 do
    for j = 0 to npoi - 1 do
      let s = ref 0.0 in
      for a = 0 to npoi - 1 do
        for b = 0 to npoi - 1 do
          s := !s +. (w1.(a).(i) *. sb.(a).(b) *. w1.(b).(j))
        done
      done;
      m.(i).(j) <- !s
    done
  done;
  for i = 0 to npoi - 1 do
    for j = i + 1 to npoi - 1 do
      let s = 0.5 *. (m.(i).(j) +. m.(j).(i)) in
      m.(i).(j) <- s;
      m.(j).(i) <- s
    done
  done;
  let mvals, mv = jacobi m in
  let order = eigen_order mvals in
  let r = min spec.ndim (min npoi (present - 1)) in
  let proj = Array.make_matrix npoi r 0.0 in
  for d = 0 to r - 1 do
    let col = order.(d) in
    for i = 0 to npoi - 1 do
      let s = ref 0.0 in
      for a = 0 to npoi - 1 do
        s := !s +. (w1.(i).(a) *. mv.(a).(col))
      done;
      proj.(i).(d) <- !s
    done
  done;
  let project x =
    Array.init r (fun d ->
        let s = ref 0.0 in
        for i = 0 to npoi - 1 do
          s := !s +. (proj.(i).(d) *. (x.(i) -. grand.(i)))
        done;
        !s)
  in
  let pmeans =
    Array.init nclass (fun c ->
        if counts.(c) = 0 then Array.make r 0.0 else project means.(c))
  in
  {
    target = acc.t_target;
    pois = acc.a_pois;
    counts = Array.copy counts;
    grand;
    means;
    proj;
    pmeans;
  }

let train spec ~targets feed =
  check_spec spec;
  let { window; nclass; npoi; _ } = spec in
  let npoi = min npoi window in
  let uniq = List.sort_uniq compare (Array.to_list targets) in
  if uniq = [] then invalid_arg "Profile.train: no targets";
  List.iter
    (fun t ->
      if t < 0 || t >= window then
        invalid_arg (Printf.sprintf "Profile.train: target %d outside window %d" t window))
    uniq;
  let accs =
    List.map
      (fun t ->
        ( t,
          {
            t_target = t;
            a_count = Array.make nclass 0;
            a_sum = Array.make_matrix nclass window 0.0;
            a_sq = Array.make_matrix nclass window 0.0;
            a_pois = [||];
            a_means = [||];
            a_grand = [||];
            a_m2 = [||];
            a_n2 = 0;
          } ))
      uniq
  in
  let find_acc target =
    match List.assoc_opt target accs with
    | Some a -> a
    | None ->
        invalid_arg
          (Printf.sprintf "Profile.train: observation for undeclared target %d" target)
  in
  let check_obs ~base ~cls samples =
    if cls < 0 || cls >= nclass then
      invalid_arg (Printf.sprintf "Profile.train: class %d outside [0, %d)" cls nclass);
    if base < 0 || base + window > Array.length samples then
      invalid_arg
        (Printf.sprintf
           "Profile.train: window [%d, %d) overruns a %d-sample trace" base
           (base + window) (Array.length samples))
  in
  let trained = ref 0 in
  (* pass 1: class moments over the whole window *)
  feed (fun ~base ~target ~cls samples ->
      check_obs ~base ~cls samples;
      let a = find_acc target in
      a.a_count.(cls) <- a.a_count.(cls) + 1;
      incr trained;
      let sum = a.a_sum.(cls) and sq = a.a_sq.(cls) in
      for j = 0 to window - 1 do
        let x = samples.(base + j) in
        sum.(j) <- sum.(j) +. x;
        sq.(j) <- sq.(j) +. (x *. x)
      done);
  (* select POIs by SNR and freeze the class means *)
  List.iter
    (fun (_, a) ->
      let counts = a.a_count in
      let n = Array.fold_left ( + ) 0 counts in
      if n = 0 then
        failwith
          (Printf.sprintf "Profile: target %d received no profiling observations"
             a.t_target);
      let present = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 counts in
      let snr = Array.make window 0.0 in
      for j = 0 to window - 1 do
        let grand = ref 0.0 in
        for c = 0 to nclass - 1 do
          grand := !grand +. a.a_sum.(c).(j)
        done;
        let grand = !grand /. float_of_int n in
        let between = ref 0.0 and within = ref 0.0 in
        for c = 0 to nclass - 1 do
          if counts.(c) > 0 then begin
            let nc = float_of_int counts.(c) in
            let mu = a.a_sum.(c).(j) /. nc in
            between := !between +. (nc *. (mu -. grand) *. (mu -. grand));
            within := !within +. (a.a_sq.(c).(j) -. (nc *. mu *. mu))
          end
        done;
        let within = !within /. float_of_int (max 1 (n - present)) in
        let between = !between /. float_of_int (max 1 (present - 1)) in
        snr.(j) <- (if within > 0.0 then between /. within else if between > 0.0 then infinity else 0.0)
      done;
      let idx = Array.init window Fun.id in
      Array.sort
        (fun i j ->
          let c = compare snr.(j) snr.(i) in
          if c <> 0 then c else compare i j)
        idx;
      let pois = Array.sub idx 0 npoi in
      Array.sort compare pois;
      a.a_pois <- pois;
      let grand_full = Array.make window 0.0 in
      for c = 0 to nclass - 1 do
        for j = 0 to window - 1 do
          grand_full.(j) <- grand_full.(j) +. a.a_sum.(c).(j)
        done
      done;
      let grand = Array.map (fun p -> grand_full.(p) /. float_of_int n) pois in
      a.a_grand <- grand;
      a.a_means <-
        Array.init nclass (fun c ->
            if counts.(c) = 0 then Array.copy grand
            else
              Array.map
                (fun p -> a.a_sum.(c).(p) /. float_of_int counts.(c))
                pois);
      a.a_m2 <- Array.make_matrix npoi npoi 0.0)
    accs;
  (* pass 2: pooled covariance at the POIs *)
  feed (fun ~base ~target ~cls samples ->
      check_obs ~base ~cls samples;
      let a = find_acc target in
      let mu = a.a_means.(cls) in
      let pois = a.a_pois in
      let k = Array.length pois in
      a.a_n2 <- a.a_n2 + 1;
      let x = Array.init k (fun i -> samples.(base + pois.(i)) -. mu.(i)) in
      for i = 0 to k - 1 do
        let xi = x.(i) in
        let row = a.a_m2.(i) in
        for j = 0 to k - 1 do
          row.(j) <- row.(j) +. (xi *. x.(j))
        done
      done);
  List.iter
    (fun (_, a) ->
      if a.a_n2 <> Array.fold_left ( + ) 0 a.a_count then
        failwith
          (Printf.sprintf
             "Profile: target %d saw %d pass-2 observations against %d in pass 1 \
              — the feed must replay the same profiling set"
             a.t_target a.a_n2
             (Array.fold_left ( + ) 0 a.a_count)))
    accs;
  let templates =
    Array.of_list (List.map (fun (_, a) -> finalize_template { spec with npoi } a) accs)
  in
  { window; nclass; trained = !trained; templates }

let train_plan spec ~plan observations =
  let targets = Array.of_list (List.map (fun (_, target, _) -> target) plan) in
  train spec ~targets (fun add ->
      observations (fun x samples ->
          List.iter
            (fun (base, target, value) ->
              add ~base ~target ~cls:(Bitops.popcount (value x)) samples)
            plan))

(* {2 Scoring} *)

type point = { tpl : template; abs_pois : int array }

let template_at store off =
  let n = Array.length store.templates in
  let rec go i =
    if i >= n then None
    else if store.templates.(i).target = off then Some store.templates.(i)
    else go (i + 1)
  in
  go 0

let covers store ~sample = template_at store (sample mod store.window) <> None

let point store ~sample =
  let off = sample mod store.window in
  match template_at store off with
  | Some tpl ->
      let base = sample - off in
      { tpl; abs_pois = Array.map (fun p -> base + p) tpl.pois }
  | None ->
      failwith
        (Printf.sprintf
           "Profile: no template for window offset %d (sample %d) — train one \
            with `attack_cli profile` covering this part"
           off sample)

(* The unseen-class max visits the observed classes nearest-first and
   stops once [smax - 0.5 * d^2] — the most any class at distance
   [>= d] can reach, [smax] the row's best observed score — cannot beat
   the running best.  Exact: float subtraction is monotone, so no
   skipped candidate exceeds it, and NaN candidates are ignored either
   way. *)
let class_table store tpl cols ~len =
  let nclass = store.nclass in
  let npoi = Array.length tpl.pois in
  if Array.length cols <> npoi then
    invalid_arg "Profile.class_table: one column per point of interest required";
  if Array.exists (fun (c : float array) -> Array.length c < len) cols then
    invalid_arg "Profile.class_table: column shorter than the segment";
  let r = if npoi = 0 then 0 else Array.length tpl.proj.(0) in
  let proj = Array.init (npoi * r) (fun k -> tpl.proj.(k / r).(k mod r)) in
  let observed =
    Array.of_list (List.filter (fun c -> tpl.counts.(c) > 0) (List.init nclass Fun.id))
  in
  let unseen =
    Array.of_list (List.filter (fun c -> tpl.counts.(c) = 0) (List.init nclass Fun.id))
  in
  let nobs = Array.length observed in
  let pm = Array.init (nobs * r) (fun k -> tpl.pmeans.(observed.(k / r)).(k mod r)) in
  (* per unseen class, its observed classes nearest-first: [near] holds
     their indices in [observed], [pen] the matching [0.5 * d^2] *)
  let near = Array.make (Array.length unseen * nobs) 0 in
  let pen = Array.make (Array.length unseen * nobs) 0. in
  Array.iteri
    (fun u c ->
      let by_dist = Array.init nobs Fun.id in
      Array.stable_sort
        (fun a b -> compare (abs (c - observed.(a))) (abs (c - observed.(b))))
        by_dist;
      Array.iteri
        (fun j k ->
          let d = float_of_int (abs (c - observed.(k))) in
          near.((u * nobs) + j) <- k;
          pen.((u * nobs) + j) <- 0.5 *. d *. d)
        by_dist)
    unseen;
  let u = Array.make r 0. in
  let sc = Array.make nobs 0. in
  let out = Array.create_float (len * nclass) in
  for i = 0 to len - 1 do
    for d = 0 to r - 1 do
      let s = ref 0.0 in
      for k = 0 to npoi - 1 do
        s :=
          !s
          +. Array.unsafe_get proj ((k * r) + d)
             *. (Array.unsafe_get (Array.unsafe_get cols k) i -. Array.unsafe_get tpl.grand k)
      done;
      Array.unsafe_set u d !s
    done;
    let row = i * nclass in
    let smax = ref neg_infinity in
    for k = 0 to nobs - 1 do
      let s = ref 0.0 in
      for d = 0 to r - 1 do
        let e = Array.unsafe_get u d -. Array.unsafe_get pm ((k * r) + d) in
        s := !s -. (0.5 *. e *. e)
      done;
      let s = !s in
      Array.unsafe_set sc k s;
      Array.unsafe_set out (row + Array.unsafe_get observed k) s;
      if s > !smax then smax := s
    done;
    let smax = !smax in
    for v = 0 to Array.length unseen - 1 do
      let best = ref neg_infinity in
      let j = ref (v * nobs) in
      let stop = !j + nobs in
      while !j < stop && smax -. Array.unsafe_get pen !j > !best do
        let cand = Array.unsafe_get sc (Array.unsafe_get near !j) -. Array.unsafe_get pen !j in
        if cand > !best then best := cand;
        incr j
      done;
      Array.unsafe_set out (row + Array.unsafe_get unseen v) !best
    done
  done;
  out

(* {2 Persistence} *)

let magic = "FDTMPL01"

let buf_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Profile.encode: u32 out of range";
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let buf_f64 b x =
  let bits = Int64.bits_of_float x in
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done

let buf_floats b a = Array.iter (buf_f64 b) a
let buf_mat b m = Array.iter (buf_floats b) m

let encode store =
  let b = Buffer.create 4096 in
  buf_u32 b store.window;
  buf_u32 b store.nclass;
  buf_u32 b store.trained;
  buf_u32 b (Array.length store.templates);
  Array.iter
    (fun t ->
      let npoi = Array.length t.pois in
      let r = if npoi = 0 then 0 else Array.length t.proj.(0) in
      buf_u32 b t.target;
      buf_u32 b npoi;
      buf_u32 b r;
      Array.iter (buf_u32 b) t.pois;
      Array.iter (buf_u32 b) t.counts;
      buf_floats b t.grand;
      buf_mat b t.means;
      buf_mat b t.proj;
      buf_mat b t.pmeans)
    store.templates;
  let payload = Buffer.contents b in
  let out = Buffer.create (String.length payload + 16) in
  Buffer.add_string out magic;
  Buffer.add_string out payload;
  buf_u32 out (Tracestore.Crc32.digest_string payload);
  Buffer.contents out

type cursor = { data : string; mutable pos : int }

let fail_at cur fmt =
  Printf.ksprintf (fun m -> failwith (Printf.sprintf "template store: %s at byte %d" m cur.pos)) fmt

let need cur n what =
  if cur.pos + n > String.length cur.data then
    fail_at cur "truncated %s (%d bytes needed, %d remain)" what n
      (String.length cur.data - cur.pos)

let read_u32 cur what =
  need cur 4 what;
  let g i = Char.code cur.data.[cur.pos + i] in
  let v = g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24) in
  cur.pos <- cur.pos + 4;
  v

let read_f64 cur what =
  need cur 8 what;
  let bits = ref 0L in
  for i = 7 downto 0 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code cur.data.[cur.pos + i]))
  done;
  cur.pos <- cur.pos + 8;
  ignore what;
  Int64.float_of_bits !bits

let read_count cur ~max what =
  let v = read_u32 cur what in
  if v > max then fail_at cur "implausible %s %d (limit %d)" what v max;
  v

let read_floats cur n what =
  need cur (8 * n) what;
  Array.init n (fun _ -> read_f64 cur what)

let read_mat cur rows cols what =
  need cur (8 * rows * cols) what;
  Array.init rows (fun _ -> read_floats cur cols what)

let read_u32s cur n what =
  need cur (4 * n) what;
  Array.init n (fun _ -> read_u32 cur what)

let decode data =
  let mlen = String.length magic in
  if String.length data < mlen + 4 then failwith "template store: file too short";
  let got = String.sub data 0 mlen in
  if got <> magic then
    failwith
      (Printf.sprintf "template store: bad magic %S (want %S — not a template store?)" got magic);
  let payload = String.sub data mlen (String.length data - mlen - 4) in
  let crc_cur = { data; pos = String.length data - 4 } in
  let stored_crc = read_u32 crc_cur "trailing CRC" in
  let crc = Tracestore.Crc32.digest_string payload in
  if crc <> stored_crc then
    failwith
      (Printf.sprintf "template store: CRC mismatch (stored %08x, computed %08x) — corrupt file"
         stored_crc crc);
  let cur = { data = payload; pos = 0 } in
  let window = read_count cur ~max:1_000_000 "window" in
  let nclass = read_count cur ~max:4096 "class count" in
  let trained = read_u32 cur "training size" in
  let ntpl = read_count cur ~max:(String.length payload) "template count" in
  if window < 1 then fail_at cur "window must be >= 1";
  if nclass < 2 then fail_at cur "need at least two classes";
  let templates =
    Array.init ntpl (fun _ ->
        let target = read_u32 cur "target offset" in
        if target >= window then fail_at cur "target %d outside window %d" target window;
        let npoi = read_count cur ~max:window "POI count" in
        if npoi = 0 then fail_at cur "template for target %d has no points of interest" target;
        let r = read_count cur ~max:npoi "LDA dimension" in
        let pois = read_u32s cur npoi "POIs" in
        Array.iter
          (fun p -> if p >= window then fail_at cur "POI %d outside window %d" p window)
          pois;
        let counts = read_u32s cur nclass "class counts" in
        (* what [finalize_template] guarantees of every trained template *)
        let present = Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 counts in
        if present < 2 then
          fail_at cur "template for target %d observed %d class(es), training needs two"
            target present;
        if r < 1 || r > present - 1 then
          fail_at cur "template for target %d has LDA dimension %d outside 1 .. %d" target r
            (min npoi (present - 1));
        let grand = read_floats cur npoi "grand mean" in
        let means = read_mat cur nclass npoi "class means" in
        let proj = read_mat cur npoi r "projection" in
        let pmeans = read_mat cur nclass r "projected means" in
        { target; pois; counts; grand; means; proj; pmeans })
  in
  if cur.pos <> String.length payload then
    failwith
      (Printf.sprintf "template store: %d trailing bytes after the last template"
         (String.length payload - cur.pos));
  { window; nclass; trained; templates }

let save path store =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc (encode store)

let load path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let len = in_channel_length ic in
  decode (really_input_string ic len)

let describe store =
  Printf.sprintf "window %d, %d template(s), %d classes, trained on %d observations"
    store.window (Array.length store.templates) store.nclass store.trained
