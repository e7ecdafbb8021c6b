(* Streaming static trace realignment: cross-correlation alignment with
   integer-shift correction.  See DESIGN.md sec 14.

   The naive scheme — correlate every trace against the mean of a few
   raw traces — fails on this victim: the mean-trace landscape has
   strongly negative autocorrelation at lags around +-2 samples, so a
   reference averaged over misaligned traces is smeared into something
   that correlates *better* with wrongly-shifted segments than with the
   true one.  Realignment therefore runs the classic two-pass scheme:

     pass 1  align every trace relative to one sharp anchor trace
             (trace 0), searching +-2*max_shift (relative shifts
             between two jittered traces span twice the jitter bound);
     pass 2  rebuild the reference as the mean of the pass-1-aligned
             windows — sharp now, and much less noisy than a single
             trace — and re-estimate every relative shift against it;
     anchor  the relative shifts are all offset by trace 0's own
             unknown shift s0; since acquisition jitter is zero-mean,
             s0 is recovered as minus the rounded mean relative shift
             over the whole campaign, and the final per-trace shift is
             clamped back to [-max_shift, +max_shift].

   A constant systematic offset shared by every trace is unobservable
   without a golden reference — the zero-mean assumption is the price
   of blind static alignment. *)

type stats = {
  traces : int;
  shifted : int;
  max_abs_shift : int;
  mean_abs_shift : float;
  shards_skipped : int;
}

let zero_stats =
  {
    traces = 0;
    shifted = 0;
    max_abs_shift = 0;
    mean_abs_shift = 0.;
    shards_skipped = 0;
  }

(* Relative shifts between two traces each jittered by up to max_shift
   span +-2*max_shift; the window must keep that much margin so every
   candidate segment stays in bounds. *)
let search_range max_shift = 2 * max_shift

let default_window ~max_shift ~width =
  if max_shift < 0 then invalid_arg "Align.default_window: max_shift < 0";
  let m = search_range max_shift in
  let lo = m and hi = width - 1 - m in
  if hi - lo + 1 < 2 then
    invalid_arg "Align.default_window: trace too narrow for this max_shift";
  (lo, hi)

let widest_max_shift ~up_to ~width =
  let rec go s =
    if s < 0 then None
    else
      match default_window ~max_shift:s ~width with
      | _ -> Some s
      | exception Invalid_argument _ -> go (s - 1)
  in
  go up_to

let check_window ~width (lo, hi) =
  if lo < 0 || hi >= width || hi - lo + 1 < 2 then
    invalid_arg "Align: window out of bounds or shorter than 2 samples"

let resolve_window ?window ~max_shift ~width () =
  match window with
  | None -> default_window ~max_shift ~width
  | Some ((lo, hi) as w) ->
      check_window ~width w;
      let m = search_range max_shift in
      if lo < m || hi > width - 1 - m then
        invalid_arg
          "Align: window must leave 2*max_shift samples of margin at each edge";
      w

let reference_of_rows ~window:(lo, hi) rows =
  let d = Array.length rows in
  if d = 0 then invalid_arg "Align.reference_of_rows: no rows";
  Array.iter (fun r -> check_window ~width:(Array.length r) (lo, hi)) rows;
  let len = hi - lo + 1 in
  let acc = Array.make len 0. in
  Array.iter
    (fun r ->
      for j = 0 to len - 1 do
        acc.(j) <- acc.(j) +. r.(lo + j)
      done)
    rows;
  let inv = 1. /. float_of_int d in
  Array.map (fun s -> s *. inv) acc

(* Candidate order 0, -1, +1, -2, +2, ...: a strictly-greater update
   rule then resolves score ties toward the smallest |shift| (and the
   negative one first), so the search is deterministic and the no-op
   shift wins on flat scores. *)
let candidates max_shift =
  let rec build s acc =
    if s > max_shift then List.rev acc else build (s + 1) (s :: -s :: acc)
  in
  build 1 [ 0 ]

let estimate ~reference ~lo ~max_shift row =
  if max_shift < 0 then invalid_arg "Align.estimate: max_shift < 0";
  let len = Array.length reference in
  if len < 2 then invalid_arg "Align.estimate: reference shorter than 2";
  let width = Array.length row in
  let seg = Array.make len 0. in
  let score s =
    let base = lo + s in
    if base < 0 || base + len > width then neg_infinity
    else begin
      Array.blit row base seg 0 len;
      let r = Stats.Pearson.corr reference seg in
      if Float.is_nan r then neg_infinity else r
    end
  in
  let best = ref 0 and best_score = ref (score 0) in
  List.iter
    (fun s ->
      if s <> 0 then
        let r = score s in
        if r > !best_score then begin
          best := s;
          best_score := r
        end)
    (candidates max_shift);
  !best

(* Matched-template estimation: when the absolute level of a few
   samples is predictable per trace (e.g. the loads of the known
   operand at the head of a multiplication window), the shift that
   minimises the squared residual against those predictions pins the
   trace's absolute offset — no reference trace, no anchor ambiguity.
   This is the only scheme that works on narrow windows: blind
   cross-correlation over 16 samples is swamped by per-trace data
   deviations (measured well below chance on this victim). *)
let estimate_matched ~template ~max_shift row =
  if max_shift < 0 then invalid_arg "Align.estimate_matched: max_shift < 0";
  if Array.length template = 0 then
    invalid_arg "Align.estimate_matched: empty template";
  let width = Array.length row in
  let score c =
    let n = ref 0 and sum = ref 0. in
    Array.iter
      (fun (j, level) ->
        let k = j + c in
        if k >= 0 && k < width then begin
          let e = row.(k) -. level in
          sum := !sum +. (e *. e);
          incr n
        end)
      template;
    if !n = 0 then neg_infinity else -.(!sum /. float_of_int !n)
  in
  let best = ref 0 and best_score = ref (score 0) in
  List.iter
    (fun s ->
      if s <> 0 then
        let r = score s in
        if r > !best_score then begin
          best := s;
          best_score := r
        end)
    (candidates max_shift);
  !best

let shift_samples ~fill ~shift row =
  if shift = 0 then row
  else
    let width = Array.length row in
    Array.init width (fun j ->
        let k = j + shift in
        if k >= 0 && k < width then row.(k) else fill)

(* Fold an array of per-trace shifts into aggregate stats. *)
let stats_of_shifts ?(skipped = 0) shifts =
  let traces = Array.length shifts in
  let shifted = ref 0 and max_abs = ref 0 and sum_abs = ref 0 in
  Array.iter
    (fun s ->
      let a = abs s in
      if a > 0 then incr shifted;
      if a > !max_abs then max_abs := a;
      sum_abs := !sum_abs + a)
    shifts;
  {
    traces;
    shifted = !shifted;
    max_abs_shift = !max_abs;
    mean_abs_shift =
      (if traces = 0 then 0. else float_of_int !sum_abs /. float_of_int traces);
    shards_skipped = skipped;
  }

let emit_stats obs st =
  Obs.count obs "align.shifts_applied" st.shifted;
  Obs.count obs "align.max_shift" st.max_abs_shift

(* The mean of the bootstrap rows' windows after pass-1 alignment to
   row 0: sharp (no smearing across misaligned rows), low-noise, and
   expressed in row 0's — still unanchored — frame.  The shifted window
   row.(lo+j+c) stays in bounds because the resolved window keeps
   2*max_shift margin and |c| <= 2*max_shift. *)
let bootstrap_reference ~lo ~hi ~max_shift rows =
  let range = search_range max_shift in
  let len = hi - lo + 1 in
  let ref1 = Array.sub rows.(0) lo len in
  let acc = Array.make len 0. in
  Array.iter
    (fun row ->
      let c = estimate ~reference:ref1 ~lo ~max_shift:range row in
      for j = 0 to len - 1 do
        acc.(j) <- acc.(j) +. row.(lo + j + c)
      done)
    rows;
  let inv = 1. /. float_of_int (Array.length rows) in
  Array.map (fun s -> s *. inv) acc

(* Zero-mean anchor: relative shifts are s_i - s0; the rounded mean
   over the campaign estimates -s0. *)
let anchor_of relative =
  let sum = Array.fold_left ( + ) 0 relative in
  int_of_float
    (Float.round (float_of_int sum /. float_of_int (Array.length relative)))

let clamp max_shift s = max (-max_shift) (min max_shift s)

let realign_rows ?ctx:(c = Attack.Ctx.default ()) ?(max_shift = 3) ?window ~fill rows =
  if max_shift < 0 then invalid_arg "Align.realign_rows: max_shift < 0";
  let d = Array.length rows in
  if d = 0 then (rows, zero_stats)
  else begin
    let obs = c.Attack.Ctx.obs in
    Obs.span obs "align.realign" ~fields:[ ("traces", Obs.Int d) ]
    @@ fun () ->
    let width = Array.length rows.(0) in
    let lo, hi = resolve_window ?window ~max_shift ~width () in
    let reference = bootstrap_reference ~lo ~hi ~max_shift rows in
    let range = search_range max_shift in
    let relative =
      Parallel.map_array ~jobs:c.Attack.Ctx.jobs
        (estimate ~reference ~lo ~max_shift:range)
        rows
    in
    let anchor = anchor_of relative in
    let shifts = Array.map (fun r -> clamp max_shift (r - anchor)) relative in
    let out =
      Parallel.map_array ~jobs:c.Attack.Ctx.jobs
        (fun i -> shift_samples ~fill ~shift:shifts.(i) rows.(i))
        (Array.init d Fun.id)
    in
    let st = stats_of_shifts shifts in
    emit_stats obs st;
    (out, st)
  end

let realign_matched ?ctx:(c = Attack.Ctx.default ()) ?(max_shift = 3) ~fill ~templates
    rows =
  if max_shift < 0 then invalid_arg "Align.realign_matched: max_shift < 0";
  let d = Array.length rows in
  if d <> Array.length templates then
    invalid_arg "Align.realign_matched: one template per row required";
  if d = 0 then (rows, zero_stats)
  else begin
    let obs = c.Attack.Ctx.obs in
    Obs.span obs "align.realign_matched" ~fields:[ ("traces", Obs.Int d) ]
    @@ fun () ->
    let shifts =
      Parallel.map_array ~jobs:c.Attack.Ctx.jobs
        (fun i -> estimate_matched ~template:templates.(i) ~max_shift rows.(i))
        (Array.init d Fun.id)
    in
    let out =
      Parallel.map_array ~jobs:c.Attack.Ctx.jobs
        (fun i -> shift_samples ~fill ~shift:shifts.(i) rows.(i))
        (Array.init d Fun.id)
    in
    let st = stats_of_shifts shifts in
    emit_stats obs st;
    (out, st)
  end

(* Realignment moves samples only: records decode verbatim, with no
   FFT(c) recompute, so a store of any target realigns the same way and
   re-encodes byte for byte where its shift is 0. *)
let raw_codec =
  { Attack.Dema.Stream.check = ignore; decode = (fun _ r -> Leakage.raw_of_record r) }

(* Every file of [src] but its manifest and shards — the key and
   campaign sidecars of whichever target recorded it. *)
let copy_sidecars reader ~src ~dst =
  let store_files =
    Tracestore.manifest_name
    :: List.init (Tracestore.Reader.shard_count reader) Tracestore.shard_name
  in
  Array.iter
    (fun name ->
      let path = Filename.concat src name in
      if not (List.mem name store_files || Sys.is_directory path) then
        let data = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
            Out_channel.output_string oc data))
    (Sys.readdir src)

(* First [reference_traces] rows of the store, for the in-memory
   bootstrap, read through the same feed (and corrupt-shard policy) as
   the two passes.  None on an empty store. *)
let bootstrap_rows ~on_corrupt ~prefetch ~reference_traces reader =
  if reference_traces < 1 then invalid_arg "Align: reference_traces < 1";
  let feed =
    Attack.Dema.Stream.shard_feed ?on_corrupt ?prefetch ~codec:raw_codec
      ~max_traces:reference_traces reader
  in
  Fun.protect ~finally:feed.Attack.Dema.Stream.close @@ fun () ->
  let rec loop acc =
    match feed.Attack.Dema.Stream.next () with
    | None -> List.rev acc
    | Some batch -> loop (batch :: acc)
  in
  match Array.concat (loop []) with
  | [||] -> None
  | traces -> Some (Array.map (fun (t : Leakage.trace) -> t.Leakage.samples) traces)

let realign_store ?ctx:(c = Attack.Ctx.default ()) ?on_corrupt ?prefetch
    ?(max_shift = 3) ?window ?(reference_traces = 64) ~src ~dst () =
  if max_shift < 0 then invalid_arg "Align.realign_store: max_shift < 0";
  let obs = c.Attack.Ctx.obs in
  Obs.span obs "align.realign_store"
    ~fields:[ ("src", Obs.Str src); ("dst", Obs.Str dst) ]
  @@ fun () ->
  let reader = Tracestore.Reader.open_store src in
  let meta = Tracestore.Reader.meta reader in
  let width = meta.Tracestore.width in
  let fill = meta.Tracestore.model.Tracestore.baseline in
  let lo, hi = resolve_window ?window ~max_shift ~width () in
  (* [f] on every decoded shard in shard order; the count of corrupt
     shards skipped.  Both passes see the same surviving shards — the
     store is immutable — so trace i of one pass is trace i of the
     other. *)
  let stream f =
    let feed =
      Attack.Dema.Stream.shard_feed ?on_corrupt ?prefetch ~codec:raw_codec reader
    in
    Fun.protect ~finally:feed.Attack.Dema.Stream.close @@ fun () ->
    let rec loop () =
      match feed.Attack.Dema.Stream.next () with
      | None -> ()
      | Some batch ->
          f batch;
          loop ()
    in
    loop ();
    feed.Attack.Dema.Stream.skipped ()
  in
  (* Pass A, before [dst] exists so that a refused source leaves nothing
     behind: stream the whole store once to estimate every relative
     shift (a handful of bytes per trace — the out-of-core property
     survives), then anchor. *)
  let shifts =
    match bootstrap_rows ~on_corrupt ~prefetch ~reference_traces reader with
    | None -> [||]
    | Some rows ->
        let reference = bootstrap_reference ~lo ~hi ~max_shift rows in
        let range = search_range max_shift in
        let acc = ref [] in
        let (_ : int) =
          stream (fun batch ->
              acc :=
                Parallel.map_array ~jobs:c.Attack.Ctx.jobs
                  (fun (t : Leakage.trace) ->
                    estimate ~reference ~lo ~max_shift:range t.Leakage.samples)
                  batch
                :: !acc)
        in
        let relative = Array.concat (List.rev !acc) in
        let anchor = anchor_of relative in
        Array.map (fun r -> clamp max_shift (r - anchor)) relative
  in
  (* Pass B: stream again and write the corrected campaign. *)
  let writer =
    Tracestore.Writer.create ~dir:dst ~n:meta.Tracestore.n ~width
      ~shard_traces:meta.Tracestore.shard_traces ~model:meta.Tracestore.model
  in
  let skipped =
    if shifts = [||] then 0
    else
      let i = ref 0 in
      stream (fun batch ->
          let base = !i in
          i := base + Array.length batch;
          Array.iter (Tracestore.Writer.append writer)
            (Parallel.map_array ~jobs:c.Attack.Ctx.jobs
               (fun k ->
                 let t = batch.(k) in
                 let s = shifts.(base + k) in
                 Leakage.to_record
                   (if s = 0 then t
                    else
                      {
                        t with
                        Leakage.samples = shift_samples ~fill ~shift:s t.Leakage.samples;
                      }))
               (Array.init (Array.length batch) Fun.id)))
  in
  Tracestore.Writer.close writer;
  copy_sidecars reader ~src ~dst;
  let st = stats_of_shifts ~skipped shifts in
  emit_stats obs st;
  st
