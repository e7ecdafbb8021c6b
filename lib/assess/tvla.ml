type side = A | B

type result = {
  width : int;
  n_a : int;
  n_b : int;
  mean_a : float array;
  mean_b : float array;
  t1 : float array;
  t2 : float array;
}

let threshold = 4.5

(* One fixed chunk size for every path: chunk boundaries (and therefore
   the Pébay merge tree) depend only on the entry sequence, never on the
   worker count or on whether entries stream from memory or from store
   shards — the root of the bit-identical determinism guarantee. *)
let default_chunk = 256

module M = Stats.Welford.Moments

let fold_moments ?ctx:(c = Attack.Ctx.default ()) ?(chunk = default_chunk) ~width
    ~classify ~samples seq =
  if chunk < 1 then invalid_arg "Assess.Tvla: chunk must be positive";
  let jobs = c.Attack.Ctx.jobs in
  let fresh () = Array.init width (fun _ -> M.create ()) in
  let partials =
    Parallel.map_chunks ~jobs ~chunk
      ~map:(fun ci arr ->
        let a = fresh () and b = fresh () in
        Array.iteri
          (fun i x ->
            match classify ((ci * chunk) + i) x with
            | None -> ()
            | Some side ->
                let row = samples x in
                if Array.length row <> width then
                  invalid_arg
                    (Printf.sprintf
                       "Assess.Tvla: trace holds %d samples, campaign width is %d"
                       (Array.length row) width);
                let dst = match side with A -> a | B -> b in
                for j = 0 to width - 1 do
                  M.add dst.(j) row.(j)
                done)
          arr;
        (a, b))
      seq
  in
  List.fold_left
    (fun (a, b) (a', b') -> (Array.map2 M.merge a a', Array.map2 M.merge b b'))
    (fresh (), fresh ())
    partials

let welch_of_moments ma mb =
  Stats.Signif.welch_t ~mean_a:(M.mean ma) ~var_a:(M.variance ma) ~n_a:(M.count ma)
    ~mean_b:(M.mean mb) ~var_b:(M.variance mb) ~n_b:(M.count mb)

(* Centered-second-order t (Schneider–Moradi): compare the class means of
   the variable y = (x - mu)^2, whose population mean is m2/n and whose
   population variance is m4/n - (m2/n)^2 — both read off the same
   accumulator, no second pass. *)
let welch_cs2 ma mb =
  let e m = M.central2 m in
  let v m = Float.max 0. (M.central4 m -. (M.central2 m *. M.central2 m)) in
  Stats.Signif.welch_t ~mean_a:(e ma) ~var_a:(v ma) ~n_a:(M.count ma) ~mean_b:(e mb)
    ~var_b:(v mb) ~n_b:(M.count mb)

let assess ?ctx:(c = Attack.Ctx.default ()) ?chunk ~width ~classify ~samples seq =
  let obs = c.Attack.Ctx.obs in
  Obs.span obs "tvla.assess" ~fields:[ ("width", Obs.Int width) ] @@ fun () ->
  let a, b = fold_moments ~ctx:c ?chunk ~width ~classify ~samples seq in
  let r =
    {
      width;
      n_a = (if width = 0 then 0 else M.count a.(0));
      n_b = (if width = 0 then 0 else M.count b.(0));
      mean_a = Array.map M.mean a;
      mean_b = Array.map M.mean b;
      t1 = Array.init width (fun j -> welch_of_moments a.(j) b.(j));
      t2 = Array.init width (fun j -> welch_cs2 a.(j) b.(j));
    }
  in
  Obs.count obs "tvla.traces" (r.n_a + r.n_b);
  r

let fixed_vs_random _ (e : Campaign.entry) =
  match e.Campaign.cls with Campaign.Fixed -> Some A | Campaign.Random -> Some B

(* Null test: split the random class by global acquisition index parity —
   a labelling with no physical meaning, so any |t| > 4.5 is a false
   positive of the procedure itself. *)
let random_vs_random i (e : Campaign.entry) =
  match e.Campaign.cls with
  | Campaign.Fixed -> None
  | Campaign.Random -> Some (if i land 1 = 0 then A else B)

let entry_samples (e : Campaign.entry) = e.Campaign.samples

let entries_width entries =
  if Array.length entries = 0 then 0
  else Array.length entries.(0).Campaign.samples

let of_entries ?ctx ?chunk ~classify entries =
  assess ?ctx ?chunk ~width:(entries_width entries) ~classify
    ~samples:entry_samples (Array.to_seq entries)

let of_store ?ctx ?chunk ~classify reader =
  let width = (Tracestore.Reader.meta reader).Tracestore.width in
  assess ?ctx ?chunk ~width ~classify ~samples:entry_samples
    (Campaign.seq_of_store reader)

(* {2 Bivariate second order} *)

module W = Stats.Welford

let pair_stats ?ctx:(c = Attack.Ctx.default ()) ?(chunk = default_chunk) ~pairs ~mean_a
    ~mean_b ~classify ~samples seq =
  let np = Array.length pairs in
  if np = 0 then [||]
  else begin
    let jobs = c.Attack.Ctx.jobs in
    let fresh () = Array.init np (fun _ -> W.create ()) in
    let partials =
      Parallel.map_chunks ~jobs ~chunk
        ~map:(fun ci arr ->
          let a = fresh () and b = fresh () in
          Array.iteri
            (fun i x ->
              match classify ((ci * chunk) + i) x with
              | None -> ()
              | Some side ->
                  let row = samples x in
                  let mu, dst =
                    match side with A -> (mean_a, a) | B -> (mean_b, b)
                  in
                  Array.iteri
                    (fun p (j, k) ->
                      W.add dst.(p) ((row.(j) -. mu.(j)) *. (row.(k) -. mu.(k))))
                    pairs)
            arr;
          (a, b))
        seq
    in
    let a, b =
      List.fold_left
        (fun (a, b) (a', b') -> (Array.map2 W.merge a a', Array.map2 W.merge b b'))
        (fresh (), fresh ())
        partials
    in
    Array.init np (fun p ->
        Stats.Signif.welch_t ~mean_a:(W.mean a.(p)) ~var_a:(W.variance a.(p))
          ~n_a:(W.count a.(p)) ~mean_b:(W.mean b.(p)) ~var_b:(W.variance b.(p))
          ~n_b:(W.count b.(p)))
  end

let pairs_of_entries ?ctx ?chunk ~pairs ~mean_a ~mean_b ~classify entries =
  pair_stats ?ctx ?chunk ~pairs ~mean_a ~mean_b ~classify
    ~samples:entry_samples (Array.to_seq entries)

(* {2 Reading a t-trace} *)

let max_abs ?(lo = 0) ?hi t =
  let n = Array.length t in
  let hi = match hi with Some h -> min h (n - 1) | None -> n - 1 in
  if n = 0 || lo > hi then (lo, 0.)
  else begin
    let best = ref lo in
    for j = lo + 1 to hi do
      if Float.abs t.(j) > Float.abs t.(!best) then best := j
    done;
    (!best, Float.abs t.(!best))
  end
