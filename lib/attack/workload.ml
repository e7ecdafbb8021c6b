let known_input_pairs ~n ~coeff ~count ~seed =
  let jobs = Parallel.default_jobs () in
  Parallel.map_array ~jobs
    (fun i ->
      let c = Falcon.Hash.to_point ~n (Printf.sprintf "%s/%d" seed i) in
      let cf = Fft.fft_of_int c in
      (cf.Fft.re.(coeff), cf.Fft.im.(coeff)))
    (Array.init count Fun.id)

let known_inputs ~n ~coeff ~component ~count ~seed =
  Array.map
    (fun (re, im) -> match component with `Re -> re | `Im -> im)
    (known_input_pairs ~n ~coeff ~count ~seed)

let mul_views model rng ~x ~known =
  {
    Recover.traces =
      Array.map (fun y -> Leakage.mul_trace model rng ~known:y ~secret:x) known;
    known;
  }

let mul_view_pair model rng ~x ~known_pairs =
  let k1 = Array.map fst known_pairs and k2 = Array.map snd known_pairs in
  (mul_views model rng ~x ~known:k1, mul_views model rng ~x ~known:k2)
