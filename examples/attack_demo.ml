(* End-to-end reproduction of the paper's headline result on a toy ring
   size: EM traces of signing operations -> every coefficient of FFT(f)
   -> the private key -> a forged signature accepted by the victim's
   public key.

   Run with:  dune exec examples/attack_demo.exe
   Environment: FD_N (ring size, default 32), FD_TRACES (default 2500),
   FD_NOISE (Gaussian noise sigma, default 2.0). *)

let getenv_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let getenv_float name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let () =
  let n = getenv_int "FD_N" 32 in
  let count = getenv_int "FD_TRACES" 2500 in
  let noise = getenv_float "FD_NOISE" 2.0 in
  let model = { Leakage.default_model with noise_sigma = noise } in

  Printf.printf "== Victim setup: FALCON-%d ==\n%!" n;
  let sk, pk = Falcon.Scheme.keygen ~n ~seed:"attack demo victim" in

  Printf.printf "capturing %d signing traces (noise sigma %.1f)...\n%!" count noise;
  let t0 = Unix.gettimeofday () in
  let traces = Leakage.capture model ~seed:42 sk ~count in
  Printf.printf "  %.1f s, %d samples per trace\n%!"
    (Unix.gettimeofday () -. t0)
    (Array.length traces.(0).samples);

  Printf.printf "\n== Attack: divide-and-conquer over %d FFT(f) values ==\n%!" (2 * n);
  (* Evaluation mode: candidate sets contain the truth, its complete
     multiplication-alias class and random decoys (see DESIGN.md for why
     this exercises exactly the extend-and-prune logic; the exhaustive
     2^25/2^27 enumeration of the paper is available via
     Recover.Exhaustive). *)
  let strategy = Attack.Fullkey.sampled_strategy ~seed:0 sk.f_fft in
  let t0 = Unix.gettimeofday () in
  let res = Attack.Fullkey.recover_key ~traces ~h:pk.h strategy in
  Printf.printf "  %.1f s\n" (Unix.gettimeofday () -. t0);
  let ok = Attack.Fullkey.count_correct res.f_fft ~truth:sk.f_fft in
  Printf.printf "  bit-exact FFT(f) coefficients: %d / %d\n" ok (2 * n);
  Printf.printf "  f recovered exactly: %b\n" (res.f = sk.kp.f);

  match res.keypair with
  | None ->
      print_endline "  key reconstruction failed (try more traces: FD_TRACES=...)"
  | Some kp ->
      Printf.printf "  g = f h recovered: %b;  NTRU solve gave (F, G): %b\n"
        (kp.g = sk.kp.g)
        (Ntru.Ntrugen.verify_ntru kp.f kp.g kp.big_f kp.big_g);
      Printf.printf "\n== Forgery ==\n";
      let msg = "pay Mallory 1000000 dollars" in
      let sg = Attack.Fullkey.forge ~keypair:kp ~seed:"forger rng" msg in
      Printf.printf "  forged signature on %S\n" msg;
      Printf.printf "  victim's public key accepts it: %b\n"
        (Falcon.Scheme.verify pk msg sg)
