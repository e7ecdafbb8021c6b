(* FIPS 202 / RFC 7539 test vectors anchor the hash and PRNG substrates. *)

let test_sha3_256_empty () =
  Alcotest.(check string) "SHA3-256(\"\")"
    "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (Keccak.hex (Keccak.sha3_256 ""))

let test_sha3_256_abc () =
  Alcotest.(check string) "SHA3-256(\"abc\")"
    "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    (Keccak.hex (Keccak.sha3_256 "abc"))

let test_shake256_empty () =
  Alcotest.(check string) "SHAKE256(\"\") 32 bytes"
    "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    (Keccak.hex (Keccak.shake256_digest "" 32))

let test_shake128_empty () =
  let t = Keccak.shake128 () in
  Keccak.absorb t "";
  Alcotest.(check string) "SHAKE128(\"\") 16 bytes" "7f9c2ba4e88f827d616045507605853e"
    (Keccak.hex (Keccak.squeeze t 16))

let test_incremental_absorb () =
  let one = Keccak.shake256 () in
  Keccak.absorb one "the quick brown fox jumps over the lazy dog";
  let two = Keccak.shake256 () in
  Keccak.absorb two "the quick brown fox ";
  Keccak.absorb two "jumps over the lazy dog";
  Alcotest.(check string) "chunked = one-shot" (Keccak.squeeze one 64) (Keccak.squeeze two 64)

let test_incremental_squeeze () =
  let one = Keccak.shake256 () in
  Keccak.absorb one "seed";
  let a = Keccak.squeeze one 10 and b = Keccak.squeeze one 300 in
  Alcotest.(check string) "streaming squeeze" (Keccak.shake256_digest "seed" 310) (a ^ b)

let test_long_input () =
  (* Exceeds the 136-byte rate to exercise mid-absorb permutation. *)
  let msg = String.make 1000 'x' in
  let d1 = Keccak.shake256_digest msg 32 in
  let d2 = Keccak.shake256_digest (msg ^ "y") 32 in
  Alcotest.(check bool) "distinct" true (d1 <> d2);
  Alcotest.(check int) "length" 32 (String.length d1)

let test_absorb_after_squeeze_rejected () =
  let t = Keccak.shake256 () in
  Keccak.absorb t "a";
  ignore (Keccak.squeeze t 1);
  Alcotest.check_raises "absorb after squeeze"
    (Invalid_argument "Keccak.absorb: already squeezing") (fun () ->
      Keccak.absorb t "b")

(* RFC 7539 section 2.3.2: ChaCha20 block with key 00..1f,
   nonce 000000090000004a00000000, counter 1. *)
let test_chacha20_rfc_vector () =
  let key = String.init 32 Char.chr in
  let nonce =
    String.concat ""
      (List.map
         (fun b -> String.make 1 (Char.chr b))
         [ 0x00; 0x00; 0x00; 0x09; 0x00; 0x00; 0x00; 0x4a; 0x00; 0x00; 0x00; 0x00 ])
  in
  let out = Prng.block ~key ~nonce ~counter:1 in
  Alcotest.(check string) "first 16 bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (Keccak.hex (String.sub out 0 16));
  Alcotest.(check string) "last 16 bytes" "b5129cd1de164eb9cbd083e8a2503c4e"
    (Keccak.hex (String.sub out 48 16))

let test_prng_determinism () =
  let a = Prng.of_seed "fixed seed" and b = Prng.of_seed "fixed seed" in
  for _ = 1 to 200 do
    Alcotest.(check int) "same byte stream" (Prng.byte a) (Prng.byte b)
  done;
  let c = Prng.of_seed "other seed" in
  let differs = ref false in
  for _ = 1 to 64 do
    if Prng.byte a <> Prng.byte c then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_ranges () =
  let t = Prng.of_seed "ranges" in
  for _ = 1 to 500 do
    let v = Prng.uniform_below t 12289 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 12289)
  done;
  for _ = 1 to 100 do
    let v = Prng.bits t 17 in
    Alcotest.(check bool) "17 bits" true (v >= 0 && v < 1 lsl 17)
  done

let test_prng_uniformity () =
  (* Chi-square on bytes: 256 cells, 25600 draws; bound ~ 3 sigma. *)
  let t = Prng.of_seed "uniformity" in
  let cells = Array.make 256 0 in
  let draws = 25600 in
  for _ = 1 to draws do
    let b = Prng.byte t in
    cells.(b) <- cells.(b) + 1
  done;
  let expect = float_of_int draws /. 256. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expect in
        acc +. (d *. d /. expect))
      0. cells
  in
  (* dof = 255, mean 255, sigma = sqrt(510) ~ 22.6 *)
  Alcotest.(check bool) "chi-square plausible" true (chi2 > 150. && chi2 < 400.)

(* A seeded generator's stream over 80 blocks: single bytes between the
   64-bit draws shift them off the 8-byte grid, so some straddle a block
   edge and take the refill inside the draw. *)
let test_prng_stream_golden () =
  let t = Prng.of_seed "stream golden" in
  let b = Buffer.create 6000 in
  let pos = ref 0 and straddles = ref 0 in
  while !pos < 80 * 64 do
    if !pos mod 11 = 3 || !pos mod 5 = 0 then begin
      Buffer.add_uint8 b (Prng.byte t);
      incr pos
    end
    else begin
      if !pos mod 64 > 56 then incr straddles;
      Buffer.add_int64_le b (Prng.u64 t);
      pos := !pos + 8
    end
  done;
  Alcotest.(check bool) "draws straddle block edges" true (!straddles >= 10);
  Alcotest.(check string) "stream digest" "3f60d0ab4a51c6c7070ebe8b63c5d6f6"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    Alcotest.test_case "SHA3-256 empty" `Quick test_sha3_256_empty;
    Alcotest.test_case "SHA3-256 abc" `Quick test_sha3_256_abc;
    Alcotest.test_case "SHAKE256 empty" `Quick test_shake256_empty;
    Alcotest.test_case "SHAKE128 empty" `Quick test_shake128_empty;
    Alcotest.test_case "incremental absorb" `Quick test_incremental_absorb;
    Alcotest.test_case "incremental squeeze" `Quick test_incremental_squeeze;
    Alcotest.test_case "long input" `Quick test_long_input;
    Alcotest.test_case "absorb-after-squeeze rejected" `Quick test_absorb_after_squeeze_rejected;
    Alcotest.test_case "ChaCha20 RFC 7539 vector" `Quick test_chacha20_rfc_vector;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
    Alcotest.test_case "prng stream golden" `Quick test_prng_stream_golden;
  ]
