let kp = lazy (Ntru.Ntrugen.keygen ~n:32 ~seed:"keycodec key")

let pk () =
  let kp = Lazy.force kp in
  { Falcon.Scheme.params = Falcon.Params.make kp.n; h = kp.h }

let test_public_roundtrip () =
  let pk = pk () in
  let enc = Falcon.Keycodec.encode_public pk in
  Alcotest.(check int) "length" (Falcon.Keycodec.public_bytes 32) (String.length enc);
  match Falcon.Keycodec.decode_public enc with
  | None -> Alcotest.fail "decode failed"
  | Some pk' ->
      Alcotest.(check bool) "h roundtrips" true (pk'.h = pk.h);
      Alcotest.(check int) "n" 32 pk'.params.n

let test_public_rejects_garbage () =
  Alcotest.(check bool) "empty" true (Falcon.Keycodec.decode_public "" = None);
  Alcotest.(check bool) "wrong header type" true
    (Falcon.Keycodec.decode_public "\x55abcdef" = None);
  Alcotest.(check bool) "bad logn" true (Falcon.Keycodec.decode_public "\x00" = None);
  let pk = pk () in
  let enc = Falcon.Keycodec.encode_public pk in
  Alcotest.(check bool) "truncated" true
    (Falcon.Keycodec.decode_public (String.sub enc 0 (String.length enc - 1)) = None);
  Alcotest.(check bool) "padded" true (Falcon.Keycodec.decode_public (enc ^ "x") = None)

let test_secret_roundtrip () =
  let kp = Lazy.force kp in
  let enc = Falcon.Keycodec.encode_secret kp in
  match Falcon.Keycodec.decode_secret enc with
  | None -> Alcotest.fail "decode failed"
  | Some kp' ->
      Alcotest.(check bool) "f" true (kp'.f = kp.f);
      Alcotest.(check bool) "g" true (kp'.g = kp.g);
      Alcotest.(check bool) "F" true (kp'.big_f = kp.big_f);
      Alcotest.(check bool) "G" true (kp'.big_g = kp.big_g);
      Alcotest.(check bool) "h recomputed" true (kp'.h = kp.h)

let test_secret_rejects_tampering () =
  let kp = Lazy.force kp in
  let enc = Falcon.Keycodec.encode_secret kp in
  (* flipping a bit inside f breaks the NTRU equation check *)
  let b = Bytes.of_string enc in
  Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 0x08));
  Alcotest.(check bool) "tampered key rejected" true
    (Falcon.Keycodec.decode_secret (Bytes.to_string b) = None)

let test_secret_decoded_key_signs () =
  let kp = Lazy.force kp in
  let enc = Falcon.Keycodec.encode_secret kp in
  match Falcon.Keycodec.decode_secret enc with
  | None -> Alcotest.fail "decode failed"
  | Some kp' ->
      let sk = Falcon.Scheme.secret_of_keypair kp' in
      let pk = pk () in
      let sg = Falcon.Scheme.sign ~rng:(Prng.of_seed "kc sign") sk "hello" in
      Alcotest.(check bool) "decoded key signs validly" true
        (Falcon.Scheme.verify pk "hello" sg)

let test_signature_roundtrip () =
  let kp = Lazy.force kp in
  let sk = Falcon.Scheme.secret_of_keypair kp in
  let p = sk.params in
  let sg = Falcon.Scheme.sign ~rng:(Prng.of_seed "kc sig") sk "msg" in
  let enc = Falcon.Keycodec.encode_signature p sg in
  Alcotest.(check int) "fixed total length" p.sig_bytelen (String.length enc);
  (match Falcon.Keycodec.decode_signature p enc with
  | None -> Alcotest.fail "decode failed"
  | Some sg' ->
      Alcotest.(check bool) "roundtrip" true
        (sg'.salt = sg.salt && sg'.body = sg.body));
  Alcotest.(check bool) "wrong length rejected" true
    (Falcon.Keycodec.decode_signature p (enc ^ "!") = None);
  let b = Bytes.of_string enc in
  Bytes.set b 0 '\x77';
  Alcotest.(check bool) "wrong header rejected" true
    (Falcon.Keycodec.decode_signature p (Bytes.to_string b) = None)

let prop_public_roundtrip_random_h =
  QCheck.Test.make ~count:30 ~name:"public key roundtrips for random h"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Stats.Rng.create ~seed in
      let n = 16 in
      let h = Array.init n (fun _ -> Stats.Rng.int_below rng Zq.q) in
      let pk = { Falcon.Scheme.params = Falcon.Params.make n; h } in
      match Falcon.Keycodec.decode_public (Falcon.Keycodec.encode_public pk) with
      | Some pk' -> pk'.h = h
      | None -> false)

let test_secret_rejects_trailing_bytes () =
  let enc = Falcon.Keycodec.encode_secret (Lazy.force kp) in
  Alcotest.(check bool) "encoding decodes" true
    (Falcon.Keycodec.decode_secret enc <> None);
  List.iter
    (fun tail ->
      Alcotest.(check bool) (Printf.sprintf "%S appended" tail) true
        (Falcon.Keycodec.decode_secret (enc ^ tail) = None))
    [ "\000"; "trailing" ]

(* Every decoder is total: each strict prefix of an encoding, and 5 000
   seeded single-byte xors of it, decode to [None] or a value and never
   raise. *)
let test_decoders_total () =
  let kp = Lazy.force kp in
  let sk = Falcon.Scheme.secret_of_keypair kp in
  let p = sk.params in
  let sg = Falcon.Scheme.sign ~rng:(Prng.of_seed "kc sweep") sk "sweep" in
  let rng = Stats.Rng.create ~seed:41 in
  List.iter
    (fun (what, enc, decode) ->
      let total how s =
        match decode s with
        | () -> ()
        | exception e -> Alcotest.failf "%s, %s: raised %s" what how (Printexc.to_string e)
      in
      for len = 0 to String.length enc - 1 do
        total (Printf.sprintf "%d-byte prefix" len) (String.sub enc 0 len)
      done;
      for _ = 1 to 5000 do
        let b = Bytes.of_string enc in
        let i = Stats.Rng.int_below rng (Bytes.length b) in
        let x = 1 + Stats.Rng.int_below rng 255 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
        total (Printf.sprintf "byte %d xor %#x" i x) (Bytes.to_string b)
      done)
    [
      ( "public key",
        Falcon.Keycodec.encode_public (pk ()),
        fun s -> ignore (Falcon.Keycodec.decode_public s) );
      ( "secret key",
        Falcon.Keycodec.encode_secret kp,
        fun s -> ignore (Falcon.Keycodec.decode_secret s) );
      ( "signature",
        Falcon.Keycodec.encode_signature p sg,
        fun s -> ignore (Falcon.Keycodec.decode_signature p s) );
    ]

let suite =
  [
    Alcotest.test_case "public roundtrip" `Quick test_public_roundtrip;
    Alcotest.test_case "public rejects garbage" `Quick test_public_rejects_garbage;
    Alcotest.test_case "secret roundtrip" `Quick test_secret_roundtrip;
    Alcotest.test_case "secret rejects tampering" `Quick test_secret_rejects_tampering;
    Alcotest.test_case "decoded key signs" `Quick test_secret_decoded_key_signs;
    Alcotest.test_case "signature roundtrip" `Quick test_signature_roundtrip;
    QCheck_alcotest.to_alcotest prop_public_roundtrip_random_h;
    Alcotest.test_case "secret rejects trailing bytes" `Quick
      test_secret_rejects_trailing_bytes;
    Alcotest.test_case "decoders total over prefixes and byte xors" `Quick
      test_decoders_total;
  ]
