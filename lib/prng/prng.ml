(* IETF ChaCha20 (RFC 7539): 32-bit words, little-endian. *)

let word s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let mask32 = 0xFFFFFFFF

let[@inline] rotl32 x k = ((x lsl k) lor (x lsr (32 - k))) land mask32

(* The state words of block 0: constants, key, counter 0, nonce. *)
let initial_state ~key ~nonce =
  let init = Array.make 16 0 in
  init.(0) <- 0x61707865;
  init.(1) <- 0x3320646e;
  init.(2) <- 0x79622d32;
  init.(3) <- 0x6b206574;
  for i = 0 to 7 do
    init.(4 + i) <- word key (4 * i)
  done;
  for i = 0 to 2 do
    init.(13 + i) <- word nonce (4 * i)
  done;
  init

(* The block function: 20 rounds over the sixteen state words of [init]
   held in local variables, then the 64-byte keystream block written
   into [out].  Each quarter round on (a, b, c, d) is
     a += b; d ^= a; d <<<= 16;  c += d; b ^= c; b <<<= 12;
     a += b; d ^= a; d <<<= 8;   c += d; b ^= c; b <<<= 7
   with additions mod 2^32. *)
let core init out =
  let x0 = ref init.(0) and x1 = ref init.(1) and x2 = ref init.(2) and x3 = ref init.(3) in
  let x4 = ref init.(4) and x5 = ref init.(5) and x6 = ref init.(6) and x7 = ref init.(7) in
  let x8 = ref init.(8) and x9 = ref init.(9) and x10 = ref init.(10) and x11 = ref init.(11) in
  let x12 = ref init.(12) and x13 = ref init.(13) and x14 = ref init.(14) in
  let x15 = ref init.(15) in
  for _ = 1 to 10 do
    (* columns: (0 4 8 12) (1 5 9 13) (2 6 10 14) (3 7 11 15) *)
    x0 := (!x0 + !x4) land mask32; x12 := rotl32 (!x12 lxor !x0) 16;
    x8 := (!x8 + !x12) land mask32; x4 := rotl32 (!x4 lxor !x8) 12;
    x0 := (!x0 + !x4) land mask32; x12 := rotl32 (!x12 lxor !x0) 8;
    x8 := (!x8 + !x12) land mask32; x4 := rotl32 (!x4 lxor !x8) 7;
    x1 := (!x1 + !x5) land mask32; x13 := rotl32 (!x13 lxor !x1) 16;
    x9 := (!x9 + !x13) land mask32; x5 := rotl32 (!x5 lxor !x9) 12;
    x1 := (!x1 + !x5) land mask32; x13 := rotl32 (!x13 lxor !x1) 8;
    x9 := (!x9 + !x13) land mask32; x5 := rotl32 (!x5 lxor !x9) 7;
    x2 := (!x2 + !x6) land mask32; x14 := rotl32 (!x14 lxor !x2) 16;
    x10 := (!x10 + !x14) land mask32; x6 := rotl32 (!x6 lxor !x10) 12;
    x2 := (!x2 + !x6) land mask32; x14 := rotl32 (!x14 lxor !x2) 8;
    x10 := (!x10 + !x14) land mask32; x6 := rotl32 (!x6 lxor !x10) 7;
    x3 := (!x3 + !x7) land mask32; x15 := rotl32 (!x15 lxor !x3) 16;
    x11 := (!x11 + !x15) land mask32; x7 := rotl32 (!x7 lxor !x11) 12;
    x3 := (!x3 + !x7) land mask32; x15 := rotl32 (!x15 lxor !x3) 8;
    x11 := (!x11 + !x15) land mask32; x7 := rotl32 (!x7 lxor !x11) 7;
    (* diagonals: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14) *)
    x0 := (!x0 + !x5) land mask32; x15 := rotl32 (!x15 lxor !x0) 16;
    x10 := (!x10 + !x15) land mask32; x5 := rotl32 (!x5 lxor !x10) 12;
    x0 := (!x0 + !x5) land mask32; x15 := rotl32 (!x15 lxor !x0) 8;
    x10 := (!x10 + !x15) land mask32; x5 := rotl32 (!x5 lxor !x10) 7;
    x1 := (!x1 + !x6) land mask32; x12 := rotl32 (!x12 lxor !x1) 16;
    x11 := (!x11 + !x12) land mask32; x6 := rotl32 (!x6 lxor !x11) 12;
    x1 := (!x1 + !x6) land mask32; x12 := rotl32 (!x12 lxor !x1) 8;
    x11 := (!x11 + !x12) land mask32; x6 := rotl32 (!x6 lxor !x11) 7;
    x2 := (!x2 + !x7) land mask32; x13 := rotl32 (!x13 lxor !x2) 16;
    x8 := (!x8 + !x13) land mask32; x7 := rotl32 (!x7 lxor !x8) 12;
    x2 := (!x2 + !x7) land mask32; x13 := rotl32 (!x13 lxor !x2) 8;
    x8 := (!x8 + !x13) land mask32; x7 := rotl32 (!x7 lxor !x8) 7;
    x3 := (!x3 + !x4) land mask32; x14 := rotl32 (!x14 lxor !x3) 16;
    x9 := (!x9 + !x14) land mask32; x4 := rotl32 (!x4 lxor !x9) 12;
    x3 := (!x3 + !x4) land mask32; x14 := rotl32 (!x14 lxor !x3) 8;
    x9 := (!x9 + !x14) land mask32; x4 := rotl32 (!x4 lxor !x9) 7
  done;
  let put i x = Bytes.set_int32_le out (4 * i) (Int32.of_int (x + init.(i))) in
  put 0 !x0; put 1 !x1; put 2 !x2; put 3 !x3;
  put 4 !x4; put 5 !x5; put 6 !x6; put 7 !x7;
  put 8 !x8; put 9 !x9; put 10 !x10; put 11 !x11;
  put 12 !x12; put 13 !x13; put 14 !x14; put 15 !x15

let block ~key ~nonce ~counter =
  if String.length key <> 32 then invalid_arg "Prng.block: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Prng.block: nonce must be 12 bytes";
  let init = initial_state ~key ~nonce in
  init.(12) <- counter land mask32;
  let out = Bytes.create 64 in
  core init out;
  Bytes.unsafe_to_string out

(* A generator owns its state words and output block, and refills the
   block in place. *)
type t = {
  init : int array;
  buf : Bytes.t;
  mutable counter : int;
  mutable pos : int;
}

let create ~key ~nonce =
  if String.length key <> 32 then invalid_arg "Prng.create: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Prng.create: nonce must be 12 bytes";
  {
    init = initial_state ~key ~nonce;
    buf = Bytes.create 64;
    counter = 0;
    pos = 64;
  }

let of_seed seed =
  let material = Keccak.shake256_digest seed 44 in
  create ~key:(String.sub material 0 32) ~nonce:(String.sub material 32 12)

let refill t =
  t.init.(12) <- t.counter land mask32;
  core t.init t.buf;
  t.counter <- t.counter + 1;
  t.pos <- 0

let byte t =
  if t.pos >= 64 then refill t;
  let b = Char.code (Bytes.get t.buf t.pos) in
  t.pos <- t.pos + 1;
  b

let u64 t =
  if t.pos + 8 <= 64 then begin
    (* the next 8 bytes of the current block, little-endian, in one read *)
    let v = Bytes.get_int64_le t.buf t.pos in
    t.pos <- t.pos + 8;
    v
  end
  else begin
    (* straddles a block boundary: byte by byte, refilling on the way *)
    let acc = ref 0L in
    for i = 0 to 7 do
      acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
    done;
    !acc
  end

let bits t w =
  assert (w >= 0 && w <= 62);
  Int64.to_int (Int64.shift_right_logical (u64 t) (64 - w)) land ((1 lsl w) - 1)

let uniform_below t n =
  assert (n > 0);
  if n = 1 then 0
  else begin
    let w =
      let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
      go (n - 1) 0
    in
    let rec draw () =
      let v = bits t w in
      if v < n then v else draw ()
    in
    draw ()
  end
