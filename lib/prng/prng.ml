(* IETF ChaCha20 (RFC 7539): 32-bit words, little-endian. *)

let word s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let mask32 = 0xFFFFFFFF

let rotl32 x k = ((x lsl k) lor (x lsr (32 - k))) land mask32

let quarter st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl32 (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl32 (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl32 (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl32 (st.(b) lxor st.(c)) 7

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

(* The block function: 20 rounds over a copy of [init] in the scratch
   [st], then the 64-byte keystream block written into [out]. *)
let core init st out =
  Array.blit init 0 st 0 16;
  for _ = 1 to 10 do
    quarter st 0 4 8 12;
    quarter st 1 5 9 13;
    quarter st 2 6 10 14;
    quarter st 3 7 11 15;
    quarter st 0 5 10 15;
    quarter st 1 6 11 12;
    quarter st 2 7 8 13;
    quarter st 3 4 9 14
  done;
  for i = 0 to 15 do
    Bytes.set_int32_le out (4 * i) (Int32.of_int ((st.(i) + init.(i)) land mask32))
  done

let block ~key ~nonce ~counter =
  if String.length key <> 32 then invalid_arg "Prng.block: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Prng.block: nonce must be 12 bytes";
  let init = initial_state ~key ~nonce in
  init.(12) <- counter land mask32;
  let out = Bytes.create 64 in
  core init (Array.make 16 0) out;
  Bytes.unsafe_to_string out

(* A generator owns its state words, round scratch and output block, and
   refills the block in place. *)
type t = {
  init : int array;
  st : int array;
  buf : Bytes.t;
  mutable counter : int;
  mutable pos : int;
}

let create ~key ~nonce =
  if String.length key <> 32 then invalid_arg "Prng.create: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Prng.create: nonce must be 12 bytes";
  {
    init = initial_state ~key ~nonce;
    st = Array.make 16 0;
    buf = Bytes.create 64;
    counter = 0;
    pos = 64;
  }

let of_seed seed =
  let material = Keccak.shake256_digest seed 44 in
  create ~key:(String.sub material 0 32) ~nonce:(String.sub material 32 12)

let refill t =
  t.init.(12) <- t.counter land mask32;
  core t.init t.st t.buf;
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
