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

let block ~key ~nonce ~counter =
  if String.length key <> 32 then invalid_arg "Prng.block: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Prng.block: nonce must be 12 bytes";
  let init = Array.make 16 0 in
  init.(0) <- 0x61707865;
  init.(1) <- 0x3320646e;
  init.(2) <- 0x79622d32;
  init.(3) <- 0x6b206574;
  for i = 0 to 7 do
    init.(4 + i) <- word key (4 * i)
  done;
  init.(12) <- counter land mask32;
  for i = 0 to 2 do
    init.(13 + i) <- word nonce (4 * i)
  done;
  let st = Array.copy init in
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
  let out = Bytes.create 64 in
  for i = 0 to 15 do
    let v = (st.(i) + init.(i)) land mask32 in
    Bytes.set out (4 * i) (Char.chr (v land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr ((v lsr 24) land 0xFF))
  done;
  Bytes.to_string out

type t = {
  key : string;
  nonce : string;
  mutable counter : int;
  mutable buf : string;
  mutable pos : int;
}

let create ~key ~nonce =
  if String.length key <> 32 then invalid_arg "Prng.create: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Prng.create: nonce must be 12 bytes";
  { key; nonce; counter = 0; buf = ""; pos = 0 }

let of_seed seed =
  let material = Keccak.shake256_digest seed 44 in
  create ~key:(String.sub material 0 32) ~nonce:(String.sub material 32 12)

let refill t =
  t.buf <- block ~key:t.key ~nonce:t.nonce ~counter:t.counter;
  t.counter <- t.counter + 1;
  t.pos <- 0

let byte t =
  if t.pos >= String.length t.buf then refill t;
  let b = Char.code t.buf.[t.pos] in
  t.pos <- t.pos + 1;
  b

let u64 t =
  if t.pos + 8 <= String.length t.buf then begin
    (* the next 8 bytes of the current block, little-endian, in one read *)
    let v = String.get_int64_le t.buf t.pos in
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
