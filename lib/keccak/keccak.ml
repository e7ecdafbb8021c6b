let round_constants =
  [|
    0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL; 0x8000000080008000L;
    0x000000000000808BL; 0x0000000080000001L; 0x8000000080008081L; 0x8000000000008009L;
    0x000000000000008AL; 0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
    0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L; 0x8000000000008003L;
    0x8000000000008002L; 0x8000000000000080L; 0x000000000000800AL; 0x800000008000000AL;
    0x8000000080008081L; 0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
  |]

(* The 25 lanes live in a 200-byte buffer, lane x + 5y at bytes
   8(x + 5y) .. 8(x + 5y) + 7, little-endian (FIPS 202's byte order).
   A round reads them into unboxed locals, runs theta, rho+pi, chi and
   iota on those with every lane index and rotation written out, and
   stores them back: no [int64] is boxed and nothing is allocated. *)
let[@inline] lane s i = Bytes.get_int64_le s (8 * i)
let[@inline] set_lane s i v = Bytes.set_int64_le s (8 * i) v

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let keccak_f st =
  let open Int64 in
  for round = 0 to 23 do
    let a0 = lane st 0 and a1 = lane st 1 and a2 = lane st 2 and a3 = lane st 3
    and a4 = lane st 4 and a5 = lane st 5 and a6 = lane st 6 and a7 = lane st 7
    and a8 = lane st 8 and a9 = lane st 9 and a10 = lane st 10 and a11 = lane st 11
    and a12 = lane st 12 and a13 = lane st 13 and a14 = lane st 14 and a15 = lane st 15
    and a16 = lane st 16 and a17 = lane st 17 and a18 = lane st 18 and a19 = lane st 19
    and a20 = lane st 20 and a21 = lane st 21 and a22 = lane st 22 and a23 = lane st 23
    and a24 = lane st 24 in
    (* theta: column parities c, then d folded into every lane of its column *)
    let c0 = logxor a0 (logxor a5 (logxor a10 (logxor a15 a20))) in
    let c1 = logxor a1 (logxor a6 (logxor a11 (logxor a16 a21))) in
    let c2 = logxor a2 (logxor a7 (logxor a12 (logxor a17 a22))) in
    let c3 = logxor a3 (logxor a8 (logxor a13 (logxor a18 a23))) in
    let c4 = logxor a4 (logxor a9 (logxor a14 (logxor a19 a24))) in
    let d0 = logxor c4 (rotl c1 1) in
    let d1 = logxor c0 (rotl c2 1) in
    let d2 = logxor c1 (rotl c3 1) in
    let d3 = logxor c2 (rotl c4 1) in
    let d4 = logxor c3 (rotl c0 1) in
    (* rho + pi: b(y, 2x + 3y) = rot (a(x, y) xor d(x), rho(x, y)) *)
    let b0 = logxor a0 d0 in
    let b10 = rotl (logxor a1 d1) 1 in
    let b20 = rotl (logxor a2 d2) 62 in
    let b5 = rotl (logxor a3 d3) 28 in
    let b15 = rotl (logxor a4 d4) 27 in
    let b16 = rotl (logxor a5 d0) 36 in
    let b1 = rotl (logxor a6 d1) 44 in
    let b11 = rotl (logxor a7 d2) 6 in
    let b21 = rotl (logxor a8 d3) 55 in
    let b6 = rotl (logxor a9 d4) 20 in
    let b7 = rotl (logxor a10 d0) 3 in
    let b17 = rotl (logxor a11 d1) 10 in
    let b2 = rotl (logxor a12 d2) 43 in
    let b12 = rotl (logxor a13 d3) 25 in
    let b22 = rotl (logxor a14 d4) 39 in
    let b23 = rotl (logxor a15 d0) 41 in
    let b8 = rotl (logxor a16 d1) 45 in
    let b18 = rotl (logxor a17 d2) 15 in
    let b3 = rotl (logxor a18 d3) 21 in
    let b13 = rotl (logxor a19 d4) 8 in
    let b14 = rotl (logxor a20 d0) 18 in
    let b24 = rotl (logxor a21 d1) 2 in
    let b9 = rotl (logxor a22 d2) 61 in
    let b19 = rotl (logxor a23 d3) 56 in
    let b4 = rotl (logxor a24 d4) 14 in
    (* chi: a(x, y) = b(x, y) xor (not b(x+1, y) and b(x+2, y)); iota on lane 0 *)
    set_lane st 0 (logxor (logxor b0 (logand (lognot b1) b2)) round_constants.(round));
    set_lane st 1 (logxor b1 (logand (lognot b2) b3));
    set_lane st 2 (logxor b2 (logand (lognot b3) b4));
    set_lane st 3 (logxor b3 (logand (lognot b4) b0));
    set_lane st 4 (logxor b4 (logand (lognot b0) b1));
    set_lane st 5 (logxor b5 (logand (lognot b6) b7));
    set_lane st 6 (logxor b6 (logand (lognot b7) b8));
    set_lane st 7 (logxor b7 (logand (lognot b8) b9));
    set_lane st 8 (logxor b8 (logand (lognot b9) b5));
    set_lane st 9 (logxor b9 (logand (lognot b5) b6));
    set_lane st 10 (logxor b10 (logand (lognot b11) b12));
    set_lane st 11 (logxor b11 (logand (lognot b12) b13));
    set_lane st 12 (logxor b12 (logand (lognot b13) b14));
    set_lane st 13 (logxor b13 (logand (lognot b14) b10));
    set_lane st 14 (logxor b14 (logand (lognot b10) b11));
    set_lane st 15 (logxor b15 (logand (lognot b16) b17));
    set_lane st 16 (logxor b16 (logand (lognot b17) b18));
    set_lane st 17 (logxor b17 (logand (lognot b18) b19));
    set_lane st 18 (logxor b18 (logand (lognot b19) b15));
    set_lane st 19 (logxor b19 (logand (lognot b15) b16));
    set_lane st 20 (logxor b20 (logand (lognot b21) b22));
    set_lane st 21 (logxor b21 (logand (lognot b22) b23));
    set_lane st 22 (logxor b22 (logand (lognot b23) b24));
    set_lane st 23 (logxor b23 (logand (lognot b24) b20));
    set_lane st 24 (logxor b24 (logand (lognot b20) b21))
  done

type phase = Absorbing | Squeezing

type xof = {
  state : Bytes.t; (* 25 lanes, see [lane] *)
  rate : int; (* in bytes *)
  suffix : int; (* domain-separation padding byte *)
  mutable pos : int;
  mutable phase : phase;
}

let create ~rate ~suffix =
  { state = Bytes.make 200 '\000'; rate; suffix; pos = 0; phase = Absorbing }

let shake128 () = create ~rate:168 ~suffix:0x1F
let shake256 () = create ~rate:136 ~suffix:0x1F
let sha3 () = create ~rate:136 ~suffix:0x06

(* byte i of the state is byte i mod 8 of lane i / 8 *)
let xor_byte st i v =
  Bytes.set st i (Char.chr (Char.code (Bytes.get st i) lxor (v land 0xFF)))

let get_byte st i = Char.code (Bytes.get st i)

let absorb t msg =
  if t.phase <> Absorbing then invalid_arg "Keccak.absorb: already squeezing";
  String.iter
    (fun ch ->
      xor_byte t.state t.pos (Char.code ch);
      t.pos <- t.pos + 1;
      if t.pos = t.rate then begin
        keccak_f t.state;
        t.pos <- 0
      end)
    msg

let finalize t =
  xor_byte t.state t.pos t.suffix;
  xor_byte t.state (t.rate - 1) 0x80;
  keccak_f t.state;
  t.pos <- 0;
  t.phase <- Squeezing

let squeeze_byte t =
  if t.phase = Absorbing then finalize t;
  if t.pos = t.rate then begin
    keccak_f t.state;
    t.pos <- 0
  end;
  let b = get_byte t.state t.pos in
  t.pos <- t.pos + 1;
  b

let squeeze t n =
  String.init n (fun _ -> Char.chr (squeeze_byte t))

let shake256_digest msg n =
  let t = shake256 () in
  absorb t msg;
  squeeze t n

let sha3_256 msg =
  let t = sha3 () in
  absorb t msg;
  squeeze t 32

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
                      (List.init (String.length s) (String.get s)))
