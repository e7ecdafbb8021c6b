let round_constants =
  [|
    0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL; 0x8000000080008000L;
    0x000000000000808BL; 0x0000000080000001L; 0x8000000080008081L; 0x8000000000008009L;
    0x000000000000008AL; 0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
    0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L; 0x8000000000008003L;
    0x8000000000008002L; 0x8000000000000080L; 0x000000000000800AL; 0x800000008000000AL;
    0x8000000080008081L; 0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L;
  |]

(* Rotation offsets indexed by x + 5*y. *)
let rho =
  [|
    0; 1; 62; 28; 27;
    36; 44; 6; 55; 20;
    3; 10; 43; 25; 39;
    41; 45; 15; 21; 8;
    18; 2; 61; 56; 14;
  |]

(* The 25 lanes live in a 200-byte buffer, lane i at bytes 8i..8i+7,
   little-endian (FIPS 202's byte order), and are read and written
   unboxed: an [int64 array] would box a fresh lane on every update. *)
let[@inline] lane s i = Bytes.get_int64_le s (8 * i)
let[@inline] set_lane s i v = Bytes.set_int64_le s (8 * i) v

let[@inline] rotl x k =
  if k = 0 then x
  else Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Lane permutations of the step mappings, indexed by x + 5*y:
   rho+pi moves lane (x, y) to (y, 2x+3y), chi combines lane (x, y)
   with lanes (x+1, y) and (x+2, y). *)
let pi_dst = Array.init 25 (fun i -> let x = i mod 5 and y = i / 5 in y + (5 * (((2 * x) + (3 * y)) mod 5)))
let chi_1 = Array.init 25 (fun i -> ((i mod 5 + 1) mod 5) + (5 * (i / 5)))
let chi_2 = Array.init 25 (fun i -> ((i mod 5 + 2) mod 5) + (5 * (i / 5)))

let keccak_f st =
  let c = Bytes.create 40 and d = Bytes.create 40 in
  let b = Bytes.create 200 in
  for round = 0 to 23 do
    (* theta *)
    for x = 0 to 4 do
      set_lane c x
        (Int64.logxor (lane st x)
           (Int64.logxor (lane st (x + 5))
              (Int64.logxor (lane st (x + 10))
                 (Int64.logxor (lane st (x + 15)) (lane st (x + 20))))))
    done;
    for x = 0 to 4 do
      set_lane d x
        (Int64.logxor (lane c ((x + 4) mod 5)) (rotl (lane c ((x + 1) mod 5)) 1))
    done;
    for i = 0 to 24 do
      set_lane st i (Int64.logxor (lane st i) (lane d (i mod 5)))
    done;
    (* rho + pi: B[y, 2x+3y] = rot(A[x,y]) *)
    for i = 0 to 24 do
      set_lane b pi_dst.(i) (rotl (lane st i) rho.(i))
    done;
    (* chi *)
    for i = 0 to 24 do
      set_lane st i
        (Int64.logxor (lane b i)
           (Int64.logand (Int64.lognot (lane b chi_1.(i))) (lane b chi_2.(i))))
    done;
    (* iota *)
    set_lane st 0 (Int64.logxor (lane st 0) round_constants.(round))
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
