(* xoshiro256** state: four 64-bit lanes in one 32-byte buffer.  Lanes
   are read and written unboxed, so a draw allocates nothing (four
   [mutable int64] fields would box a fresh int64 on every update). *)
type t = Bytes.t

let[@inline] lane t i = Bytes.get_int64_le t (8 * i)
let[@inline] set_lane t i v = Bytes.set_int64_le t (8 * i) v

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set_lane t i (splitmix64 st)
  done;
  t

let copy = Bytes.copy

let[@inline] rotl (x : int64) k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = lane t 0 and s1 = lane t 1 and s2 = lane t 2 and s3 = lane t 3 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tt = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set_lane t 0 s0;
  set_lane t 1 s1;
  set_lane t 2 (logxor s2 tt);
  set_lane t 3 (rotl s3 45);
  result

let next64 t = next t

let bits t w =
  assert (w >= 0 && w <= 62);
  Int64.to_int (Int64.shift_right_logical (next t) (64 - w)) land ((1 lsl w) - 1)

let int_below t n =
  assert (n > 0);
  (* Rejection sampling on the smallest covering power of two. *)
  let w = Bitops.bit_length (n - 1) in
  let w = max w 1 in
  let rec draw () =
    let v = bits t w in
    if v < n then v else draw ()
  in
  if n = 1 then 0 else draw ()

let[@inline] float01 t =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v *. 0x1p-53

(* The one Box-Muller draw: u1 in (0, 1) (zeros redrawn), then u2 in
   [0, 1).  Inlined into both entries below, so the loop of
   [add_gaussian] makes no call and boxes no float per sample. *)
let[@inline] box_muller t ~mu ~sigma =
  let u1 = ref (float01 t) in
  while not (!u1 > 0.) do
    u1 := float01 t
  done;
  let u2 = float01 t in
  mu +. (sigma *. sqrt (-2. *. log !u1) *. cos (2. *. Float.pi *. u2))

let gaussian t ~mu ~sigma = box_muller t ~mu ~sigma

let add_gaussian t ~mu ~sigma a =
  for j = 0 to Array.length a - 1 do
    Array.unsafe_set a j (Array.unsafe_get a j +. box_muller t ~mu ~sigma)
  done

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
