(* SWAR popcount on 64-bit words; OCaml has no popcount intrinsic. *)
let popcount64 (x : int64) : int =
  let open Int64 in
  let m1 = 0x5555555555555555L
  and m2 = 0x3333333333333333L
  and m4 = 0x0f0f0f0f0f0f0f0fL
  and h01 = 0x0101010101010101L in
  let x = sub x (logand (shift_right_logical x 1) m1) in
  let x = add (logand x m2) (logand (shift_right_logical x 2) m2) in
  let x = logand (add x (shift_right_logical x 4)) m4 in
  to_int (shift_right_logical (mul x h01) 56)

(* Native-int SWAR popcount: the split-model tiles evaluate this once
   per (guess, trace) pair, so it must not round-trip through boxed
   [Int64] (each Int64 operation allocates without flambda).  All masks fit in a
   63-bit int because the argument is non-negative (bits 0..61 only). *)
let m1 = 0x1555555555555555 (* 01 repeated over bits 0..60 *)
let m2 = 0x3333333333333333
let m4 = 0x0f0f0f0f0f0f0f0f
let h01 = 0x0101010101010101

let popcount (x : int) : int =
  assert (x >= 0);
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (* byte sums aggregate into bits 56..62 of the product: at most 62 set
     bits, so the top byte never overflows into the sign bit *)
  (x * h01) lsr 56

let hamming_distance a b = popcount (a lxor b)

let bit_length (x : int) : int =
  assert (x >= 0);
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + 1) in
  go x 0

let mask w =
  assert (w >= 0 && w <= 62);
  (1 lsl w) - 1

let bits x ~lo ~width = (x lsr lo) land mask width

let parity x = popcount x land 1

let brev x ~bits =
  let r = ref 0 in
  for i = 0 to bits - 1 do
    r := (!r lsl 1) lor ((x lsr i) land 1)
  done;
  !r
