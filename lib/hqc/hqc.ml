(* HQC rotate-and-accumulate victim — see hqc.mli for the model. *)

module Params = struct
  let n_bits = 32
  let word_bits = 16
  let words = n_bits / word_bits
  let weight = 6
  let width = weight * words
end

open Params

type secret = int array

let check_secret y =
  if Array.length y <> weight then
    invalid_arg
      (Printf.sprintf "Hqc: secret has weight %d, want %d" (Array.length y) weight);
  Array.iteri
    (fun j p ->
      if p < 0 || p >= n_bits then
        invalid_arg (Printf.sprintf "Hqc: position %d out of [0, %d)" p n_bits);
      if j > 0 && y.(j - 1) >= p then
        invalid_arg "Hqc: support positions must be strictly increasing")
    y

let keygen ~seed =
  let rng = Stats.Rng.create ~seed in
  (* rejection-sample a fixed-weight support, then sort: uniform over
     weight-w subsets, deterministic in the seed *)
  let chosen = Array.make n_bits false in
  let picked = ref 0 in
  while !picked < weight do
    let p = Stats.Rng.int_below rng n_bits in
    if not chosen.(p) then begin
      chosen.(p) <- true;
      incr picked
    end
  done;
  let y = Array.make weight 0 in
  let j = ref 0 in
  for p = 0 to n_bits - 1 do
    if chosen.(p) then begin
      y.(!j) <- p;
      incr j
    end
  done;
  y

let ring_mask = (1 lsl n_bits) - 1
let word_mask = (1 lsl word_bits) - 1

let rotate u r =
  let u = u land ring_mask in
  let r = ((r mod n_bits) + n_bits) mod n_bits in
  ((u lsl r) lor (u lsr (n_bits - r))) land ring_mask

let word w v = (v lsr (w * word_bits)) land word_mask

let accumulator y ~prefix_len u =
  let acc = ref 0 in
  for j = 0 to prefix_len - 1 do
    acc := !acc lxor rotate u y.(j)
  done;
  !acc

type emitter = [ `Hw | `Hd ]

let intermediates (e : emitter) y ~u =
  check_secret y;
  let out = Array.make width 0 in
  let acc = ref 0 in
  for j = 0 to weight - 1 do
    let r = rotate u y.(j) in
    acc := !acc lxor r;
    for w = 0 to words - 1 do
      out.((j * words) + w) <- (match e with `Hw -> word w !acc | `Hd -> word w r)
    done
  done;
  out

let encode_u u =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (u land ring_mask));
  Bytes.to_string b

let decode_u s =
  if String.length s <> 8 then None
  else
    let v = Bytes.get_int64_le (Bytes.of_string s) 0 in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int ring_mask) > 0 then
      None
    else Some (Int64.to_int v)

let u_of_record (r : Tracestore.record) =
  match decode_u r.Tracestore.msg with
  | Some u -> u
  | None ->
      failwith
        (Printf.sprintf "Hqc: record msg is not an encoded input word (%d bytes)"
           (String.length r.Tracestore.msg))

let u_of_trace (t : Leakage.trace) =
  match decode_u t.Leakage.msg with
  | Some u -> u
  | None ->
      failwith
        (Printf.sprintf "Hqc: trace msg is not an encoded input word (%d bytes)"
           (String.length t.Leakage.msg))

let capture_stream ?(emitter = `Hw) model ~seed y =
  check_secret y;
  Leakage.check model Leakage.default_emitter;
  let rng = Stats.Rng.create ~seed in
  fun () ->
    (* the known dense input: one fresh uniform ring element per trace,
       drawn word by word so every bit is independent of the noise
       stream's later draws only through the shared RNG sequence *)
    let u = ref 0 in
    for w = 0 to words - 1 do
      u := !u lor (Stats.Rng.int_below rng (word_mask + 1) lsl (w * word_bits))
    done;
    let samples = Leakage.hw_trace model rng (intermediates emitter y ~u:!u) in
    { Tracestore.msg = encode_u !u; salt = ""; body = ""; samples }

let key_file = "hqc.key"
let key_magic = "HQCKEY1"

let encode_secret y =
  check_secret y;
  key_magic ^ " "
  ^ String.concat "," (Array.to_list (Array.map string_of_int y))
  ^ "\n"

let decode_secret s =
  let s = String.trim s in
  let prefix = key_magic ^ " " in
  let plen = String.length prefix in
  if String.length s <= plen || String.sub s 0 plen <> prefix then None
  else
    match
      String.split_on_char ',' (String.sub s plen (String.length s - plen))
      |> List.map int_of_string_opt
    with
    | exception _ -> None
    | parts ->
        if List.exists Option.is_none parts then None
        else
          let y = Array.of_list (List.map Option.get parts) in
          (match check_secret y with exception _ -> None | () -> Some y)

(* Split-model primitives.  The digest packs word w of the prefix
   accumulator above the full input word: 16 + 32 = 48 bits. *)

let prep_acc ~prefix ~word:w u =
  let acc = accumulator prefix ~prefix_len:(Array.length prefix) u in
  (word w acc lsl n_bits) lor (u land ring_mask)

let eval_acc ~word:w g packed =
  (packed lsr n_bits) lxor word w (rotate (packed land ring_mask) g)

let m_acc ~prefix ~word:w g u =
  word w (accumulator prefix ~prefix_len:(Array.length prefix) u lxor rotate u g)

let m_rot ~word:w g u = word w (rotate u g)
