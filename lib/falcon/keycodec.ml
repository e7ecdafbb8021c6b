(* Big-endian bit packer/unpacker over Buffer / string. *)

type writer = { buf : Buffer.t; mutable acc : int; mutable nbits : int }

let writer () = { buf = Buffer.create 256; acc = 0; nbits = 0 }

let put w ~width v =
  assert (width >= 1 && width <= 24 && v >= 0 && v < 1 lsl width);
  w.acc <- (w.acc lsl width) lor v;
  w.nbits <- w.nbits + width;
  while w.nbits >= 8 do
    w.nbits <- w.nbits - 8;
    Buffer.add_char w.buf (Char.chr ((w.acc lsr w.nbits) land 0xFF))
  done

let finish w =
  if w.nbits > 0 then
    Buffer.add_char w.buf (Char.chr ((w.acc lsl (8 - w.nbits)) land 0xFF));
  Buffer.contents w.buf

type reader = { data : string; mutable pos : int; mutable racc : int; mutable rbits : int }

let reader data pos = { data; pos; racc = 0; rbits = 0 }

let get r ~width =
  while r.rbits < width do
    if r.pos >= String.length r.data then raise Exit;
    r.racc <- (r.racc lsl 8) lor Char.code r.data.[r.pos];
    r.pos <- r.pos + 1;
    r.rbits <- r.rbits + 8
  done;
  r.rbits <- r.rbits - width;
  let v = (r.racc lsr r.rbits) land ((1 lsl width) - 1) in
  r.racc <- r.racc land ((1 lsl r.rbits) - 1);
  v

let logn_of n =
  let rec go v acc = if v = 1 then acc else go (v lsr 1) (acc + 1) in
  go n 0

(* signed field: two's complement in [width] bits *)
let put_signed w ~width v =
  let lo = -(1 lsl (width - 1)) and hi = (1 lsl (width - 1)) - 1 in
  if v < lo || v > hi then raise Exit;
  put w ~width (v land ((1 lsl width) - 1))

let get_signed r ~width =
  let v = get r ~width in
  if v >= 1 lsl (width - 1) then v - (1 lsl width) else v

let width_for poly =
  let m = Array.fold_left (fun acc c -> max acc (abs c)) 0 poly in
  let rec go w = if m < 1 lsl (w - 1) then w else go (w + 1) in
  go 2

let public_bytes n = 1 + (((14 * n) + 7) / 8)

let encode_public (pk : Scheme.public_key) =
  let w = writer () in
  Array.iter (fun c -> put w ~width:14 c) pk.h;
  Printf.sprintf "%c%s" (Char.chr (0x00 lor logn_of pk.params.n)) (finish w)

let decode_public data =
  try
    if String.length data < 1 then None
    else begin
      let hdr = Char.code data.[0] in
      if hdr land 0xF0 <> 0x00 then None
      else begin
        let logn = hdr land 0x0F in
        if logn < 1 || logn > 10 then None
        else begin
          let n = 1 lsl logn in
          if String.length data <> public_bytes n then None
          else begin
            let r = reader data 1 in
            let h = Array.init n (fun _ -> get r ~width:14) in
            if Array.exists (fun c -> c >= Zq.q) h then None
            else Some { Scheme.params = Params.make n; h }
          end
        end
      end
    end
  with Exit -> None

let encode_secret (kp : Ntru.Ntrugen.keypair) =
  let w_fg = max (width_for kp.f) (width_for kp.g) in
  let w_big = max (width_for kp.big_f) (width_for kp.big_g) in
  if w_fg > 15 || w_big > 15 then invalid_arg "Keycodec.encode_secret: coefficients too large";
  let w = writer () in
  Array.iter (put_signed w ~width:w_fg) kp.f;
  Array.iter (put_signed w ~width:w_fg) kp.g;
  Array.iter (put_signed w ~width:w_big) kp.big_f;
  Array.iter (put_signed w ~width:w_big) kp.big_g;
  Printf.sprintf "%c%c%s"
    (Char.chr (0x50 lor logn_of kp.n))
    (Char.chr ((w_fg lsl 4) lor w_big))
    (finish w)

let decode_secret data =
  try
    if String.length data < 2 then None
    else begin
      let hdr = Char.code data.[0] in
      if hdr land 0xF0 <> 0x50 then None
      else begin
        let logn = hdr land 0x0F in
        if logn < 1 || logn > 10 then None
        else begin
          let n = 1 lsl logn in
          let w_fg = Char.code data.[1] lsr 4 and w_big = Char.code data.[1] land 0x0F in
          if w_fg < 2 || w_big < 2 then None
          else if String.length data <> 2 + (((2 * n * (w_fg + w_big)) + 7) / 8) then
            None
          else begin
            let r = reader data 2 in
            let f = Array.init n (fun _ -> get_signed r ~width:w_fg) in
            let g = Array.init n (fun _ -> get_signed r ~width:w_fg) in
            let big_f = Array.init n (fun _ -> get_signed r ~width:w_big) in
            let big_g = Array.init n (fun _ -> get_signed r ~width:w_big) in
            if not (Ntru.Ntrugen.verify_ntru f g big_f big_g) then None
            else begin
              match Zq.inv_poly (Zq.of_centered f) with
              | None -> None
              | Some f_inv ->
                  let h = Zq.mul_poly (Zq.of_centered g) f_inv in
                  Some { Ntru.Ntrugen.n; f; g; big_f; big_g; h }
            end
          end
        end
      end
    end
  with Exit -> None

let encode_signature (p : Params.t) (sg : Scheme.signature) =
  Printf.sprintf "%c%s%s" (Char.chr (0x30 lor p.logn)) sg.salt sg.body

let decode_signature (p : Params.t) data =
  let body_len = p.sig_bytelen - p.salt_len - 1 in
  if String.length data <> p.sig_bytelen then None
  else if Char.code data.[0] <> 0x30 lor p.logn then None
  else
    Some
      {
        Scheme.salt = String.sub data 1 p.salt_len;
        body = String.sub data (1 + p.salt_len) body_len;
      }
