let dilution = 4

let values rng ~known ~secret =
  (* collect the 16 unprotected event values in order *)
  let values = Array.make Leakage.events_per_mul 0 in
  let i = ref 0 in
  ignore
    (Fpr.mul_emit
       ~emit:(fun (e : Fpr.event) ->
         values.(!i) <- e.value;
         incr i)
       known secret);
  (* permute the four partial-product slots and the two addition slots *)
  let product_slots =
    [|
      Leakage.mul_event_offset Fpr.Mant_w00; Leakage.mul_event_offset Fpr.Mant_w10;
      Leakage.mul_event_offset Fpr.Mant_w01; Leakage.mul_event_offset Fpr.Mant_w11;
    |]
  in
  let add_slots =
    [| Leakage.mul_event_offset Fpr.Mant_z1a; Leakage.mul_event_offset Fpr.Mant_z1 |]
  in
  let permute slots =
    let vals = Array.map (fun s -> values.(s)) slots in
    Stats.Rng.shuffle rng vals;
    Array.iteri (fun j s -> values.(s) <- vals.(j)) slots
  in
  permute product_slots;
  permute add_slots;
  values
