let shift_aliases ~width ?(lo = 0) v =
  assert (v > 0);
  let base =
    let rec strip v = if v land 1 = 0 then strip (v lsr 1) else v in
    strip v
  in
  let rec collect x acc =
    if x >= 1 lsl width then acc
    else collect (x lsl 1) (if x <> v && x >= lo then x :: acc else acc)
  in
  collect base []

let sampled rng ~width ?(lo = 0) ~truth ~decoys () =
  assert (truth >= lo && truth < 1 lsl width);
  let tbl = Hashtbl.create (decoys * 2) in
  let add v = if v >= lo && v < 1 lsl width && v > 0 then Hashtbl.replace tbl v () in
  add truth;
  List.iter add (shift_aliases ~width ~lo truth);
  (* near-miss decoys: plausible false positives that are close in
     Hamming space without being exact aliases *)
  for b = 0 to width - 1 do
    add (truth lxor (1 lsl b))
  done;
  add (truth + 1);
  add (truth - 1);
  let span = (1 lsl width) - lo in
  for _ = 1 to decoys do
    add (lo + Stats.Rng.int_below rng span)
  done;
  let out = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Stats.Rng.shuffle rng out;
  out

(* ---- leakage models as first-class values ----

   A sweep evaluates [model guess known.(i)] G x D times; for the
   paper's integer datapath models the known operand's contribution is a
   pure function of the operand alone (bit-slices of its significand,
   its exponent...).  A [Split] model names that factorisation so the
   engine can precompute the per-trace part once per sweep and run the
   candidate loop on plain integers — the difference between the
   batched backend tracking or trouncing the scalar one.  A [Product]
   model is the split whose evaluator is the plain product, named so
   the kernel can multiply inline instead of calling [eval]. *)
module Model = struct
  type 'k t =
    | Fn of (int -> 'k -> int)
    | Split of ('k -> int) * (int -> int -> int)
    | Product of ('k -> int)

  let fn f = Fn f
  let split ~prep ~eval = Split (prep, eval)
  let product prep = Product prep

  let apply = function
    | Fn f -> f
    | Split (prep, eval) -> fun g y -> eval g (prep y)
    | Product prep -> fun g y -> g * prep y

  let contramap f = function
    | Fn m -> Fn (fun g j -> m g (f j))
    | Split (prep, eval) -> Split ((fun j -> prep (f j)), eval)
    | Product prep -> Product (fun j -> prep (f j))
end

let exhaustive ~width ?(lo = 0) () =
  let hi = 1 lsl width in
  Seq.unfold (fun v -> if v >= hi then None else Some (v, v + 1)) lo

let count ~width ?(lo = 0) () = (1 lsl width) - lo

let range ~lo ~hi =
  Seq.unfold (fun v -> if v >= hi then None else Some (v, v + 1)) lo

let range_count ~lo ~hi = max 0 (hi - lo)
