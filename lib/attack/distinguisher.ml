type selection =
  | Pearson_scalar
  | Pearson_batched
  | Profiled of Profile.store

let of_pearson = function
  | Stats.Pearson.Batch.Scalar -> Pearson_scalar
  | Stats.Pearson.Batch.Batched -> Pearson_batched

let kernel = function
  | Pearson_scalar -> Stats.Pearson.Batch.Scalar
  | Pearson_batched -> Stats.Pearson.Batch.Batched
  | Profiled _ -> Stats.Pearson.Batch.Scalar

let name = function
  | Pearson_scalar -> "scalar"
  | Pearson_batched -> "batched"
  | Profiled _ -> "profiled"

let names = [ "scalar"; "batched"; "profiled" ]
let default () = of_pearson (Stats.Pearson.Batch.default_backend ())
let has_gap_test = function Pearson_scalar | Pearson_batched -> true | Profiled _ -> false

let require_gap_test ~what sel =
  if not (has_gap_test sel) then
    invalid_arg
      (Printf.sprintf
         "%s: the %s distinguisher has no sequential gap statistic (the \
          stopping testers are correlation statistics); use a Pearson backend"
         what (name sel))

module type S = sig
  val name : string

  type 'k plan

  val plan : parts:(int * 'k Hypothesis.Model.t) list -> 'k plan
  val needs : 'k plan -> int list list

  type 'k seg

  val prepare : 'k plan -> (float array array * 'k array) array -> 'k seg

  type 'k acc

  val acc : 'k plan -> int array -> 'k acc
  val fold : 'k acc -> 'k seg -> unit
  val finalize : 'k plan -> 'k acc -> float array
end
