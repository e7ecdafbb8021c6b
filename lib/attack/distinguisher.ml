type selection = Pearson | Profiled of Profile.store

let name = function Pearson -> "pearson" | Profiled _ -> "profiled"
let names = [ "pearson"; "profiled" ]
let has_gap_test = function Pearson -> true | Profiled _ -> false

let require_gap_test ~what sel =
  if not (has_gap_test sel) then
    invalid_arg
      (Printf.sprintf
         "%s: the %s distinguisher has no sequential gap statistic (the \
          stopping testers are correlation statistics); use the Pearson distinguisher"
         what (name sel))

module type S = sig
  val name : string

  type 'k plan

  val plan : parts:(int * 'k Hypothesis.Model.t) list -> 'k plan
  val needs : 'k plan -> int list list
  val terms : 'k plan -> int

  type 'k seg

  val prepare : 'k plan -> (float array array * 'k array) array -> 'k seg

  type 'k acc

  val acc : 'k plan -> int array -> 'k acc
  val fold : 'k acc -> 'k seg -> unit
  val finalize : 'k plan -> parts:int list -> 'k acc -> float array
end
