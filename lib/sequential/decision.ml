type stop = { winner : int; n_traces : int; confidence : float }
type t = Continue | Stop of stop

type spec = { alpha : float; min_traces : int }

let spec ?(min_traces = 8) ~alpha () =
  if not (alpha > 0. && alpha < 1.) then
    invalid_arg "Decision.spec: alpha must lie in (0,1)";
  if min_traces < 4 then invalid_arg "Decision.spec: min_traces must be >= 4";
  { alpha; min_traces }

type tester = {
  spec : spec;
  mutable looks : int;
  mutable history : (int * float) list;  (* newest first *)
}

let tester spec = { spec; looks = 0; history = [] }
let looks t = t.looks
let history t = List.rev t.history

let due t = t.spec.min_traces

(* Alpha spending alpha_k = alpha * 2^-k at look k: the levels sum
   to alpha over any number of looks.  That is a nominal level for one
   tester's look sequence, not a family-wise bound over a campaign's
   units (each unit spends the full alpha).  Clamped away from 0 so
   probit stays in-domain at absurd look counts. *)
let spend alpha k = Float.max (alpha *. (0.5 ** float_of_int k)) 1e-300

let z_crit spec ~look = -.Stats.Signif.probit (spend spec.alpha look)

let check t ~n ~winner ~r1 ~r2 =
  if n < t.spec.min_traces || n <= 3 then Continue
  else begin
    let z = Stats.Signif.corr_gap_z ~n ~r1 ~r2 in
    t.looks <- t.looks + 1;
    t.history <- (n, z) :: t.history;
    if z >= z_crit t.spec ~look:t.looks then
      Stop { winner; n_traces = n; confidence = 1. -. t.spec.alpha }
    else Continue
  end
