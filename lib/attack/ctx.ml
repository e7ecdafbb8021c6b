type t = { jobs : int; backend : Distinguisher.selection; obs : Obs.t }

let default () =
  { jobs = Parallel.default_jobs (); backend = Distinguisher.Pearson; obs = Obs.null }

let make ?jobs ?distinguisher ?obs () =
  let d = default () in
  {
    jobs = Parallel.resolve jobs;
    backend = Option.value distinguisher ~default:d.backend;
    obs = Option.value obs ~default:d.obs;
  }

let with_jobs jobs t =
  if jobs < 1 then invalid_arg "Ctx.with_jobs: jobs must be >= 1";
  { t with jobs }

let with_backend backend t = { t with backend }
let with_obs obs t = { t with obs }
let sequential t = { t with jobs = 1 }
let kernel _ = Stats.Pearson.Batch.Batched
