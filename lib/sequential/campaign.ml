type leaders = { winner : int; best : float; runner_up : float }
type 'b unit_ = { fold : 'b -> unit; leaders : unit -> leaders }

type result = {
  stop : Decision.stop option;
  n_traces : int;
  looks : int;
  history : (int * float) list;
}

type summary = {
  units : int;
  stopped : int;
  looks : int;
  total_traces : int;
  traces_used : int array;
  traces_saved : int;
}

let summarize ~total results =
  let units = Array.length results in
  let stopped = ref 0 and looks = ref 0 and saved = ref 0 in
  let used =
    Array.map
      (fun (r : result) ->
        looks := !looks + r.looks;
        (match r.stop with
        | Some _ ->
            incr stopped;
            saved := !saved + max 0 (total - r.n_traces)
        | None -> ());
        r.n_traces)
      results
  in
  {
    units;
    stopped = !stopped;
    looks = !looks;
    total_traces = total;
    traces_used = used;
    traces_saved = !saved;
  }

let emit_obs obs ~spec ~total results =
  if Obs.enabled obs then begin
    let s = summarize ~total results in
    Obs.count obs "seq.looks" s.looks;
    Obs.count obs "seq.stopped_early" s.stopped;
    Obs.count obs "seq.traces_saved" s.traces_saved;
    if Obs.level_enabled obs Obs.Debug then
      Array.iteri
        (fun i r ->
          (* the winner a stopped unit settled on, and the boundary its
             last look tested against *)
          let winner =
            match r.stop with
            | Some s -> [ ("winner", Obs.Int s.Decision.winner) ]
            | None -> []
          in
          let boundary =
            if r.looks = 0 then []
            else [ ("boundary", Obs.Float (Decision.z_crit spec ~look:r.looks)) ]
          in
          let fields =
            [
              ("unit", Obs.Int i);
              ("stopped", Obs.Bool (r.stop <> None));
              ("n_traces", Obs.Int r.n_traces);
              ("looks", Obs.Int r.looks);
            ]
            @ winner @ boundary
          in
          (* The unit's stopping curve: one gauge per look, wrapped in a
             span so log readers can group the curve per coefficient. *)
          Obs.span obs ~level:Obs.Debug ~fields "seq.unit" @@ fun () ->
          List.iter
            (fun (n, z) ->
              Obs.gauge obs ~level:Obs.Debug
                ~fields:[ ("unit", Obs.Int i); ("n", Obs.Int n) ]
                "seq.gap" z)
            r.history)
        results
  end

let run ?jobs ?(obs = Obs.null) ~spec ~total ~feed ~length units =
  let jobs = Parallel.resolve jobs in
  let nu = Array.length units in
  if nu = 0 then invalid_arg "Campaign.run: no units";
  let testers = Array.init nu (fun _ -> Decision.tester spec) in
  let stops = Array.make nu None in
  let unit_n = Array.make nu 0 in
  let active = ref (Array.init nu Fun.id) in
  let n = ref 0 in
  let fields = [ ("units", Obs.Int nu); ("total", Obs.Int total) ] in
  Obs.span obs ~fields "seq.campaign" (fun () ->
      let running = ref true in
      while !running && Array.length !active > 0 do
        match feed () with
        | None -> running := false
        | Some batch ->
            let len = length batch in
            if len > 0 then begin
              n := !n + len;
              let act = !active in
              let j = min jobs (Array.length act) in
              (* Each unit's accumulators are touched only by its own
                 fold, and folds arrive in batch order, so the per-unit
                 state is bit-identical at every [jobs]. *)
              ignore (Parallel.map_array ~jobs:j (fun i -> units.(i).fold batch) act);
              Array.iter (fun i -> unit_n.(i) <- !n) act;
              let due =
                Array.of_seq
                  (Seq.filter
                     (fun i -> !n >= Decision.due testers.(i))
                     (Array.to_seq act))
              in
              if Array.length due > 0 then begin
                let j = min jobs (Array.length due) in
                let ls =
                  Parallel.map_array ~jobs:j (fun i -> units.(i).leaders ()) due
                in
                (* Decisions on the owner domain, in unit order. *)
                let retired = ref false in
                Array.iteri
                  (fun k i ->
                    let l = ls.(k) in
                    match
                      Decision.check testers.(i) ~n:!n ~winner:l.winner
                        ~r1:l.best ~r2:l.runner_up
                    with
                    | Decision.Continue -> ()
                    | Decision.Stop s ->
                        stops.(i) <- Some s;
                        retired := true)
                  due;
                if !retired then
                  (* Re-pack: later batches fold only undecided work. *)
                  active :=
                    Array.of_seq
                      (Seq.filter (fun i -> stops.(i) = None) (Array.to_seq act))
              end
            end
      done);
  let results =
    Array.init nu (fun i ->
        {
          stop = stops.(i);
          n_traces = unit_n.(i);
          looks = Decision.looks testers.(i);
          history = Decision.history testers.(i);
        })
  in
  emit_obs obs ~spec ~total results;
  results
