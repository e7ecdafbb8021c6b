(* Shared exit-status convention of every CLI in this repository:

     0    success
     1    data error — malformed or missing input files, failed key
          reconstruction, invalid parameter values (the Failure /
          Sys_error / Invalid_argument families)
     124  command-line usage error (cmdliner's Cmd.eval' default),
          including any flag the subcommand does not take

   Each executable's main is  exit (Cmd.eval' (Cmd.group ...))  and each
   subcommand body runs under [with_errors] (usually via [run]), which
   maps the expected exception families to the data-error status with
   their message on stderr; any other exception is a bug and escapes as
   a backtrace.

   This module also holds the flag terms the four CLIs share.  Each
   subcommand puts together only the ones its body reads: [log_term]
   (--log/--log-level), [jobs_arg] (-j), [templates_arg] (--templates,
   which on its own selects the profiled distinguisher) and [stream_term]
   (--no-prefetch/--on-corrupt, for verbs that stream a store).  [run]
   turns the first three into an [Attack.Ctx.t] handed to the body. *)

let ok = 0
let data_error = 1

let with_errors f =
  try f () with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      prerr_endline msg;
      data_error

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

open Cmdliner

type sink = Off | Pretty | Jsonl of string
type log = { sink : sink; level : Obs.level }

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for parallelisable stages.  Every result is \
           bit-identical at every value; 1 (the default) runs sequentially.")

let templates_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "templates" ] ~docv:"PATH"
        ~doc:
          "Score with the profiled distinguisher (Gaussian template \
           log-likelihood) against this template store, as written by \
           $(b,attack_cli profile).  Without it, rankings use Pearson \
           correlation DEMA.")

let sink_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "off" -> Ok Off
    | "pretty" -> Ok Pretty
    | _ ->
        let prefix = "jsonl:" in
        let pl = String.length prefix in
        if
          String.length s > pl
          && String.lowercase_ascii (String.sub s 0 pl) = prefix
        then Ok (Jsonl (String.sub s pl (String.length s - pl)))
        else
          Error
            (`Msg
               (Printf.sprintf "expected off, pretty or jsonl:PATH, got %S" s))
  in
  let print ppf = function
    | Off -> Format.pp_print_string ppf "off"
    | Pretty -> Format.pp_print_string ppf "pretty"
    | Jsonl p -> Format.fprintf ppf "jsonl:%s" p
  in
  Arg.conv (parse, print)

let level_conv =
  let parse s =
    match Obs.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "expected error, info or debug, got %S" s))
  in
  let print ppf l = Format.pp_print_string ppf (Obs.level_name l) in
  Arg.conv (parse, print)

let log_term =
  Term.(
    const (fun sink level -> { sink; level })
    $ Arg.(
        value
        & opt sink_conv Off
        & info [ "log" ] ~docv:"SINK"
            ~doc:
              "Observability sink: $(b,off) (default), $(b,pretty) (stderr \
               progress lines with rate and ETA) or $(b,jsonl:PATH) (append \
               one schema-versioned JSON record per span/metric to PATH).  \
               Instrumentation never changes any result.")
    $ Arg.(
        value
        & opt level_conv Obs.Info
        & info [ "log-level" ] ~docv:"LEVEL"
            ~doc:"Event verbosity: $(b,error), $(b,info) (default) or $(b,debug)."))

(* How a streaming store read treats I/O and damage. *)
type stream = { prefetch : bool; on_corrupt : [ `Fail | `Skip ] }

let stream_term =
  Term.(
    const (fun no_prefetch on_corrupt -> { prefetch = not no_prefetch; on_corrupt })
    $ Arg.(
        value
        & flag
        & info [ "no-prefetch" ]
            ~doc:
              "Disable background prefetch of the next shard during sequential \
               streaming passes.  Results are bit-identical either way; this \
               only serialises I/O with compute.")
    $ Arg.(
        value
        & opt (enum [ ("fail", `Fail); ("skip", `Skip) ]) `Fail
        & info [ "on-corrupt" ] ~docv:"POLICY"
            ~doc:
              "What to do when a shard fails its CRC or size checks: \
               $(b,fail) (default — abort loudly naming the shard) or \
               $(b,skip) (drop the shard from the campaign and count it in \
               the dema.shards_skipped metric)."))

(* Shared data flags (same name, same doc, every CLI). *)

let seed_arg ?(doc = "Experiment seed.") () =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let noise_arg =
  (* default from the one place the acquisition constants live *)
  Arg.(
    value
    & opt float Leakage.Params.default.Leakage.noise_sigma
    & info [ "noise" ] ~doc:"Noise sigma.")
let n_arg = Arg.(value & opt int 32 & info [ "n" ] ~doc:"Ring degree of the victim.")

let traces_arg = Arg.(value & opt int 2500 & info [ "t"; "traces" ] ~doc:"Trace count.")

let store_default_arg ~doc =
  Arg.(value & opt string "campaign" & info [ "i"; "store" ] ~docv:"DIR" ~doc)

(* The registered target a store's manifest belongs to, or the data
   error naming what the store holds. *)
let target_of_store dir reader =
  let m = Tracestore.Reader.meta reader in
  match Attack.Target.of_meta m with
  | Some t -> t
  | None ->
      failwith
        (Printf.sprintf
           "%s: store (n %d, width %d) is not a campaign of any target (%s)" dir
           m.Tracestore.n m.Tracestore.width
           (String.concat ", " Attack.Target.names))

(* [run ?jobs ?templates log f] is the standard subcommand body
   wrapper: map expected exceptions to the data-error status, honour
   [jobs] process-wide, build the execution context (the distinguisher
   is the profiled one exactly when [templates] names a store; the
   sink's lifetime is [f]'s — the JSONL channel is flushed and closed
   even if [f] raises), and hand it to [f]. *)
let run ?(jobs = 1) ?templates log f =
  with_errors @@ fun () ->
  Parallel.set_default_jobs jobs;
  let obs, finish =
    match log.sink with
    | Off -> (Obs.null, ignore)
    | Pretty ->
        let sink = Obs.Pretty.create () in
        (Obs.make ~level:log.level sink, fun () -> sink.Obs.flush ())
    | Jsonl path ->
        if path = "" then failwith "--log jsonl: needs a file path";
        let oc = open_out_bin path in
        let sink = Obs.Jsonl.to_channel oc in
        ( Obs.make ~level:log.level sink,
          fun () ->
            sink.Obs.flush ();
            close_out oc )
  in
  let distinguisher =
    match templates with
    | None -> Attack.Distinguisher.Pearson
    | Some path -> Attack.Distinguisher.Profiled (Attack.Profile.load path)
  in
  let ctx = Attack.Ctx.make ~distinguisher ~obs () in
  Fun.protect ~finally:finish (fun () -> f ctx)
