(* Shared exit-status convention of every CLI in this repository:

     0    success
     1    data error — malformed or missing input files, failed key
          reconstruction, invalid parameter values (the Failure /
          Sys_error / Invalid_argument families)
     124  command-line usage error (cmdliner's Cmd.eval' default)

   Each executable's main is  exit (Cmd.eval' (Cmd.group ...))  and each
   subcommand body runs under [with_errors] (usually via [run]), which
   maps the expected exception families to the data-error status with
   their message on stderr; any other exception is a bug and escapes as
   a backtrace.

   This module also hoists the flag parsing the four CLIs share: one
   [Common_flags] record carries the worker-domain count, the
   distinguisher backend (including the profiled template backend and
   its --templates store path) and the observability sink selection,
   and [run] turns it into an [Attack.Ctx.t] handed to the subcommand
   body. *)

let ok = 0
let data_error = 1

let with_errors f =
  try f () with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      prerr_endline msg;
      data_error

open Cmdliner

type log = Off | Pretty | Jsonl of string

(* The --backend enum covers every registered distinguisher: Pearson
   plus the profiled template backend, which needs a --templates store
   to instantiate. *)
type backend_flag = Pearson | Profiled

module Common_flags = struct
  type t = {
    jobs : int;
    backend : backend_flag;
    templates : string option;  (* --templates PATH, required by Profiled *)
    log : log;
    log_level : Obs.level;
    prefetch : bool;
    on_corrupt : [ `Fail | `Skip ];
  }
end

let jobs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for parallelisable stages.  Every result is \
           bit-identical at every value; 1 (the default) runs sequentially.")

let backend_conv = Arg.enum [ ("pearson", Pearson); ("profiled", Profiled) ]

let backend_arg =
  Arg.(
    value
    & opt backend_conv Pearson
    & info [ "backend" ] ~docv:"DISTINGUISHER"
        ~doc:
          "Distinguisher: $(b,pearson) (correlation DEMA, the default) or \
           $(b,profiled) (Gaussian template log-likelihood; requires \
           $(b,--templates)).")

let templates_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "templates" ] ~docv:"PATH"
        ~doc:
          "Template store for $(b,--backend profiled), as written by \
           $(b,attack_cli profile).")

let log_conv =
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

let log_arg =
  Arg.(
    value
    & opt log_conv Off
    & info [ "log" ] ~docv:"SINK"
        ~doc:
          "Observability sink: $(b,off) (default), $(b,pretty) (stderr \
           progress lines with rate and ETA) or $(b,jsonl:PATH) (append one \
           schema-versioned JSON record per span/metric to PATH).  \
           Instrumentation never changes any result.")

let level_conv =
  let parse s =
    match Obs.level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "expected error, info or debug, got %S" s))
  in
  let print ppf l = Format.pp_print_string ppf (Obs.level_name l) in
  Arg.conv (parse, print)

let log_level_arg =
  Arg.(
    value
    & opt level_conv Obs.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Event verbosity: $(b,error), $(b,info) (default) or $(b,debug).")

let no_prefetch_arg =
  Arg.(
    value
    & flag
    & info [ "no-prefetch" ]
        ~doc:
          "Disable background prefetch of the next shard during sequential \
           streaming passes.  Results are bit-identical either way; this only \
           serialises I/O with compute.")

let on_corrupt_conv = Arg.enum [ ("fail", `Fail); ("skip", `Skip) ]

let on_corrupt_arg =
  Arg.(
    value
    & opt on_corrupt_conv `Fail
    & info [ "on-corrupt" ] ~docv:"POLICY"
        ~doc:
          "What to do when a shard fails its CRC or size checks: $(b,fail) \
           (default — abort loudly naming the shard) or $(b,skip) (drop the \
           shard from the campaign and count it in the dema.shards_skipped \
           metric).  Only streaming store reads can skip; commands that read \
           a store strictly refuse $(b,skip).")

let flags_term =
  Term.(
    const (fun jobs backend templates log log_level no_prefetch on_corrupt ->
        {
          Common_flags.jobs;
          backend;
          templates;
          log;
          log_level;
          prefetch = not no_prefetch;
          on_corrupt;
        })
    $ jobs_arg $ backend_arg $ templates_arg $ log_arg $ log_level_arg
    $ no_prefetch_arg $ on_corrupt_arg)

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

let traces_arg ?(default = 2500) ?(doc = "Trace count.") () =
  Arg.(value & opt int default & info [ "t"; "traces" ] ~doc)

let store_opt_arg ~doc = Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

(* --target dispatches on the Attack.Target registry; the conv rejects
   unknown names with the registry's own list, so the CLIs never drift
   from the library. *)
let target_arg =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Attack.Target.names)) "falcon"
    & info [ "target" ] ~docv:"SCHEME"
        ~doc:
          (Printf.sprintf
             "Victim scheme to attack: %s.  $(b,falcon) (the default) is the \
              paper's FALCON FFT multiplier; $(b,hqc) is the HQC sparse \
              polynomial rotate-and-accumulate victim."
             (String.concat " or "
                (List.map (Printf.sprintf "$(b,%s)") Attack.Target.names))))

let store_default_arg ~doc =
  Arg.(value & opt string "campaign" & info [ "i"; "store" ] ~docv:"DIR" ~doc)

(* Resolve the --backend / --templates pair into a distinguisher
   selection.  --backend profiled without --templates is a
   configuration error (exit 1 with a message naming both flags);
   --templates with --backend pearson is ignored deliberately so
   scripts can hold the flag constant while sweeping backends. *)
let distinguisher_of_flags (flags : Common_flags.t) =
  match flags.Common_flags.backend with
  | Pearson -> Attack.Distinguisher.Pearson
  | Profiled -> (
      match flags.Common_flags.templates with
      | Some path -> Attack.Distinguisher.Profiled (Attack.Profile.load path)
      | None ->
          failwith
            "--backend profiled needs --templates PATH (a template store \
             written by `attack_cli profile`)")

(* [run flags f] is the standard subcommand body wrapper: map expected
   exceptions to the data-error status, honour [-j] process-wide, build
   the execution context from the flags (sink lifetime included — the
   JSONL channel is flushed and closed even if [f] raises), and hand it
   to [f]. *)
let run (flags : Common_flags.t) f =
  with_errors @@ fun () ->
  Parallel.set_default_jobs flags.Common_flags.jobs;
  let obs, finish =
    match flags.Common_flags.log with
    | Off -> (Obs.null, ignore)
    | Pretty ->
        let sink = Obs.Pretty.create () in
        (Obs.make ~level:flags.Common_flags.log_level sink, fun () -> sink.Obs.flush ())
    | Jsonl path ->
        if path = "" then failwith "--log jsonl: needs a file path";
        let oc = open_out_bin path in
        let sink = Obs.Jsonl.to_channel oc in
        ( Obs.make ~level:flags.Common_flags.log_level sink,
          fun () ->
            sink.Obs.flush ();
            close_out oc )
  in
  let ctx =
    Attack.Ctx.make ~distinguisher:(distinguisher_of_flags flags) ~obs ()
  in
  Fun.protect ~finally:finish (fun () -> f ctx)
