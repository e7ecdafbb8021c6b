(** Execution context for the attack pipeline: the one configuration
    carrier every entry point accepts as [?ctx].

    It holds the three knobs that cut across the whole pipeline — the
    worker count, the distinguisher scoring every ranking, and the
    observability context.  An omitted [?ctx] means {!default}.  The
    per-call data choices ([?leakage], [?on_corrupt], [?prefetch]) are
    arguments of the entry points that use them, not context fields.

    The CLIs build one per subcommand ([bin/cli_common] [run]): [-j]
    sets [jobs], [--templates PATH] alone selects the profiled
    distinguisher (Pearson otherwise) and [--log]/[--log-level] the
    sink, on exactly the subcommands whose bodies read them. *)

type t = {
  jobs : int;  (** worker domains for [Parallel] sweeps (>= 1) *)
  backend : Distinguisher.selection;  (** which distinguisher scores rankings *)
  obs : Obs.t;  (** observability context; [Obs.null] by default *)
}

val default : unit -> t
(** The process-wide defaults as of the call: [Parallel.default_jobs]
    (so a CLI's [Parallel.set_default_jobs] is honoured), the Pearson
    distinguisher and [Obs.null].  A function, not a constant, because
    the jobs default is mutable. *)

val make : ?jobs:int -> ?distinguisher:Distinguisher.selection -> ?obs:Obs.t -> unit -> t
(** {!default} with the given fields overridden.  Raises
    [Invalid_argument] if [jobs < 1]. *)

val with_jobs : int -> t -> t
val with_backend : Distinguisher.selection -> t -> t
val with_obs : Obs.t -> t -> t

val sequential : t -> t
(** [with_jobs 1], for handing a context to per-task inner work that
    must not nest parallelism. *)

val kernel : t -> Stats.Pearson.Batch.backend
(** The Pearson kernel production sweeps run: always [Batched].  The
    scalar kernel is the reference the tests compare against
    ([Dema.pearson Scalar]). *)
