(** The bench-report gate: one declarative table of [(schema, field,
    rule)] rows and one evaluator.  The bench harness names its
    [BENCH_*.json] schemas from here, [assess_cli check-bench] runs
    {!check} and prints {!describe} in its help, and the test suite
    refuses a mutated fixture row by row — so the report schema and its
    bounds are written down once. *)

type rule =
  | Int_min of int  (** an int at least this (1: positive, 0: non-negative) *)
  | Non_neg  (** a finite non-negative number *)
  | True of string  (** must be [true]; the text says what [false] means *)
  | At_least of float * string
      (** a finite number at least the bound; the text says what falling
          below means *)
  | At_most_times of float * string * string
      (** [At_most_times (k, other, why)]: a finite number at most [k]
          times the number in field [other] *)
  | Open_unit  (** a finite number strictly inside (0, 1) *)

type row = { schema : string; field : string; rule : rule }

val pearson : string
(** ["falcon-down/bench-pearson/v2"]: kernel and Target.parts rank
    parity plus the two speed ratios. *)

val sequential : string
val leakage : string

val target : string
(** ["falcon-down/bench-target/v2"]: HQC success rate and determinism. *)

val profiled : string
val stream : string
val obs : string

val rows : row list
(** The table, grouped by schema in {!schemas} order. *)

val schemas : string list

val describe : string -> string
(** One line listing a schema's rows, for help text. *)

val check : Json.t -> (string, string list) result
(** Dispatch on the report's ["schema"] field and evaluate every row
    of that schema.  [Ok] carries a one-line summary; [Error] lists one
    message per failed row, each starting with the field it names.  A
    [null] (how {!Json} writes a non-finite number) fails every number
    row. *)
