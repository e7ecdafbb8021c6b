type level = Error | Info | Debug

let level_name = function Error -> "error" | Info -> "info" | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii s with
  | "error" -> Some Error
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let level_rank = function Error -> 0 | Info -> 1 | Debug -> 2

type field = Int of int | Float of float | Str of string | Bool of bool
type fields = (string * field) list

type event =
  | Span of {
      name : string;
      path : string list;
      level : level;
      fields : fields;
      elapsed_ns : int64;
    }
  | Count of {
      name : string;
      path : string list;
      level : level;
      fields : fields;
      n : int;
    }
  | Gauge of {
      name : string;
      path : string list;
      level : level;
      fields : fields;
      v : float;
    }

type sink = {
  emit : event -> unit;
  progress : label:string -> total:int option -> int -> unit;
  flush : unit -> unit;
}

(* ---- contexts ---- *)

(* A context is either the free Null (every operation returns before
   touching a clock or allocating) or a live record.  [rev_path] is the
   current span stack, innermost first; it is mutated only by [span] on
   the owning domain, so no synchronisation is needed — the determinism
   contract (events only from the owner, workers only use private
   accumulators and [progress]) is documented in the interface and
   relied on by the Jsonl golden tests. *)
type ctx = {
  sink : sink;
  level : level;
  clock : unit -> int64;
  mutable rev_path : string list;
  buffer : event Queue.t option;
}

type t = Null | Ctx of ctx

let null = Null

let default_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let make ?(level = Info) ?(clock = default_clock) sink =
  Ctx { sink; level; clock; rev_path = []; buffer = None }

let enabled = function Null -> false | Ctx _ -> true

let level_enabled t l =
  match t with Null -> false | Ctx c -> level_rank l <= level_rank c.level

let deliver c e =
  match c.buffer with Some q -> Queue.push e q | None -> c.sink.emit e

let span ?(level = Info) ?(fields = []) t name f =
  match t with
  | Null -> f ()
  | Ctx c ->
      if level_rank level > level_rank c.level then f ()
      else begin
        let saved = c.rev_path in
        c.rev_path <- name :: saved;
        let t0 = c.clock () in
        Fun.protect f ~finally:(fun () ->
            let elapsed_ns = Int64.sub (c.clock ()) t0 in
            c.rev_path <- saved;
            deliver c (Span { name; path = List.rev saved; level; fields; elapsed_ns }))
      end

let count ?(level = Info) ?(fields = []) t name n =
  match t with
  | Null -> ()
  | Ctx c ->
      if level_rank level <= level_rank c.level then
        deliver c (Count { name; path = List.rev c.rev_path; level; fields; n })

let gauge ?(level = Info) ?(fields = []) t name v =
  match t with
  | Null -> ()
  | Ctx c ->
      if level_rank level <= level_rank c.level then
        deliver c (Gauge { name; path = List.rev c.rev_path; level; fields; v })

let progress ?total t label n =
  match t with Null -> () | Ctx c -> c.sink.progress ~label ~total n

let buffered = function
  | Null -> Null
  | Ctx c ->
      Ctx
        {
          sink = c.sink;
          level = c.level;
          clock = c.clock;
          rev_path = c.rev_path;
          buffer = Some (Queue.create ());
        }

let drain ~into child =
  match (into, child) with
  | Ctx parent, Ctx { buffer = Some q; _ } ->
      Queue.iter (deliver parent) q;
      Queue.clear q
  | _ -> ()

(* ---- pretty sink ---- *)

module Pretty = struct
  type state = { mutable start : float; mutable last_render : float }

  let default_clock () = Unix.gettimeofday ()

  let field_repr = function
    | Int i -> string_of_int i
    | Float f -> Printf.sprintf "%g" f
    | Str s -> s
    | Bool b -> string_of_bool b

  let fields_repr = function
    | [] -> ""
    | fs ->
        " {"
        ^ String.concat ", "
            (List.map (fun (k, v) -> k ^ "=" ^ field_repr v) fs)
        ^ "}"

  let duration_repr ns =
    let s = Int64.to_float ns /. 1e9 in
    if s >= 1. then Printf.sprintf "%.2fs" s
    else if s >= 1e-3 then Printf.sprintf "%.1fms" (s *. 1e3)
    else Printf.sprintf "%.0fus" (s *. 1e6)

  let create ?(clock = default_clock) ?(out = stderr) ?(min_interval = 0.1) () =
    let mutex = Mutex.create () in
    let states : (string, state) Hashtbl.t = Hashtbl.create 8 in
    (* a progress line is live on screen: start span/metric lines with
       \r to overwrite it rather than appending to its tail *)
    let dirty = ref false in
    let locked f =
      Mutex.lock mutex;
      Fun.protect f ~finally:(fun () -> Mutex.unlock mutex)
    in
    let clear_line () =
      if !dirty then begin
        output_string out "\r\027[K";
        dirty := false
      end
    in
    let emit event =
      locked (fun () ->
          clear_line ();
          (match event with
          | Span { name; path; fields; elapsed_ns; _ } ->
              let indent = String.make (2 * List.length path) ' ' in
              Printf.fprintf out "%s%-32s %8s%s\n" indent name
                (duration_repr elapsed_ns) (fields_repr fields)
          | Count { name; path; fields; n; _ } ->
              let indent = String.make (2 * List.length path) ' ' in
              Printf.fprintf out "%s%-32s %8d%s\n" indent name n (fields_repr fields)
          | Gauge { name; path; fields; v; _ } ->
              let indent = String.make (2 * List.length path) ' ' in
              Printf.fprintf out "%s%-32s %8g%s\n" indent name v (fields_repr fields));
          flush out)
    in
    let progress ~label ~total n =
      locked (fun () ->
          let now = clock () in
          let st =
            match Hashtbl.find_opt states label with
            | Some st -> st
            | None ->
                let st = { start = now; last_render = neg_infinity } in
                Hashtbl.add states label st;
                st
          in
          let finished = match total with Some t -> n >= t | None -> false in
          if finished || now -. st.last_render >= min_interval then begin
            st.last_render <- now;
            let dt = now -. st.start in
            let rate = if dt > 0. then float_of_int n /. dt else 0. in
            (match total with
            | Some t ->
                let eta =
                  if rate > 0. && t > n then
                    Printf.sprintf " eta %.1fs" (float_of_int (t - n) /. rate)
                  else ""
                in
                Printf.fprintf out "\r\027[K%s %d/%d (%.1f%%) %.1f/s%s" label n t
                  (100. *. float_of_int n /. float_of_int (max 1 t))
                  rate eta
            | None -> Printf.fprintf out "\r\027[K%s %d %.1f/s" label n rate);
            dirty := true;
            if finished then begin
              output_char out '\n';
              dirty := false;
              Hashtbl.remove states label
            end;
            flush out
          end)
    in
    {
      emit;
      progress;
      flush = (fun () -> locked (fun () -> clear_line (); flush out));
    }
end

(* ---- JSONL sink ---- *)

module Jsonl = struct
  let schema = "falcon-down/obs/v1"

  let json_of_field = function
    | Int i -> Json.Int i
    | Float f -> Json.Float f
    | Str s -> Json.String s
    | Bool b -> Json.Bool b

  let common ~seq ~typ ~name ~path ~level ~fields rest =
    Json.Obj
      ([
         ("schema", Json.String schema);
         ("seq", Json.Int seq);
         ("type", Json.String typ);
         ("name", Json.String name);
         ("path", Json.List (List.map (fun s -> Json.String s) path));
         ("level", Json.String (level_name level));
         ("fields", Json.Obj (List.map (fun (k, v) -> (k, json_of_field v)) fields));
       ]
      @ rest)

  let record ~seq = function
    | Span { name; path; level; fields; elapsed_ns } ->
        common ~seq ~typ:"span" ~name ~path ~level ~fields
          [ ("elapsed_ns", Json.Int (Int64.to_int elapsed_ns)) ]
    | Count { name; path; level; fields; n } ->
        common ~seq ~typ:"counter" ~name ~path ~level ~fields
          [ ("value", Json.Int n) ]
    | Gauge { name; path; level; fields; v } ->
        common ~seq ~typ:"gauge" ~name ~path ~level ~fields
          [ ("value", Json.Float v) ]

  let sink ?write ?(flush = ignore) () =
    let write = match write with Some w -> w | None -> ignore in
    (* [emit] only ever runs on the domain that owns the root context
       (see the determinism contract), but a mutex keeps the seq counter
       and line writes coherent even if a caller bends the rule. *)
    let mutex = Mutex.create () in
    let seq = ref 0 in
    let emit event =
      Mutex.lock mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mutex)
        (fun () ->
          let line = Json.to_string (record ~seq:!seq event) in
          incr seq;
          write (line ^ "\n");
          (* completed spans are the log's checkpoints: flush so a crash
             tears at most the final (tolerated) line *)
          match event with Span _ -> flush () | _ -> ())
    in
    { emit; progress = (fun ~label:_ ~total:_ _ -> ()); flush }

  let to_channel oc =
    sink ~write:(output_string oc) ~flush:(fun () -> flush oc) ()

  let to_buffer b = sink ~write:(Buffer.add_string b) ()

  let read_string s =
    (* Split into newline-terminated lines plus an optional unterminated
       tail.  Like a torn tracestore shard, only the *final* segment may
       be damaged (Jsonl flushes after each span record): it is dropped
       if unparsable; malformed earlier lines are hard errors. *)
    let lines = String.split_on_char '\n' s in
    let rec go acc idx = function
      | [] -> List.rev acc
      | [ last ] ->
          (* after the final '\n' (empty) or an unterminated tail *)
          if String.trim last = "" then List.rev acc
          else begin
            match Json.of_string last with
            | v -> List.rev (v :: acc)
            | exception Failure _ -> List.rev acc
          end
      | line :: rest ->
          if String.trim line = "" then go acc (idx + 1) rest
          else begin
            match Json.of_string line with
            | v -> go (v :: acc) (idx + 1) rest
            | exception Failure msg ->
                if rest = [] || List.for_all (fun l -> String.trim l = "") rest
                then
                  (* terminated but truncated final record: tolerate *)
                  List.rev acc
                else
                  failwith
                    (Printf.sprintf "Obs.Jsonl: malformed record on line %d: %s"
                       (idx + 1) msg)
          end
    in
    go [] 0 lines

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> read_string (really_input_string ic (in_channel_length ic)))

  let validate records =
    let err i msg = Stdlib.Error (Printf.sprintf "record %d: %s" i msg) in
    let scalar = function
      | Json.Int _ | Json.Float _ | Json.String _ | Json.Bool _ | Json.Null ->
          true
      | _ -> false
    in
    let check i r =
      let mem k = Json.member k r in
      match mem "schema" with
      | Some (Json.String s) when s = schema -> (
          match mem "seq" with
          | Some (Json.Int s) when s = i -> (
              match mem "name" with
              | Some (Json.String n) when n <> "" -> (
                  match mem "path" with
                  | Some (Json.List path)
                    when List.for_all
                           (function Json.String _ -> true | _ -> false)
                           path -> (
                      match mem "level" with
                      | Some (Json.String l) when level_of_string l <> None -> (
                          match mem "fields" with
                          | Some (Json.Obj fs)
                            when List.for_all (fun (_, v) -> scalar v) fs -> (
                              match mem "type" with
                              | Some (Json.String "span") -> (
                                  match mem "elapsed_ns" with
                                  | Some (Json.Int ns) when ns >= 0 -> Ok ()
                                  | _ -> err i "span lacks a non-negative elapsed_ns")
                              | Some (Json.String "counter") -> (
                                  match mem "value" with
                                  | Some (Json.Int _) -> Ok ()
                                  | _ -> err i "counter lacks an integer value")
                              | Some (Json.String "gauge") -> (
                                  match mem "value" with
                                  | Some (Json.Int _ | Json.Float _ | Json.Null) ->
                                      Ok ()
                                  | _ -> err i "gauge lacks a numeric value")
                              | _ -> err i "unknown record type")
                          | _ -> err i "fields must be an object of scalars")
                      | _ -> err i "bad level")
                  | _ -> err i "path must be a list of strings")
              | _ -> err i "missing or empty name")
          | _ -> err i "seq must count contiguously from 0")
      | _ -> err i (Printf.sprintf "schema tag must be %S" schema)
    in
    let rec go i = function
      | [] -> Ok ()
      | r :: rest -> ( match check i r with Ok () -> go (i + 1) rest | e -> e)
    in
    go 0 records
end

module Json = Json
