(** Replayable counterexample files, and the JSON codec they ride on.

    A repro file is one JSON object — property name, the seed the run
    started from, and the (shrunk) instance — written with
    {!Obs.Jsonx} and read back with the small JSON parser this
    module carries (parsing deliberately stays out of [lib/engine]).
    [isecustom check replay FILE] re-runs exactly the recorded property
    on exactly the recorded instance.

    The parser and emitter are also the wire codec of the batch request
    protocol ([lib/engine/batch]), so the full JSON surface is exposed
    here rather than kept private to the repro reader. *)

(** {1 JSON values} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

val parse : string -> json
(** Recursive-descent parse of a complete JSON document.  Raises
    {!Parse_error} (never any other exception) on malformed input,
    including trailing content. *)

val to_string : json -> string
(** Deterministic emission matching the {!Obs.Jsonx} conventions:
    [", "]-separated members, integral doubles in [[-2^53, 2^53]] in
    integer form, other numbers via [%.17g] (exact double round-trip),
    non-finite numbers as [null].  On that domain
    [to_string (parse (to_string j)) = to_string j], which is what the
    batch memo tables rely on for byte-identical warm results. *)

(** {1 Schema accessors}

    All raise {!Parse_error} on a type or range mismatch. *)

val field : json -> string -> json
(** First binding of the key in an object. *)

val as_int : json -> int
(** Integral [Num] within the exactly-representable range ±2^53. *)

val as_float : json -> float

val as_string : json -> string

val as_list : json -> json list

(** {1 Instances} *)

val decode_instance : json -> Instance.t
(** Decode an instance object ({!Instance.to_json} schema).  Raises
    {!Parse_error}; does not check {!Instance.valid}. *)

val json_of_instance : Instance.t -> json
(** The same schema as a value; [to_string (json_of_instance i)] equals
    [Instance.to_json i] byte for byte (asserted in the test suite). *)

val instance_of_json : string -> (Instance.t, string) result
(** Decode and validate just an instance object. *)

(** {1 Repro files} *)

val write : file:string -> prop:string -> seed:int -> Instance.t -> unit
(** Atomically write a repro file (temp file + rename). *)

type t = { prop : string; seed : int; instance : Instance.t }

val read : string -> (t, string) result
(** Parse a repro file; [Error] carries a human-readable reason. *)
