(* ---------------------------------------------------------------- *)
(* A minimal JSON reader — just enough for the repro schema.         *)
(* ---------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let hex = String.sub s !pos 4 in
           let is_hex = function
             | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
             | _ -> false
           in
           (* validate before int_of_string: it accepts '_' and '+' and
              raises Failure (not Parse_error) on garbage *)
           if not (String.for_all is_hex hex) then fail "malformed \\u escape";
           let code = int_of_string ("0x" ^ hex) in
           pos := !pos + 4;
           (* repro content is ASCII; anything else round-trips as '?' *)
           Buffer.add_char buf (if code < 128 then Char.chr code else '?')
         | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let key = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* ---------------------------------------------------------------- *)
(* Schema decoding                                                   *)
(* ---------------------------------------------------------------- *)

let field obj key =
  match obj with
  | Obj fields ->
    (match List.assoc_opt key fields with
     | Some v -> v
     | None -> raise (Parse_error ("missing field " ^ key)))
  | _ -> raise (Parse_error ("expected an object for " ^ key))

(* Past 2^53 a float no longer represents every integer, so [int_of_float]
   would silently return a neighbour of the written value. *)
let max_exact_int = 9007199254740992.0 (* 2^53 *)

let as_int = function
  | Num f when Float.is_integer f && Float.abs f <= max_exact_int -> int_of_float f
  | Num _ -> raise (Parse_error "integer out of exactly-representable range")
  | _ -> raise (Parse_error "expected an integer")

let as_float = function
  | Num f -> f
  | _ -> raise (Parse_error "expected a number")

let as_list = function
  | Arr vs -> vs
  | _ -> raise (Parse_error "expected an array")

let as_string = function
  | Str s -> s
  | _ -> raise (Parse_error "expected a string")

let kind_of_name =
  let table = List.map (fun k -> (Ir.Op.name k, k)) Ir.Op.all in
  fun name ->
    match List.assoc_opt name table with
    | Some k -> k
    | None -> raise (Parse_error ("unknown operation " ^ name))

let decode_instance j =
  let task_of j =
    { Instance.period = as_int (field j "period");
      base = as_int (field j "base");
      points =
        List.map
          (fun p ->
            { Instance.area = as_int (field p "area");
              cycles = as_int (field p "cycles") })
          (as_list (field j "points")) }
  in
  let dfg = field j "dfg" in
  { Instance.tasks = List.map task_of (as_list (field j "tasks"));
    budget = as_int (field j "budget");
    eps = as_float (field j "eps");
    dfg =
      { Instance.kinds =
          List.map (fun k -> kind_of_name (as_string k)) (as_list (field dfg "kinds"));
        edges =
          List.map
            (fun e ->
              match as_list e with
              | [ s; d ] -> (as_int s, as_int d)
              | _ -> raise (Parse_error "edge must be a [src, dst] pair"))
            (as_list (field dfg "edges"));
        live_outs = List.map as_int (as_list (field dfg "live_outs")) } }

(* ---------------------------------------------------------------- *)
(* Emission — the exact inverse of [parse] on the repro/batch schema *)
(* ---------------------------------------------------------------- *)

(* Matches the conventions of Obs.Jsonx / Instance.to_json: integral
   doubles in [-2^53, 2^53] print in integer form (as [string_of_int]
   would), everything else via %.17g so doubles survive a round trip.
   Consequently [to_string (parse (to_string j)) = to_string j]. *)
let num_to_string f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f <= max_exact_int then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> if b then "true" else "false"
  | Num f -> num_to_string f
  | Str s -> Obs.Jsonx.string s
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Obs.Jsonx.string k ^ ": " ^ to_string v) fields)
    ^ "}"

let num_int i = Num (float_of_int i)

let json_of_instance (t : Instance.t) =
  let point (p : Instance.curve_point) =
    Obj [ ("area", num_int p.area); ("cycles", num_int p.cycles) ]
  in
  let task (ts : Instance.task_spec) =
    Obj
      [ ("period", num_int ts.period);
        ("base", num_int ts.base);
        ("points", Arr (List.map point ts.points)) ]
  in
  Obj
    [ ("budget", num_int t.budget);
      ("eps", Num t.eps);
      ("tasks", Arr (List.map task t.tasks));
      ( "dfg",
        Obj
          [ ( "kinds",
              Arr (List.map (fun k -> Str (Ir.Op.name k)) t.dfg.Instance.kinds) );
            ( "edges",
              Arr
                (List.map
                   (fun (s, d) -> Arr [ num_int s; num_int d ])
                   t.dfg.Instance.edges) );
            ("live_outs", Arr (List.map num_int t.dfg.Instance.live_outs)) ] ) ]

let instance_of_json text =
  match decode_instance (parse text) with
  | inst when Instance.valid inst -> Ok inst
  | _ -> Error "instance violates a constructor precondition"
  | exception Parse_error msg -> Error msg

type t = { prop : string; seed : int; instance : Instance.t }

let version = 1

let write ~file ~prop ~seed inst =
  let body =
    Obs.Jsonx.obj
      [ ("version", string_of_int version);
        ("prop", Obs.Jsonx.string prop);
        ("seed", string_of_int seed);
        ("instance", Instance.to_json inst) ]
  in
  let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc body;
      output_char oc '\n');
  Sys.rename tmp file

let read file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text ->
    (match parse text with
     | exception Parse_error msg -> Error msg
     | j ->
       (match
          let v = as_int (field j "version") in
          if v <> version then
            raise (Parse_error (Printf.sprintf "unsupported version %d" v));
          { prop = as_string (field j "prop");
            seed = as_int (field j "seed");
            instance = decode_instance (field j "instance") }
        with
        | r when Instance.valid r.instance -> Ok r
        | _ -> Error "instance violates a constructor precondition"
        | exception Parse_error msg -> Error msg))
