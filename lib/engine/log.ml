type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let string_of_level = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii s with
  | "error" -> Ok Error
  | "warn" | "warning" -> Ok Warn
  | "info" -> Ok Info
  | "debug" -> Ok Debug
  | s -> Error (Printf.sprintf "unknown log level %S (error|warn|info|debug)" s)

let lock = Mutex.create ()
let level_ref = ref Warn
let fmt_ref = ref Format.err_formatter
let json_oc : out_channel option ref = ref None

let protect f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let set_level l = protect (fun () -> level_ref := l)
let level () = protect (fun () -> !level_ref)
let would_log l = severity l <= severity (protect (fun () -> !level_ref))
let set_formatter fmt = protect (fun () -> fmt_ref := fmt)

let close_json () =
  match !json_oc with
  | Some oc ->
    close_out_noerr oc;
    json_oc := None
  | None -> ()

let set_json_file path =
  protect (fun () ->
      close_json ();
      match path with
      | None -> ()
      | Some path ->
        json_oc :=
          Some (open_out_gen [ Open_append; Open_creat ] 0o644 path))

let emit l message =
  let ts = Unix.gettimeofday () in
  protect (fun () ->
      let tm = Unix.localtime ts in
      Format.fprintf !fmt_ref "[%02d:%02d:%02d %-5s] %s@." tm.Unix.tm_hour
        tm.Unix.tm_min tm.Unix.tm_sec (string_of_level l) message;
      match !json_oc with
      | None -> ()
      | Some oc ->
        output_string oc
          Obs.Jsonx.(
            obj
              [ ("ts", float ts);
                ("level", string (string_of_level l));
                ("msg", string message) ]);
        output_char oc '\n';
        flush oc)

let msg l fmt =
  if would_log l then Format.kasprintf (emit l) fmt
  else Format.ikfprintf ignore Format.err_formatter fmt

let err fmt = msg Error fmt
let warn fmt = msg Warn fmt
let info fmt = msg Info fmt
let debug fmt = msg Debug fmt
