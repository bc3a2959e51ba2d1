type result = {
  banner : (string * string) option;
  rows : string list list;
  timings : (string * float) list;
  elapsed : float;
  status : string;
}

type t = {
  mutable header : (string * string) option;
  mutable rows_rev : string list list;
  mutable timings_rev : (string * float) list;
}

let create () = { header = None; rows_rev = []; timings_rev = [] }

let banner t ~id title = t.header <- Some (id, title)

let row t cells = t.rows_rev <- cells :: t.rows_rev

let timing t label dt = t.timings_rev <- (label, dt) :: t.timings_rev

let result ?(elapsed = 0.) ?(status = "exact") t =
  { banner = t.header;
    rows = List.rev t.rows_rev;
    timings = List.rev t.timings_rev;
    elapsed;
    status }

let collect f =
  let t = create () in
  (* any guard exhaustion during the driver means some solver stopped
     early and the numbers are best-effort, not exact *)
  let exhausted_before = Obs.Metrics.sum "guard.exhausted" in
  let t0 = Unix.gettimeofday () in
  f t;
  let status =
    if Obs.Metrics.sum "guard.exhausted" > exhausted_before then "partial"
    else "exact"
  in
  result ~elapsed:(Unix.gettimeofday () -. t0) ~status t

let pad width s align =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with `Left -> s ^ fill | `Right -> fill ^ s

let cell ?(width = 12) s = pad width s `Left
let cellr ?(width = 12) s = pad width s `Right

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let timed_into t label f =
  let r, dt = timed f in
  timing t label dt;
  (r, dt)

let pct v = Printf.sprintf "%.1f%%" v

let render fmt r =
  (match r.banner with
   | Some (id, title) -> Format.fprintf fmt "@.=== %s: %s ===@." id title
   | None -> ());
  if r.status <> "exact" then
    Format.fprintf fmt "(status: %s — a resource guard stopped a solver early)@."
      r.status;
  List.iter
    (fun cells -> Format.fprintf fmt "%s@." (String.concat "  " cells))
    r.rows

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json r =
  let trimmed_rows =
    List.map (fun cells -> List.map String.trim cells) r.rows
  in
  let rows =
    trimmed_rows
    |> List.map (fun cells ->
           "[" ^ String.concat ", " (List.map json_string cells) ^ "]")
    |> String.concat ", "
  in
  let timings =
    r.timings
    |> List.map (fun (label, dt) ->
           Printf.sprintf "%s: %.6f" (json_string label) dt)
    |> String.concat ", "
  in
  let banner =
    match r.banner with
    | Some (id, title) ->
      Printf.sprintf "{\"id\": %s, \"title\": %s}" (json_string id)
        (json_string title)
    | None -> "null"
  in
  Printf.sprintf
    "{\"banner\": %s, \"rows\": [%s], \"timings\": {%s}, \"elapsed\": %.6f, \
     \"status\": %s}"
    banner rows timings r.elapsed (json_string r.status)
