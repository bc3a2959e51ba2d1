type span = {
  id : int;
  parent : int option;
  name : string;
  attrs : (string * string) list;
  t_start : float;
  t_end : float;
  domain : int;
}

let enabled_flag = Atomic.make false
let next_id = Atomic.make 1
let epoch = Atomic.make 0.

let lock = Mutex.create ()
let global : span list ref = ref []

(* Completed spans stay in a domain-local buffer until [flush_local], so
   workers never contend on the global mutex per span — only once at
   join.  The open-span stack is also domain-local: nesting is a
   per-domain notion. *)
type local = { mutable stack : int list; mutable buf : span list }

let key = Domain.DLS.new_key (fun () -> { stack = []; buf = [] })

let enabled () = Atomic.get enabled_flag

let set_enabled b =
  if b && not (enabled ()) then Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set enabled_flag b

let current () =
  match (Domain.DLS.get key).stack with [] -> None | p :: _ -> Some p

let adopt parent f =
  match parent with
  | None -> f ()
  | Some p ->
    let l = Domain.DLS.get key in
    let saved = l.stack in
    l.stack <- [ p ];
    Fun.protect ~finally:(fun () -> l.stack <- saved) f

(* Pushes a span onto this domain's stack; the returned closure pops it
   and buffers it with the caller's start/end clock readings. *)
let open_span attrs name =
  let l = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match l.stack with [] -> None | p :: _ -> Some p in
  l.stack <- id :: l.stack;
  fun t0 t1 ->
    let e = Atomic.get epoch in
    l.stack <- List.tl l.stack;
    l.buf <-
      { id; parent; name; attrs; t_start = t0 -. e; t_end = t1 -. e;
        domain = (Domain.self () :> int) }
      :: l.buf

let with_span ?(attrs = []) ?timer ?hist name f =
  let tracing = enabled () in
  if (not tracing) && timer = None && hist = None then f ()
  else begin
    let close = if tracing then Some (open_span attrs name) else None in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        Option.iter (fun n -> Obs.Metrics.inc_s n (t1 -. t0)) timer;
        Option.iter (fun n -> Obs.Metrics.observe n (t1 -. t0)) hist;
        Option.iter (fun close -> close t0 t1) close)
      f
  end

let flush_local () =
  let l = Domain.DLS.get key in
  match l.buf with
  | [] -> ()
  | buf ->
    l.buf <- [];
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> global := List.rev_append buf !global)

let spans () =
  flush_local ();
  Mutex.lock lock;
  let all = Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> !global) in
  List.sort (fun a b -> compare (a.t_start, a.id) (b.t_start, b.id)) all

let reset () =
  let l = Domain.DLS.get key in
  l.buf <- [];
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> global := []);
  Atomic.set epoch (Unix.gettimeofday ())

type tree = { span : span; children : tree list }

let tree () =
  let all = spans () in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) all;
  let children = Hashtbl.create 64 in
  let roots =
    (* keep start order: children lists and the root list are built in
       one reversed pass over the already-sorted span list *)
    List.fold_left
      (fun roots s ->
        match s.parent with
        | Some p when Hashtbl.mem ids p ->
          Hashtbl.replace children p
            (s :: Option.value ~default:[] (Hashtbl.find_opt children p));
          roots
        | Some _ | None -> s :: roots)
      [] (List.rev all)
  in
  let rec build s =
    { span = s;
      children =
        List.map build (Option.value ~default:[] (Hashtbl.find_opt children s.id)) }
  in
  List.map build roots

let duration s = s.t_end -. s.t_start

let pp_tree fmt () =
  let rec pp depth t =
    Format.fprintf fmt "%s%-*s %9.3f ms%s@."
      (String.make (2 * depth) ' ')
      (max 1 (40 - (2 * depth)))
      t.span.name
      (1e3 *. duration t.span)
      (match t.span.attrs with
       | [] -> ""
       | attrs ->
         "  ["
         ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
         ^ "]");
    List.iter (pp (depth + 1)) t.children
  in
  match tree () with
  | [] -> Format.fprintf fmt "no spans recorded@."
  | roots -> List.iter (pp 0) roots

let to_chrome_json () =
  let open Obs.Jsonx in
  let event s =
    let args =
      ("span_id", string (string_of_int s.id))
      :: (match s.parent with
          | Some p -> [ ("parent_id", string (string_of_int p)) ]
          | None -> [])
      @ List.map (fun (k, v) -> (k, string v)) s.attrs
    in
    obj
      [ ("name", string s.name);
        ("cat", string "isecustom");
        ("ph", string "X");
        ("ts", float (1e6 *. s.t_start));
        ("dur", float (1e6 *. duration s));
        ("pid", "1");
        ("tid", string_of_int s.domain);
        ("args", obj args) ]
  in
  obj
    [ ("traceEvents", arr (List.map event (spans ())));
      ("displayTimeUnit", string "ms") ]

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_chrome_json ());
      output_char oc '\n')
