(* Timers, statistics and the per-layer accumulator of the benchmark.

   Every timer here wraps a call into a public library function from
   the benchmark's side; nothing is measured from inside the library
   except through its own public counters ([Obs.Snapshot] deltas). *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Peak major heap since the last [reset_heap_peak], sampled at the end
   of every major GC cycle (the runtime's top_heap_words cannot be
   reset, so it could only give one sample per process). *)
let heap_peak = Atomic.make 0

let sample_heap () =
  let w = (Gc.quick_stat ()).Gc.heap_words in
  let rec raise_to () =
    let c = Atomic.get heap_peak in
    if w > c && not (Atomic.compare_and_set heap_peak c w) then raise_to ()
  in
  raise_to ()

let _alarm = Gc.create_alarm sample_heap
let reset_heap_peak () = Atomic.set heap_peak 0; sample_heap ()

let heap_peak_mb () =
  sample_heap ();
  float_of_int (Atomic.get heap_peak * (Sys.word_size / 8)) /. 1e6

(* Per-layer seconds and counts, written from any domain or thread.

   Layer times are wall-equivalent seconds: a timer that runs on one of
   [n] concurrent lanes (pool domains, daemon clients) is weighted 1/n,
   so within a timed section the named layers plus [other_s] add up to
   the section's wall time. *)
module Layers = struct
  type t = { mu : Mutex.t; tbl : (string, float) Hashtbl.t }

  let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

  let add t name v =
    Mutex.protect t.mu (fun () ->
        Hashtbl.replace t.tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt t.tbl name)))

  let get t name = Mutex.protect t.mu (fun () -> Option.value ~default:0. (Hashtbl.find_opt t.tbl name))

  let timed ?(weight = 1.) t name f =
    let t0 = now () in
    Fun.protect ~finally:(fun () -> add t name ((now () -. t0) *. weight)) f

end

(* Layer times that close the wall-time sum; [other_s] is the rest. *)
let closing_layers =
  [ "kernels.find_s"; "curve.candidates_s"; "curve.sweep_s"; "edf.solve_s"; "rms.solve_s"; "pareto.approx_s";
    "pareto.exact_s"; "protocol.parse_s"; "batch.prepare_s"; "batch.render_s"; "memo.find_s";
    "memo.store_s"; "daemon.transport_s" ]

(* Library counters read as snapshot deltas around a traced section:
   (bench metric name, library counter name). *)
let counters =
  [ ("curve.candidates", "enumerate.candidates"); ("enumerate.explored", "enumerate.explored");
    ("enumerate.cap_saturated", "enumerate.cap_saturated");
    ("curve.greedy_fallbacks", "curve.greedy_fallbacks"); ("pool.steals", "pool.steals");
    ("edf.dp_cells", "edf.dp_cells"); ("rms.explored", "rms.explored");
    ("obs.kind_clash", "obs.kind_clash") ]

let add_counter_deltas layers d =
  List.iter (fun (name, lib) -> Layers.add layers name (Obs.Snapshot.counter d lib)) counters

type metric = { name : string; value : float; unit_ : string }

let json_of_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         if not (Float.is_finite m.value) then
           failwith (Printf.sprintf "metric %s is not finite" m.name);
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
       ms)

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter (fun m -> Printf.printf "  %-28s %16.6f %s\n" m.name m.value m.unit_) ms

let print_result ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_of_metrics ms)

(* rm -rf for the benchmark's own scratch directories. *)
let rec remove_tree p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Unix.mkdir p 0o755
  end
