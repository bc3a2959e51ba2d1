(* The frozen inputs of the solve-stream and daemon-warm workloads.

   [fixture.txt] holds the real configuration curves of the 17 kernels
   of Table 3.1 ∪ Table 4.1, as the pipeline generated them, and one
   MD5 digest per unique request of the expected response line.  The
   requests are rebuilt from the curves on every run, so identification
   does no work in those workloads, and the reference pins the solver
   output byte for byte.  A last [digest] line covers everything above
   it: the runner refuses to start when the file is missing, edited or
   does not describe the request population it builds.

   The file is plain text rather than JSONL because [*.jsonl] is
   git-ignored repo-wide.  [main.exe freeze] regenerates it. *)

module P = Batch.Protocol
module I = Check.Instance

let path = Filename.concat "perfbench" "fixture.txt"

(* Table 3.1 ∪ Table 4.1, sorted. *)
let kernels =
  List.sort_uniq compare
    (List.concat_map Experiments.Curves.taskset_ch3 [ 1; 2; 3; 4; 5; 6 ]
    @ List.concat_map Experiments.Curves.taskset_ch4 [ 1; 2; 3; 4; 5 ])

(* Fig 3.3's grid and Table 4.2's approximation factors. *)
let utilizations = [ 0.80; 1.00; 1.05; 1.08; 1.10 ]
let area_steps = List.init 11 Fun.id
let eps_values = [ 0.21; 0.44; 0.69; 3. ]

type t = {
  curves : (string * Isa.Config.t) list;
  refs : (string, string) Hashtbl.t;  (** request id -> MD5 hex of its response *)
}

(* One unique request of the population.  [edf50] is the target
   utilization of the EDF requests at 50 % Max_Area, the ones the
   utilization-reduction quality metric reads. *)
type item = { req : P.request; edf50 : float option }

let tasks_of curves ~u names =
  List.map (fun n -> Rt.Task.make ~name:n ~period:1 (List.assoc n curves)) names
  |> Rt.Task.with_target_utilization u

let spec_of_task (t : Rt.Task.t) =
  { I.period = t.period;
    base = t.wcet;
    points =
      Isa.Config.points t.curve |> Array.to_list |> List.tl
      |> List.map (fun (p : Isa.Config.point) -> { I.area = p.area; cycles = p.cycles }) }

let request ~id ~op ~budget ~eps tasks =
  { P.id;
    op;
    instance =
      { I.tasks = List.map spec_of_task tasks;
        budget;
        eps;
        dfg = { I.kinds = []; edges = []; live_outs = [] } };
    generator = Ise.Isegen.Exhaustive }

(* EDF and RMS over Fig 3.3's grid (6 sets × 5 U × 11 area steps),
   pareto_approx at each ε and pareto_exact on the Table 4.1 sets. *)
let population curves =
  let grid =
    List.concat_map
      (fun set ->
        List.concat_map
          (fun u ->
            let tasks = tasks_of curves ~u (Experiments.Curves.taskset_ch3 set) in
            let max_area = Experiments.Curves.max_area_of tasks in
            List.concat_map
              (fun step ->
                let budget = max_area * step / 10 in
                List.map
                  (fun op ->
                    let id =
                      Printf.sprintf "%s/s%d/u%.2f/a%d" (P.op_name op) set u (step * 10)
                    in
                    { req = request ~id ~op ~budget ~eps:1.0 tasks;
                      edf50 = (if op = P.Edf && step = 5 then Some u else None) })
                  [ P.Edf; P.Rms ])
              area_steps)
          utilizations)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let fronts =
    List.concat_map
      (fun set ->
        let tasks = tasks_of curves ~u:1.0 (Experiments.Curves.taskset_ch4 set) in
        { req = request ~id:(Printf.sprintf "pareto_exact/s%d" set) ~op:P.Pareto_exact
                  ~budget:0 ~eps:1.0 tasks;
          edf50 = None }
        :: List.map
             (fun eps ->
               { req = request ~id:(Printf.sprintf "pareto_approx/s%d/e%g" set eps)
                         ~op:P.Pareto_approx ~budget:0 ~eps tasks;
                 edf50 = None })
             eps_values)
      [ 1; 2; 3; 4; 5 ]
  in
  grid @ fronts

let md5 s = Digest.to_hex (Digest.string s)

let points_text c =
  Isa.Config.points c |> Array.to_list
  |> List.map (fun (p : Isa.Config.point) -> Printf.sprintf "%d:%d" p.area p.cycles)
  |> String.concat " "

let body_lines curves refs =
  "# perfbench fixture: kernel curves and response digests; regenerate with \
   `bash perfbench/run.sh freeze`"
  :: List.map
       (fun (k, c) -> Printf.sprintf "kernel %s %d %s" k (Isa.Config.base_cycles c) (points_text c))
       curves
  @ List.map (fun (id, d) -> Printf.sprintf "ref %s %s" id d) refs

let write ~curves ~refs =
  let body = body_lines curves refs in
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc (l ^ "\n")) body;
  output_string oc ("digest " ^ md5 (String.concat "\n" body) ^ "\n");
  close_out oc

let read_lines file =
  let ic = open_in_bin file in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  go []

let parse_curve base pts =
  List.map
    (fun s ->
      match String.split_on_char ':' s with
      | [ a; c ] -> { Isa.Config.area = int_of_string a; cycles = int_of_string c }
      | _ -> failwith ("bad curve point " ^ s))
    pts
  |> List.tl
  |> Isa.Config.of_points ~base_cycles:base

(* The fixture, or why the runner must refuse to run. *)
let load () =
  if not (Sys.file_exists path) then
    Error (path ^ " is missing; regenerate it with `bash perfbench/run.sh freeze`")
  else
    match List.rev (read_lines path) with
    | [] -> Error (path ^ " is empty")
    | last :: rev_body ->
      let body = List.rev rev_body in
      if last <> "digest " ^ md5 (String.concat "\n" body) then
        Error (path ^ " does not match its digest line")
      else begin
        let curves = ref [] and refs = Hashtbl.create 1024 in
        List.iter
          (fun l ->
            match String.split_on_char ' ' l with
            | "kernel" :: k :: base :: pts ->
              curves := (k, parse_curve (int_of_string base) pts) :: !curves
            | [ "ref"; id; d ] -> Hashtbl.replace refs id d
            | _ -> ())
          body;
        let curves = List.rev !curves in
        if List.map fst curves <> kernels then
          Error (path ^ " does not hold the curves of the 17 kernels")
        else
          let ids = List.map (fun it -> it.req.P.id) (population curves) in
          if List.length ids <> Hashtbl.length refs
             || not (List.for_all (Hashtbl.mem refs) ids)
          then Error (path ^ " does not describe the request population")
          else Ok { curves; refs }
      end

(* Test hook: makes the next [check] see a corrupted response, so the
   self-test can prove the comparison is not vacuous. *)
let corrupt_next = Atomic.make false

(* Whether a response line is byte-identical to the frozen reference. *)
let check fx ~id line =
  let line = if Atomic.exchange corrupt_next false then line ^ " " else line in
  Hashtbl.find_opt fx.refs id = Some (md5 line)

(* Utilization of an EDF response line. *)
let edf_utilization line =
  Check.Repro.(as_float (field (parse line) "utilization"))

(* Mean EDF utilization reduction at 50 % Max_Area, in %, as Fig 3.3
   reports it: over the (set, U) pairs whose utilization drops. *)
let mean_reduction pairs =
  let rs =
    List.filter_map (fun (u, eu) -> if u > eu then Some ((u -. eu) /. u *. 100.) else None) pairs
  in
  if rs = [] then 0. else List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs)
