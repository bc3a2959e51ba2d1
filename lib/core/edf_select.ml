(* The DP maximises, so utilizations go in negated: negation is exact,
   so every sum, comparison and tie-break matches a minimising DP. *)
let options (task : Rt.Task.t) =
  Array.map
    (fun (p : Isa.Config.point) ->
      (p.area, -.(float_of_int p.cycles /. float_of_int task.period)))
    (Isa.Config.points task.curve)

let solve ~budgets tasks =
  let table = Util.Group_knapsack.solve ~budgets (List.map options tasks) in
  Obs.Metrics.inc ~by:(float_of_int (Util.Group_knapsack.cells table)) "edf.dp_cells";
  List.map
    (fun budget ->
      Util.Group_knapsack.pick table ~budget
      |> List.map2
           (fun (task : Rt.Task.t) j -> (task, (Isa.Config.points task.curve).(j)))
           tasks
      |> Selection.of_assignment)
    budgets

let run ~budget tasks =
  if budget < 0 then invalid_arg "Edf_select.run: negative budget";
  Engine.Trace.with_span "edf.select"
    ~attrs:
      [ ("tasks", string_of_int (List.length tasks));
        ("budget", string_of_int budget) ]
    ~timer:"edf.select"
  @@ fun () ->
  Obs.Metrics.inc ~labels:[ ("solver", "edf") ] "solver.runs";
  List.hd (solve ~budgets:[ budget ] tasks)

let run_sweep ~budgets tasks =
  List.iter
    (fun b -> if b < 0 then invalid_arg "Edf_select.run_sweep: negative budget")
    budgets;
  match budgets with
  | [] -> []
  | _ ->
    Engine.Trace.with_span "edf.sweep"
      ~attrs:
        [ ("tasks", string_of_int (List.length tasks));
          ("budgets", string_of_int (List.length budgets)) ]
      ~timer:"edf.select"
    @@ fun () ->
    Obs.Metrics.inc "edf.sweeps";
    Obs.Metrics.inc ~labels:[ ("solver", "edf_sweep") ] "solver.runs";
    solve ~budgets tasks

let run_schedulable ~budget tasks =
  let sel = run ~budget tasks in
  if sel.Selection.utilization <= 1. then Some sel else None

let exhaustive ~budget tasks =
  let rec explore acc = function
    | [] ->
      let sel = Selection.of_assignment (List.rev acc) in
      if sel.Selection.area <= budget then Some sel else None
    | (task : Rt.Task.t) :: rest ->
      Array.fold_left
        (fun best p ->
          match explore ((task, p) :: acc) rest with
          | None -> best
          | Some sel ->
            (match best with
             | None -> Some sel
             | Some b ->
               if sel.Selection.utilization < b.Selection.utilization then Some sel
               else best))
        None (Isa.Config.points task.curve)
  in
  match explore [] tasks with
  | Some sel -> sel
  | None -> Selection.software tasks
