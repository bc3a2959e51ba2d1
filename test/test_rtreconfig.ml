let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk_task name period wcet points = Rtreconfig.Model.task ~name ~period ~wcet points

(* Two-task instance where sharing one configuration is clearly best. *)
let small_instance () =
  { Rtreconfig.Model.tasks =
      [ mk_task "a" 100 60 [ (20, 40); (30, 80) ];
        mk_task "b" 200 120 [ (40, 50) ] ];
    max_area = 130;
    reconfig_cost = 10 }

let random_instance seed n =
  let prng = Util.Prng.create seed in
  let tasks =
    List.init n (fun i ->
        let period = Util.Prng.in_range prng 50 400 * 10 in
        let wcet = Util.Prng.in_range prng (period / 10) (period / 2) in
        let n_versions = Util.Prng.in_range prng 1 4 in
        let gains =
          List.init n_versions (fun _ -> Util.Prng.in_range prng 1 (max 2 (wcet / 2)))
          |> List.sort_uniq compare
        in
        let areas =
          List.init (List.length gains) (fun _ -> Util.Prng.in_range prng 10 100)
          |> List.sort_uniq compare
        in
        let k = min (List.length gains) (List.length areas) in
        let take k l = List.filteri (fun i _ -> i < k) l in
        mk_task (Printf.sprintf "t%d" i) period wcet
          (List.combine (take k gains) (take k areas)))
  in
  { Rtreconfig.Model.tasks; max_area = 128; reconfig_cost = Util.Prng.in_range prng 1 40 }

(* ------------------------------------------------------------------ *)
(* Model                                                              *)
(* ------------------------------------------------------------------ *)

let test_software_placement () =
  let t = small_instance () in
  let p = Rtreconfig.Model.software_placement t in
  check bool "feasible" true (Rtreconfig.Model.feasible t p);
  (* U = 60/100 + 120/200 = 1.2 *)
  check (Alcotest.float 1e-9) "software utilization" 1.2 (Rtreconfig.Model.utilization t p);
  check bool "unschedulable" false (Rtreconfig.Model.schedulable t p)

let test_single_config_no_reload () =
  let t = small_instance () in
  let p =
    { Rtreconfig.Model.version_of = [ ("a", 2); ("b", 1) ];
      config_of = [ ("a", 0); ("b", 0) ] }
  in
  check bool "feasible" true (Rtreconfig.Model.feasible t p);
  check int "a reload" 0 (Rtreconfig.Model.reload_cycles t p (Rtreconfig.Model.find_task t "a"));
  (* U = (60-30)/100 + (120-40)/200 = 0.3 + 0.4 = 0.7 *)
  check (Alcotest.float 1e-9) "utilization" 0.7 (Rtreconfig.Model.utilization t p)

let test_split_config_pays_reloads () =
  let t = small_instance () in
  let p =
    { Rtreconfig.Model.version_of = [ ("a", 2); ("b", 1) ];
      config_of = [ ("a", 0); ("b", 1) ] }
  in
  check bool "feasible" true (Rtreconfig.Model.feasible t p);
  let a = Rtreconfig.Model.find_task t "a" and b = Rtreconfig.Model.find_task t "b" in
  (* a (P=100) is not preempted by b (P=200): one dispatch load *)
  check int "a reload" 10 (Rtreconfig.Model.reload_cycles t p a);
  (* b is preempted by a up to ceil(200/100)=2 times: (1 + 2*2)*10 = 50 *)
  check int "b reload" 50 (Rtreconfig.Model.reload_cycles t p b);
  check bool "split worse than shared" true
    (Rtreconfig.Model.utilization t p > 0.7)

let test_capacity_enforced () =
  let t = small_instance () in
  let p =
    { Rtreconfig.Model.version_of = [ ("a", 2); ("b", 1) ];
      config_of = [ ("a", 0); ("b", 0) ] }
  in
  let tight = { t with Rtreconfig.Model.max_area = 100 } in
  check bool "over capacity" false (Rtreconfig.Model.feasible tight p)

let test_task_validation () =
  (try
     ignore (mk_task "bad" 10 5 [ (7, 10) ]);
     Alcotest.fail "gain above wcet accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (mk_task "bad" 10 5 [ (2, 10); (3, 10) ]);
     Alcotest.fail "non-monotone versions accepted"
   with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Solvers                                                            *)
(* ------------------------------------------------------------------ *)

let test_static_small () =
  let t = small_instance () in
  let p = Rtreconfig.Solvers.static t in
  check bool "feasible" true (Rtreconfig.Model.feasible t p);
  (* budget 130 fits a's (80) + b's (50): U = 0.7 *)
  check (Alcotest.float 1e-9) "static utilization" 0.7 (Rtreconfig.Model.utilization t p)

let test_dp_at_least_static () =
  let t = small_instance () in
  let s = Rtreconfig.Model.utilization t (Rtreconfig.Solvers.static t) in
  let d = Rtreconfig.Model.utilization t (Rtreconfig.Solvers.dp t) in
  check bool "dp <= static" true (d <= s +. 1e-9)

let test_reconfig_beats_static_when_area_tight () =
  (* MaxA too small for both tasks' best versions together, periods far
     apart so reloads are cheap relative to the gains *)
  let t =
    { Rtreconfig.Model.tasks =
        [ mk_task "fast" 1000 600 [ (400, 100) ];
          mk_task "slow" 100_000 60_000 [ (40_000, 100) ] ];
      max_area = 100;
      reconfig_cost = 5 }
  in
  let static_u = Rtreconfig.Model.utilization t (Rtreconfig.Solvers.static t) in
  let dp_u = Rtreconfig.Model.utilization t (Rtreconfig.Solvers.dp t) in
  let opt_u = Rtreconfig.Model.utilization t (Rtreconfig.Solvers.optimal t) in
  check bool "dp strictly better than static" true (dp_u < static_u -. 1e-9);
  check bool "optimal <= dp" true (opt_u <= dp_u +. 1e-9)

let prop_solvers_feasible =
  QCheck.Test.make ~name:"all solvers return feasible placements" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 6))
    (fun (seed, n) ->
      let t = random_instance seed n in
      Rtreconfig.Model.feasible t (Rtreconfig.Solvers.static t)
      && Rtreconfig.Model.feasible t (Rtreconfig.Solvers.dp t)
      && Rtreconfig.Model.feasible t (Rtreconfig.Solvers.optimal t))

let prop_optimal_dominates =
  QCheck.Test.make ~name:"optimal <= dp <= static in utilization" ~count:25
    QCheck.(pair (int_range 0 10_000) (int_range 2 5))
    (fun (seed, n) ->
      let t = random_instance seed n in
      let u p = Rtreconfig.Model.utilization t p in
      let s = u (Rtreconfig.Solvers.static t) in
      let d = u (Rtreconfig.Solvers.dp t) in
      let o = u (Rtreconfig.Solvers.optimal t) in
      o <= d +. 1e-9 && d <= s +. 1e-9)

let prop_static_matches_bruteforce =
  QCheck.Test.make ~name:"static matches brute force over versions within max_area"
    ~count:60
    QCheck.(pair (int_range 0 10_000) (int_range 1 4))
    (fun (seed, n) ->
      let t = random_instance seed n in
      let u p = Rtreconfig.Model.utilization t p in
      (* every cross product of versions, all hardware in configuration 0 *)
      let rec brute area version_of = function
        | [] ->
          if area > t.Rtreconfig.Model.max_area then infinity
          else
            u { Rtreconfig.Model.version_of;
                config_of =
                  List.filter_map
                    (fun (name, j) -> if j > 0 then Some (name, 0) else None)
                    version_of }
        | (tk : Rtreconfig.Model.task) :: rest ->
          let best = ref infinity in
          Array.iteri
            (fun j (v : Rtreconfig.Model.version) ->
              best := Float.min !best (brute (area + v.area) ((tk.name, j) :: version_of) rest))
            tk.versions;
          !best
      in
      Float.abs (u (Rtreconfig.Solvers.static t) -. brute 0 [] t.tasks) < 1e-9)

let prop_optimal_matches_bruteforce_2tasks =
  QCheck.Test.make ~name:"optimal matches brute force on 2-task instances"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let t = random_instance seed 2 in
      let u p = Rtreconfig.Model.utilization t p in
      let opt = u (Rtreconfig.Solvers.optimal t) in
      (* brute force: all (version, group) combinations for two tasks *)
      let tasks = Array.of_list t.Rtreconfig.Model.tasks in
      let best = ref infinity in
      let t0 = tasks.(0) and t1 = tasks.(1) in
      Array.iteri
        (fun j0 (v0 : Rtreconfig.Model.version) ->
          Array.iteri
            (fun j1 (v1 : Rtreconfig.Model.version) ->
              List.iter
                (fun same_group ->
                  let config_of =
                    (if j0 > 0 then [ (t0.Rtreconfig.Model.name, 0) ] else [])
                    @ (if j1 > 0 then
                         [ (t1.Rtreconfig.Model.name, if same_group then 0 else 1) ]
                       else [])
                  in
                  let p =
                    { Rtreconfig.Model.version_of =
                        [ (t0.Rtreconfig.Model.name, j0); (t1.Rtreconfig.Model.name, j1) ];
                      config_of }
                  in
                  if Rtreconfig.Model.feasible t p then best := Float.min !best (u p))
                [ true; false ];
              ignore v1)
            t1.Rtreconfig.Model.versions;
          ignore v0)
        t0.Rtreconfig.Model.versions;
      Float.abs (opt -. !best) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Reconfiguration-aware simulation                                   *)
(* ------------------------------------------------------------------ *)

let test_sim_single_config_loads_once () =
  let t = small_instance () in
  let p =
    { Rtreconfig.Model.version_of = [ ("a", 2); ("b", 1) ];
      config_of = [ ("a", 0); ("b", 0) ] }
  in
  let out = Rtreconfig.Sim_check.run t p in
  check bool "at most one reload" true (out.Rtreconfig.Sim_check.reloads <= 1);
  check int "no misses" 0 out.Rtreconfig.Sim_check.deadline_misses

let test_sim_split_config_reloads () =
  let t = small_instance () in
  let p =
    { Rtreconfig.Model.version_of = [ ("a", 2); ("b", 1) ];
      config_of = [ ("a", 0); ("b", 1) ] }
  in
  let out = Rtreconfig.Sim_check.run t p in
  check bool "reloads happen" true (out.Rtreconfig.Sim_check.reloads > 1)

let prop_model_conservative_wrt_simulation =
  QCheck.Test.make
    ~name:"model-schedulable placements simulate without misses" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 5))
    (fun (seed, n) ->
      let t = random_instance seed n in
      let horizon =
        min 20_000_000
          (10 * List.fold_left (fun acc (tk : Rtreconfig.Model.task) -> max acc tk.period) 1 t.Rtreconfig.Model.tasks)
      in
      List.for_all
        (fun p ->
          (not (Rtreconfig.Model.schedulable t p))
          || Rtreconfig.Sim_check.schedulable ~horizon t p)
        [ Rtreconfig.Solvers.static t; Rtreconfig.Solvers.dp t;
          Rtreconfig.Solvers.optimal t;
          Rtreconfig.Model.software_placement t ])

let prop_sim_reloads_bounded_by_model =
  QCheck.Test.make
    ~name:"simulated busy time never exceeds the model's demand" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 5))
    (fun (seed, n) ->
      let t = random_instance seed n in
      let p = Rtreconfig.Solvers.dp t in
      let horizon =
        min 20_000_000
          (10 * List.fold_left (fun acc (tk : Rtreconfig.Model.task) -> max acc tk.period) 1 t.Rtreconfig.Model.tasks)
      in
      let out = Rtreconfig.Sim_check.run ~horizon t p in
      float_of_int (out.Rtreconfig.Sim_check.busy
                    + (out.Rtreconfig.Sim_check.reloads * t.Rtreconfig.Model.reconfig_cost))
      <= Rtreconfig.Model.utilization t p *. float_of_int horizon
         +. float_of_int horizon *. 0.05 +. 1.)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "rtreconfig"
    [ ( "model",
        [ Alcotest.test_case "software placement" `Quick test_software_placement;
          Alcotest.test_case "single config no reload" `Quick test_single_config_no_reload;
          Alcotest.test_case "split config pays reloads" `Quick test_split_config_pays_reloads;
          Alcotest.test_case "capacity enforced" `Quick test_capacity_enforced;
          Alcotest.test_case "task validation" `Quick test_task_validation ] );
      ( "solvers",
        [ Alcotest.test_case "static small" `Quick test_static_small;
          Alcotest.test_case "dp at least static" `Quick test_dp_at_least_static;
          Alcotest.test_case "reconfiguration wins when area is tight" `Quick
            test_reconfig_beats_static_when_area_tight;
          qt prop_solvers_feasible;
          qt prop_optimal_dominates;
          qt prop_static_matches_bruteforce;
          qt prop_optimal_matches_bruteforce_2tasks ] );
      ( "simulation",
        [ Alcotest.test_case "single config loads once" `Quick test_sim_single_config_loads_once;
          Alcotest.test_case "split config reloads" `Quick test_sim_split_config_reloads;
          qt prop_model_conservative_wrt_simulation;
          qt prop_sim_reloads_bounded_by_model ] ) ]
