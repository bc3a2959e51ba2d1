(* Integration tests: the cheap experiment drivers run end-to-end and
   produce the landmarks the paper's tables contain.  The expensive
   sweeps (f3.3, t6.1, ...) are exercised by `bench/main.exe`, not
   here. *)

let check = Alcotest.check
let bool = Alcotest.bool

let render (e : Experiments.Registry.experiment) =
  let buffer = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buffer in
  Experiments.Report.render fmt (e.run ());
  Format.pp_print_flush fmt ();
  Buffer.contents buffer

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let run_and_expect id needles () =
  match Experiments.Registry.find id with
  | None -> Alcotest.failf "experiment %s not registered" id
  | Some e ->
    let out = render e in
    List.iter
      (fun needle ->
        check bool
          (Printf.sprintf "%s output contains %S" id needle)
          true (contains out needle))
      needles

let test_registry_ids_unique () =
  let ids = Experiments.Registry.ids () in
  check bool "unique ids" true
    (List.length ids = List.length (List.sort_uniq compare ids));
  check bool "all found" true
    (List.for_all (fun id -> Experiments.Registry.find id <> None) ids)

let test_curve_cache_consistent () =
  (* the memo must return the same curve object semantics every time *)
  let a = Experiments.Curves.curve "lms" in
  let b = Experiments.Curves.curve "lms" in
  check bool "same base cycles" true
    (Isa.Config.base_cycles a = Isa.Config.base_cycles b);
  check bool "same points" true (Isa.Config.points a = Isa.Config.points b)

let test_tasks_of_utilization () =
  let tasks = Experiments.Curves.tasks_of ~u:1.05 [ "lms"; "ndes" ] in
  check (Alcotest.float 0.02) "target utilization" 1.05
    (Rt.Task.set_utilization tasks)

(* Figure 7.4's claim: on every row Optimal <= DP <= Static, and DP
   strictly beats Static on both 200-area fabrics (EXPERIMENTS.md). *)
let test_f7_4_ordering () =
  match Experiments.Registry.find "f7.4" with
  | None -> Alcotest.fail "experiment f7.4 not registered"
  | Some e ->
    let rows =
      (e.run ()).Experiments.Report.rows
      |> List.filter_map (fun row ->
             match List.map String.trim row with
             | [ tasks; area; _software; static; dp; optimal; _ ] ->
               (match float_of_string_opt static with
                | Some static ->
                  Some (tasks, int_of_string area, static, float_of_string dp,
                        float_of_string optimal)
                | None -> None (* the header *))
             | _ -> None)
    in
    check Alcotest.int "eight rows" 8 (List.length rows);
    List.iter
      (fun (tasks, area, static, dp, optimal) ->
        let label = Printf.sprintf "%s tasks, area %d" tasks area in
        check bool (label ^ ": optimal <= DP <= static") true
          (optimal <= dp && dp <= static);
        if area = 200 then check bool (label ^ ": DP < static") true (dp < static))
      rows

let () =
  Alcotest.run "experiments"
    [ ( "registry",
        [ Alcotest.test_case "ids unique and findable" `Quick test_registry_ids_unique ] );
      ( "infrastructure",
        [ Alcotest.test_case "curve cache" `Quick test_curve_cache_consistent;
          Alcotest.test_case "task builder" `Quick test_tasks_of_utilization ] );
      ( "drivers",
        [ Alcotest.test_case "t3.1 lists the six task sets" `Quick
            (run_and_expect "t3.1" [ "crc32, sha, jpeg_dec, blowfish"; "crc32, sha, blowfish, susan" ]);
          Alcotest.test_case "f3.2 reproduces the motivating example" `Quick
            (run_and_expect "f3.2"
               [ "NOT schedulable"; "optimal (Algorithm 1)"; "1.0000" ]);
          Alcotest.test_case "f6.4 reproduces solutions B and C" `Quick
            (run_and_expect "f6.4" [ "net 933K"; "net 1173K" ]);
          Alcotest.test_case "t5.2 lists the chapter-5 sets" `Quick
            (run_and_expect "t5.2" [ "3des, rijndael, sha, g721decode" ]);
          Alcotest.test_case "t4.1 notes the ispell substitution" `Quick
            (run_and_expect "t4.1" [ "md5" ]);
          Alcotest.test_case "f7.4 orders optimal <= DP <= static" `Quick
            test_f7_4_ordering ] ) ]
