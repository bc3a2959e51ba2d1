(* Reduced-size self-test of the benchmark's own checks, so that none of
   them is vacuous:
   - every metric BENCHMARK.json names is printed, with its unit, by
     every workload (end-to-end untraced, per-layer traced);
   - one corrupted response makes fail_frac rise, on both request
     workloads;
   - a non-monotone curve, and one whose base is wrong, count as failed.

   [measure name ~seconds ~trace] runs one workload and returns
   (attempted, failed, end-to-end metrics, per-layer metrics). *)

module R = Check.Repro

let errors = ref 0

let expect ok msg =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
  if not ok then incr errors

let declared section =
  let ic = open_in_bin "BENCHMARK.json" in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  List.map
    (fun m -> (R.as_string (R.field m "name"), R.as_string (R.field m "unit")))
    (R.as_list (R.field (R.parse text) section))

let same_names declared (printed : Measure.metric list) =
  List.for_all
    (fun (name, unit_) ->
      List.exists (fun (m : Measure.metric) -> m.name = name && m.unit_ = unit_) printed)
    declared
  && List.length declared = List.length printed

let run ~measure names =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun name ->
      let _, failed, printed, _ = measure name ~seconds:0.5 ~trace:false in
      expect (failed = 0) (name ^ ": no failures at the frozen reference");
      expect (same_names e2e printed) (name ^ ": prints every end_to_end metric with its unit");
      let _, _, _, printed = measure name ~seconds:0.5 ~trace:true in
      expect (same_names layers printed) (name ^ ": prints every per_layer metric with its unit"))
    names;
  List.iter
    (fun name ->
      Atomic.set Fixture.corrupt_next true;
      let attempted, failed, _, _ = measure name ~seconds:0.5 ~trace:false in
      expect (failed = 1 && attempted > 1)
        (Printf.sprintf "%s: one corrupted response raises fail_frac to %d/%d" name failed
           attempted))
    [ "solve-stream"; "daemon-warm" ];
  (* one kernel "k" whose profiled software cycles are 100 *)
  let count base pts =
    Workloads.curve_failures [ ("k", 100) ]
      [ ("k", base, Array.of_list (List.map (fun (area, cycles) -> { Isa.Config.area; cycles }) pts)) ]
  in
  expect (count 100 [ (0, 100); (5, 90); (9, 70) ] = 0) "a valid staircase passes";
  expect (count 100 [ (0, 100); (5, 90); (9, 95) ] = 1) "a non-monotone curve counts as failed";
  expect (count 100 [ (0, 100); (5, 90); (5, 80) ] = 1) "a repeated area counts as failed";
  expect (count 99 [ (0, 99); (5, 90) ] = 1) "a wrong base counts as failed";
  if !errors > 0 then begin
    Printf.printf "selftest: %d check(s) failed\n" !errors;
    exit 1
  end;
  print_endline "selftest: all checks passed"
