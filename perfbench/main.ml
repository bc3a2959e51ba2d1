(* The repository benchmark: three workloads, their end-to-end metrics,
   and (with --trace 1) a per-layer table from a separate traced pass.
   BENCHMARK.json gates curve-cold and solve-stream; daemon-warm runs
   the same way but is not gated (see [workloads]).

     bash perfbench/run.sh --workload curve-cold --seed 1 --seconds 20 --trace 0
     bash perfbench/run.sh freeze      # regenerate perfbench/fixture.txt
     bash perfbench/run.sh selftest    # reduced-size checks of the checks

   Run from the repository root.  The last line of standard output is
   one JSON object: correct, attempted, failed and metrics.  The exit
   code is non-zero on any correctness failure or when the frozen
   fixture is missing or does not match.

   Ise.Isegen is not a workload here: it keeps its gates in
   bench/main.exe's generator mode, no open ROADMAP item targets it,
   and every workload costs each later benchmark check 22 more runs. *)

module W = Workloads
module L = Measure.Layers

(* Set by run.sh just before exec, so set-up time counts from process
   start; falls back to module initialisation. *)
let process_t0 =
  match Option.bind (Sys.getenv_opt "PERFBENCH_T0") float_of_string_opt with
  | Some t -> t
  | None -> Measure.now ()

type workload = {
  name : string;
  round : W.env -> index:int -> t0:float -> slice:float -> layers:L.t option -> W.round;
  slices : int option;
      (** [Some n]: --seconds is split into [n] rounds of equal timed
          slices, each with thousands of per-request latency samples;
          [None]: rounds repeat whole passes until --seconds is used up,
          one latency sample per pass *)
  latency : string;  (** what one latency sample is *)
}

(* daemon-warm is left out of BENCHMARK.json as unsteady.  Its closed
   loop waits on several thread and domain wake-ups per request, so it
   magnifies the CPU time the shared host takes away: over three sets
   of five to ten runs on a 2-core VM its throughput IQR/median was
   0.05, 0.13 and 0.56 while the CPU-bound set-up of the same runs
   moved 0.05, 0.05 and 0.15; two ten-run sets with two clients and
   whole-slice rates measured 0.28 and 0.36 against a bound of 0.25.
   It stays runnable for the Daemon.Server / Daemon.Client / Obs.Netio
   per-layer table. *)
let workloads =
  [ { name = "curve-cold"; round = W.curve_cold; slices = None;
      latency = "one cold Curves.warm pass of the 17 kernels" };
    { name = "solve-stream"; round = W.solve_stream; slices = None;
      latency = "one Batch.Service.run over the whole stream" };
    { name = "daemon-warm"; round = W.daemon_warm; slices = Some 4;
      latency = "one request, client send to complete response line" } ]

let cores = Domain.recommended_domain_count ()

let scratch_dir () = Filename.concat ".perfbench" (string_of_int (Unix.getpid ()))

(* Rounds alternate untraced / traced under --trace 1, so the tracing
   overhead compares rounds run under the same conditions. *)
let run_rounds w env ~seconds ~trace =
  let traced i = trace && i mod 2 = 1 in
  let min_rounds = if trace then 2 else 3 in
  let rec go i used acc =
    let finished =
      match w.slices with
      | Some n -> i >= n
      | None -> i >= min_rounds && used >= seconds
    in
    if finished then List.rev acc
    else begin
      (* Every round starts as a fresh process would: an empty flight
         recorder (its ring would otherwise grow the heap round after
         round) and a collected heap, so no round pays for the garbage
         of the one before. *)
      if i > 0 then begin
        Obs.Flight.clear ();
        Gc.full_major ()
      end;
      Measure.reset_heap_peak ();
      let t0 = if i = 0 then process_t0 else Measure.now () in
      let slice = match w.slices with Some n -> seconds /. float_of_int n | None -> 0. in
      let layers = if traced i then Some (L.create ()) else None in
      let r = { (w.round env ~index:i ~t0 ~slice ~layers) with W.heap_mb = Measure.heap_peak_mb () } in
      Printf.printf
        "round %d%s: setup %.4f s, timed %.4f s, %d ops, %d/%d failed, heap %.1f MB, \
         latency p50 %.3f p99 %.3f ms\n%!"
        i (if traced i then " (traced)" else "") r.setup_s r.wall_s r.ops r.failed r.attempted
        r.heap_mb (Measure.quantile r.latencies_ms 0.5) (Measure.quantile r.latencies_ms 0.99);
      go (i + 1) (used +. r.wall_s) ((r, layers) :: acc)
    end
  in
  go 0 0. []

let rate (r : W.round) = float_of_int r.ops /. r.wall_s

let end_to_end w rounds =
  let plain = List.filter_map (fun (r, l) -> if l = None then Some r else None) rounds in
  let lat = List.concat_map (fun (r : W.round) -> r.latencies_ms) plain in
  let last = fst (List.nth rounds (List.length rounds - 1)) in
  let m name value unit_ = { Measure.name; value; unit_ } in
  (* Per-request latencies: the median over rounds of each round's
     quantile, so one round hit by a burst of load on the host does not
     move the run's figure; per-pass latencies: quantiles over passes.
     ops_per_s is the median over every rate window of the run (see
     W.round.rates), for the same reason. *)
  let latency q =
    match w.slices with
    | Some _ -> Measure.median (List.map (fun (r : W.round) -> Measure.quantile r.latencies_ms q) plain)
    | None -> Measure.quantile lat q
  in
  Printf.printf "latency samples: %d (%s)\n" (List.length lat) w.latency;
  ( [ m "setup_s" (Measure.median (List.map (fun ((r : W.round), _) -> r.setup_s) rounds)) "s";
      m "ops_per_s" (Measure.median (List.concat_map (fun (r : W.round) -> r.rates) plain)) "ops/s";
      m "latency_p50_ms" (latency 0.5) "ms";
      m "peak_heap_mb" (Measure.median (List.map (fun (r : W.round) -> r.heap_mb) plain)) "MB";
      m "util_reduction_pct" last.util_reduction_pct "%" ],
    m "latency_p99_ms" (latency 0.99) "ms" )

(* Per-layer metrics: means over the traced rounds. *)
let per_layer env rounds =
  let traced = List.filter_map (fun (r, l) -> Option.map (fun l -> (r, l)) l) rounds in
  let n = float_of_int (List.length traced) in
  let get name = List.fold_left (fun a (_, l) -> a +. L.get l name) 0. traced /. n in
  let s name = { Measure.name; value = get name; unit_ = "s" } in
  let c name = { Measure.name; value = get name; unit_ = "count" } in
  let r name value = { Measure.name; value; unit_ = "ratio" } in
  let wall = get "wall_s" in
  let closing = List.fold_left (fun a name -> a +. get name) 0. Measure.closing_layers in
  let median_rate ~traced =
    Measure.median
      (List.filter_map (fun (rd, l) -> if (l <> None) = traced then Some (rate rd) else None) rounds)
  in
  List.map s Measure.closing_layers
  @ [ { Measure.name = "other_s"; value = wall -. closing; unit_ = "s" };
      s "wall_s";
      c "curve.candidates"; c "enumerate.explored"; c "enumerate.cap_saturated";
      c "curve.greedy_fallbacks" ]
  @ List.map (fun k -> s ("curve.generate_s." ^ k)) Fixture.kernels
  @ List.map (fun k -> r ("curve.saved_frac_50." ^ k) (get ("curve.saved_frac_50." ^ k))) Fixture.kernels
  @ [ r "pool.busy_frac" (get "pool.item_s" /. (float_of_int env.W.jobs *. wall));
      c "pool.steals"; c "edf.dp_cells"; c "rms.explored";
      c "batch.unique"; c "batch.dedup_hits"; c "batch.groups"; c "batch.swept";
      r "memo.hit_frac" (get "memo.hit_frac");
      s "daemon.queue_wait_p50_s"; s "daemon.queue_wait_p99_s"; c "daemon.shed";
      { Measure.name = "request_bytes"; value = get "request_bytes"; unit_ = "B" };
      c "obs.kind_clash";
      r "tracing_overhead_frac" ((median_rate ~traced:false /. median_rate ~traced:true) -. 1.);
      { Measure.name = "gc.minor_words_per_op"; value = get "gc.minor_words" /. get "ops";
        unit_ = "words" };
      c "gc.major_collections" ]

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

let with_scratch f =
  let scratch = scratch_dir () in
  Measure.mkdir_p scratch;
  Fun.protect
    ~finally:(fun () ->
      Measure.remove_tree scratch;
      try Unix.rmdir (Filename.dirname scratch) with Unix.Unix_error _ -> ())
    (fun () -> f scratch)

(* One benchmark run: returns (correct, attempted, failed, e2e, layers). *)
let measure w ~seed ~seconds ~trace =
  let fx = match Fixture.load () with Ok fx -> fx | Error e -> fail e in
  with_scratch @@ fun scratch ->
  Engine.Cache.set_dir (Filename.concat scratch "cache");
  let env = { W.fx; seed; jobs = min 2 cores; scratch } in
  Printf.printf "perfbench %s: seed %d, %.0f s, trace %b, %d cores, %d jobs\n%!" w.name seed
    seconds trace cores env.jobs;
  let rounds = run_rounds w env ~seconds ~trace in
  let attempted = List.fold_left (fun a ((r : W.round), _) -> a + r.attempted) 0 rounds in
  let failed = List.fold_left (fun a ((r : W.round), _) -> a + r.failed) 0 rounds in
  let e2e, p99 = end_to_end w rounds in
  (* Printed, but not in BENCHMARK.json: fail_frac is 0 on a correct
     run (the result line carries failed / attempted), and the p99's
     run-to-run spread on daemon-warm (IQR 0.14-0.52 of the median over
     ten-run sets with two clients on a shared 2-core host) exceeds the
     largest bound a gated metric may have. *)
  let fail_frac =
    { Measure.name = "fail_frac"; value = float_of_int failed /. float_of_int attempted;
      unit_ = "ratio" }
  in
  Measure.print_table "end-to-end:" (e2e @ [ p99; fail_frac ]);
  let layers = if trace then per_layer env rounds else [] in
  if trace then
    Measure.print_table "per-layer (mean per traced round; *_s layers + other_s = wall_s):" layers;
  (failed = 0, attempted, failed, e2e, layers)

let run ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None -> fail ("unknown workload " ^ workload)
  in
  let correct, attempted, failed, e2e, layers = measure w ~seed ~seconds ~trace in
  Measure.print_result ~correct ~attempted ~failed (if trace then layers else e2e);
  if not correct then exit 1

(* Regenerate the fixture from the current code: cold curves, then the
   sequential reference answer of every unique request. *)
let freeze () =
  with_scratch @@ fun scratch ->
  Engine.Cache.set_dir (Filename.concat scratch "cache");
  Engine.Parallel.Pool.with_pool ~jobs:(min 2 cores) (fun pool ->
      Experiments.Curves.warm ~pool Fixture.kernels);
  let curves = List.map (fun k -> (k, Experiments.Curves.curve k)) Fixture.kernels in
  let items = Fixture.population curves in
  let refs =
    List.map
      (fun (it : Fixture.item) ->
        (it.req.Batch.Protocol.id, Fixture.md5 (Batch.Service.respond it.req)))
      items
  in
  Fixture.write ~curves ~refs;
  Printf.printf "wrote %s: %d kernels, %d requests\n" Fixture.path (List.length curves) (List.length refs)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "freeze" ] -> freeze ()
  | [ "selftest" ] ->
    let measure name ~seconds ~trace =
      let _, attempted, failed, e2e, layers =
        measure (List.find (fun w -> w.name = name) workloads) ~seed:1 ~seconds ~trace
      in
      (attempted, failed, e2e, layers)
    in
    Selftest.run ~measure (List.map (fun w -> w.name) workloads)
  | _ ->
    let rec opts acc = function
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | [] -> acc
      | _ -> fail "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 | freeze | selftest"
    in
    let o = opts [] args in
    let get k = match List.assoc_opt k o with Some v -> v | None -> fail ("missing --" ^ k) in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> fail ("bad --" ^ k) in
    run ~workload:(get "workload") ~seed:(int "seed") ~seconds:(float_of_int (int "seconds"))
      ~trace:(int "trace" <> 0)
