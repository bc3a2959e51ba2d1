(* Benchmark harness: regenerates every table and figure of the
   evaluation.  With no arguments it runs everything in paper order
   (plus the engine benchmark); pass experiment ids (e.g. `f3.3 t6.1`)
   or `engine` to run a subset, or `--list` to enumerate them. *)

let fmt = Format.std_formatter

let usage () =
  Format.printf "usage: main.exe [--list | id ...]@.ids:@.";
  List.iter
    (fun (e : Experiments.Registry.experiment) ->
      Format.printf "  %-8s %s@." e.id e.title)
    Experiments.Registry.all;
  Format.printf "  %-8s %s@." "engine"
    "curve-generation engine: cold/warm cache, 1 vs N domains (BENCH_engine.json)";
  Format.printf "  %-8s %s@." "batch"
    "batch solver service: dedup/memo hit-rate vs sequential (BENCH_engine.json)";
  Format.printf "  %-8s %s@." "daemon"
    "resident daemon: warm vs cold-batch latency, queue-wait under 4 clients \
     (BENCH_engine.json)";
  Format.printf "  %-8s %s@." "generator"
    "candidate generators: isegen vs saturated exhaustive on above-cap \
     blocks (BENCH_engine.json)"

let run_one (e : Experiments.Registry.experiment) =
  let result = e.run () in
  Experiments.Report.render fmt result;
  Format.fprintf fmt "[%s completed in %.1fs]@." e.id result.elapsed;
  Format.pp_print_flush fmt ();
  flush stdout

(* The full sweep goes through [run_sweep]: a crashing driver is
   reported in place and the rest of the paper still regenerates. *)
let run_all ?pool () =
  let outcomes = Experiments.Registry.run_sweep ?pool Experiments.Registry.all in
  let failures =
    List.filter_map
      (fun ((e : Experiments.Registry.experiment), outcome) ->
        (match outcome with
         | Ok result ->
           Experiments.Report.render fmt result;
           Format.fprintf fmt "[%s completed in %.1fs]@." e.id result.elapsed
         | Error msg ->
           Format.fprintf fmt "@.=== %s: %s ===@.[FAILED: %s]@." e.id e.title
             msg);
        Format.pp_print_flush fmt ();
        flush stdout;
        match outcome with Ok _ -> None | Error _ -> Some e.id)
      outcomes
  in
  (match failures with
   | [] -> ()
   | ids ->
     Format.fprintf fmt "@.[%d experiment(s) failed: %s]@." (List.length ids)
       (String.concat ", " ids));
  failures = []

(* Downstream dashboards key on these fields; fail the bench loudly if
   the file we just wrote lost one, rather than letting a rename surface
   as a silent gap in the performance trajectory. *)
let bench_keys =
  [ "kernels"; "jobs"; "cold_sequential_s"; "cold_parallel_s"; "warm_cache_s";
    "parallel_speedup"; "warm_speedup"; "jobs_scaling"; "pool"; "spawned";
    "reused"; "steals"; "items"; "cache_hits"; "cache_misses";
    "curve_latency"; "p50_s"; "p90_s"; "p99_s"; "max_s"; "status";
    "telemetry"; "histograms"; "obs_overhead"; "obs_on_s"; "obs_off_s";
    "overhead_frac" ]

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let validate_bench_json ?(keys = bench_keys) path =
  let content = read_file path in
  let has key =
    let needle = "\"" ^ key ^ "\"" in
    let n = String.length content and m = String.length needle in
    let rec scan i = i + m <= n && (String.sub content i m = needle || scan (i + 1)) in
    scan 0
  in
  match List.filter (fun k -> not (has k)) keys with
  | [] -> ()
  | missing ->
    Format.eprintf "engine bench: %s is missing expected key%s: %s@." path
      (if List.length missing = 1 then "" else "s")
      (String.concat ", " missing);
    exit 2

(* The engine benchmark: how long the shared task-set curves take to
   generate cold-sequential, cold-parallel and warm-from-disk.  Uses its
   own cache directory so it never pollutes (or is flattered by) the
   user's `_cache/`. *)
let engine_bench () =
  let module Curves = Experiments.Curves in
  let names =
    List.concat_map Curves.taskset_ch3 [ 1; 2; 3; 4; 5; 6 ]
    |> List.sort_uniq compare
  in
  let saved_dir = Engine.Cache.dir () in
  Engine.Cache.set_dir "_cache.bench";
  Fun.protect ~finally:(fun () -> Engine.Cache.set_dir saved_dir) @@ fun () ->
  ignore (Engine.Cache.clear ());
  (* epoch boundary: a snapshot instead of reset-then-read, so every
     counter/histogram below is the delta over exactly this bench run *)
  let s0 = Obs.Snapshot.take () in
  Format.fprintf fmt "@.=== engine: curve generation, %d kernels ===@."
    (List.length names);
  (* one cold pass per pool width, each from an empty disk cache on a
     fresh pool, so the scaling rows isolate the pool's contribution *)
  let time_cold jobs =
    ignore (Engine.Cache.clear ());
    Curves.reset ();
    let (), t =
      Experiments.Report.timed (fun () ->
          if jobs <= 1 then Curves.warm names
          else
            Engine.Parallel.Pool.with_pool ~jobs (fun pool ->
                Curves.warm ~pool names))
    in
    t
  in
  let scaling = List.map (fun j -> (j, time_cold j)) [ 1; 2; 4 ] in
  let cold_seq = List.assoc 1 scaling in
  let cold_par = List.assoc 2 scaling in
  let speedup_at t = cold_seq /. Float.max 1e-9 t in
  Curves.reset ();
  let (), warm = Experiments.Report.timed (fun () -> Curves.warm names) in
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  let dcounter name = int_of_float (Obs.Snapshot.counter d name) in
  let hits = dcounter "cache.hits" and misses = dcounter "cache.misses" in
  Format.fprintf fmt "cold, sequential      %8.2f s@." cold_seq;
  List.iter
    (fun (j, t) ->
      if j > 1 then
        Format.fprintf fmt "cold, %2d jobs         %8.2f s  (%.2fx)@." j t
          (speedup_at t))
    scaling;
  Format.fprintf fmt "warm disk cache       %8.2f s  (%.0fx)@." warm
    (cold_seq /. Float.max 1e-9 warm);
  Format.fprintf fmt "cache hits/misses     %d/%d@." hits misses;
  Format.fprintf fmt
    "pool                  %d spawned, %d ops reused domains, %d items, %d steals@."
    (dcounter "pool.spawned") (dcounter "pool.reused") (dcounter "pool.items")
    (dcounter "pool.steals");
  (* The 1.5x floor at 2 jobs is the point of the persistent pool; it
     is only physics on a host that actually has a second core, so on
     single-core runners the scaling is recorded but not enforced. *)
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 && speedup_at cold_par < 1.5 then begin
    Format.eprintf
      "engine bench: cold parallel_speedup %.2f below the 1.5 floor at 2 jobs@."
      (speedup_at cold_par);
    exit 2
  end;
  if cores < 2 then
    Format.fprintf fmt
      "[single-core host: %.2fx at 2 jobs recorded, 1.5x floor not enforced]@."
      (speedup_at cold_par);
  (* Per-curve latency distribution over both cold passes (the warm pass
     generates nothing, so it contributes no samples). *)
  let latency =
    match Obs.Snapshot.hist_stats d "curve.generate_s" with
    | None ->
      Format.eprintf "engine bench: no curve.generate_s samples recorded@.";
      exit 2
    | Some (s : Obs.Metrics.hstats) ->
      Format.fprintf fmt
        "curve latency         p50 %.4f s, p90 %.4f s, p99 %.4f s, max %.4f s@."
        s.p50 s.p90 s.p99 s.max;
      Printf.sprintf
        "{\"count\": %d, \"p50_s\": %.6f, \"p90_s\": %.6f, \"p99_s\": %.6f, \
         \"max_s\": %.6f}"
        s.count s.p50 s.p90 s.p99 s.max
  in
  (* the delta starts at the bench's snapshot, so any guard exhaustion
     counted here happened during these measurements *)
  let status = if dcounter "guard.exhausted" > 0 then "partial" else "exact" in
  (* Observability overhead: one more cold sequential pass with the
     whole obs layer (registry + flight ring) disabled, one with it on.
     The delta is what instrumentation costs the curve suite; the bench
     enforces the < 5% ceiling whenever the timings are long enough to
     be signal rather than scheduler noise. *)
  let time_obs enabled =
    Obs.Metrics.set_enabled enabled;
    Obs.Flight.set_enabled enabled;
    ignore (Engine.Cache.clear ());
    Curves.reset ();
    let (), t = Experiments.Report.timed (fun () -> Curves.warm names) in
    Obs.Metrics.set_enabled true;
    Obs.Flight.set_enabled true;
    t
  in
  let obs_off_s = time_obs false in
  let obs_on_s = time_obs true in
  let overhead_frac = (obs_on_s -. obs_off_s) /. Float.max 1e-9 obs_off_s in
  Format.fprintf fmt
    "obs overhead          %8.2f s on, %.2f s off  (%+.1f%%)@." obs_on_s
    obs_off_s (100. *. overhead_frac);
  if obs_off_s >= 0.5 && overhead_frac > 0.05 then begin
    Format.eprintf
      "engine bench: observability overhead %.1f%% above the 5%% ceiling@."
      (100. *. overhead_frac);
    exit 2
  end;
  if obs_off_s < 0.5 then
    Format.fprintf fmt
      "[suite under 0.5 s: overhead recorded, 5%% ceiling not enforced]@.";
  let jobs_scaling =
    String.concat ", "
      (List.map
         (fun (j, t) ->
           Printf.sprintf
             "{\"jobs\": %d, \"cold_s\": %.4f, \"speedup\": %.3f}" j t
             (speedup_at t))
         scaling)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"kernels\": %d,\n\
      \  \"jobs\": %d,\n\
      \  \"cold_sequential_s\": %.4f,\n\
      \  \"cold_parallel_s\": %.4f,\n\
      \  \"warm_cache_s\": %.4f,\n\
      \  \"parallel_speedup\": %.3f,\n\
      \  \"warm_speedup\": %.3f,\n\
      \  \"jobs_scaling\": [%s],\n\
      \  \"pool\": {\"spawned\": %d, \"reused\": %d, \"items\": %d, \
       \"steals\": %d},\n\
      \  \"cache_hits\": %d,\n\
      \  \"cache_misses\": %d,\n\
      \  \"curve_latency\": %s,\n\
      \  \"status\": \"%s\",\n\
      \  \"obs_overhead\": {\"obs_on_s\": %.4f, \"obs_off_s\": %.4f, \
       \"overhead_frac\": %.4f},\n\
      \  \"telemetry\": %s,\n\
      \  \"histograms\": %s\n\
       }\n"
      (List.length names) 2 cold_seq cold_par warm (speedup_at cold_par)
      (cold_seq /. Float.max 1e-9 warm)
      jobs_scaling
      (dcounter "pool.spawned") (dcounter "pool.reused") (dcounter "pool.items")
      (dcounter "pool.steals") hits misses latency status obs_on_s obs_off_s
      overhead_frac
      (Obs.Snapshot.telemetry_json d)
      (Obs.Snapshot.histograms_json d)
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc json;
  close_out oc;
  validate_bench_json "BENCH_engine.json";
  Format.fprintf fmt "[engine timings written to BENCH_engine.json]@.";
  Format.pp_print_flush fmt ()

(* The batch-service benchmark: a 200-request stream with 4x
   duplication, answered sequentially and then through the batching
   service (cold, then memo-warm).  The three answer sets must be
   byte-identical — the bench doubles as the large-stream acceptance
   check — and the cold hit-rate must clear 50%.  Results merge into
   BENCH_engine.json under a "batch" key, preserving whatever the
   engine bench wrote. *)
let batch_keys =
  [ "batch"; "requests"; "unique"; "groups"; "dedup_hits"; "memo_hits";
    "swept"; "hit_rate"; "sequential_s"; "batch_cold_s"; "batch_warm_s";
    "batch_speedup"; "warm_speedup"; "jobs_scaling" ]

let merge_key_json path key value =
  let existing =
    if Sys.file_exists path then
      match Check.Repro.parse (read_file path) with
      | Check.Repro.Obj fields -> fields
      | _ | (exception Check.Repro.Parse_error _) ->
        Format.eprintf "bench: %s is not a JSON object; rewriting@." path;
        []
    else []
  in
  let fields =
    List.filter (fun (k, _) -> k <> key) existing @ [ (key, value) ]
  in
  let oc = open_out path in
  output_string oc (Check.Repro.to_string (Check.Repro.Obj fields));
  output_string oc "\n";
  close_out oc

let batch_bench () =
  let module P = Batch.Protocol in
  let module S = Batch.Service in
  let uniques =
    List.concat_map
      (fun i ->
        let inst = Check.Gen.instance (Util.Prng.create (100 + i)) in
        List.map
          (fun op -> (op, inst))
          [ P.Edf; P.Rms; P.Pareto_exact; P.Pareto_approx; P.Curve ])
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let requests =
    List.mapi
      (fun i (op, instance) -> { P.id = Printf.sprintf "b%03d" i; op; instance;
        generator = Ise.Isegen.Exhaustive })
      (uniques @ uniques @ uniques @ uniques)
  in
  Format.fprintf fmt "@.=== batch: %d requests (4x duplication) ===@."
    (List.length requests);
  let seq_lines, seq_s =
    Experiments.Report.timed (fun () -> List.map S.respond requests)
  in
  (* one cold run per pool width, each against a fresh memo and checked
     byte-for-byte against the sequential reference *)
  let cold_at jobs =
    let memo = Engine.Memo.create ~spill:false ~namespace:"bench" () in
    let (lines, stats), t =
      Experiments.Report.timed (fun () ->
          Engine.Parallel.Pool.with_pool ~jobs (fun pool ->
              S.run ~pool ~memo requests))
    in
    if lines <> seq_lines then begin
      Format.eprintf
        "batch bench: batched responses at %d jobs differ from the \
         sequential reference@."
        jobs;
      exit 2
    end;
    (jobs, t, stats, memo)
  in
  let scaling = List.map cold_at [ 1; 2; 4 ] in
  let _, cold_s, cold_stats, memo =
    List.find (fun (j, _, _, _) -> j = 2) scaling
  in
  let (warm_lines, warm_stats), warm_s =
    Experiments.Report.timed (fun () ->
        Engine.Parallel.Pool.with_pool ~jobs:2 (fun pool ->
            S.run ~pool ~memo requests))
  in
  if warm_lines <> seq_lines then begin
    Format.eprintf
      "batch bench: memo-warm responses differ from the sequential reference@.";
    exit 2
  end;
  let rate = S.hit_rate cold_stats in
  let jobs = 2 in
  Format.fprintf fmt "sequential            %8.2f s@." seq_s;
  List.iter
    (fun (j, t, _, _) ->
      Format.fprintf fmt "batch, cold, %d jobs   %8.2f s  (%.2fx)@." j t
        (seq_s /. Float.max 1e-9 t))
    scaling;
  Format.fprintf fmt "batch, memo-warm      %8.2f s  (%.2fx)  %a@." warm_s
    (seq_s /. Float.max 1e-9 warm_s) S.pp_stats warm_stats;
  if rate < 0.5 then begin
    Format.eprintf "batch bench: cold hit-rate %.2f below the 0.5 floor@." rate;
    exit 2
  end;
  (* Speedup must not regress as the pool widens; like the engine floor
     this is only enforceable where the cores exist (1->2 needs 2,
     2->4 needs 4), and a 10% tolerance absorbs scheduler noise. *)
  let cores = Domain.recommended_domain_count () in
  let time_at j = let _, t, _, _ = List.find (fun (j', _, _, _) -> j' = j) scaling in t in
  if cores >= 2 && time_at 2 > time_at 1 *. 1.1 then begin
    Format.eprintf "batch bench: 2 jobs (%.2f s) slower than 1 job (%.2f s)@."
      (time_at 2) (time_at 1);
    exit 2
  end;
  if cores >= 4 && time_at 4 > time_at 2 *. 1.1 then begin
    Format.eprintf "batch bench: 4 jobs (%.2f s) slower than 2 jobs (%.2f s)@."
      (time_at 4) (time_at 2);
    exit 2
  end;
  if cores < 2 then
    Format.fprintf fmt
      "[single-core host: per-jobs scaling recorded, monotonicity not \
       enforced]@.";
  let num f = Check.Repro.Num f and numi i = Check.Repro.Num (float_of_int i) in
  merge_key_json "BENCH_engine.json" "batch"
    (Check.Repro.Obj
       [ ("requests", numi cold_stats.S.requests);
         ("unique", numi cold_stats.S.unique);
         ("groups", numi cold_stats.S.groups);
         ("dedup_hits", numi cold_stats.S.dedup_hits);
         ("memo_hits", numi cold_stats.S.memo_hits);
         ("swept", numi cold_stats.S.swept);
         ("hit_rate", num rate);
         ("warm_memo_hits", numi warm_stats.S.memo_hits);
         ("jobs", numi jobs);
         ("sequential_s", num seq_s);
         ("batch_cold_s", num cold_s);
         ("batch_warm_s", num warm_s);
         ("batch_speedup", num (seq_s /. Float.max 1e-9 cold_s));
         ("warm_speedup", num (seq_s /. Float.max 1e-9 warm_s));
         ( "jobs_scaling",
           Check.Repro.Arr
             (List.map
                (fun (j, t, _, _) ->
                  Check.Repro.Obj
                    [ ("jobs", numi j);
                      ("cold_s", num t);
                      ("speedup", num (seq_s /. Float.max 1e-9 t)) ])
                scaling) ) ]);
  validate_bench_json ~keys:batch_keys "BENCH_engine.json";
  Format.fprintf fmt "[batch counters merged into BENCH_engine.json]@.";
  Format.pp_print_flush fmt ()

(* The daemon benchmark: the same kind of request stream, answered by
   (a) the one-shot batch service from a cold memo and (b) a resident
   daemon whose memo the first pass warmed — the paper-trajectory claim
   is that a warm daemon answers a repeat stream much faster than
   standing up a cold batch.  Byte-identity with the sequential
   reference is asserted on every path, 4 concurrent clients hammer the
   daemon to put samples behind the queue-wait histogram, and the
   results merge into BENCH_engine.json under a "daemon" key. *)
let daemon_keys =
  [ "daemon"; "requests"; "cold_batch_s"; "daemon_cold_s"; "daemon_warm_s";
    "warm_speedup_vs_cold_batch"; "concurrent_clients"; "concurrent_s";
    "queue_wait_p50_s"; "queue_wait_p99_s"; "shed" ]

let daemon_bench () =
  let module P = Batch.Protocol in
  let module S = Batch.Service in
  let uniques =
    List.concat_map
      (fun i ->
        let inst = Check.Gen.instance (Util.Prng.create (500 + i)) in
        List.map
          (fun op -> (op, inst))
          [ P.Edf; P.Rms; P.Pareto_exact; P.Pareto_approx; P.Curve ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let requests =
    List.mapi
      (fun i (op, instance) -> { P.id = Printf.sprintf "d%03d" i; op; instance;
        generator = Ise.Isegen.Exhaustive })
      (uniques @ uniques)
  in
  let n = List.length requests in
  Format.fprintf fmt "@.=== daemon: %d requests, warm resident vs cold batch ===@." n;
  let seq_lines = List.map S.respond requests in
  (* cold one-shot batch: fresh memo + fresh pool, the cost a client
     pays today for every stream *)
  let (cold_lines, _), cold_batch_s =
    Experiments.Report.timed (fun () ->
        Engine.Parallel.Pool.with_pool ~jobs:2 (fun pool ->
            S.run ~pool
              ~memo:(Engine.Memo.create ~spill:false ~namespace:"bench" ())
              requests))
  in
  if cold_lines <> seq_lines then begin
    Format.eprintf "daemon bench: cold batch differs from sequential@.";
    exit 2
  end;
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "isecustom-bench-%d.sock" (Unix.getpid ()))
  in
  Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
  let d =
    Daemon.Server.start ~unix_path:sock ~pool
      ~memo:(Engine.Memo.create ~spill:false ~namespace:"bench-daemon" ())
      ()
  in
  Fun.protect ~finally:(fun () -> Daemon.Server.stop d) @@ fun () ->
  let replay_stream () =
    let c = Daemon.Client.connect ~unix_path:sock () in
    Fun.protect
      ~finally:(fun () -> Daemon.Client.close c)
      (fun () ->
        List.map
          (fun req ->
            match Daemon.Client.rpc c req with
            | Ok line -> line
            | Error msg -> failwith ("daemon bench: " ^ msg))
          requests)
  in
  (* first pass warms the daemon's memo (and is itself checked); the
     timed warm pass is then pure protocol + memo round-trips *)
  let daemon_cold_lines, daemon_cold_s = Experiments.Report.timed replay_stream in
  if daemon_cold_lines <> seq_lines then begin
    Format.eprintf "daemon bench: cold daemon pass differs from sequential@.";
    exit 2
  end;
  let daemon_warm_lines, daemon_warm_s = Experiments.Report.timed replay_stream in
  if daemon_warm_lines <> seq_lines then begin
    Format.eprintf "daemon bench: warm daemon pass differs from sequential@.";
    exit 2
  end;
  (* 4 concurrent clients over the warm daemon: queue-wait percentiles
     from the snapshot delta, byte-identity per client *)
  let s0 = Obs.Snapshot.take () in
  let clients = 4 in
  let failures = Atomic.make 0 in
  let (), concurrent_s =
    Experiments.Report.timed (fun () ->
        let threads =
          List.init clients (fun _ ->
              Thread.create
                (fun () ->
                  if replay_stream () <> seq_lines then Atomic.incr failures)
                ())
        in
        List.iter Thread.join threads)
  in
  if Atomic.get failures > 0 then begin
    Format.eprintf "daemon bench: %d concurrent client(s) saw drift@."
      (Atomic.get failures);
    exit 2
  end;
  let delta = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) in
  let shed =
    List.fold_left
      (fun acc op ->
        acc
        + int_of_float
            (Obs.Snapshot.counter delta
               ~labels:[ ("op", P.op_name op); ("outcome", "overloaded") ]
               "daemon.requests"))
      0
      [ P.Edf; P.Rms; P.Pareto_exact; P.Pareto_approx; P.Curve ]
  in
  let qw_p50, qw_p99 =
    match Obs.Snapshot.hist_stats delta "daemon.queue_wait_s" with
    | Some (s : Obs.Metrics.hstats) -> (s.p50, s.p99)
    | None ->
      Format.eprintf "daemon bench: no daemon.queue_wait_s samples recorded@.";
      exit 2
  in
  let warm_speedup = cold_batch_s /. Float.max 1e-9 daemon_warm_s in
  Format.fprintf fmt "cold one-shot batch   %8.3f s@." cold_batch_s;
  Format.fprintf fmt "daemon, cold memo     %8.3f s@." daemon_cold_s;
  Format.fprintf fmt "daemon, warm memo     %8.3f s  (%.1fx vs cold batch)@."
    daemon_warm_s warm_speedup;
  Format.fprintf fmt
    "4 clients, warm       %8.3f s  queue-wait p50 %.6f s, p99 %.6f s@."
    concurrent_s qw_p50 qw_p99;
  (* The warm-resident speedup is the daemon's reason to exist; like the
     other floors it is only physics with real cores and real timings,
     so tiny-corpus or single-core runs record it without enforcing. *)
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 && cold_batch_s >= 0.2 && warm_speedup < 1.2 then begin
    Format.eprintf
      "daemon bench: warm daemon %.2fx vs cold batch, below the 1.2 floor@."
      warm_speedup;
    exit 2
  end;
  if cores < 2 || cold_batch_s < 0.2 then
    Format.fprintf fmt
      "[%s: %.2fx warm speedup recorded, 1.2x floor not enforced]@."
      (if cores < 2 then "single-core host" else "suite under 0.2 s")
      warm_speedup;
  let num f = Check.Repro.Num f and numi i = Check.Repro.Num (float_of_int i) in
  merge_key_json "BENCH_engine.json" "daemon"
    (Check.Repro.Obj
       [ ("requests", numi n);
         ("cold_batch_s", num cold_batch_s);
         ("daemon_cold_s", num daemon_cold_s);
         ("daemon_warm_s", num daemon_warm_s);
         ("warm_speedup_vs_cold_batch", num warm_speedup);
         ("concurrent_clients", numi clients);
         ("concurrent_s", num concurrent_s);
         ("queue_wait_p50_s", num qw_p50);
         ("queue_wait_p99_s", num qw_p99);
         ("shed", numi shed) ]);
  validate_bench_json ~keys:daemon_keys "BENCH_engine.json";
  Format.fprintf fmt "[daemon counters merged into BENCH_engine.json]@.";
  Format.pp_print_flush fmt ()

(* The generator benchmark: on blocks big enough to saturate the
   exhaustive enumerator's small budget, the ISEGEN iterative generator
   must recover strictly more selectable gain (the cap-breaking claim)
   without blowing the time budget.  Results merge into
   BENCH_engine.json under a "generator_scaling" key. *)
let generator_keys =
  [ "generator_scaling"; "exhaustive_saturated"; "exhaustive_gain";
    "isegen_gain"; "gain_ratio"; "exhaustive_s"; "isegen_s"; "time_ratio" ]

let generator_bench () =
  let module E = Ise.Enumerate in
  let biggest name =
    let blocks = Ir.Cfg.blocks (Kernels.find name) in
    (List.fold_left
       (fun acc (b : Ir.Cfg.block) ->
         if Ir.Dfg.node_count b.Ir.Cfg.body > Ir.Dfg.node_count acc.Ir.Cfg.body
         then b
         else acc)
       (List.hd blocks) blocks)
      .Ir.Cfg.body
  in
  let blocks =
    [ ("sha", biggest "sha"); ("rijndael", biggest "rijndael");
      ( "blockgen-400",
        Kernels.Blockgen.block (Util.Prng.create 7) ~size:400
          Kernels.Blockgen.dsp_mix ) ]
  in
  Format.fprintf fmt
    "@.=== generator: isegen vs saturated exhaustive, %d blocks ===@."
    (List.length blocks);
  (* Gain a selector can bank under the real ISA constraint: a handful
     of free opcodes, so the 8 best pairwise-disjoint candidates.  This
     is where pool depth (not pool size) pays — a saturated breadth-first
     enumeration is rich in small subgraphs but never reaches the deep
     ones an iterative walk climbs to. *)
  let opcodes = 8 in
  let selected_gain dfg cands =
    let used = Util.Bitset.create (Ir.Dfg.node_count dfg) in
    let sorted =
      List.stable_sort
        (fun a b -> compare (Isa.Custom_inst.gain b) (Isa.Custom_inst.gain a))
        cands
    in
    let rec go acc left = function
      | [] -> acc
      | _ when left = 0 -> acc
      | (ci : Isa.Custom_inst.t) :: rest ->
        if Util.Bitset.intersects ci.Isa.Custom_inst.nodes used then
          go acc left rest
        else begin
          Util.Bitset.union_into used ci.Isa.Custom_inst.nodes;
          go (acc +. float_of_int (Isa.Custom_inst.gain ci)) (left - 1) rest
        end
    in
    go 0. opcodes sorted
  in
  (* Two exhaustive references per block: the affordable small budget
     (what a production sweep can pay per block — its max_size 8 is the
     combinatorial ceiling) and the deep default budget (max_size 14,
     the only exhaustive route to the candidates isegen walks to).  The
     gain floor is against the former, the wall-clock ceiling against
     the latter — beating the cheap run on quality while staying within
     2x of the expensive run's cost is the cap-breaking claim. *)
  let row (name, dfg) =
    let (ex_small_cands, saturation), ex_small_s =
      Experiments.Report.timed (fun () ->
          E.connected_full ~budget:E.small_budget dfg)
    in
    let (ex_deep_cands, _), ex_deep_s =
      Experiments.Report.timed (fun () ->
          E.connected_full ~budget:E.default_budget dfg)
    in
    (* coverage scales with the block: seed a walk from (almost) every
       node, the merge pool from the richer pool *)
    let params =
      { Ise.Isegen.default_params with
        Ise.Isegen.restarts = min 256 (Ir.Dfg.node_count dfg);
        merge_pool = 48 }
    in
    let ise_cands, ise_s =
      Experiments.Report.timed (fun () -> Ise.Isegen.generate ~params dfg)
    in
    let ex_gain = selected_gain dfg ex_small_cands in
    let ex_deep_gain = selected_gain dfg ex_deep_cands in
    let ise_gain = selected_gain dfg ise_cands in
    let gain_ratio = ise_gain /. Float.max 1e-9 ex_gain in
    let time_ratio = ise_s /. Float.max 1e-9 ex_deep_s in
    Format.fprintf fmt
      "%-12s %4d nodes  exhaustive %s %6.1f gain in %.3f s (deep %6.1f in \
       %.3f s) | isegen %6.1f gain in %.3f s  (%.2fx gain, %.2fx deep time)@."
      name (Ir.Dfg.node_count dfg)
      (match saturation with
       | Some sat -> "sat:" ^ E.saturation_reason sat
       | None -> "complete")
      ex_gain ex_small_s ex_deep_gain ex_deep_s ise_gain ise_s gain_ratio
      time_ratio;
    (name, dfg, saturation, ex_gain, ex_deep_gain, ise_gain, gain_ratio,
     ex_small_s, ex_deep_s, ise_s, time_ratio)
  in
  let rows = List.map row blocks in
  (* the cap-breaking floor: at least one saturated block where isegen
     banks 1.2x the exhaustive gain *)
  let breaking =
    List.filter
      (fun (_, _, sat, _, _, _, gain_ratio, _, _, _, _) ->
        sat <> None && gain_ratio >= 1.2)
      rows
  in
  if breaking = [] then begin
    Format.eprintf
      "generator bench: no saturated block with isegen gain >= 1.2x \
       exhaustive@.";
    exit 2
  end;
  (* the time ceiling is only physics when the exhaustive pass is long
     enough to be signal; sub-50ms enumerations are recorded, not
     enforced *)
  List.iter
    (fun (name, _, sat, _, _, _, _, _, ex_deep_s, _, time_ratio) ->
      if sat <> None && ex_deep_s >= 0.05 && time_ratio > 2.0 then begin
        Format.eprintf
          "generator bench: isegen %.2fx the deep exhaustive wall-clock on \
           %s, above the 2x ceiling@."
          time_ratio name;
        exit 2
      end)
    rows;
  if
    List.for_all
      (fun (_, _, _, _, _, _, _, _, ex_deep_s, _, _) -> ex_deep_s < 0.05)
      rows
  then
    Format.fprintf fmt
      "[every exhaustive pass under 50 ms: time ratios recorded, 2x ceiling \
       not enforced]@.";
  let num f = Check.Repro.Num f and numi i = Check.Repro.Num (float_of_int i) in
  merge_key_json "BENCH_engine.json" "generator_scaling"
    (Check.Repro.Obj
       [ ( "budget",
           Check.Repro.Obj
             [ ("max_size", numi E.small_budget.E.max_size);
               ("max_explored", numi E.small_budget.E.max_explored);
               ("max_candidates", numi E.small_budget.E.max_candidates) ] );
         ("opcodes", numi opcodes);
         ( "blocks",
           Check.Repro.Arr
             (List.map
                (fun (name, dfg, sat, ex_gain, ex_deep_gain, ise_gain,
                      gain_ratio, ex_small_s, ex_deep_s, ise_s, time_ratio) ->
                  Check.Repro.Obj
                    [ ("name", Check.Repro.Str name);
                      ("nodes", numi (Ir.Dfg.node_count dfg));
                      ( "exhaustive_saturated",
                        Check.Repro.Bool (sat <> None) );
                      ("exhaustive_gain", num ex_gain);
                      ("exhaustive_deep_gain", num ex_deep_gain);
                      ("isegen_gain", num ise_gain);
                      ("gain_ratio", num gain_ratio);
                      ("exhaustive_s", num ex_small_s);
                      ("exhaustive_deep_s", num ex_deep_s);
                      ("isegen_s", num ise_s);
                      ("time_ratio", num time_ratio) ])
                rows) ) ]);
  validate_bench_json ~keys:generator_keys "BENCH_engine.json";
  Format.fprintf fmt "[generator counters merged into BENCH_engine.json]@.";
  Format.pp_print_flush fmt ()

let run_id id =
  if id = "engine" then engine_bench ()
  else if id = "batch" then batch_bench ()
  else if id = "daemon" then daemon_bench ()
  else if id = "generator" then generator_bench ()
  else
    match Experiments.Registry.find id with
    | Some e -> run_one e
    | None ->
      Format.eprintf "unknown experiment id: %s@." id;
      usage ();
      exit 1

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
    Format.printf "Reproduction harness: instruction-set customization for \
                   real-time embedded systems (DATE 2007)@.";
    (* one pool for the whole paper sweep; the engine/batch benches
       measure scaling, so they build their own pools per width *)
    let all_ok =
      Engine.Parallel.Pool.with_pool ~jobs:(Engine.Parallel.default_jobs ())
        (fun pool -> run_all ~pool ())
    in
    engine_bench ();
    batch_bench ();
    daemon_bench ();
    generator_bench ();
    if not all_ok then exit 1
  | _ :: [ "--list" ] -> usage ()
  | _ :: ids -> List.iter run_id ids
