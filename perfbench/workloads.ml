(* The three workloads.  Each runs as repeated rounds; a round is one
   set-up followed by one timed section.  With [~layers] the round is
   traced: the same public calls run with a benchmark timer around each
   one, and library counters are read as snapshot deltas.

   Layer → end-to-end map (what each per-layer metric should move):
   - Ise.Curve / Ise.Select / Ise.Enumerate (curve.candidates_s,
     curve.sweep_s, curve.candidates, enumerate.*, curve.greedy_fallbacks,
     curve.generate_s.<kernel>, curve.saved_frac_50.<kernel>):
     curve-cold ops_per_s and util_reduction_pct; nothing elsewhere.
   - Engine.Parallel (pool.busy_frac, pool.steals): ops_per_s on
     curve-cold and solve-stream, latency_p50_ms on daemon-warm.
   - Core.Edf_select, Core.Rms_select, Pareto.Mo_select (the edf, rms
     and pareto metrics): solve-stream ops_per_s.
   - Batch.Protocol / Batch.Canon (protocol.parse_s, batch.prepare_s,
     batch.render_s): daemon-warm latency_p50_ms; a small share of
     solve-stream.
   - Batch.Service (batch.unique, batch.dedup_hits, batch.groups,
     batch.swept): solve-stream ops_per_s.
   - Engine.Memo (memo.store_s on solve-stream; memo.find_s and
     memo.hit_frac on daemon-warm).
   - Daemon.Server / Daemon.Client / Obs.Netio (daemon.*, request_bytes):
     daemon-warm latency_p50_ms, latency_p99_ms and ops_per_s.
   - Obs.Metrics (obs.kind_clash, tracing_overhead_frac): no end-to-end
     metric.
   - runtime (gc.*, other_s): peak_heap_mb and ops_per_s everywhere. *)

module P = Batch.Protocol
module R = Check.Repro
module Pool = Engine.Parallel.Pool
module Curves = Experiments.Curves
module L = Measure.Layers

type env = {
  fx : Fixture.t;
  seed : int;
  jobs : int;  (** pool jobs: min(2, cores) *)
  scratch : string;  (** private directory for caches and sockets *)
}

type round = {
  setup_s : float;
  wall_s : float;  (** the timed section *)
  ops : int;
  rates : float list;
      (** ops per second, one per rate window: the whole timed section of
          a pass, or a quarter-second window of a daemon slice *)
  latencies_ms : float list;
  attempted : int;
  failed : int;
  util_reduction_pct : float;
  heap_mb : float;  (** peak major heap of the round, filled in by Main.run_rounds *)
}

let now = Measure.now

(* Mean EDF utilization reduction at 50 % Max_Area over Table 3.1's 6
   sets × Fig 3.3's 5 utilizations, from a set of curves. *)
let util_reduction curves =
  List.concat_map
    (fun set ->
      List.map
        (fun u ->
          let tasks = Fixture.tasks_of curves ~u (Curves.taskset_ch3 set) in
          let budget = Curves.max_area_of tasks * 5 / 10 in
          (u, (Core.Edf_select.run ~budget tasks).Core.Selection.utilization))
        Fixture.utilizations)
    [ 1; 2; 3; 4; 5; 6 ]
  |> Fixture.mean_reduction

(* A configuration curve is valid when it is a staircase that starts at
   the software point: area strictly up, cycles strictly down, and base
   equal to the task's profiled software cycles. *)
let valid_staircase ~base (pts : Isa.Config.point array) =
  Array.length pts > 0
  && pts.(0) = { Isa.Config.area = 0; cycles = base }
  && Array.for_all Fun.id
       (Array.init (Array.length pts - 1) (fun i ->
            pts.(i + 1).area > pts.(i).area && pts.(i + 1).cycles < pts.(i).cycles))

(* Invalid curves among [(kernel, curve base, points)], against each
   kernel's profiled software cycles in [bases]. *)
let curve_failures bases curves =
  List.length
    (List.filter
       (fun (k, curve_base, pts) ->
         let base = List.assoc k bases in
         not (curve_base = base && valid_staircase ~base pts))
       curves)

(* Same quality number from the EDF responses at 50 % Max_Area. *)
let util_reduction_of_lines items lines =
  let seen = Hashtbl.create 64 in
  List.iter2
    (fun (it : Fixture.item) line ->
      match it.edf50 with
      | Some u when not (Hashtbl.mem seen it.req.P.id) ->
        Hashtbl.add seen it.req.P.id (u, Fixture.edf_utilization line)
      | _ -> ())
    items lines;
  Fixture.mean_reduction (Hashtbl.fold (fun _ p acc -> p :: acc) seen [])

let with_pool env f =
  let pool = Pool.create ~jobs:env.jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let traced_section layers ~ops f =
  let s0 = Obs.Snapshot.take () and g0 = Gc.quick_stat () in
  let r, wall = Measure.time f in
  let d = Obs.Snapshot.delta ~before:s0 ~after:(Obs.Snapshot.take ()) and g1 = Gc.quick_stat () in
  Measure.add_counter_deltas layers d;
  L.add layers "wall_s" wall;
  L.add layers "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  L.add layers "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  L.add layers "ops" (float_of_int (ops r));
  (r, wall, d)

(* ---- curve-cold ------------------------------------------------------

   Cold configuration curves of the 17 kernels of Table 3.1 ∪ Table 4.1
   through Experiments.Curves.warm, from an empty private disk cache and
   a reset memo, on one pool.  No seeded input: the kernels are fixed.
   Why: the run every user pays first; identification is ~80 % of curve
   time and the solver, batch and socket layers do nothing.  It carries
   the quality metric the exact-curves work must raise.

   The traced pass makes the calls Curves.warm makes per kernel
   (Kernels.find, then Ise.Curve.generate, one pool item per kernel)
   with a timer around each, and skips the persistent-cache write.
   Each generation runs inside its item, without the pool: Curves.warm
   also hands the pool to generate, and an item that awaits nested
   items helps run other kernels' items meanwhile, which would charge
   their time to its timer.  So per-kernel times are single-domain
   costs, pool.busy_frac shows how the slowest kernels bound the pool,
   and tracing_overhead_frac includes the lost inner parallelism. *)

let curve_cold env ~index ~t0 ~slice:_ ~layers =
  let dir = Filename.concat env.scratch (Printf.sprintf "cache-%d" index) in
  Measure.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Measure.remove_tree dir) @@ fun () ->
  Engine.Cache.set_dir dir;
  Curves.reset ();
  with_pool env @@ fun pool ->
  let all = Kernels.all () in
  let bases = List.map (fun k -> (k, Ise.Curve.base_cycles (List.assoc k all))) Fixture.kernels in
  let setup_s = now () -. t0 in
  let curves, wall_s =
    match layers with
    | None ->
      let (), wall = Measure.time (fun () -> Curves.warm ~pool Fixture.kernels) in
      (List.map (fun k -> (k, Curves.curve k)) Fixture.kernels, wall)
    | Some l ->
      let params = Curves.current_params () and w = 1. /. float_of_int env.jobs in
      let curves, wall, d =
        traced_section l ~ops:List.length (fun () ->
            Pool.map pool
              (fun k ->
                let t = now () in
                let cfg = Kernels.find k in
                let t' = now () in
                let c = Ise.Curve.generate ~params cfg in
                L.add l "kernels.find_s" ((t' -. t) *. w);
                L.add l ("curve.generate_s." ^ k) (now () -. t');
                L.add l "pool.item_s" (now () -. t);
                (k, c))
              Fixture.kernels)
      in
      let cand = Obs.Snapshot.counter d "curve.candidates" in
      L.add l "curve.candidates_s" (cand *. w);
      L.add l "curve.sweep_s" ((Obs.Snapshot.counter d "curve.generate" -. cand) *. w);
      List.iter
        (fun (k, c) ->
          let base = Isa.Config.base_cycles c in
          let p = Isa.Config.best_at c (Isa.Config.max_area c / 2) in
          L.add l ("curve.saved_frac_50." ^ k)
            (float_of_int (base - p.Isa.Config.cycles) /. float_of_int base))
        curves;
      (curves, wall)
  in
  let failed =
    curve_failures bases
      (List.map (fun (k, c) -> (k, Isa.Config.base_cycles c, Isa.Config.points c)) curves)
  in
  let n = List.length curves in
  { setup_s; wall_s; ops = n; rates = [ float_of_int n /. wall_s ];
    latencies_ms = [ wall_s *. 1e3 ]; attempted = n; failed;
    util_reduction_pct = util_reduction curves; heap_mb = 0. }

(* ---- solve-stream ----------------------------------------------------

   Batch.Service.run on one pool with a fresh no-spill Engine.Memo per
   round, over request lines parsed as `isecustom batch` parses its
   input.  The stream is every unique request of the fixture population
   twice, in a shuffle seeded by (seed, round):
   - EDF and RMS over Fig 3.3's grid (Table 3.1 sets × 5 U × 11 area
     steps);
   - pareto_approx at Table 4.2's ε ∈ {0.21, 0.44, 0.69, 3} and
     pareto_exact, on the Table 4.1 sets.
   Task curves come from the frozen fixture, so identification does no
   work.  Why: the solvers do almost all the work; every unique request
   is a memo write and the repeats exercise dedup.  Measured solver mix
   (traced run, 2-core host): pareto_approx 79 %, RMS 10 %, EDF sweeps
   9 %, pareto_exact 3 % of solver time; canonicalisation
   (batch.prepare_s) is another ~18 % of the stream's wall time. *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let status_field st =
  ("status", R.Str (match st with Engine.Guard.Exact -> "exact" | Partial _ -> "partial"))

let num_int i = R.Num (float_of_int i)

let selection_fields (sel : Core.Selection.t) =
  [ ("utilization", R.Num sel.utilization);
    ("area", num_int sel.area);
    ( "assignment",
      R.Arr
        (List.map
           (fun (_, (p : Isa.Config.point)) ->
             R.Obj [ ("area", num_int p.area); ("cycles", num_int p.cycles) ])
           sel.assignment) ) ]

let edf_payload sel = R.Obj (status_field Engine.Guard.Exact :: selection_fields sel)

let front_json front =
  R.Arr
    (List.map
       (fun (p : Util.Pareto_front.point) ->
         R.Obj [ ("cost", num_int p.cost); ("value", R.Num p.value) ])
       front)

(* Chapter 4's inter-task view of an instance, as the service builds it. *)
let entities_of (i : Check.Instance.t) =
  List.map
    (fun (ts : Check.Instance.task_spec) ->
      Array.of_list
        (List.map
           (fun (p : Check.Instance.curve_point) ->
             { Pareto.Mo_select.delta = float_of_int (ts.base - p.cycles); cost = p.area })
           ts.points))
    i.tasks

let base_of (i : Check.Instance.t) =
  Util.Numeric.sum_byf (fun (ts : Check.Instance.task_spec) -> float_of_int ts.base) i.tasks

(* One request's payload through the public solver entry points the
   service calls, each under its layer timer. *)
let solve l ~w (p : P.prepared) =
  let timed name f = L.timed ~weight:w l name f in
  let ci = p.canonical in
  match p.req.op with
  | P.Edf ->
    let tasks = Check.Instance.tasks ci in
    edf_payload (timed "edf.solve_s" (fun () -> Core.Edf_select.run ~budget:ci.budget tasks))
  | P.Rms ->
    let tasks = Check.Instance.tasks ci and guard = Engine.Guard.default () in
    let run () = Core.Rms_select.run_guarded ~guard ~budget:ci.budget tasks in
    (match timed "rms.solve_s" run with
     | Some sel, st -> R.Obj (status_field st :: ("feasible", R.Bool true) :: selection_fields sel)
     | None, st -> R.Obj [ status_field st; ("feasible", R.Bool false) ])
  | P.Pareto_exact ->
    let ents = entities_of ci and guard = Engine.Guard.default () in
    let front, st =
      timed "pareto.exact_s" (fun () ->
          Pareto.Mo_select.exact_front_guarded ~guard ~base:(base_of ci) ents)
    in
    R.Obj [ status_field st; ("points", front_json front) ]
  | P.Pareto_approx ->
    let ents = entities_of ci in
    let front =
      timed "pareto.approx_s" (fun () ->
          Pareto.Mo_select.approx_front ~eps:ci.eps ~base:(base_of ci) ents)
    in
    R.Obj [ status_field Engine.Guard.Exact; ("points", front_json front) ]
  | P.Curve -> invalid_arg "solve-stream holds no curve requests"

(* One sweep group: probe the memo, answer the misses (an EDF group of
   several budgets with one shared run_sweep DP), store. *)
let compute_group l ~w memo (ps : P.prepared list) =
  let timed name f = L.timed ~weight:w l name f in
  let probed =
    List.map
      (fun (p : P.prepared) ->
        (p, timed "memo.find_s" (fun () -> Engine.Memo.find memo ~key:p.key)))
      ps
  in
  let missing = List.filter_map (fun (p, r) -> if r = None then Some p else None) probed in
  let computed, swept =
    match missing with
    | (first : P.prepared) :: _ :: _ when first.req.op = P.Edf ->
      let budgets = List.map (fun (p : P.prepared) -> p.canonical.budget) missing in
      let tasks = Check.Instance.tasks first.canonical in
      let sels = timed "edf.solve_s" (fun () -> Core.Edf_select.run_sweep ~budgets tasks) in
      (List.map2 (fun p sel -> (p, edf_payload sel)) missing sels, List.length missing)
    | _ -> (List.map (fun p -> (p, solve l ~w p)) missing, 0)
  in
  let fresh =
    List.map
      (fun ((p : P.prepared), pl) -> (p.key, timed "batch.render_s" (fun () -> R.to_string pl)))
      computed
  in
  List.iter (fun (k, s) -> timed "memo.store_s" (fun () -> Engine.Memo.store memo ~key:k s)) fresh;
  let hits =
    List.filter_map (fun ((p : P.prepared), r) -> Option.map (fun s -> (p.key, s)) r) probed
  in
  (hits @ fresh, swept)

(* Batch.Service.run's phases (prepare, dedup, group, execute on the
   pool, render), driven through the public functions with a timer
   around each call.  Pool items are weighted 1/jobs. *)
let traced_service l ~pool ~memo ~jobs reqs =
  let w = 1. /. float_of_int jobs in
  let prepared = List.map (fun r -> L.timed l "batch.prepare_s" (fun () -> P.prepare r)) reqs in
  let seen = Hashtbl.create 1024 and groups = Hashtbl.create 256 and order = ref [] in
  let dedup = ref 0 in
  List.iter
    (fun (p : P.prepared) ->
      if Hashtbl.mem seen p.key then incr dedup
      else begin
        Hashtbl.add seen p.key ();
        match Hashtbl.find_opt groups p.group with
        | Some ps -> Hashtbl.replace groups p.group (p :: ps)
        | None ->
          Hashtbl.add groups p.group [ p ];
          order := p.group :: !order
      end)
    prepared;
  let groups = List.rev_map (fun g -> List.rev (Hashtbl.find groups g)) !order in
  let results =
    Pool.map pool
      (fun g ->
        let t = now () in
        let r = compute_group l ~w memo g in
        L.add l "pool.item_s" (now () -. t);
        r)
      groups
  in
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun (entries, _) -> List.iter (fun (k, s) -> Hashtbl.replace by_key k s) entries)
    results;
  L.add l "batch.unique" (float_of_int (Hashtbl.length seen));
  L.add l "batch.dedup_hits" (float_of_int !dedup);
  L.add l "batch.groups" (float_of_int (List.length groups));
  L.add l "batch.swept" (float_of_int (List.fold_left (fun a (_, s) -> a + s) 0 results));
  List.map
    (fun (p : P.prepared) ->
      L.timed l "batch.render_s" (fun () ->
          P.render_response p ~payload:(R.parse (Hashtbl.find by_key p.key))))
    prepared

let check_lines env items lines =
  List.fold_left2
    (fun bad (it : Fixture.item) line ->
      if Fixture.check env.fx ~id:it.req.P.id line then bad else bad + 1)
    0 items lines

let solve_stream env ~index ~t0 ~slice:_ ~layers =
  let uniq = Array.of_list (Fixture.population env.fx.curves) in
  let items =
    Array.to_list (shuffle (Random.State.make [| env.seed; index |]) (Array.append uniq uniq))
  in
  let input = List.map (fun (it : Fixture.item) -> P.request_line it.req) items in
  with_pool env @@ fun pool ->
  let memo = Engine.Memo.create ~spill:false ~namespace:"perfbench-stream" () in
  let setup_s = now () -. t0 in
  let parse line = match P.parse_request line with Ok r -> r | Error e -> failwith e in
  let lines, wall_s =
    match layers with
    | None ->
      Measure.time (fun () -> fst (Batch.Service.run ~pool ~memo (List.map parse input)))
    | Some l ->
      let lines, wall, _ =
        traced_section l ~ops:List.length (fun () ->
            let reqs = List.map (fun s -> L.timed l "protocol.parse_s" (fun () -> parse s)) input in
            traced_service l ~pool ~memo ~jobs:env.jobs reqs)
      in
      (lines, wall)
  in
  let n = List.length input in
  { setup_s; wall_s; ops = n; rates = [ float_of_int n /. wall_s ];
    latencies_ms = [ wall_s *. 1e3 ]; attempted = n; failed = check_lines env items lines;
    util_reduction_pct = util_reduction_of_lines items lines; heap_mb = 0. }

(* ---- daemon-warm -----------------------------------------------------

   An in-process Daemon.Server on a Unix socket with a pool, its memo
   pre-warmed in set-up with the population of solve-stream.  Then a
   closed loop: one client sends its next request, drawn from that
   population by a generator seeded with (seed, round, client), only
   when the previous response has arrived.  Why: every answer is a memo
   read, so the solvers do nothing; the cost is the per-request path
   (parse, canon, memo lookup, render) and the socket, thread and
   scheduling path around it.

   One client, not min(2, cores): each request already wakes a server
   reader thread, a pool domain and a writer thread, and a second
   client's threads only add to what the host's scheduler decides.
   Even so the run-to-run spread stays too wide to gate this workload
   (see Main.workloads).

   Throughput is counted per quarter-second window of the slice, so a
   window in which the shared host stalls the scheduler is one outlier
   among the run's windows, not a share of every slice.

   The traced round replays, after the loop, the daemon's in-process
   path for every request sent (Protocol.parse_request, prepare,
   Memo.find, render_response) on the warm memo; the transport share is
   the mean round trip minus that. *)

let clients = 1

let rate_window_s = 0.25

type answer = { done_at : float; latency_s : float; index : int }

(* One client: (answers in arrival order, reversed; wrong answers;
   requests lost to an exception or a closed connection). *)
let client_loop env ~uniq ~rng ~deadline c =
  let answers = ref [] and bad = ref 0 and lost = ref 0 in
  (try
     while now () < deadline do
       let index = Random.State.int rng (Array.length uniq) in
       let it : Fixture.item = uniq.(index) in
       let t = now () in
       Daemon.Client.send c it.req;
       match Daemon.Client.recv c with
       | Some line ->
         let done_at = now () in
         answers := { done_at; latency_s = done_at -. t; index } :: !answers;
         if not (Fixture.check env.fx ~id:it.req.P.id line) then incr bad
       | None -> raise Exit
     done
   with _ -> incr lost);
  (!answers, !bad, !lost)

(* Completed requests per second in each window of the slice that
   started at [start]: the window's completions over the time from the
   last completion before it (or [start]) to its own last one, which
   reads as a continuous figure rather than a multiple of 1/window. *)
let window_rates ~start ~slice answers =
  let n = max 1 (int_of_float (slice /. rate_window_s)) in
  let w = slice /. float_of_int n in
  let times = List.sort compare (List.map (fun a -> a.done_at) answers) in
  let rec go k prev acc times =
    if k = n then List.rev acc
    else
      let limit = start +. (float_of_int (k + 1) *. w) in
      let rec take c last = function
        | t :: rest when t < limit -> take (c + 1) t rest
        | rest -> (c, last, rest)
      in
      let c, last, rest = take 0 prev times in
      let rate = if c = 0 then 0. else float_of_int c /. (last -. prev) in
      go (k + 1) last (rate :: acc) rest
  in
  go 0 start [] times

let in_process_layers = [ "protocol.parse_s"; "batch.prepare_s"; "memo.find_s"; "batch.render_s" ]

let replay_in_process l ~memo line =
  let timed name f = L.timed l name f in
  let req =
    timed "protocol.parse_s" (fun () ->
        match P.parse_request line with Ok r -> r | Error e -> failwith e)
  in
  let p = timed "batch.prepare_s" (fun () -> P.prepare req) in
  let s = timed "memo.find_s" (fun () -> Engine.Memo.find memo ~key:p.key) in
  ignore (timed "batch.render_s" (fun () -> P.render_response p ~payload:(R.parse (Option.get s))))

let ops = [ P.Edf; P.Rms; P.Pareto_exact; P.Pareto_approx; P.Curve ]

let daemon_warm env ~index ~t0 ~slice ~layers =
  let uniq = Array.of_list (Fixture.population env.fx.curves) in
  let items = Array.to_list uniq in
  with_pool env @@ fun pool ->
  let memo = Engine.Memo.create ~spill:false ~namespace:"perfbench-daemon" () in
  let warm_lines, _ =
    Batch.Service.run ~pool ~memo (List.map (fun (it : Fixture.item) -> it.req) items)
  in
  let warm_failed = check_lines env items warm_lines in
  let sock = Filename.concat env.scratch (Printf.sprintf "d%d.sock" index) in
  let server = Daemon.Server.start ~unix_path:sock ~pool ~memo () in
  Fun.protect ~finally:(fun () -> Daemon.Server.stop server) @@ fun () ->
  let conns = List.init clients (fun _ -> Daemon.Client.connect ~unix_path:sock ()) in
  Fun.protect ~finally:(fun () -> List.iter Daemon.Client.close conns) @@ fun () ->
  let setup_s = now () -. t0 in
  let start = ref 0. in
  let loop () =
    start := now ();
    let deadline = !start +. slice in
    let results = Array.make clients ([], 0, 0) in
    let threads =
      List.mapi
        (fun ci c ->
          let rng = Random.State.make [| env.seed; index; ci |] in
          Thread.create (fun () -> results.(ci) <- client_loop env ~uniq ~rng ~deadline c) ())
        conns
    in
    List.iter Thread.join threads;
    Array.to_list results
  in
  let count rs = List.fold_left (fun a (answers, _, _) -> a + List.length answers) 0 rs in
  let results, wall_s =
    match layers with
    | None -> Measure.time loop
    | Some l ->
      let results, wall, d = traced_section l ~ops:count loop in
      let w = 1. /. float_of_int clients in
      let lines = Array.map (fun (it : Fixture.item) -> P.request_line it.req) uniq in
      let sent = List.concat_map (fun (answers, _, _) -> List.map (fun a -> a.index) answers) results in
      let replay = L.create () in
      List.iter (fun i -> replay_in_process replay ~memo lines.(i)) sent;
      List.iter (fun name -> L.add l name (L.get replay name *. w)) in_process_layers;
      let in_process = List.fold_left (fun a name -> a +. L.get replay name) 0. in_process_layers *. w in
      let rtt =
        List.fold_left
          (fun a (answers, _, _) -> List.fold_left (fun a x -> a +. x.latency_s) a answers)
          0. results
      in
      L.add l "daemon.transport_s" ((rtt *. w) -. in_process);
      L.add l "pool.item_s" (in_process /. w);
      let n = float_of_int (List.length sent) in
      let bytes = List.fold_left (fun a i -> a + String.length lines.(i) + 1) 0 sent in
      L.add l "request_bytes" (float_of_int bytes /. n);
      (match Obs.Snapshot.hist_stats d "daemon.queue_wait_s" with
       | Some s ->
         L.add l "daemon.queue_wait_p50_s" s.Obs.Metrics.p50;
         L.add l "daemon.queue_wait_p99_s" s.Obs.Metrics.p99
       | None -> ());
      L.add l "daemon.shed"
        (List.fold_left
           (fun a op ->
             let labels = [ ("op", P.op_name op); ("outcome", "overloaded") ] in
             a +. Obs.Snapshot.counter d ~labels "daemon.requests")
           0. ops);
      let hits = Obs.Snapshot.counter d "memo.hits" in
      let misses = Obs.Snapshot.counter d "memo.misses" in
      L.add l "memo.hit_frac" (hits /. Float.max 1. (hits +. misses));
      (results, wall)
  in
  let answers = List.concat_map (fun (a, _, _) -> a) results in
  let bad = List.fold_left (fun a (_, b, _) -> a + b) 0 results in
  let lost = List.fold_left (fun a (_, _, l) -> a + l) 0 results in
  let n = List.length answers in
  { setup_s; wall_s; ops = n; rates = window_rates ~start:!start ~slice answers;
    latencies_ms = List.map (fun a -> a.latency_s *. 1e3) answers;
    attempted = n + lost + List.length items; failed = bad + lost + warm_failed;
    util_reduction_pct = util_reduction_of_lines items warm_lines; heap_mb = 0. }
