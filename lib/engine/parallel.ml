let default_jobs () = max 1 (Domain.recommended_domain_count ())

let () =
  Obs.Metrics.declare ~help:"Worker domains spawned" Obs.Metrics.Counter
    "pool.spawned";
  Obs.Metrics.declare ~help:"Pool operations served by resident workers"
    Obs.Metrics.Counter "pool.reused";
  Obs.Metrics.declare ~help:"Tasks executed, by claim mode (local/stolen)"
    Obs.Metrics.Counter "pool.items";
  Obs.Metrics.declare ~help:"Tasks claimed from another domain's deque"
    Obs.Metrics.Counter "pool.steals";
  Obs.Metrics.declare ~help:"Worker domains of the most recent pool"
    Obs.Metrics.Gauge "pool.jobs";
  Obs.Metrics.declare ~help:"Time spent hunting before a successful steal"
    Obs.Metrics.Hist "pool.steal_wait_s"

(* A steal that had to hunt longer than this leaves an Info breadcrumb
   in the flight recorder: not an error (an idle worker legitimately
   waits), but the signal the steal-stall watchdog looks at. *)
let steal_stall_threshold_s = 0.5

type error = { attempts : int; message : string }

(* One item, with bounded retry.  Retrying covers transient failures
   (an injected crash that does not re-fire, a racy resource); a
   deterministic failure burns its attempts and is reported, isolated
   to its own slot. *)
let run_item ~attempts f x =
  let rec go attempt =
    match
      Fault.inject "parallel.worker";
      f x
    with
    | v ->
      if attempt > 1 then begin
        Obs.Metrics.inc "parallel.recovered";
        Obs.Flight.record "pool.item_recovered"
          [ ("attempts", string_of_int attempt) ]
      end;
      Ok v
    | exception e ->
      if attempt < attempts then begin
        Obs.Metrics.inc "parallel.retried";
        go (attempt + 1)
      end
      else begin
        Obs.Metrics.inc "parallel.item_failed";
        Obs.Flight.record ~severity:Obs.Flight.Warn "pool.item_failed"
          [ ("attempts", string_of_int attempt);
            ("error", Printexc.to_string e) ];
        Log.warn "parallel: item failed after %d attempt%s: %s" attempt
          (if attempt = 1 then "" else "s")
          (Printexc.to_string e);
        Error { attempts = attempt; message = Printexc.to_string e }
      end
  in
  go 1

module Pool = struct
  type task = unit -> unit

  (* A two-ended work queue under its own mutex.  The owner pushes and
     pops at the "back" (newest first — LIFO keeps nested work hot);
     thieves take from the "front" (oldest first), so a steal grabs the
     work that has waited longest.  Both ends are amortised O(1). *)
  type deque = {
    dm : Mutex.t;
    mutable front : task list;  (* steal end, oldest first *)
    mutable back : task list;  (* owner end, newest first *)
  }

  let deque () = { dm = Mutex.create (); front = []; back = [] }

  let deque_push d t =
    Mutex.lock d.dm;
    d.back <- t :: d.back;
    Mutex.unlock d.dm

  let deque_take d ~thief =
    Mutex.lock d.dm;
    let r =
      if thief then begin
        (if d.front = [] then begin
           d.front <- List.rev d.back;
           d.back <- []
         end);
        match d.front with
        | t :: rest ->
          d.front <- rest;
          Some t
        | [] -> None
      end
      else
        match d.back with
        | t :: rest ->
          d.back <- rest;
          Some t
        | [] ->
          (match d.front with
           | t :: rest ->
             d.front <- rest;
             Some t
           | [] -> None)
    in
    Mutex.unlock d.dm;
    r

  type t = {
    jobs : int;
    deques : deque array;
    (* deque [i] belongs to spawned worker [i] for [i >= 1]; deque 0
       belongs to whichever external (non-worker) domain is currently
       submitting or helping — the CLI main domain in practice. *)
    m : Mutex.t;
    cv : Condition.t;
    (* [m]/[cv] carry every sleep/wake: workers with nothing to steal,
       and awaiting callers with nothing to help with, wait on [cv];
       every push and every completion broadcast goes through [m], so
       re-checking the condition under [m] can never miss a wakeup. *)
    pending : int Atomic.t;  (* queued, not-yet-claimed tasks *)
    rr : int Atomic.t;  (* round-robin cursor for external pushes *)
    stopped : bool Atomic.t;
    mutable domains : unit Domain.t list;  (* protected by [m] *)
  }

  (* The OCaml runtime refuses to run more than ~128 domains; clamp so
     an enthusiastic --jobs can never crash the pool. *)
  let max_jobs = 126

  let key : (t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

  let my_index pool =
    match Domain.DLS.get key with
    | Some (p, i) when p == pool -> i
    | _ -> 0

  let jobs pool = pool.jobs

  let wake_all pool =
    Mutex.lock pool.m;
    Condition.broadcast pool.cv;
    Mutex.unlock pool.m

  let ensure_running pool ~op =
    if Atomic.get pool.stopped then
      invalid_arg (Printf.sprintf "Engine.Parallel.Pool.%s: pool is shut down" op)

  (* Claim a task: own deque first (not a steal), then the others in
     index order from [me] (steals).  Returns the task and whether it
     was stolen. *)
  let try_claim pool ~me =
    let n = Array.length pool.deques in
    let rec scan k =
      if k >= n then None
      else
        let i = (me + k) mod n in
        match deque_take pool.deques.(i) ~thief:(i <> me) with
        | Some t ->
          Atomic.decr pool.pending;
          Some (t, i <> me)
        | None -> scan (k + 1)
    in
    scan 0

  let note_steal ~hunt =
    Obs.Metrics.inc "pool.steals";
    let waited =
      match hunt with
      | Some t0 -> Unix.gettimeofday () -. t0
      | None -> 0.
    in
    let waited = max 0. waited in
    Obs.Metrics.observe "pool.steal_wait_s" waited;
    (* Info, not Warn: a long hunt usually just means the pool went
       idle between operations, so it must not trip the at_exit
       crash-dump on clean runs. *)
    if waited > steal_stall_threshold_s then
      Obs.Flight.record "pool.steal_stall"
        [ ("waited_s", Printf.sprintf "%.3f" waited) ]

  (* Tasks are fully wrapped by their producers (map / map_result /
     submit capture outcomes themselves); a task that still raises is a
     pool bug, contained here so one bad closure cannot kill a resident
     worker. *)
  let exec ~stolen task =
    Obs.Metrics.inc
      ~labels:[ ("mode", if stolen then "stolen" else "local") ]
      "pool.items";
    try task () with
    | e -> Log.warn "pool: task raised %s (dropped)" (Printexc.to_string e)

  (* [hunt] is the time this domain started looking beyond its own
     deque, carried across sleeps so the steal-latency histogram sees
     the whole wait, not just the final scan. *)
  let rec worker_loop pool ~me ~hunt =
    match try_claim pool ~me with
    | Some (task, stolen) ->
      if stolen then note_steal ~hunt;
      exec ~stolen task;
      worker_loop pool ~me ~hunt:None
    | None ->
      if Atomic.get pool.stopped then ()
      else begin
        let hunt =
          match hunt with Some _ as h -> h | None -> Some (Unix.gettimeofday ())
        in
        Mutex.lock pool.m;
        if Atomic.get pool.pending = 0 && not (Atomic.get pool.stopped) then
          Condition.wait pool.cv pool.m;
        Mutex.unlock pool.m;
        worker_loop pool ~me ~hunt
      end

  (* Helping: run queued tasks until [done_ ()] — the awaiting caller
     becomes a worker, which is both the [jobs]-th compute stream and
     the reason nested submission cannot deadlock. *)
  let rec help pool ~me ~done_ ~hunt =
    if done_ () then ()
    else
      match try_claim pool ~me with
      | Some (task, stolen) ->
        if stolen then note_steal ~hunt;
        exec ~stolen task;
        help pool ~me ~done_ ~hunt:None
      | None ->
        let hunt =
          match hunt with Some _ as h -> h | None -> Some (Unix.gettimeofday ())
        in
        Mutex.lock pool.m;
        if (not (done_ ()))
           && Atomic.get pool.pending = 0
           && not (Atomic.get pool.stopped)
        then Condition.wait pool.cv pool.m;
        Mutex.unlock pool.m;
        help pool ~me ~done_ ~hunt

  let create ?jobs () =
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    if jobs < 1 then invalid_arg "Engine.Parallel.Pool.create: jobs < 1";
    let jobs = min jobs max_jobs in
    let pool =
      { jobs;
        deques = Array.init jobs (fun _ -> deque ());
        m = Mutex.create ();
        cv = Condition.create ();
        pending = Atomic.make 0;
        rr = Atomic.make 0;
        stopped = Atomic.make false;
        domains = [] }
    in
    if jobs > 1 then begin
      pool.domains <-
        List.init (jobs - 1) (fun k ->
            let me = k + 1 in
            Domain.spawn (fun () ->
                Domain.DLS.set key (Some (pool, me));
                worker_loop pool ~me ~hunt:None;
                Trace.flush_local ()));
      Obs.Metrics.inc ~by:(float_of_int (jobs - 1)) "pool.spawned"
    end;
    Obs.Metrics.set "pool.jobs" (float_of_int jobs);
    pool

  let shutdown pool =
    let first = not (Atomic.exchange pool.stopped true) in
    wake_all pool;
    if first then begin
      Mutex.lock pool.m;
      let ds = pool.domains in
      pool.domains <- [];
      Mutex.unlock pool.m;
      List.iter Domain.join ds
    end

  let with_pool ?jobs f =
    let pool = create ?jobs () in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

  (* A worker pushes onto its own deque (nested work stays local until
     stolen); an external domain round-robins across all deques so a
     flat batch lands spread out before any stealing is needed. *)
  let push pool task =
    let d =
      match Domain.DLS.get key with
      | Some (p, i) when p == pool -> pool.deques.(i)
      | _ ->
        let i = Atomic.fetch_and_add pool.rr 1 in
        pool.deques.(i mod Array.length pool.deques)
    in
    Atomic.incr pool.pending;
    deque_push d task;
    wake_all pool

  (* Queue the thunks and help until all have completed.  Each task
     adopts the submitter's current trace span and flushes its local
     span buffer on completion, so the caller sees one connected tree
     as soon as the operation returns — even though the worker domains
     stay alive long after. *)
  let run_all pool ~op thunks =
    ensure_running pool ~op;
    Obs.Metrics.inc "pool.reused";
    let parent = Trace.current () in
    let remaining = Atomic.make (List.length thunks) in
    List.iter
      (fun th ->
        push pool (fun () ->
            Fun.protect
              ~finally:(fun () ->
                Trace.flush_local ();
                if Atomic.fetch_and_add remaining (-1) = 1 then wake_all pool)
              (fun () -> Trace.adopt parent th)))
      thunks;
    help pool ~me:(my_index pool)
      ~done_:(fun () -> Atomic.get remaining = 0)
      ~hunt:None

  let chunks n c =
    let rec go lo acc =
      if lo >= n then List.rev acc else go (lo + c) ((lo, min n (lo + c)) :: acc)
    in
    go 0 []

  let collect output =
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) output)

  let map ?(chunk = 1) pool f xs =
    if chunk < 1 then invalid_arg "Engine.Parallel.Pool.map: chunk < 1";
    ensure_running pool ~op:"map";
    let n = List.length xs in
    if pool.jobs <= 1 || n <= 1 then List.map f xs
    else begin
      let input = Array.of_list xs in
      let output = Array.make n None in
      let failure = Atomic.make None in
      (* Set on the first failure and polled before every item, so the
         surviving workers stop starting fresh items promptly instead
         of draining the queue while the failure waits to be
         re-raised. *)
      let cancelled = Atomic.make false in
      let thunk (lo, hi) () =
        let i = ref lo in
        while !i < hi && not (Atomic.get cancelled) do
          (try
             Fault.inject "parallel.worker";
             output.(!i) <- Some (f input.(!i))
           with e ->
             (* keep the first failure; later ones lose the race and
                are dropped, as List.map would also only surface one *)
             ignore (Atomic.compare_and_set failure None (Some e));
             Atomic.set cancelled true);
          incr i
        done
      in
      run_all pool ~op:"map" (List.map thunk (chunks n chunk));
      (match Atomic.get failure with Some e -> raise e | None -> ());
      collect output
    end

  let map_result ?(chunk = 1) ?(attempts = 2) pool f xs =
    if attempts < 1 then
      invalid_arg "Engine.Parallel.Pool.map_result: attempts < 1";
    if chunk < 1 then invalid_arg "Engine.Parallel.Pool.map_result: chunk < 1";
    ensure_running pool ~op:"map_result";
    let n = List.length xs in
    if pool.jobs <= 1 || n <= 1 then List.map (run_item ~attempts f) xs
    else begin
      let input = Array.of_list xs in
      let output = Array.make n None in
      (* no cancellation here: a failed item degrades to its own Error
         slot and every other item still runs to completion *)
      let thunk (lo, hi) () =
        for i = lo to hi - 1 do
          output.(i) <- Some (run_item ~attempts f input.(i))
        done
      in
      run_all pool ~op:"map_result" (List.map thunk (chunks n chunk));
      collect output
    end

  let map_reduce ?chunk pool ~map:f ~reduce init xs =
    (* reduce in input order so the result is deterministic even for
       merely-associative (non-commutative) reducers *)
    List.fold_left reduce init (map ?chunk pool f xs)

  let isolate ?(attempts = 2) f x =
    if attempts < 1 then invalid_arg "Engine.Parallel.Pool.isolate: attempts < 1";
    run_item ~attempts f x

  type 'a state = Pending | Done of 'a | Raised of exn

  type 'a future = { cell : 'a state Atomic.t; pool : t }

  let submit pool th =
    ensure_running pool ~op:"submit";
    let cell = Atomic.make Pending in
    if pool.jobs <= 1 then begin
      (match th () with
       | v -> Atomic.set cell (Done v)
       | exception e -> Atomic.set cell (Raised e));
      { cell; pool }
    end
    else begin
      Obs.Metrics.inc "pool.reused";
      let parent = Trace.current () in
      push pool (fun () ->
          (match Trace.adopt parent th with
           | v -> Atomic.set cell (Done v)
           | exception e -> Atomic.set cell (Raised e));
          Trace.flush_local ();
          wake_all pool);
      { cell; pool }
    end

  let await fut =
    let resolved () =
      match Atomic.get fut.cell with Pending -> false | Done _ | Raised _ -> true
    in
    if not (resolved ()) then
      help fut.pool ~me:(my_index fut.pool) ~done_:resolved ~hunt:None;
    match Atomic.get fut.cell with
    | Done v -> v
    | Raised e -> raise e
    | Pending -> assert false
end
