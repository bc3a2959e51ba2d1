open Check.Prop

let renumber_dfg (d : Check.Instance.dfg_spec) =
  let n = List.length d.kinds in
  if n = 0 then d
  else begin
    let kinds = Array.of_list d.kinds in
    let waiting = Array.make n 0 in
    let succs = Array.make n [] in
    List.iter
      (fun (s, t) ->
        succs.(s) <- t :: succs.(s);
        waiting.(t) <- waiting.(t) + 1)
      d.edges;
    let newid = Array.make n (-1) in
    for pos = 0 to n - 1 do
      let pick = ref (-1) in
      for u = 0 to n - 1 do
        if newid.(u) < 0 && waiting.(u) = 0 then pick := u
      done;
      newid.(!pick) <- pos;
      waiting.(!pick) <- -1;
      List.iter (fun s -> waiting.(s) <- waiting.(s) - 1) succs.(!pick)
    done;
    let old_of = Array.make n 0 in
    Array.iteri (fun old pos -> old_of.(pos) <- old) newid;
    { Check.Instance.kinds = List.init n (fun pos -> kinds.(old_of.(pos)));
      edges = List.map (fun (s, t) -> (newid.(s), newid.(t))) d.edges;
      live_outs = List.map (fun v -> newid.(v)) d.live_outs }
  end

(* A request stream with everything the service claims to share:
   budget sweeps, exact duplicates, permuted/renumbered presentations
   of the same problem, every op. *)
let stream_of (inst : Check.Instance.t) =
  let b = inst.Check.Instance.budget in
  let budgets = List.sort_uniq compare [ 0; b / 2; b; b + 3 ] in
  let at bud = { inst with Check.Instance.budget = bud } in
  let permuted = { inst with Check.Instance.tasks = List.rev inst.Check.Instance.tasks } in
  let renumbered = { inst with Check.Instance.dfg = renumber_dfg inst.Check.Instance.dfg } in
  let specs =
    List.map (fun bud -> (Protocol.Edf, at bud)) budgets
    @ [ (Protocol.Rms, inst);
        (Protocol.Pareto_exact, inst);
        (Protocol.Pareto_approx, inst);
        (Protocol.Curve, inst);
        (Protocol.Edf, permuted);
        (Protocol.Rms, permuted);
        (Protocol.Curve, renumbered);
        (Protocol.Edf, inst);
        (Protocol.Pareto_exact, inst) ]
  in
  List.mapi
    (fun i (op, instance) ->
      { Protocol.id = Printf.sprintf "q%d" i; op; instance;
        generator = Ise.Isegen.Exhaustive })
    specs

let fresh_memo ?(spill = false) () =
  Engine.Memo.create ~spill ~namespace:"batch-prop" ()

let diff_lines a b =
  let rec go i = function
    | [], [] -> "response lists differ in length"
    | x :: _, y :: _ when x <> y ->
      Printf.sprintf "line %d differs:\n  sequential: %s\n  batched:    %s" i x y
    | _ :: xs, _ :: ys -> go (i + 1) (xs, ys)
    | _ -> "response lists differ in length"
  in
  go 0 (a, b)

let batch_matches_sequential inst =
  if Engine.Fault.active () then Skip "fault injection active"
  else begin
    let reqs = stream_of inst in
    let sequential = List.map Service.respond reqs in
    let batched, stats =
      Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
      Service.run ~pool ~memo:(fresh_memo ()) reqs
    in
    if batched <> sequential then Fail (diff_lines sequential batched)
    else if stats.Service.dedup_hits = 0 then
      Fail "stream contains duplicates but dedup found none"
    else Pass
  end

let batch_memo_warm_identical inst =
  if Engine.Fault.active () then Skip "fault injection active"
  else begin
    let reqs = stream_of inst in
    let memo = fresh_memo () in
    let cold, _ = Service.run ~memo reqs in
    let warm, stats = Service.run ~memo reqs in
    if warm <> cold then Fail (diff_lines cold warm)
    else if stats.Service.memo_hits < stats.Service.unique then
      Fail
        (Printf.sprintf "warm run hit the memo %d times for %d unique requests"
           stats.Service.memo_hits stats.Service.unique)
    else Pass
  end

let key_of op instance =
  (Protocol.prepare
     { Protocol.id = "k"; op; instance; generator = Ise.Isegen.Exhaustive })
    .Protocol.key

let batch_hash_canonical (inst : Check.Instance.t) =
  let permuted = { inst with Check.Instance.tasks = List.rev inst.Check.Instance.tasks } in
  let renumbered = { inst with Check.Instance.dfg = renumber_dfg inst.Check.Instance.dfg } in
  let bumped = { inst with Check.Instance.budget = inst.Check.Instance.budget + 1 } in
  if key_of Protocol.Edf permuted <> key_of Protocol.Edf inst then
    Fail "task reordering changed the edf key"
  else if key_of Protocol.Curve renumbered <> key_of Protocol.Curve inst then
    Fail "DFG renumbering changed the curve key"
  else if key_of Protocol.Edf bumped = key_of Protocol.Edf inst then
    Fail "budget change did not change the edf key"
  else if key_of Protocol.Edf inst = key_of Protocol.Rms inst then
    Fail "edf and rms keys alias"
  else Pass

let batch_survives_faults inst =
  if not (Engine.Fault.active ()) then Skip "no fault injection configured"
  else begin
    let saved = Engine.Cache.dir () in
    let tmp =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "isecustom-batch-faults-%d" (Unix.getpid ()))
    in
    Engine.Cache.set_dir tmp;
    Fun.protect
      ~finally:(fun () -> Engine.Cache.set_dir saved)
      (fun () ->
        let reqs = stream_of inst in
        match
          Engine.Parallel.Pool.with_pool ~jobs:2 @@ fun pool ->
          Service.run ~pool ~memo:(fresh_memo ~spill:true ()) reqs
        with
        | exception e ->
          Fail ("service raised under fault injection: " ^ Printexc.to_string e)
        | lines, _ ->
          if List.length lines <> List.length reqs then
            Fail "response count does not match request count"
          else if
            List.for_all
              (fun l ->
                match Check.Repro.parse l with
                | Check.Repro.Obj _ -> true
                | _ | (exception Check.Repro.Parse_error _) -> false)
              lines
          then Pass
          else Fail "unparseable response line under fault injection")
  end

let all =
  [ { name = "batch_matches_sequential"; suite = "batch"; run = batch_matches_sequential };
    { name = "batch_memo_warm_identical"; suite = "batch"; run = batch_memo_warm_identical };
    { name = "batch_hash_canonical"; suite = "batch"; run = batch_hash_canonical };
    { name = "batch_survives_faults"; suite = "batch"; run = batch_survives_faults } ]
