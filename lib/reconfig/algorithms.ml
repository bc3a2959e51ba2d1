(* Algorithm 7: group-knapsack DP over the area budget — each loop picks
   exactly one version; maximise total gain. *)
let spatial_select ~loops ~area =
  if area < 0 then invalid_arg "spatial_select: negative area";
  let options (l : Problem.hot_loop) =
    Array.map (fun (v : Problem.version) -> (v.area, float_of_int v.gain)) l.versions
  in
  let table = Util.Group_knapsack.solve ~budgets:[ area ] (List.map options loops) in
  List.map2
    (fun (l : Problem.hot_loop) j -> (l.name, j))
    loops
    (Util.Group_knapsack.pick table ~budget:area)

let rcg (t : Problem.t) ~keep ~weight_of =
  let kept =
    List.filter (fun (l : Problem.hot_loop) -> keep l.name) t.loops
    |> List.map (fun (l : Problem.hot_loop) -> l.name)
    |> Array.of_list
  in
  let index name =
    let rec find i = if kept.(i) = name then i else find (i + 1) in
    find 0
  in
  let edges =
    Ir.Trace.pair_counts ~keep:(fun n -> Array.exists (( = ) n) kept) t.trace
    |> List.map (fun ((a, b), w) -> (index a, index b, w))
  in
  let vertex_weights = Array.map weight_of kept in
  (kept, Partition.Graph.make ~vertex_weights ~edges)

(* Local spatial patch-up: re-select versions for the loops of each
   configuration under the real per-configuration capacity; loops that
   fall back to version 0 leave the configuration. *)
let local_spatial (t : Problem.t) groups =
  let version_of = ref [] and config_of = ref [] in
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun cid names ->
      let loops = List.map (Problem.find_loop t) names in
      List.iter
        (fun (name, j) ->
          Hashtbl.replace seen name ();
          version_of := (name, j) :: !version_of;
          if j > 0 then config_of := (name, cid) :: !config_of)
        (spatial_select ~loops ~area:t.max_area))
    groups;
  (* loops not in any group run in software *)
  List.iter
    (fun (l : Problem.hot_loop) ->
      if not (Hashtbl.mem seen l.name) then
        version_of := (l.name, 0) :: !version_of)
    t.loops;
  { Problem.version_of = !version_of; config_of = !config_of }

let groups_of_assignment names assignment k =
  List.init k (fun c ->
      Array.to_list names
      |> List.filteri (fun i _ -> assignment.(i) = c))
  |> List.filter (fun g -> g <> [])

let iterative ?(seed = 1) ?(imbalances = [ 0.25; 1.0; 3.0 ]) (t : Problem.t) =
  let n = List.length t.loops in
  let best = ref (Problem.software_placement t) in
  let best_gain = ref (Problem.net_gain t !best) in
  let consider placement =
    if Problem.feasible t placement then begin
      let g = Problem.net_gain t placement in
      if g > !best_gain then begin
        best := placement;
        best_gain := g
      end
    end
  in
  (* The k-way partitioner is sensitive to its seed and, much more, to
     the balance constraint: equal-weight parts are the thesis's
     heuristic default, but when a few loops dominate the area the best
     clusterings are lopsided.  A small portfolio costs little (the
     spatial DPs dominate the runtime). *)
  let portfolio =
    List.concat_map (fun imb -> [ (seed, imb); (seed + 13, imb) ]) imbalances
  in
  for k = 1 to max 1 n do
    (* Phase 1: global spatial partitioning over a virtual area k·MaxA. *)
    let global = spatial_select ~loops:t.loops ~area:(k * t.max_area) in
    let hw = List.filter (fun (_, j) -> j > 0) global in
    (* Phase 2/3 with the CIS selection. *)
    (if hw <> [] then begin
       let keep name = List.mem_assoc name hw in
       let weight_of name =
         let l = Problem.find_loop t name in
         l.versions.(List.assoc name hw).area
       in
       let names, graph = rcg t ~keep ~weight_of in
       let k' = min k (Array.length names) in
       List.iter
         (fun (seed, imbalance) ->
           let r = Partition.Kway.partition ~imbalance ~seed ~k:k' graph in
           consider
             (local_spatial t
                (groups_of_assignment names r.Partition.Kway.assignment k')))
         portfolio
     end);
    (* Phase 2/3 ignoring the CIS selection: unit weights, all loops. *)
    let names, graph = rcg t ~keep:(fun _ -> true) ~weight_of:(fun _ -> 1) in
    if Array.length names > 0 then begin
      let k' = min k (Array.length names) in
      List.iter
        (fun (seed, imbalance) ->
          let r = Partition.Kway.partition ~imbalance ~seed ~k:k' graph in
          consider
            (local_spatial t
               (groups_of_assignment names r.Partition.Kway.assignment k')))
        portfolio
    end
  done;
  !best

(* Algorithm 8. *)
let greedy (t : Problem.t) =
  let committed = ref [] (* (name, version, config) *) in
  let current = ref [] (* (name, version) of the configuration being built *)
  and current_id = ref 0 in
  let selected name =
    List.exists (fun (n, _, _) -> n = name) !committed
    || List.mem_assoc name !current
  in
  let current_area () =
    Util.Numeric.sum_by
      (fun (name, j) -> (Problem.find_loop t name).versions.(j).area)
      !current
  in
  let reconfigs_with extra =
    let config_of name =
      match List.find_opt (fun (n, _, _) -> n = name) !committed with
      | Some (_, _, c) -> Some c
      | None ->
        if List.mem_assoc name !current then Some !current_id
        else if extra = Some name then Some !current_id
        else None
    in
    Ir.Trace.reconfigurations ~config_of t.trace
  in
  let finished = ref false in
  while not !finished do
    let base_reconfigs = reconfigs_with None in
    let best = ref None in
    List.iter
      (fun (l : Problem.hot_loop) ->
        if not (selected l.name) then begin
          let extra_cost =
            (reconfigs_with (Some l.name) - base_reconfigs) * t.reconfig_cost
          in
          Array.iteri
            (fun j (v : Problem.version) ->
              if j > 0 && v.area <= t.max_area - current_area () then begin
                let expected = v.gain - extra_cost in
                if expected > 0 then
                  match !best with
                  | Some (bg, _, _) when bg >= expected -> ()
                  | Some _ | None -> best := Some (expected, l.name, j)
              end)
            l.versions
        end)
      t.loops;
    match !best with
    | Some (_, name, j) -> current := (name, j) :: !current
    | None ->
      if !current <> [] then begin
        committed :=
          !committed @ List.map (fun (n, j) -> (n, j, !current_id)) !current;
        current := [];
        incr current_id
      end
      else finished := true
  done;
  let version_of =
    List.map
      (fun (l : Problem.hot_loop) ->
        match List.find_opt (fun (n, _, _) -> n = l.name) !committed with
        | Some (_, j, _) -> (l.name, j)
        | None -> (l.name, 0))
      t.loops
  in
  let config_of = List.map (fun (n, _, c) -> (n, c)) !committed in
  { Problem.version_of; config_of }

(* Set-partition enumeration (restricted-growth strings). *)
let exhaustive ?(max_partitions = 500_000) (t : Problem.t) =
  let names = Array.of_list (List.map (fun (l : Problem.hot_loop) -> l.name) t.loops) in
  let n = Array.length names in
  (* Bell number check against the cap. *)
  let bell n =
    let b = Array.make (n + 1) 0. in
    b.(0) <- 1.;
    for i = 1 to n do
      (* B(i) = Σ C(i-1,k) B(k) *)
      let sum = ref 0. in
      let c = ref 1. in
      for k = 0 to i - 1 do
        sum := !sum +. (!c *. b.(k));
        c := !c *. float_of_int (i - 1 - k) /. float_of_int (k + 1)
      done;
      b.(i) <- !sum
    done;
    b.(n)
  in
  if bell n > float_of_int max_partitions then None
  else begin
    let best = ref (Problem.software_placement t) in
    let best_gain = ref (Problem.net_gain t !best) in
    let assignment = Array.make n 0 in
    (* The same loop group recurs in many set partitions; memoise its
       per-configuration version selection. *)
    let memo = Hashtbl.create 4096 in
    let select_versions group =
      let key = String.concat "|" group in
      match Hashtbl.find_opt memo key with
      | Some sel -> sel
      | None ->
        let loops = List.map (Problem.find_loop t) group in
        let sel = spatial_select ~loops ~area:t.max_area in
        Hashtbl.add memo key sel;
        sel
    in
    let local_spatial_memo groups =
      let version_of = ref [] and config_of = ref [] in
      List.iteri
        (fun cid group ->
          List.iter
            (fun (name, j) ->
              version_of := (name, j) :: !version_of;
              if j > 0 then config_of := (name, cid) :: !config_of)
            (select_versions group))
        groups;
      { Problem.version_of = !version_of; config_of = !config_of }
    in
    let rec enumerate i max_used =
      if i = n then begin
        let k = max_used + 1 in
        let groups = groups_of_assignment names assignment k in
        let placement = local_spatial_memo groups in
        if Problem.feasible t placement then begin
          let g = Problem.net_gain t placement in
          if g > !best_gain then begin
            best := placement;
            best_gain := g
          end
        end
      end
      else
        for c = 0 to min (max_used + 1) (n - 1) do
          assignment.(i) <- c;
          enumerate (i + 1) (max max_used c)
        done
    in
    if n > 0 then enumerate 0 (-1);
    Some !best
  end
