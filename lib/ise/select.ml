type candidate = { ci : Isa.Custom_inst.t; block : int; freq : float }

let total_gain c = float_of_int (Isa.Custom_inst.gain c.ci) *. c.freq

let generate_candidates ?guard ?constraints ?budget
    ?(generator = Isegen.Exhaustive) ?(isegen = Isegen.default_params)
    ?allowed dfg =
  match generator with
  | Isegen.Exhaustive ->
    Enumerate.connected ?guard ?constraints ?budget ?allowed dfg
  | Isegen.Isegen ->
    Isegen.generate ?guard ?constraints ~params:isegen ?allowed dfg
  | Isegen.Auto ->
    let exhaustive, saturation =
      Enumerate.connected_full ?guard ?constraints ?budget ?allowed dfg
    in
    (match saturation with
     | None -> exhaustive
     | Some _ ->
       Obs.Metrics.inc "isegen.auto_switches";
       Isegen.generate ?guard ?constraints ~params:isegen ?allowed dfg)

let candidates_of_block ?constraints ?budget ?generator ?isegen
    ?(hw = Isa.Hw_model.uniform) ~block ~freq dfg =
  let raw = generate_candidates ?constraints ?budget ?generator ?isegen dfg in
  let costed =
    if hw == Isa.Hw_model.uniform then raw
    else
      List.filter
        (fun ci -> Isa.Custom_inst.gain ci > 0)
        (List.map (Isa.Custom_inst.evaluate_with hw dfg) raw)
  in
  List.map (fun ci -> { ci; block; freq }) costed

let conflict a b = a.block = b.block && Isa.Custom_inst.overlaps a.ci b.ci

let area_of sel = List.fold_left (fun acc c -> acc + c.ci.Isa.Custom_inst.area) 0 sel
let gain_of sel = List.fold_left (fun acc c -> acc +. total_gain c) 0. sel

let selection_valid ~budget sel =
  area_of sel <= budget
  &&
  let rec pairwise = function
    | [] -> true
    | c :: rest -> (not (List.exists (conflict c) rest)) && pairwise rest
  in
  pairwise sel

let by_ratio_desc a b =
  let ratio c =
    if c.ci.Isa.Custom_inst.area = 0 then infinity
    else total_gain c /. float_of_int c.ci.Isa.Custom_inst.area
  in
  compare (ratio b) (ratio a)

let greedy ~budget candidates =
  Engine.Trace.with_span "select.greedy"
    ~attrs:[ ("candidates", string_of_int (List.length candidates)) ]
  @@ fun () ->
  Obs.Metrics.inc "select.greedy_calls";
  let sorted = List.sort by_ratio_desc candidates in
  let rec take area chosen = function
    | [] -> List.rev chosen
    | c :: rest ->
      if
        area + c.ci.Isa.Custom_inst.area <= budget
        && not (List.exists (conflict c) chosen)
      then take (area + c.ci.Isa.Custom_inst.area) (c :: chosen) rest
      else take area chosen rest
  in
  take 0 [] sorted

let branch_and_bound ?(max_explored = 200_000) ~budget candidates =
  let cands = Array.of_list (List.sort by_ratio_desc candidates) in
  let n = Array.length cands in
  Engine.Trace.with_span "select.bnb" ~attrs:[ ("candidates", string_of_int n) ]
  @@ fun () ->
  let best_gain = ref 0. and best_sel = ref [] in
  let explored = ref 0 in
  (* Optimistic bound: fractional knapsack over remaining candidates,
     ignoring conflicts. *)
  let bound i area gain =
    let remaining = ref (budget - area) and b = ref gain in
    (try
       for j = i to n - 1 do
         let c = cands.(j) in
         let a = c.ci.Isa.Custom_inst.area in
         if a <= !remaining then begin
           remaining := !remaining - a;
           b := !b +. total_gain c
         end
         else begin
           if a > 0 then
             b := !b +. (total_gain c *. float_of_int !remaining /. float_of_int a);
           raise Exit
         end
       done
     with Exit -> ());
    !b
  in
  let rec search i area gain chosen =
    if !explored < max_explored then begin
      incr explored;
      if gain > !best_gain then begin
        best_gain := gain;
        best_sel := chosen
      end;
      if i < n && bound i area gain > !best_gain then begin
        let c = cands.(i) in
        let a = c.ci.Isa.Custom_inst.area in
        if area + a <= budget && not (List.exists (conflict c) chosen) then
          search (i + 1) (area + a) (gain +. total_gain c) (c :: chosen);
        search (i + 1) area gain chosen
      end
    end
  in
  search 0 0 0. [];
  Obs.Metrics.inc ~by:(float_of_int !explored) "select.bnb_nodes";
  (* distinct name: the unified registry keys kind by family name, so
     the per-solve distribution cannot share "select.bnb_nodes" with
     the cumulative counter above *)
  Obs.Metrics.observe "select.bnb_nodes_per_solve"
    (float_of_int !explored);
  List.rev !best_sel
