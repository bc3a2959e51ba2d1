(* choice.(i).(c) = option picked for group i at capacity c·Δ *)
type t = {
  delta : int;
  max_budget : int;
  areas : int array array;
  choice : int array array;
}

let solve ~budgets groups =
  List.iter
    (fun b -> if b < 0 then invalid_arg "Group_knapsack.solve: negative budget")
    budgets;
  let groups = Array.of_list groups in
  Array.iter
    (fun options ->
      if Array.length options = 0 || fst options.(0) <> 0 then
        invalid_arg "Group_knapsack.solve: option 0 must have area 0";
      Array.iter
        (fun (a, _) -> if a < 0 then invalid_arg "Group_knapsack.solve: negative area")
        options)
    groups;
  let positive =
    Array.fold_left
      (fun acc options ->
        Array.fold_left (fun acc (a, _) -> if a > 0 then a :: acc else acc) acc options)
      [] groups
  in
  let delta = max 1 (Numeric.gcd_list (budgets @ positive)) in
  let max_budget = List.fold_left max 0 budgets in
  let width = (max_budget / delta) + 1 in
  (* best.(c) = best value of the groups processed so far within c·Δ *)
  let best = Array.make width 0. in
  let choice =
    Array.map
      (fun options ->
        let row = Array.make width 0 in
        (* downwards, so the cells a row reads still hold the previous
           group's values *)
        for cell = width - 1 downto 0 do
          let top = ref neg_infinity and arg = ref 0 in
          for j = 0 to Array.length options - 1 do
            let area, value = options.(j) in
            if area <= cell * delta then begin
              let total = value +. best.(cell - (area / delta)) in
              if total > !top then begin
                top := total;
                arg := j
              end
            end
          done;
          best.(cell) <- !top;
          row.(cell) <- !arg
        done;
        row)
      groups
  in
  { delta; max_budget; areas = Array.map (Array.map fst) groups; choice }

let pick t ~budget =
  if budget < 0 || budget > t.max_budget then
    invalid_arg "Group_knapsack.pick: budget outside the solved range";
  let cell = ref (budget / t.delta) and picked = ref [] in
  for i = Array.length t.choice - 1 downto 0 do
    let j = t.choice.(i).(!cell) in
    picked := j :: !picked;
    cell := !cell - (t.areas.(i).(j) / t.delta)
  done;
  !picked

let cells t = Array.length t.choice * ((t.max_budget / t.delta) + 1)
