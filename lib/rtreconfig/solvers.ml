(* One version per task minimising total utilization under a shared
   area budget, i.e. maximising Σ(gain − reload)/period, where [reload]
   cycles are charged only to hardware-mapped tasks.  Returned in
   reverse task order. *)
let min_utilization_versions ~tasks ~area ~reload =
  let options (tk : Model.task) =
    Array.mapi
      (fun j (v : Model.version) ->
        ( v.area,
          if j = 0 then 0.
          else float_of_int (v.gain - reload tk) /. float_of_int tk.period ))
      tk.versions
  in
  let table = Util.Group_knapsack.solve ~budgets:[ area ] (List.map options tasks) in
  List.rev_map2
    (fun (tk : Model.task) j -> (tk.name, j))
    tasks
    (Util.Group_knapsack.pick table ~budget:area)

let placement_of_versions versions ~group_of =
  { Model.version_of = versions;
    config_of =
      List.filter_map
        (fun (name, j) -> if j > 0 then Some (name, group_of name) else None)
        versions }

let static (t : Model.t) =
  let versions =
    min_utilization_versions ~tasks:t.tasks ~area:t.max_area ~reload:(fun _ -> 0)
  in
  placement_of_versions versions ~group_of:(fun _ -> 0)

let optimal ?(max_nodes = 2_000_000) (t : Model.t) =
  let tasks =
    Array.of_list
      (List.sort (fun (a : Model.task) b -> compare a.period b.period) t.tasks)
  in
  let n = Array.length tasks in
  let best_u = ref infinity and best = ref (static t) in
  (let u0 = Model.utilization t !best in
   best_u := u0);
  let version_idx = Array.make n 0 in
  let group_idx = Array.make n (-1) in
  let group_area = Array.make (max 1 n) 0 in
  let nodes = ref 0 in
  (* optimistic bound: assigned tasks at chosen gains without reloads,
     remaining tasks at their best gains without reloads *)
  let suffix_best = Array.make (n + 1) 0. in
  for i = n - 1 downto 0 do
    let tk = tasks.(i) in
    let best_gain =
      Array.fold_left (fun acc (v : Model.version) -> max acc v.gain) 0 tk.versions
    in
    suffix_best.(i) <-
      suffix_best.(i + 1)
      +. (float_of_int (tk.wcet - best_gain) /. float_of_int tk.period)
  done;
  let rec search i partial_u max_group =
    incr nodes;
    if !nodes < max_nodes then begin
      if i = n then begin
        let placement =
          placement_of_versions
            (Array.to_list (Array.mapi (fun k j -> (tasks.(k).Model.name, j)) version_idx))
            ~group_of:(fun name ->
              let rec find k = if tasks.(k).Model.name = name then group_idx.(k) else find (k + 1) in
              find 0)
        in
        let u = Model.utilization t placement in
        if u < !best_u then begin
          best_u := u;
          best := placement
        end
      end
      else if partial_u +. suffix_best.(i) < !best_u then begin
        let tk = tasks.(i) in
        (* software option *)
        version_idx.(i) <- 0;
        group_idx.(i) <- -1;
        search (i + 1) (partial_u +. (float_of_int tk.wcet /. float_of_int tk.period)) max_group;
        (* hardware options: version j in group g (canonical numbering) *)
        Array.iteri
          (fun j (v : Model.version) ->
            if j > 0 then
              for g = 0 to min (max_group + 1) (n - 1) do
                if group_area.(g) + v.area <= t.max_area then begin
                  version_idx.(i) <- j;
                  group_idx.(i) <- g;
                  group_area.(g) <- group_area.(g) + v.area;
                  let contribution =
                    float_of_int (tk.wcet - v.gain) /. float_of_int tk.period
                  in
                  search (i + 1) (partial_u +. contribution) (max max_group g);
                  group_area.(g) <- group_area.(g) - v.area
                end
              done)
          tk.versions;
        version_idx.(i) <- 0;
        group_idx.(i) <- -1
      end
    end
  in
  search 0 0. (-1);
  !best

(* The near-optimal pseudo-polynomial algorithm, reconstructed as an
   enumeration over contiguous-by-period groupings (tasks with similar
   rates interleave most, so they belong together): for every split of
   the period-sorted task list into at most [max_groups] runs, versions
   are selected per run by the utilization knapsack under the
   per-configuration capacity, with reload estimates refined in a second
   pass; the best exactly-evaluated placement (including the static
   seed) wins. *)
let max_groups = 4

let contiguous_partitions n k_max =
  (* lists of run lengths summing to n, at most k_max runs *)
  let rec build remaining k =
    if remaining = 0 then [ [] ]
    else if k = 0 then []
    else
      List.concat_map
        (fun len ->
          List.map (fun rest -> len :: rest) (build (remaining - len) (k - 1)))
        (List.init remaining (fun i -> i + 1))
  in
  build n k_max

let dp (t : Model.t) =
  let best = ref (static t) in
  let best_u = ref (Model.utilization t !best) in
  let consider p =
    if Model.feasible t p then begin
      let u = Model.utilization t p in
      if u < !best_u then begin
        best := p;
        best_u := u
      end
    end
  in
  let tasks =
    Array.of_list
      (List.sort (fun (a : Model.task) b -> compare a.period b.period) t.tasks)
  in
  let n = Array.length tasks in
  if n > 0 then
    List.iter
      (fun lengths ->
        (* runs as index ranges *)
        let runs =
          List.rev
            (snd
               (List.fold_left
                  (fun (start, acc) len -> (start + len, (start, len) :: acc))
                  (0, []) lengths))
        in
        let group_of_index i =
          let rec find g = function
            | (start, len) :: rest ->
              if i >= start && i < start + len then g else find (g + 1) rest
            | [] -> assert false
          in
          find 0 runs
        in
        (* Two selection passes: reload estimates first assume every task
           outside the run is hardware-mapped, then use the actual
           hardware set of the first pass. *)
        let select hw_outside =
          List.concat_map
            (fun (start, len) ->
              let members =
                List.init len (fun j -> tasks.(start + j))
              in
              let reload (tk : Model.task) =
                if List.length runs = 1 then 0
                else begin
                  let i =
                    let rec find k = if tasks.(k).Model.name = tk.name then k else find (k + 1) in
                    find 0
                  in
                  let own = group_of_index i in
                  let preempts = ref 0 in
                  Array.iteri
                    (fun j (other : Model.task) ->
                      if
                        group_of_index j <> own
                        && hw_outside other.name
                        && other.period < tk.period
                      then
                        preempts :=
                          !preempts + (2 * Util.Numeric.ceil_div tk.period other.period))
                    tasks;
                  t.reconfig_cost * (1 + !preempts)
                end
              in
              min_utilization_versions ~tasks:members ~area:t.max_area ~reload)
            runs
        in
        let pass1 = select (fun _ -> true) in
        let hw1 name = match List.assoc_opt name pass1 with Some j -> j > 0 | None -> false in
        let pass2 = select hw1 in
        let group_of_name name =
          let rec find k = if tasks.(k).Model.name = name then k else find (k + 1) in
          group_of_index (find 0)
        in
        consider (placement_of_versions pass1 ~group_of:group_of_name);
        consider (placement_of_versions pass2 ~group_of:group_of_name))
      (contiguous_partitions n (min n max_groups));
  !best
