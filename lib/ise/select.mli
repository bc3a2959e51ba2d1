(** Custom-instruction selection (thesis §2.3.2).

    Given a library of candidates with profiled execution frequencies,
    pick a subset maximising total cycle gain under a silicon-area budget
    with the non-overlap constraint (a base operation is covered by at
    most one custom instruction).  Two selectors are provided:

    - {!greedy} — gain/area-ratio heuristic,
    - {!branch_and_bound} — exact, with fractional-knapsack bounding. *)

type candidate = {
  ci : Isa.Custom_inst.t;
  block : int;  (** index of the owning basic block *)
  freq : float;  (** executions of the block per task run *)
}

val total_gain : candidate -> float
(** Cycles saved per task run: per-execution gain × frequency. *)

val generate_candidates :
  ?guard:Engine.Guard.t ->
  ?constraints:Isa.Hw_model.constraints ->
  ?budget:Enumerate.budget ->
  ?generator:Isegen.choice ->
  ?isegen:Isegen.params ->
  ?allowed:Util.Bitset.t ->
  Ir.Dfg.t ->
  Isa.Custom_inst.t list
(** Candidate identification behind a generator switch (default
    [Exhaustive], the legacy behaviour).  [Auto] runs the exhaustive
    enumerator and re-generates with ISEGEN only when a budget cap
    saturated (counted by the [isegen.auto_switches] telemetry
    counter). *)

val candidates_of_block :
  ?constraints:Isa.Hw_model.constraints ->
  ?budget:Enumerate.budget ->
  ?generator:Isegen.choice ->
  ?isegen:Isegen.params ->
  ?hw:Isa.Hw_model.backend ->
  block:int -> freq:float -> Ir.Dfg.t -> candidate list
(** {!generate_candidates} wrapped with block/frequency metadata.  With
    a non-[uniform] [hw] backend, candidates are re-costed via
    {!Isa.Custom_inst.evaluate_with} and those whose gain drops to ≤ 0
    under the new model are filtered out. *)

val conflict : candidate -> candidate -> bool
(** Same block and overlapping node sets. *)

val selection_valid : budget:int -> candidate list -> bool
(** Pairwise conflict-free and within the area budget. *)

val area_of : candidate list -> int
val gain_of : candidate list -> float

val greedy : budget:int -> candidate list -> candidate list

val branch_and_bound :
  ?max_explored:int -> budget:int -> candidate list -> candidate list
(** Exact for small candidate sets; falls back to the best solution found
    when the exploration cap is hit. *)
