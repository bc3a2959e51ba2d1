(** The three algorithms compared in thesis Chapter 7 (Figure 7.4,
    Table 7.2).

    - {!static} — no runtime reconfiguration: one configuration holds
      everything, versions chosen by a utilization-minimising knapsack
      over [max_area].
    - {!optimal} — exact branch-and-bound over every (version,
      configuration) assignment with canonical configuration numbering.
      This substitutes the chapter's CPLEX ILP (same feasible set:
      uniqueness, resource, scheduling constraints); exponential, small
      task counts only.
    - {!dp} — the chapter's near-optimal pseudo-polynomial algorithm,
      reconstructed as alternating optimisation: a contiguous-by-period
      grouping DP (pairwise split penalties, per-configuration capacity)
      alternated with per-configuration version re-selection, seeded
      from the static solution; the best evaluated placement wins. *)

val static : Model.t -> Model.placement

val optimal : ?max_nodes:int -> Model.t -> Model.placement
(** Minimum-utilization placement; falls back to the best found if the
    node cap (default 2_000_000) is hit. *)

val dp : Model.t -> Model.placement

