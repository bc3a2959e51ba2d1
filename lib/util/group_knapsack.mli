(** Group (multiple-choice) knapsack over an integer area budget: pick
    exactly one option per group, maximising Σ value under
    Σ area ≤ budget.  This is the pseudo-polynomial DP of the paper's
    Algorithm 1, shared by every one-option-per-group selection.

    The DP runs at granularity Δ = gcd(budgets ∪ positive areas) and
    fills one row of cells per group up to the largest budget; among
    options reaching the same value it keeps the lowest index.  A cell's
    value and choice depend only on the capacity it stands for, so one
    table answers every budget it was solved for exactly as a table
    solved for that budget alone would. *)

type t
(** A solved DP table. *)

val solve : budgets:int list -> (int * float) array list -> t
(** [solve ~budgets groups] — each group is its options as
    [(area, value)], and option 0 must have area 0 (so every budget has
    a solution).  Raises [Invalid_argument] on a negative budget, an
    empty group, a negative area or a non-zero option-0 area. *)

val pick : t -> budget:int -> int list
(** The chosen option index per group, in group order, for a budget in
    [\[0, max budgets\]]; raises [Invalid_argument] outside it. *)

val cells : t -> int
(** Cells the DP filled: groups × (max budget / Δ + 1). *)
