(** In-memory memo table with optional spill to {!Cache}.

    A memo maps string keys (structural hashes in the batch service) to
    string payloads in one hash table behind one mutex, so domains of
    the pool may find and store concurrently.

    When [spill] is on, a store also writes the entry through {!Cache}
    (namespace-isolated, best-effort: a failing cache write degrades to
    memory-only exactly as {!Cache.store} documents), and a miss in the
    table probes the cache before giving up; a spill hit is promoted
    back into the table.  Lookups count ["memo.hits"] /
    ["memo.misses"] / ["memo.spill_hits"] / ["memo.stores"] in
    [Obs.Metrics]. *)

type t

val create : ?spill:bool -> namespace:string -> unit -> t
(** [spill] defaults to [true].  [namespace] isolates the spilled
    entries in the cache directory. *)

val find : t -> key:string -> string option

val store : t -> key:string -> string -> unit

val size : t -> int
(** Entries currently resident in memory (spilled-only entries not
    counted). *)

val clear : t -> unit
(** Drop the in-memory table (spilled entries survive in the cache). *)

val revalidate : t -> bool
(** Cross-process coherence probe: compare {!Cache.generation} against
    the generation the resident entries were loaded under; if a sibling
    process bumped it (a [cache clear] on the shared directory), drop
    the in-memory table, count ["memo.invalidated"], record a Warn
    flight event and return [true].  Cheap when nothing changed (one
    small file read) — the daemon's watchdog calls this every tick.
    Always [false] for a no-spill memo (nothing shared to go stale). *)
