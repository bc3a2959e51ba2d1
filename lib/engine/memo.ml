type t = {
  lock : Mutex.t;
  table : (string, string) Hashtbl.t;
  namespace : string;
  spill : bool;
  (* cache generation the resident entries were loaded under; a bump by
     a sibling process (cache clear) invalidates them — see
     [revalidate] *)
  cache_gen : int Atomic.t;
}

let () =
  Obs.Metrics.declare ~help:"Memo hits (in-memory or spilled) by namespace"
    Obs.Metrics.Counter "memo.hits";
  Obs.Metrics.declare ~help:"Memo hits served from the spill cache"
    Obs.Metrics.Counter "memo.spill_hits";
  Obs.Metrics.declare ~help:"Memo misses by namespace"
    Obs.Metrics.Counter "memo.misses";
  Obs.Metrics.declare ~help:"Memo stores by namespace"
    Obs.Metrics.Counter "memo.stores";
  Obs.Metrics.declare
    ~help:"Memo tables dropped after a cache generation bump"
    Obs.Metrics.Counter "memo.invalidated"

let create ?(spill = true) ~namespace () =
  { lock = Mutex.create ();
    table = Hashtbl.create 64;
    namespace;
    spill;
    cache_gen = Atomic.make (if spill then Cache.generation () else 0) }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t ~key =
  let ns = [ ("namespace", t.namespace) ] in
  match with_lock t (fun () -> Hashtbl.find_opt t.table key) with
  | Some v ->
    Obs.Metrics.inc ~labels:ns "memo.hits";
    Some v
  | None ->
    let spilled =
      if t.spill then (Cache.find ~namespace:t.namespace ~key () : string option)
      else None
    in
    (match spilled with
     | Some v ->
       Obs.Metrics.inc ~labels:ns "memo.hits";
       Obs.Metrics.inc ~labels:ns "memo.spill_hits";
       with_lock t (fun () -> Hashtbl.replace t.table key v);
       Some v
     | None ->
       Obs.Metrics.inc ~labels:ns "memo.misses";
       None)

let store t ~key value =
  with_lock t (fun () -> Hashtbl.replace t.table key value);
  Obs.Metrics.inc ~labels:[ ("namespace", t.namespace) ] "memo.stores";
  if t.spill then Cache.store ~namespace:t.namespace ~key value

let size t = with_lock t (fun () -> Hashtbl.length t.table)

let clear t = with_lock t (fun () -> Hashtbl.reset t.table)

(* Cross-process coherence: resident entries were loaded (or computed)
   under some cache generation; if a sibling process bumped it (a
   `cache clear` invalidating the shared directory), drop them so the
   next requests recompute instead of serving from a table the
   operator meant to empty.  Values are deterministic per key, so this
   only matters when an invalidation *signals intent* — which is
   exactly what the generation stamp encodes. *)
let revalidate t =
  if not t.spill then false
  else begin
    let g = Cache.generation () in
    let seen = Atomic.get t.cache_gen in
    if g = seen || not (Atomic.compare_and_set t.cache_gen seen g) then false
    else begin
      clear t;
      Obs.Metrics.inc ~labels:[ ("namespace", t.namespace) ] "memo.invalidated";
      Obs.Flight.record ~severity:Obs.Flight.Warn "memo.invalidated"
        [ ("namespace", t.namespace);
          ("generation", string_of_int g) ];
      Log.warn
        "memo: cache generation moved to %d — dropped resident %s table"
        g t.namespace;
      true
    end
  end
