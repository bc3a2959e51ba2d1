(* Epoch reads without epoch barriers: capture the registry twice and
   subtract.  Because Metrics.dump deep-copies under the registry
   mutex, each snapshot is internally consistent, and the delta of two
   snapshots attributes every sample to exactly one epoch — the
   guarantee reset-based epoching could not give under concurrency. *)

type t = Metrics.family list

let take () = Metrics.dump ()
let families t = t

let sub_value a b =
  match (a, b) with
  | Metrics.C x, Metrics.C y -> Metrics.C (x -. y)
  (* Gauges are levels, not flows: the delta keeps the later level. *)
  | Metrics.G x, _ -> Metrics.G x
  | Metrics.H x, Metrics.H y ->
    Metrics.H
      { hbuckets =
          Array.init Metrics.n_buckets (fun i ->
              x.Metrics.hbuckets.(i) - y.Metrics.hbuckets.(i));
        hcount = x.Metrics.hcount - y.Metrics.hcount;
        hsum = x.Metrics.hsum -. y.Metrics.hsum;
        (* min/max cannot be un-merged; the later window's extremes
           are exact when the earlier window was empty (the common
           take-before-work case) and conservative otherwise. *)
        hmin = x.Metrics.hmin;
        hmax = x.Metrics.hmax }
  | v, _ -> v

let delta ~before ~after =
  List.map
    (fun (f : Metrics.family) ->
      match
        List.find_opt
          (fun (b : Metrics.family) -> b.Metrics.fam_name = f.Metrics.fam_name)
          before
      with
      | None -> f
      | Some bf ->
        let cells =
          List.map
            (fun (ls, v) ->
              match List.assoc_opt ls bf.Metrics.fam_cells with
              | None -> (ls, v)
              | Some bv -> (ls, sub_value v bv))
            f.Metrics.fam_cells
        in
        { f with Metrics.fam_cells = cells })
    after

let find t name =
  List.find_opt (fun (f : Metrics.family) -> f.Metrics.fam_name = name) t

let cells_total (f : Metrics.family) =
  List.fold_left
    (fun acc (_, v) ->
      match v with
      | Metrics.C x | Metrics.G x -> acc +. x
      | Metrics.H _ -> acc)
    0. f.Metrics.fam_cells

let counter ?labels t name =
  match find t name with
  | None -> 0.
  | Some f ->
    (match labels with
    | Some ls ->
      (match List.assoc_opt (Metrics.canon_labels ls) f.Metrics.fam_cells with
      | Some (Metrics.C v) | Some (Metrics.G v) -> v
      | Some (Metrics.H _) | None -> 0.)
    | None -> cells_total f)

let gauge ?labels t name = counter ?labels t name

let hist_data ?labels t name =
  match find t name with
  | None -> None
  | Some f when f.Metrics.fam_kind <> Metrics.Hist -> None
  | Some f ->
    (match labels with
    | Some ls ->
      (match List.assoc_opt (Metrics.canon_labels ls) f.Metrics.fam_cells with
      | Some (Metrics.H h) -> Some h
      | _ -> None)
    | None ->
      Some
        (List.fold_left
           (fun acc (_, v) ->
             match v with
             | Metrics.H h -> Metrics.merge_hist acc h
             | _ -> acc)
           (Metrics.empty_hist ()) f.Metrics.fam_cells))

let hist_stats ?labels t name =
  match hist_data ?labels t name with
  | Some h when h.Metrics.hcount > 0 -> Some (Metrics.stats_of_hist h)
  | Some _ | None -> None

(* Tables over a snapshot (usually a delta): counter families with
   cells, split into plain counts and seconds timers, and non-empty
   histogram families.  The JSON emitters and the text tables read the
   same lists, so --metrics-out and --stats always agree. *)

let counters_and_timers t =
  let cs, ts =
    List.partition
      (fun (f : Metrics.family) -> not f.Metrics.fam_unit_s)
      (List.filter
         (fun (f : Metrics.family) ->
           f.Metrics.fam_kind = Metrics.Counter && f.Metrics.fam_cells <> [])
         t)
  in
  let totals = List.map (fun f -> (f.Metrics.fam_name, cells_total f)) in
  (totals cs, totals ts)

let histograms t =
  List.filter_map
    (fun (f : Metrics.family) ->
      if f.Metrics.fam_kind <> Metrics.Hist then None
      else
        Option.map
          (fun s -> (f.Metrics.fam_name, s))
          (hist_stats t f.Metrics.fam_name))
    t

let telemetry_json t =
  let cs, ts = counters_and_timers t in
  Jsonx.obj
    [ ( "counters",
        Jsonx.obj
          (List.map (fun (k, v) -> (k, string_of_int (int_of_float v))) cs) );
      ("timers", Jsonx.obj (List.map (fun (k, v) -> (k, Jsonx.float v)) ts)) ]

let histograms_json t =
  Jsonx.obj
    (List.map
       (fun (name, (s : Metrics.hstats)) ->
         ( name,
           Jsonx.obj
             [ ("count", string_of_int s.Metrics.count);
               ("sum", Jsonx.float s.Metrics.sum);
               ("min", Jsonx.float s.Metrics.min);
               ("max", Jsonx.float s.Metrics.max);
               ("p50", Jsonx.float s.Metrics.p50);
               ("p90", Jsonx.float s.Metrics.p90);
               ("p99", Jsonx.float s.Metrics.p99) ] ))
       (histograms t))

let pp_telemetry fmt t =
  match counters_and_timers t with
  | [], [] -> Format.fprintf fmt "no telemetry recorded@."
  | cs, ts ->
    List.iter
      (fun (k, v) -> Format.fprintf fmt "%-32s %14d@." k (int_of_float v))
      cs;
    List.iter (fun (k, v) -> Format.fprintf fmt "%-32s %12.3f s@." k v) ts

let pp_histograms fmt t =
  match histograms t with
  | [] -> Format.fprintf fmt "no histograms recorded@."
  | hs ->
    Format.fprintf fmt "%-32s %8s %10s %10s %10s %10s@." "histogram" "count"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (name, (s : Metrics.hstats)) ->
        Format.fprintf fmt "%-32s %8d %10.4g %10.4g %10.4g %10.4g@." name
          s.Metrics.count s.Metrics.p50 s.Metrics.p90 s.Metrics.p99
          s.Metrics.max)
      hs
