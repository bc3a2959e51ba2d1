exception Injected of string

(* All state sits behind one mutex: workers of [Parallel] draw from the
   same stream, so fires are serialised.  [enabled] is additionally
   mirrored in a plain ref read without the lock — the common case
   (injection off) must cost one load on hot paths like [Guard.tick]. *)

type point_spec = {
  prob : float;  (** chance a visit to the point fires, in [0, 1] *)
  cap : int option;  (** stop firing after this many fires ([None] = forever) *)
}

type spec = { seed : int; points : (string * point_spec) list }

let none = { seed = 0; points = [] }

type point_state = { spec_ : point_spec; mutable fired : int }

let () =
  Obs.Metrics.declare ~help:"Injected faults fired, by injection point"
    Obs.Metrics.Counter "fault.injected"

let lock = Mutex.create ()
let enabled = ref false
let table : (string, point_state) Hashtbl.t = Hashtbl.create 8
let rng = ref 0L

let protect f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* splitmix64, inlined so the engine keeps zero library dependencies *)
let next_float () =
  rng := Int64.add !rng 0x9E3779B97F4A7C15L;
  let z = !rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_float (Int64.shift_right_logical z 11) *. (1. /. 9007199254740992.)

let configure spec =
  protect (fun () ->
      Hashtbl.reset table;
      rng := Int64.of_int spec.seed;
      List.iter
        (fun (point, ps) ->
          Hashtbl.replace table point { spec_ = ps; fired = 0 })
        spec.points;
      enabled := spec.points <> [])

let disable () = configure none

let active () = !enabled

let fired point =
  protect (fun () ->
      match Hashtbl.find_opt table point with
      | Some st -> st.fired
      | None -> 0)

let fires point =
  !enabled
  && protect (fun () ->
         match Hashtbl.find_opt table point with
         | None -> false
         | Some st ->
           let capped =
             match st.spec_.cap with Some c -> st.fired >= c | None -> false
           in
           if capped || next_float () >= st.spec_.prob then false
           else begin
             st.fired <- st.fired + 1;
             true
           end)
  && begin
       (* One labeled family replaces the old per-point dynamic
          counter names; the aggregate [Obs.Metrics.sum
          "fault.injected"] read is the sum across points. *)
       Obs.Metrics.inc ~labels:[ ("point", point) ] "fault.injected";
       Obs.Flight.record ~severity:Obs.Flight.Warn "fault.injected"
         [ ("point", point) ];
       Log.debug "fault: injecting failure at %s" point;
       true
     end

let inject point = if fires point then raise (Injected point)

(* Spec grammar (see DESIGN.md "Resilience"):
     spec   ::= clause ("," clause)*
     clause ::= "seed=" INT | POINT "=" RATE
     RATE   ::= FLOAT [ "x" INT ]          -- probability, optional fire cap
   e.g. "seed=7,cache.write=0.1,parallel.worker=1x2". *)
let parse s =
  let ( let* ) = Result.bind in
  let clause acc part =
    let* acc = acc in
    match String.index_opt part '=' with
    | None -> Error (Printf.sprintf "fault spec: clause %S is not key=value" part)
    | Some i ->
      let key = String.trim (String.sub part 0 i) in
      let value =
        String.trim (String.sub part (i + 1) (String.length part - i - 1))
      in
      if key = "seed" then
        match int_of_string_opt value with
        | Some seed -> Ok { acc with seed }
        | None -> Error (Printf.sprintf "fault spec: bad seed %S" value)
      else begin
        let rate, cap =
          match String.index_opt value 'x' with
          | None -> (value, Ok None)
          | Some j ->
            let n = String.sub value (j + 1) (String.length value - j - 1) in
            ( String.sub value 0 j,
              match int_of_string_opt n with
              | Some c when c >= 0 -> Ok (Some c)
              | Some _ | None ->
                Error (Printf.sprintf "fault spec: bad fire cap %S" n) )
        in
        let* cap = cap in
        match float_of_string_opt rate with
        | Some p when p >= 0. && p <= 1. ->
          Ok { acc with points = acc.points @ [ (key, { prob = p; cap }) ] }
        | Some _ | None ->
          Error
            (Printf.sprintf "fault spec: rate %S is not a probability in [0,1]"
               rate)
      end
  in
  String.split_on_char ',' s
  |> List.filter (fun p -> String.trim p <> "")
  |> List.fold_left clause (Ok none)

(* The environment hook lets CI enable a standard spec for an entire
   test run (`make faults`) without threading a flag through dune. *)
let () =
  match Sys.getenv_opt "ISECUSTOM_FAULT_SPEC" with
  | None | Some "" -> ()
  | Some s ->
    (match parse s with
     | Ok spec -> configure spec
     | Error msg ->
       Log.warn "ISECUSTOM_FAULT_SPEC ignored: %s" msg)
