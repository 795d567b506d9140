(* In-process traced run of one dhtlab grid: the public entry point of
   every layer, composed exactly as the subcommand composes it, with a
   span recorded around each call.

     tracer.exe sweep   geometry=G bits=D q=Q trials=T pairs=P seed=S jobs=J
     tracer.exe churn   geometry=G bits=D seed=S
     tracer.exe storage geometry=G bits=D rs=1,2,4 qs=0.2,0.4 trials=T reads=R seed=S

   [sweep] replays one [dhtlab simulate --json] point (Sim.Estimate),
   [churn] one [dhtlab churn --json] session grid (Churn_curves) and
   [storage] one static [dhtlab storage --json] grid (Storage_sweep
   over Storage.Failure_sim). Spans are kept in memory and printed,
   together with the run's exact counts, as one JSON object on stdout
   when the run ends; perfbench/run.py checks the counts against the
   untraced CLI at the same seed and turns the spans into per-layer
   metrics. Leaf spans name a layer; [run] (the whole grid) and
   [pool/task] (one trial or grid point) are envelopes. *)

let origin = Unix.gettimeofday ()
let spans = ref []
let lock = Mutex.create ()

let span name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  let domain = (Domain.self () :> int) in
  Mutex.protect lock (fun () -> spans := (name, domain, t0 -. origin, t1 -. origin) :: !spans);
  v

let spans_json () =
  List.rev !spans
  |> List.map (fun (name, d, t0, t1) -> Printf.sprintf "[%S, %d, %.9f, %.9f]" name d t0 t1)
  |> String.concat ", "

let ints xs = String.concat ", " (List.map string_of_int xs)

(* The 48-bit index-derived point seeds of Churn_curves and
   Storage_sweep (not exported by either). *)
let point_seeds seed n =
  let master = Prng.Splitmix.create ~seed in
  Array.init n (fun _ -> Int64.to_int (Prng.Splitmix.next_int64 master) land 0xFFFF_FFFF_FFFF)

let run_tasks ~jobs n task =
  if jobs <= 1 then Array.init n task
  else Exec.Pool.with_pool ~domains:jobs (fun pool -> Exec.Pool.map pool n task)

(* --- simulate: Sim.Estimate.run_trial on the flat backend ------------------ *)

type trial = { delivered : int; attempted : int; hops : float list; entries : int; bytes : int }

let sweep ~geometry ~bits ~q ~trials ~pairs ~seed ~jobs =
  let results, summary =
    span "run" @@ fun () ->
    let seeds =
      span "prng/seed" (fun () ->
          let master = Prng.Splitmix.create ~seed in
          Array.init trials (fun _ -> Prng.Splitmix.next_int64 master))
    in
    (* The CLI builds through a table cache, which keeps every trial's
       table alive until the sweep ends; so does the tracer. *)
    let cache = Overlay.Table_cache.create () in
    let trial k =
      span "pool/task" @@ fun () ->
      let table, rng =
        span "overlay/build" (fun () ->
            let table, resume =
              Overlay.Table_cache.get cache ~backend:Overlay.Table.Flat ~bits
                ~build_seed:seeds.(k) geometry
            in
            (table, Prng.Splitmix.of_int64 resume))
      in
      let alive, pool =
        span "failure/sample" (fun () ->
            let alive = Overlay.Failure.sample ~rng ~q (Overlay.Table.node_count table) in
            (alive, Overlay.Failure.survivors alive))
      in
      let delivered, attempted, hops =
        if Array.length pool < 2 then (0, 0, [])
        else
          let scratch =
            span "routing/route" (fun () ->
                Routing.Route_batch.sample_and_route table ~rng ~alive ~pool ~pairs)
          in
          span "reduce/hops" (fun () ->
              ( Routing.Route_batch.delivered_count scratch,
                pairs,
                Routing.Route_batch.delivered_hops_rev_order scratch ))
      in
      {
        delivered;
        attempted;
        hops;
        entries = Overlay.Table.edge_count table;
        bytes = Overlay.Table.memory_bytes table;
      }
    in
    let results = run_tasks ~jobs trials trial in
    let summary =
      span "reduce/hops" (fun () ->
          let s = Stats.Summary.create () in
          Array.iter (fun r -> List.iter (Stats.Summary.add s) r.hops) results;
          s)
    in
    (results, summary)
  in
  let total f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let hops_total =
    Array.fold_left
      (fun acc r -> List.fold_left (fun acc h -> acc + int_of_float h) acc r.hops)
      0 results
  in
  Printf.printf
    "{\"delivered\": %d, \"attempted\": %d, \"hops\": %d, \"hops_mean\": \"%.9g\", \
     \"entries\": %d, \"table_bytes\": [%s], \"spans\": [%s]}\n"
    (total (fun r -> r.delivered))
    (total (fun r -> r.attempted))
    hops_total
    (Stats.Summary.mean summary)
    (total (fun r -> r.entries))
    (ints (Array.to_list (Array.map (fun r -> r.bytes) results)))
    (spans_json ())

(* --- churn: Churn_curves.run_point over the default session grid ---------- *)

let churn ~geometry ~bits ~seed =
  let cfg = Experiments.Churn_curves.default_config in
  let means = Array.of_list cfg.session_means in
  let events =
    span "run" @@ fun () ->
    let seeds = span "prng/seed" (fun () -> point_seeds seed (Array.length means)) in
    Array.init (Array.length means) (fun i ->
        span "pool/task" @@ fun () ->
        let scfg =
          Sim.Session_churn.config ~bits
            ~session:(Sim.Lifetime.exponential ~mean:means.(i))
            ~gap:(Sim.Lifetime.exponential ~mean:cfg.gap_mean)
            ~maintenance_interval:cfg.maintenance_interval ~k:cfg.k ~cache_k:cfg.cache_k
            ~warmup:cfg.warmup ~measurements:cfg.measurements
            ~measurement_spacing:cfg.measurement_spacing ~pairs_per_measurement:cfg.pairs
            ~seed:seeds.(i) geometry
        in
        let report = span "session_churn/run" (fun () -> Sim.Session_churn.run scfg) in
        report.Sim.Session_churn.events_processed)
  in
  Printf.printf "{\"events\": [%s], \"spans\": [%s]}\n" (ints (Array.to_list events))
    (spans_json ())

(* --- storage: Storage_sweep's static grid over Failure_sim.run ------------ *)

type point = {
  mutable reads : int;
  mutable quorum_reads : int;
  mutable probe_routes : int;
  mutable repair_routes : int;
  mutable repair_transfers : int;
}

let storage ~geometry ~bits ~rs ~qs ~trials ~reads ~seed =
  let base = Experiments.Storage_sweep.default_config in
  let cfg =
    {
      base with
      bits;
      nodes = max 2 (1 lsl (bits - 1));
      reads;
      rs;
      mode = Experiments.Storage_sweep.Static { qs; trials };
      seed;
    }
  in
  let rs = Array.of_list rs and qs = Array.of_list qs in
  let per_r = Array.length qs in
  let n = Array.length rs * per_r in
  let run_point seed r q =
    let quorum = Experiments.Storage_sweep.quorum_for cfg ~r in
    let rng = Prng.Splitmix.create ~seed in
    let p = { reads = 0; quorum_reads = 0; probe_routes = 0; repair_routes = 0; repair_transfers = 0 } in
    for _ = 1 to trials do
      let overlay =
        span "sparse/build" (fun () ->
            Overlay.Sparse.build ~rng ~bits:cfg.bits ~nodes:cfg.nodes geometry)
      in
      let store =
        span "store/create" (fun () ->
            Storage.Store.create ~zipf_s:cfg.zipf_s ~keys:cfg.keys ~quorum ~rng overlay)
      in
      let alive, survivors =
        span "failure/sample" (fun () ->
            let alive = Overlay.Failure.sample ~rng ~q cfg.nodes in
            ignore
              (Storage.Store.surviving_keys store ~alive ~quorum:quorum.Storage.Quorum.rq);
            (alive, Overlay.Failure.survivors alive))
      in
      let alive_n = Array.length survivors in
      if alive_n > 0 then
        span "store/read" (fun () ->
            for _ = 1 to cfg.reads do
              let client = survivors.(Prng.Splitmix.int rng alive_n) in
              let s = Storage.Store.read store ~rng ~alive ~client in
              p.reads <- p.reads + 1;
              if s.Storage.Store.outcome = Storage.Quorum.Quorum then
                p.quorum_reads <- p.quorum_reads + 1;
              p.probe_routes <- p.probe_routes + s.Storage.Store.probe_routes;
              p.repair_routes <- p.repair_routes + s.Storage.Store.repair_routes;
              p.repair_transfers <- p.repair_transfers + s.Storage.Store.repair_transfers
            done)
    done;
    p
  in
  let points =
    span "run" @@ fun () ->
    let seeds = span "prng/seed" (fun () -> point_seeds seed n) in
    Array.init n (fun i ->
        span "pool/task" (fun () -> run_point seeds.(i) rs.(i / per_r) qs.(i mod per_r)))
  in
  let field f = ints (Array.to_list (Array.map f points)) in
  Printf.printf
    "{\"attempted\": [%s], \"quorum_reads\": [%s], \"probe_routes\": [%s], \
     \"repair_routes\": [%s], \"repair_transfers\": [%s], \"spans\": [%s]}\n"
    (field (fun p -> p.reads))
    (field (fun p -> p.quorum_reads))
    (field (fun p -> p.probe_routes))
    (field (fun p -> p.repair_routes))
    (field (fun p -> p.repair_transfers))
    (spans_json ())

(* --- command line ---------------------------------------------------------- *)

let () =
  let usage () =
    prerr_endline "usage: tracer.exe (sweep|churn|storage) key=value ...";
    exit 2
  in
  if Array.length Sys.argv < 2 then usage ();
  let args =
    Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    |> List.map (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
           | None -> usage ())
  in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = int_of_string (get k) in
  let list conv k = List.map conv (String.split_on_char ',' (get k)) in
  let geometry =
    match Rcm.Geometry.of_string (get "geometry") with Ok g -> g | Error e -> failwith e
  in
  match Sys.argv.(1) with
  | "sweep" ->
      sweep ~geometry ~bits:(int "bits") ~q:(float_of_string (get "q")) ~trials:(int "trials")
        ~pairs:(int "pairs") ~seed:(int "seed") ~jobs:(int "jobs")
  | "churn" -> churn ~geometry ~bits:(int "bits") ~seed:(int "seed")
  | "storage" ->
      storage ~geometry ~bits:(int "bits") ~rs:(list int_of_string "rs")
        ~qs:(list float_of_string "qs") ~trials:(int "trials") ~reads:(int "reads")
        ~seed:(int "seed")
  | _ -> usage ()
