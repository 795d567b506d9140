(* Golden pins for the churn engines and the k-bucket tables they
   maintain. Each value below is an MD5 of a canonical text rendering
   (floats in %h, so every bit counts), recorded once from the
   nested-array k-bucket store and the polymorphic event queue; any
   change to a draw, to the event order, to a bucket's contents or to
   the post-build PRNG state changes a digest. The values must never be
   edited to make a test pass: a mismatch means the churn engines no
   longer reproduce the reference stream. *)

let float_opt = function None -> "none" | Some x -> Printf.sprintf "%h" x

let session_digest cfg =
  let r = Sim.Session_churn.run cfg in
  let b = Buffer.create 1024 in
  List.iter
    (fun (m : Sim.Session_churn.measurement) ->
      Printf.bprintf b "%h %h %h %h %h %s %h\n" m.time m.alive_fraction m.stale_fraction
        m.stale_near m.stale_shortcut (float_opt m.routability) m.static_prediction)
    r.Sim.Session_churn.measurements;
  Printf.bprintf b "%h %h %h %h %d %d\n" r.mean_alive r.mean_stale r.mean_routability
    r.mean_prediction r.no_pair_measurements r.events_processed;
  Digest.to_hex (Digest.string (Buffer.contents b))

let session ?(session = Sim.Lifetime.exponential ~mean:8.0)
    ?(gap = Sim.Lifetime.exponential ~mean:2.0) ?(k = 4) ?(cache_k = 4) geometry =
  Sim.Session_churn.config ~bits:8 ~session ~gap ~k ~cache_k ~seed:31 geometry

let families =
  [
    ("tree", session Rcm.Geometry.Tree);
    ("hypercube", session Rcm.Geometry.Hypercube);
    ("xor", session Rcm.Geometry.Xor);
    ("ring", session Rcm.Geometry.Ring);
    ("symphony", session Rcm.Geometry.default_symphony);
    ("record:h=4", session (Geom_record.geometry ~h:4 ()));
  ]

(* Xor again across the maintenance knobs and the heavy-tailed
   lifetimes: these drive the ping-before-evict / cache-promotion paths
   through different mixes. *)
let xor_variants =
  [
    ( "pareto",
      session
        ~session:(Sim.Lifetime.pareto ~alpha:1.5 ~mean:8.0)
        ~gap:(Sim.Lifetime.pareto ~alpha:1.5 ~mean:2.0)
        Rcm.Geometry.Xor );
    ( "weibull",
      session
        ~session:(Sim.Lifetime.weibull ~shape:0.6 ~mean:8.0)
        ~gap:(Sim.Lifetime.weibull ~shape:0.6 ~mean:2.0)
        Rcm.Geometry.Xor );
    ("cache_k=0", session ~cache_k:0 Rcm.Geometry.Xor);
    ("k=1", session ~k:1 Rcm.Geometry.Xor);
    ("k=1 cache_k=0", session ~k:1 ~cache_k:0 Rcm.Geometry.Xor);
    ("k=8", session ~k:8 Rcm.Geometry.Xor);
    ("k=8 cache_k=0", session ~k:8 ~cache_k:0 Rcm.Geometry.Xor);
  ]

let kbucket_digest ~bits ~k =
  let rng = Prng.Splitmix.create ~seed:0x601d in
  let t = Overlay.Kbucket.build ~rng ~cache_k:2 ~bits ~k () in
  let b = Buffer.create 65536 in
  for v = 0 to Overlay.Kbucket.node_count t - 1 do
    for level = 1 to bits do
      Array.iter (Printf.bprintf b "%d,") (Overlay.Kbucket.bucket t v level);
      Buffer.add_char b '|';
      Array.iter (Printf.bprintf b "%d,") (Overlay.Kbucket.cache t v level);
      Buffer.add_char b ';'
    done;
    Buffer.add_char b '\n'
  done;
  Printf.bprintf b "state=%Ld\n" (Prng.Splitmix.state rng);
  Digest.to_hex (Digest.string (Buffer.contents b))

let storage_churn_digest () =
  let cfg =
    {
      Storage.Churn_sim.bits = 9;
      nodes = 300;
      keys = 32;
      reads = 200;
      zipf_s = 0.8;
      quorum = Storage.Quorum.majority ~r:3;
      session = Sim.Lifetime.exponential ~mean:8.0;
      gap = Sim.Lifetime.exponential ~mean:2.0;
      warmup = 6.0;
      measurements = 4;
      spacing = 2.0;
    }
  in
  let r = Storage.Churn_sim.run Rcm.Geometry.Xor cfg ~seed:23 in
  let b = Buffer.create 1024 in
  List.iter
    (fun (m : Storage.Churn_sim.measurement) ->
      Printf.bprintf b "%h %h %s %h\n" m.time m.alive_fraction (float_opt m.availability)
        m.survival)
    r.Storage.Churn_sim.measurements;
  Printf.bprintf b "%d %d %d %d %d %s %h %h %d %d %d %d %h %d %d\n" r.attempted
    r.quorum_reads r.degraded_reads r.failed_reads r.no_client (float_opt r.availability)
    r.survival r.mean_alive r.probe_routes r.repair_routes r.repair_transfers r.load_max
    r.load_mean r.load_p99 r.events;
  Digest.to_hex (Digest.string (Buffer.contents b))

let churn_digest () =
  let cfg =
    Sim.Churn.config ~bits:8 ~mean_uptime:8.0 ~mean_downtime:2.0 ~repair_interval:1.0
      ~warmup:15.0 ~measurements:3 ~measurement_spacing:2.0 ~pairs_per_measurement:400
      ~seed:13 Rcm.Geometry.Xor
  in
  let r = Sim.Churn.run cfg in
  let b = Buffer.create 1024 in
  List.iter
    (fun (m : Sim.Churn.measurement) ->
      Printf.bprintf b "%h %h %h %h %h %s %h\n" m.time m.alive_fraction m.stale_fraction
        m.stale_near m.stale_shortcut (float_opt m.routability) m.static_prediction)
    r.Sim.Churn.measurements;
  Printf.bprintf b "%h %h %h %h %d\n" r.mean_alive r.mean_stale r.mean_routability
    r.mean_prediction r.no_pair_measurements;
  Digest.to_hex (Digest.string (Buffer.contents b))

let expected_session =
  [
    ("tree", "debd768f6b84268b144312c4271789d2");
    ("hypercube", "19eebbf5e2d4ec5ecc2c17e2dc756599");
    ("xor", "ae593f03b2b3f279f1ea12db90623709");
    ("ring", "4363109690a868e70a1f69c64bef50aa");
    ("symphony", "397ca9ac018b520538a5599f7cdac961");
    ("record:h=4", "fdb4807e5dd14c72cf68157584426e79");
  ]

let expected_variants =
  [
    ("pareto", "fdca2b2724c00c3b8b5719cc12c76ee6");
    ("weibull", "1c7f104912b738d11697a125a2d5cfa5");
    ("cache_k=0", "c7c41880f06ae820b0d13404a9630c51");
    ("k=1", "72555d524f9476f5155094ed675ecd0d");
    ("k=1 cache_k=0", "e1e4ec5265325cc31f5eb56d253f91c1");
    ("k=8", "ba57ccb8f94cb982eb0564663b6d24c7");
    ("k=8 cache_k=0", "d0647de7b3b46b22c5a094b8a6428b7b");
  ]

let expected_kbucket =
  [
    ("bits=10 k=4", "3ad064b0517217db805c0c213f1ff8a8");
    ("bits=12 k=8", "b9f5443992459501ebb7aa1fdebb6bc5");
  ]

let expected_storage_churn = "2c80f252e21f39e6adc305826ab8850c"
let expected_churn = "f4734cd203e776fc81d1209336ce1c84"

(* Every mismatch is reported, not just the first, so one run shows
   the whole extent of a divergence. *)
let check_all what cases =
  let bad =
    List.filter_map
      (fun (label, expected, actual) ->
        if String.equal expected actual then None
        else Some (Printf.sprintf "%s: expected %S, got %S" label expected actual))
      cases
  in
  if bad <> [] then Alcotest.failf "%s digests differ:\n%s" what (String.concat "\n" bad)

(* A missing pin reads as "", so it shows up as a mismatch too. *)
let pin label expected = Option.value ~default:"" (List.assoc_opt label expected)

let check_runs what expected runs =
  check_all what
    (List.map
       (fun (name, cfg) -> (name, pin name expected, session_digest cfg))
       runs)

let test_session () = check_runs "session churn" expected_session families

let test_variants () = check_runs "xor session churn" expected_variants xor_variants

let test_kbucket () =
  check_all "kbucket build"
    (List.map
       (fun (bits, k) ->
         let label = Printf.sprintf "bits=%d k=%d" bits k in
         (label, pin label expected_kbucket, kbucket_digest ~bits ~k))
       [ (10, 4); (12, 8) ])

let test_other_engines () =
  check_all "churn engines"
    [
      ("Storage.Churn_sim", expected_storage_churn, storage_churn_digest ());
      ("Sim.Churn", expected_churn, churn_digest ());
    ]

let suite =
  [
    ("session churn reports, six families", `Quick, test_session);
    ("xor session churn across lifetimes and k/cache_k", `Quick, test_variants);
    ("kbucket build contents + rng state", `Quick, test_kbucket);
    ("storage churn and repair churn results", `Quick, test_other_engines);
  ]
