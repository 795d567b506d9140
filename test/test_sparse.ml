open Helpers

let build ?(seed = 51) ?(bits = 10) ?(nodes = 200) geometry =
  Overlay.Sparse.build ~rng:(rng_of_seed seed) ~bits ~nodes geometry

let test_ids_sorted_distinct () =
  let t = build Rcm.Geometry.Ring in
  let ids = Array.init (Overlay.Sparse.node_count t) (Overlay.Sparse.id_of t) in
  for i = 1 to Array.length ids - 1 do
    if ids.(i) <= ids.(i - 1) then Alcotest.fail "ids not strictly increasing"
  done;
  Alcotest.(check int) "count" 200 (Array.length ids)

let test_dense_sampling_regime () =
  (* nodes close to 2^bits exercises the shuffle path. *)
  let t = build ~bits:8 ~nodes:250 Rcm.Geometry.Ring in
  Alcotest.(check int) "count" 250 (Overlay.Sparse.node_count t);
  check_close (250.0 /. 256.0) (Overlay.Sparse.occupancy t)

let test_fully_populated_extreme () =
  let t = build ~bits:6 ~nodes:64 Rcm.Geometry.Ring in
  for v = 0 to 63 do
    Alcotest.(check int) "identity ids" v (Overlay.Sparse.id_of t v)
  done

let test_lower_bound_and_successor () =
  let t = build Rcm.Geometry.Ring in
  let n = Overlay.Sparse.node_count t in
  (* successor of id 0 is index 0 if ids.(0) >= 0 (always). *)
  Alcotest.(check int) "successor of 0" 0 (Overlay.Sparse.successor_index t 0);
  (* Above the largest id, the successor wraps to index 0. *)
  let largest = Overlay.Sparse.id_of t (n - 1) in
  Alcotest.(check int) "wraps" 0 (Overlay.Sparse.successor_index t (largest + 1));
  (* lower_bound of each id is its own index. *)
  for v = 0 to n - 1 do
    Alcotest.(check int) "lower_bound of own id" v
      (Overlay.Sparse.lower_bound t (Overlay.Sparse.id_of t v))
  done

let test_index_of_id () =
  let t = build Rcm.Geometry.Ring in
  Alcotest.(check (option int)) "existing" (Some 5)
    (Overlay.Sparse.index_of_id t (Overlay.Sparse.id_of t 5));
  (* Some id is unoccupied at 200/1024 occupancy; find one. *)
  let unoccupied = ref (-1) in
  for id = 0 to 1023 do
    if !unoccupied < 0 && Overlay.Sparse.index_of_id t id = None then unoccupied := id
  done;
  Alcotest.(check bool) "an unoccupied id exists" true (!unoccupied >= 0)

let test_prefix_range () =
  let t = build Rcm.Geometry.Xor in
  let bits = Overlay.Sparse.bits t in
  (* Every node must appear in the range of its own prefix, for every
     length. *)
  for v = 0 to Overlay.Sparse.node_count t - 1 do
    let id = Overlay.Sparse.id_of t v in
    for prefix_len = 0 to bits do
      let lo, hi = Overlay.Sparse.prefix_range t ~pattern:id ~prefix_len in
      if not (lo <= v && v < hi) then
        Alcotest.failf "node %d outside its own prefix range [%d,%d) at len %d" v lo hi
          prefix_len
    done
  done

let test_ring_fingers_are_successors () =
  let t = build Rcm.Geometry.Ring in
  let bits = Overlay.Sparse.bits t in
  let size = 1 lsl bits in
  for v = 0 to Overlay.Sparse.node_count t - 1 do
    let id_v = Overlay.Sparse.id_of t v in
    Array.iteri
      (fun i finger ->
        let target = (id_v + (1 lsl i)) land (size - 1) in
        (* The finger is the first occupied id clockwise from target:
           no occupied id lies strictly between target and the finger. *)
        let finger_id = Overlay.Sparse.id_of t finger in
        let gap = Idspace.Id.ring_distance ~bits target finger_id in
        for w = 0 to Overlay.Sparse.node_count t - 1 do
          let d = Idspace.Id.ring_distance ~bits target (Overlay.Sparse.id_of t w) in
          if d < gap then Alcotest.failf "finger %d of node %d not the closest successor" i v
        done)
      (Overlay.Sparse.contacts t v)
  done

let test_prefix_contacts_valid () =
  List.iter
    (fun g ->
      let t = build g in
      let bits = Overlay.Sparse.bits t in
      for v = 0 to Overlay.Sparse.node_count t - 1 do
        let id_v = Overlay.Sparse.id_of t v in
        Array.iteri
          (fun i contact ->
            if contact <> Overlay.Sparse.missing then begin
              let level = i + 1 in
              let id_c = Overlay.Sparse.id_of t contact in
              Alcotest.(check int) "prefix length" (level - 1)
                (Idspace.Id.common_prefix_length ~bits id_v id_c)
            end)
          (Overlay.Sparse.contacts t v)
      done)
    [ Rcm.Geometry.Tree; Rcm.Geometry.Xor ]

let test_symphony_contacts () =
  let t = build (Rcm.Geometry.Symphony { k_n = 2; k_s = 2 }) in
  let n = Overlay.Sparse.node_count t in
  for v = 0 to n - 1 do
    let contacts = Overlay.Sparse.contacts t v in
    Alcotest.(check int) "degree" 4 (Array.length contacts);
    Alcotest.(check int) "first near neighbour" ((v + 1) mod n) contacts.(0);
    Alcotest.(check int) "second near neighbour" ((v + 2) mod n) contacts.(1)
  done

let test_hypercube_rejected () =
  Alcotest.(check bool) "no sparse CAN" true
    (try
       ignore (build Rcm.Geometry.Hypercube);
       false
     with Invalid_argument _ -> true)

let test_routing_no_failures () =
  let all_alive = Overlay.Failure.none 200 in
  List.iter
    (fun g ->
      let t = build g in
      let drops = ref 0 in
      for src = 0 to 199 do
        let dst = (src + 77) mod 200 in
        if dst <> src then
          if
            not
              (Routing.Outcome.is_delivered
                 (Routing.Sparse_router.route t ~alive:all_alive ~src ~dst))
          then incr drops
      done;
      Alcotest.(check int) (Rcm.Geometry.name g ^ ": no drops at q=0") 0 !drops)
    [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring;
      Rcm.Geometry.default_symphony ]

let test_routing_hop_bounds () =
  (* Sparse Chord delivers within ~2 log2 n hops at q = 0. *)
  let t = build ~nodes:400 Rcm.Geometry.Ring in
  let all_alive = Overlay.Failure.none 400 in
  for src = 0 to 399 do
    let dst = (src + 123) mod 400 in
    match Routing.Sparse_router.route t ~alive:all_alive ~src ~dst with
    | Routing.Outcome.Delivered { hops } ->
        if hops > 2 * 10 then Alcotest.failf "route took %d hops" hops
    | Routing.Outcome.Dropped _ -> Alcotest.fail "dropped at q=0"
  done

let sparse_delivered_paths_alive =
  qcheck "sparse delivered paths only traverse alive nodes"
    QCheck2.Gen.(int_range 0 500)
    (fun seed ->
      let rng = rng_of_seed seed in
      List.for_all
        (fun g ->
          let t = build ~seed g in
          let alive = Overlay.Failure.sample ~rng ~q:0.25 200 in
          let pool = Overlay.Failure.survivors alive in
          Array.length pool < 2
          ||
          let src, dst = Stats.Sampler.ordered_pair rng pool in
          (* The loadmap sink observes the path: one traversal per
             node hopped to, one termination where the walk ends. *)
          let lm = Obs.Loadmap.create ~nodes:200 in
          let outcome =
            Obs.Loadmap.with_sink lm (fun () -> Routing.Sparse_router.route t ~alive ~src ~dst)
          in
          let trav = Obs.Loadmap.counts lm Obs.Loadmap.Route_traversal in
          let path_alive = ref true in
          Array.iteri
            (fun v c -> if c > 0 && not (Overlay.Failure.get alive v) then path_alive := false)
            trav;
          match outcome with
          | Routing.Outcome.Delivered { hops } ->
              !path_alive
              && Array.for_all (fun c -> c <= 1) trav
              && hops = Obs.Loadmap.total lm Obs.Loadmap.Route_traversal
              && Obs.Loadmap.get lm Obs.Loadmap.Route_termination dst = 1
          | Routing.Outcome.Dropped { stuck_at; _ } -> Overlay.Failure.get alive stuck_at)
        [ Rcm.Geometry.Tree; Rcm.Geometry.Xor; Rcm.Geometry.Ring;
          Rcm.Geometry.default_symphony ])

let test_full_occupancy_matches_dense_ring () =
  (* At 100% occupancy the sparse Chord construction degenerates to the
     deterministic dense table: finger i of v is exactly v + 2^i. *)
  let bits = 7 in
  let sparse = build ~bits ~nodes:(1 lsl bits) Rcm.Geometry.Ring in
  let dense = Overlay.Table.build ~bits Rcm.Geometry.Ring in
  for v = 0 to (1 lsl bits) - 1 do
    Alcotest.(check (array int)) "fingers coincide" (Overlay.Table.neighbors dense v)
      (Overlay.Sparse.contacts sparse v)
  done;
  (* And routing agrees outcome-for-outcome under the same failures. *)
  let rng = rng_of_seed 8 in
  let alive = Overlay.Failure.sample ~rng ~q:0.3 (1 lsl bits) in
  let pool = Overlay.Failure.survivors alive in
  for _ = 1 to 300 do
    let src, dst = Stats.Sampler.ordered_pair rng pool in
    let dense_outcome = Routing.Router.route dense ~rng ~alive ~src ~dst in
    let sparse_outcome = Routing.Sparse_router.route sparse ~alive ~src ~dst in
    if not (Routing.Outcome.equal dense_outcome sparse_outcome) then
      Alcotest.failf "outcomes diverge for %d -> %d: %a vs %a" src dst Routing.Outcome.pp
        dense_outcome Routing.Outcome.pp sparse_outcome
  done

let test_e6_experiment_shape () =
  let cfg =
    { Experiments.Sparse_occupancy.default_config with
      nodes = 256; bits_list = [ 8; 11 ]; qs = [ 0.0; 0.3 ]; trials = 1; pairs = 400 }
  in
  let s = Experiments.Sparse_occupancy.run cfg Rcm.Geometry.Ring in
  (* q = 0 delivers everything regardless of occupancy. *)
  List.iter
    (fun label ->
      check_close ~msg:label 1.0 (Option.get (Experiments.Series.value_at s ~label ~x:0.0)))
    [ "sim(d=8)"; "sim(d=11)" ];
  (* The spread between occupancies stays modest. *)
  let spread =
    Experiments.Sparse_occupancy.max_spread s ~labels:[ "sim(d=8)"; "sim(d=11)" ]
  in
  Alcotest.(check bool) (Printf.sprintf "spread %.3f < 0.12" spread) true (spread < 0.12)

let suite =
  [
    ("ids sorted and distinct", `Quick, test_ids_sorted_distinct);
    ("dense sampling regime", `Quick, test_dense_sampling_regime);
    ("fully populated extreme", `Quick, test_fully_populated_extreme);
    ("lower_bound / successor", `Quick, test_lower_bound_and_successor);
    ("index_of_id", `Quick, test_index_of_id);
    ("prefix ranges contain their nodes", `Quick, test_prefix_range);
    ("ring fingers are closest successors", `Quick, test_ring_fingers_are_successors);
    ("prefix contacts valid", `Quick, test_prefix_contacts_valid);
    ("symphony contacts", `Quick, test_symphony_contacts);
    ("hypercube rejected", `Quick, test_hypercube_rejected);
    ("routing delivers at q=0", `Quick, test_routing_no_failures);
    ("sparse chord hop bound", `Quick, test_routing_hop_bounds);
    sparse_delivered_paths_alive;
    ("full occupancy = dense ring", `Quick, test_full_occupancy_matches_dense_ring);
    ("E6 experiment shape", `Slow, test_e6_experiment_shape);
  ]
