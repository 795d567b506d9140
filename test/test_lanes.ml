(* Build lanes versus entry functions. The classic backend evaluates
   each geometry's OCaml entry function; the flat backend fills the
   same table through a C build lane (Overlay.Flat.of_lane). For every
   case both must give the same rows, edge count and uniform degree,
   and leave the build PRNG in the same state — or fail with the same
   exception. The failure-mask lane is diffed against the scalar
   bernoulli loop it replaces. *)

let seed = 2024

let rows_string row = String.concat "," (Array.to_list (Array.map string_of_int row))

let outcome build backend =
  let rng = Prng.Splitmix.create ~seed in
  match build backend rng with
  | table -> Ok (table, Prng.Splitmix.state rng)
  | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)

(* Returns true when the case built (false when both backends raised
   the same error), so callers can assert which of the two they expect. *)
let check_case ~what build =
  match (outcome build Overlay.Table.Classic, outcome build Overlay.Table.Flat) with
  | Error c, Error f ->
      Alcotest.(check string) (what ^ ": same error") c f;
      false
  | Ok _, Error f -> Alcotest.failf "%s: only the lane raised (%s)" what f
  | Error c, Ok _ -> Alcotest.failf "%s: only the entry function raised (%s)" what c
  | Ok (classic, state_c), Ok (flat, state_f) ->
      Alcotest.(check bool) (what ^ ": flat backend") true
        (Overlay.Table.backend flat = Overlay.Table.Flat);
      let n = Overlay.Table.node_count classic in
      Alcotest.(check int) (what ^ ": node_count") n (Overlay.Table.node_count flat);
      for v = 0 to n - 1 do
        let row_c = Overlay.Table.neighbors classic v in
        let row_f = Overlay.Table.neighbors flat v in
        if row_c <> row_f then
          Alcotest.failf "%s: node %d rows differ (entry %s, lane %s)" what v
            (rows_string row_c) (rows_string row_f)
      done;
      Alcotest.(check int) (what ^ ": edge_count") (Overlay.Table.edge_count classic)
        (Overlay.Table.edge_count flat);
      let uniform t = Option.map Overlay.Flat.uniform_degree (Overlay.Table.csr t) in
      Alcotest.(check (option int)) (what ^ ": uniform_degree")
        (uniform (Overlay.Table.flatten classic))
        (uniform flat);
      Alcotest.(check int64) (what ^ ": post-build rng state") state_c state_f;
      true

let bits_grid = [ 1; 2; 3; 5; 8; 12 ]

let build_geometry ~bits geometry backend rng = Overlay.Table.build ~rng ~backend ~bits geometry

(* Every registered family at its default parameters. *)
let test_registered_families () =
  List.iter
    (fun descriptor ->
      let geometry = descriptor.Geom.default in
      let built =
        List.filter
          (fun bits ->
            check_case
              ~what:(Printf.sprintf "%s bits=%d" (Rcm.Geometry.slug geometry) bits)
              (build_geometry ~bits geometry))
          bits_grid
      in
      if built = [] then Alcotest.failf "%s: no valid bits" (Rcm.Geometry.slug geometry))
    (Geom.all ())

(* ReCord at h = 2..16: the digit width group = log2 h divides bits, or
   the builder raises the same Invalid_argument on both backends. *)
let test_record_widths () =
  List.iter
    (fun (h, group) ->
      List.iter
        (fun bits ->
          let what = Printf.sprintf "record:h=%d bits=%d" h bits in
          let built = check_case ~what (build_geometry ~bits (Geom_record.geometry ~h ())) in
          Alcotest.(check bool) (what ^ ": builds iff the width divides bits")
            (bits mod group = 0) built)
        [ 1; 2; 3; 4; 5; 8; 12 ])
    [ (2, 1); (4, 2); (8, 3); (16, 4) ]

let test_symphony_shapes () =
  List.iter
    (fun (k_n, k_s) ->
      List.iter
        (fun bits ->
          let what = Printf.sprintf "symphony k_n=%d k_s=%d bits=%d" k_n k_s bits in
          let built =
            check_case ~what (build_geometry ~bits (Rcm.Geometry.Symphony { k_n; k_s }))
          in
          Alcotest.(check bool) (what ^ ": builds iff degree < ring size")
            (k_n + k_s < 1 lsl bits) built)
        bits_grid)
    [ (0, 1); (0, 2); (1, 1); (1, 2); (3, 1); (3, 2) ]

let test_variant_builders () =
  List.iter
    (fun bits ->
      List.iter
        (fun successors ->
          let what = Printf.sprintf "ring_with_successors s=%d bits=%d" successors bits in
          let built =
            check_case ~what (fun backend _rng ->
                Overlay.Table.build_ring_with_successors ~backend ~bits ~successors ())
          in
          Alcotest.(check bool) (what ^ ": builds iff the list fits")
            (successors < 1 lsl bits) built)
        [ 0; 1; 3; 7 ];
      ignore
        (check_case
           ~what:(Printf.sprintf "deterministic_xor bits=%d" bits)
           (fun backend _rng -> Overlay.Table.build_deterministic_xor ~backend ~bits ())))
    bits_grid

let test_of_lane_validation () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let open Overlay.Flat in
  raises "digit width does not divide bits" (fun () ->
      of_lane ~bits:3 ~degree:3 (Digits { group = 2; draw = false }));
  raises "degree differs from the lane" (fun () ->
      of_lane ~bits:4 ~degree:5 (Digits { group = 1; draw = false }));
  raises "offsets degree" (fun () -> of_lane ~bits:4 ~degree:2 (Offsets [| 1 |]));
  raises "near beyond degree" (fun () ->
      of_lane ~rng:(Prng.Splitmix.create ~seed) ~bits:4 ~degree:2 (Harmonic { near = 3 }));
  raises "drawing lane without rng" (fun () ->
      of_lane ~bits:4 ~degree:4 (Digits { group = 1; draw = true }));
  raises "bits out of range" (fun () -> of_lane ~bits:0 ~degree:0 (Offsets [||]));
  (* A deterministic lane needs no rng and leaves a given one alone. *)
  let rng = Prng.Splitmix.create ~seed in
  let before = Prng.Splitmix.state rng in
  let block = of_lane ~rng ~bits:4 ~degree:2 (Offsets [| 1; 15 |]) in
  Alcotest.(check int64) "no draws" before (Prng.Splitmix.state rng);
  Alcotest.(check (array int)) "offset row" [| 1; 15 |] (row block 0);
  Alcotest.(check (array int)) "offset row wraps" [| 0; 14 |] (row block 15);
  Alcotest.(check int) "uniform" 2 (uniform_degree block)

(* --- failure-mask lane ----------------------------------------------------- *)

let test_failure_lane () =
  List.iter
    (fun n ->
      List.iter
        (fun q ->
          let what = Printf.sprintf "n=%d q=%g" n q in
          let rng_lane = Prng.Splitmix.create ~seed:(n + 7) in
          let rng_ref = Prng.Splitmix.create ~seed:(n + 7) in
          let mask = Overlay.Failure.sample ~rng:rng_lane ~q n in
          let expected = Array.init n (fun _ -> not (Prng.Splitmix.bernoulli rng_ref ~p:q)) in
          Alcotest.(check (array bool)) (what ^ ": mask") expected
            (Overlay.Failure.to_bool_array mask);
          Alcotest.(check int) (what ^ ": alive_count")
            (Array.fold_left (fun acc alive -> if alive then acc + 1 else acc) 0 expected)
            (Overlay.Failure.alive_count mask);
          Alcotest.(check int64) (what ^ ": post-sample rng state")
            (Prng.Splitmix.state rng_ref) (Prng.Splitmix.state rng_lane);
          let words = Overlay.Bitset.words mask in
          Alcotest.(check int) (what ^ ": word count") ((n + 31) / 32)
            (Bigarray.Array1.dim words);
          for w = 0 to Bigarray.Array1.dim words - 1 do
            let used = min 32 (n - (32 * w)) in
            if words.{w} lsr used <> 0 then
              Alcotest.failf "%s: word %d has bits set past the end" what w
          done)
        [ 0.0; 0.2; 1.0 ])
    [ 0; 1; 31; 32; 33; 1000 ]

let test_failure_validation () =
  Alcotest.check_raises "invalid q" (Invalid_argument "Failure.sample: invalid q")
    (fun () -> ignore (Overlay.Failure.sample ~q:1.5 4));
  Alcotest.check_raises "nan q" (Invalid_argument "Failure.sample: invalid q") (fun () ->
      ignore (Overlay.Failure.sample ~q:Float.nan 4));
  Alcotest.check_raises "negative size" (Invalid_argument "Failure.sample: negative size")
    (fun () -> ignore (Overlay.Failure.sample ~q:0.2 (-1)))

(* --- sparse lanes ------------------------------------------------------------

   Overlay.Sparse.build (C lanes) against the OCaml construction it
   replaced (Sparse_reference): same sorted ids, same contacts, same
   post-build PRNG state — or the same Invalid_argument. *)

let sparse_outcome build =
  let rng = Prng.Splitmix.create ~seed in
  match build rng with
  | built -> Ok (built, Prng.Splitmix.state rng)
  | exception Invalid_argument msg -> Error msg

(* Counts of the cases that built, that had an empty bucket, and that
   raised — the matrix asserts it exercised all three. *)
type sparse_tally = { mutable built : int; mutable with_missing : int; mutable raised : int }

let check_sparse tally ~bits ~nodes geometry =
  let what = Printf.sprintf "%s bits=%d nodes=%d" (Rcm.Geometry.slug geometry) bits nodes in
  match
    ( sparse_outcome (fun rng -> Sparse_reference.build ~rng ~bits ~nodes geometry),
      sparse_outcome (fun rng -> Overlay.Sparse.build ~rng ~bits ~nodes geometry) )
  with
  | Error r, Error l ->
      Alcotest.(check string) (what ^ ": same error") r l;
      tally.raised <- tally.raised + 1
  | Ok _, Error l -> Alcotest.failf "%s: only the lane raised (%s)" what l
  | Error r, Ok _ -> Alcotest.failf "%s: only the reference raised (%s)" what r
  | Ok (reference, state_r), Ok (lane, state_l) ->
      Alcotest.(check int) (what ^ ": node_count") (Array.length reference.Sparse_reference.ids)
        (Overlay.Sparse.node_count lane);
      Array.iteri
        (fun v id ->
          if Overlay.Sparse.id_of lane v <> id then
            Alcotest.failf "%s: id %d differs (reference %d, lane %d)" what v id
              (Overlay.Sparse.id_of lane v);
          let row_r = reference.contacts.(v) and row_l = Overlay.Sparse.contacts lane v in
          if row_r <> row_l then
            Alcotest.failf "%s: node %d contacts differ (reference %s, lane %s)" what v
              (rows_string row_r) (rows_string row_l))
        reference.ids;
      Alcotest.(check int64) (what ^ ": post-build rng state") state_r state_l;
      tally.built <- tally.built + 1;
      if Array.exists (Array.mem Overlay.Sparse.missing) reference.contacts then
        tally.with_missing <- tally.with_missing + 1

(* 2, a sparse-regime count (2 * nodes < 2^bits: the rejection
   sampler), half the space and the full space (the shuffle). *)
let sparse_nodes bits =
  let size = 1 lsl bits in
  List.sort_uniq compare [ 2; max 2 ((size / 2) - 1); size / 2; size ]

let sparse_matrix geometries =
  let tally = { built = 0; with_missing = 0; raised = 0 } in
  List.iter
    (fun geometry ->
      List.iter
        (fun bits ->
          List.iter (fun nodes -> check_sparse tally ~bits ~nodes geometry) (sparse_nodes bits))
        bits_grid)
    geometries;
  tally

let sparse_families () =
  List.filter_map
    (fun d -> if d.Geom.sparse then Some d.Geom.default else None)
    (Geom.all ())

let test_sparse_registered () =
  let tally = sparse_matrix (sparse_families () @ [ Geom_record.geometry ~h:4 () ]) in
  Alcotest.(check bool) "some builds" true (tally.built > 0);
  Alcotest.(check bool) "some builds with empty buckets" true (tally.with_missing > 0);
  Alcotest.(check bool) "some invalid cases" true (tally.raised > 0)

let test_sparse_record_widths () =
  let tally =
    sparse_matrix (List.map (fun h -> Geom_record.geometry ~h ()) [ 2; 4; 8; 16 ])
  in
  Alcotest.(check bool) "some builds with empty buckets" true (tally.with_missing > 0);
  Alcotest.(check bool) "widths that do not divide bits raise" true (tally.raised > 0)

let test_sparse_symphony_shapes () =
  let tally =
    sparse_matrix
      (List.map
         (fun (k_n, k_s) -> Rcm.Geometry.Symphony { k_n; k_s })
         [ (0, 1); (0, 2); (1, 1); (1, 2); (3, 1); (3, 2) ])
  in
  Alcotest.(check bool) "degree >= node count raises" true (tally.raised > 0)

let test_sample_ids () =
  List.iter
    (fun bits ->
      List.iter
        (fun count ->
          let rng_r = Prng.Splitmix.create ~seed:(bits + count) in
          let rng_l = Prng.Splitmix.create ~seed:(bits + count) in
          let what = Printf.sprintf "bits=%d count=%d" bits count in
          Alcotest.(check (array int)) what
            (Sparse_reference.sample_ids rng_r ~bits ~count)
            (Overlay.Sparse.sample_ids rng_l ~bits ~count);
          Alcotest.(check int64) (what ^ ": rng state") (Prng.Splitmix.state rng_r)
            (Prng.Splitmix.state rng_l))
        [ 2; 3; 1000 ])
    [ 10; 16; 24 ];
  (* Ids are int32 off-heap: a wider space is refused, not truncated. *)
  Alcotest.check_raises "bits 31" (Invalid_argument "Sparse.sample_ids: bits outside 1..30")
    (fun () -> ignore (Overlay.Sparse.sample_ids (Prng.Splitmix.create ~seed) ~bits:31 ~count:4));
  Alcotest.check_raises "count 1"
    (Invalid_argument "Sparse.sample_ids: node count outside 2..2^bits") (fun () ->
      ignore (Overlay.Sparse.sample_ids (Prng.Splitmix.create ~seed) ~bits:4 ~count:1))

(* Random instances with dead nodes: every pair (dead endpoints and
   src = dst included) routes to the same outcome, hop count and stuck
   node through the C lane as through the reference router, and both
   leave identical loadmaps. *)
let sparse_route_matches_reference =
  let geometries =
    [|
      Rcm.Geometry.Tree;
      Rcm.Geometry.Xor;
      Rcm.Geometry.Ring;
      Rcm.Geometry.default_symphony;
      Rcm.Geometry.Symphony { k_n = 1; k_s = 2 };
      Geom_record.geometry ~h:4 ();
      Geom_record.geometry ~h:8 ();
      Geom_record.geometry ~h:16 ();
    |]
  in
  let group_of = [| 1; 1; 1; 1; 1; 2; 3; 4 |] in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"sparse route lane = reference (random instances)"
       QCheck2.Gen.(
         quad (int_bound (Array.length geometries - 1)) (int_range 1 12) (int_bound 1_000_000)
           (oneofl [ 0.0; 0.25; 0.6; 0.9 ]))
       (fun (gi, width, instance_seed, q) ->
         let geometry = geometries.(gi) in
         (* bits in 1..12, rounded up to a multiple of the digit width;
            up to 1,000 nodes, full occupancy in the small spaces. *)
         let group = group_of.(gi) in
         let bits = max group (width / group * group) in
         let size = 1 lsl bits in
         let nodes = 2 + (instance_seed mod min (size - 1) 1000) in
         let degree_fits =
           match geometry with
           | Rcm.Geometry.Symphony { k_n; k_s } -> k_n + k_s < nodes
           | _ -> true
         in
         (not degree_fits)
         ||
         let reference =
           Sparse_reference.build ~rng:(Prng.Splitmix.create ~seed:instance_seed) ~bits ~nodes
             geometry
         in
         let lane =
           Overlay.Sparse.build ~rng:(Prng.Splitmix.create ~seed:instance_seed) ~bits ~nodes
             geometry
         in
         let rng = Prng.Splitmix.create ~seed:(instance_seed + 1) in
         let alive = Overlay.Failure.sample ~rng ~q nodes in
         let pairs =
           Array.init 200 (fun _ -> (Prng.Splitmix.int rng nodes, Prng.Splitmix.int rng nodes))
         in
         let lm_ref = Obs.Loadmap.create ~nodes and lm_lane = Obs.Loadmap.create ~nodes in
         let via lm route = Obs.Loadmap.with_sink lm (fun () -> Array.map route pairs) in
         let expected =
           via lm_ref (fun (src, dst) -> Sparse_reference.route reference ~alive ~src ~dst)
         in
         let actual =
           via lm_lane (fun (src, dst) -> Routing.Sparse_router.route lane ~alive ~src ~dst)
         in
         Array.iteri
           (fun k e ->
             if not (Routing.Outcome.equal e actual.(k)) then
               QCheck2.Test.fail_reportf "%s bits=%d nodes=%d pair %d -> %d: %a vs %a"
                 (Rcm.Geometry.slug geometry) bits nodes (fst pairs.(k)) (snd pairs.(k))
                 Routing.Outcome.pp e Routing.Outcome.pp actual.(k))
           expected;
         Obs.Loadmap.equal lm_ref lm_lane))

let test_sparse_route_validation () =
  let overlay =
    Overlay.Sparse.build ~rng:(Prng.Splitmix.create ~seed) ~bits:6 ~nodes:20 Rcm.Geometry.Ring
  in
  let alive = Overlay.Failure.none 20 in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "src out of range" (fun () -> Routing.Sparse_router.route overlay ~alive ~src:20 ~dst:0);
  raises "negative dst" (fun () -> Routing.Sparse_router.route overlay ~alive ~src:0 ~dst:(-1));
  raises "alive mask of another size" (fun () ->
      Routing.Sparse_router.route overlay ~alive:(Overlay.Failure.none 21) ~src:0 ~dst:1);
  raises "loadmap of another size" (fun () ->
      Obs.Loadmap.with_sink (Obs.Loadmap.create ~nodes:19) (fun () ->
          Routing.Sparse_router.route overlay ~alive ~src:0 ~dst:1))

let suite =
  [
    Alcotest.test_case "lane = entry: registered families" `Quick test_registered_families;
    Alcotest.test_case "lane = entry: record digit widths" `Quick test_record_widths;
    Alcotest.test_case "lane = entry: symphony shapes" `Quick test_symphony_shapes;
    Alcotest.test_case "lane = entry: variant builders" `Quick test_variant_builders;
    Alcotest.test_case "of_lane validation" `Quick test_of_lane_validation;
    Alcotest.test_case "failure lane = bernoulli loop" `Quick test_failure_lane;
    Alcotest.test_case "failure sample validation" `Quick test_failure_validation;
    Alcotest.test_case "sparse lane = reference: registered families" `Quick
      test_sparse_registered;
    Alcotest.test_case "sparse lane = reference: record digit widths" `Quick
      test_sparse_record_widths;
    Alcotest.test_case "sparse lane = reference: symphony shapes" `Quick
      test_sparse_symphony_shapes;
    Alcotest.test_case "sparse sample_ids = reference" `Quick test_sample_ids;
    sparse_route_matches_reference;
    Alcotest.test_case "sparse route validation" `Quick test_sparse_route_validation;
  ]
