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

let suite =
  [
    Alcotest.test_case "lane = entry: registered families" `Quick test_registered_families;
    Alcotest.test_case "lane = entry: record digit widths" `Quick test_record_widths;
    Alcotest.test_case "lane = entry: symphony shapes" `Quick test_symphony_shapes;
    Alcotest.test_case "lane = entry: variant builders" `Quick test_variant_builders;
    Alcotest.test_case "of_lane validation" `Quick test_of_lane_validation;
    Alcotest.test_case "failure lane = bernoulli loop" `Quick test_failure_lane;
    Alcotest.test_case "failure sample validation" `Quick test_failure_validation;
  ]
