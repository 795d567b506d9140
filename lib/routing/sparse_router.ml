(* Greedy routing over sparse overlays (node identity = index into the
   sorted id array, distances measured on identifiers). The hop loop is
   one noalloc C call per route (sparse_route_stubs.c): the storage
   plane routes one message at a time, so there is no block to batch,
   and the lanes draw nothing. *)

external route_lane :
  Overlay.Sparse.ids ->
  Overlay.Flat.targets ->
  Overlay.Failure.Bitset.words ->
  int ->
  int ->
  int ->
  int ->
  int ->
  int ->
  Obs.Loadmap.counts ->
  Obs.Loadmap.counts ->
  int = "rcm_sparse_route_bc" "rcm_sparse_route"
[@@noalloc]

(* Lane modes, as sparse_route_stubs.c decodes them. *)
let clockwise = 0
let leading_digit = 1
let first_alive_digit = 2

(* Zero-length counter slices: the C lane's "telemetry off". *)
let off = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let route overlay ~alive ~src ~dst =
  let n = Overlay.Sparse.node_count overlay in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg
      (Printf.sprintf "Sparse_router.route: pair (%d, %d) outside [0, %d)" src dst n);
  if Overlay.Failure.length alive <> n then
    invalid_arg "Sparse_router.route: alive mask size mismatch";
  let mode, group =
    match Overlay.Sparse.lane overlay with
    | Overlay.Sparse.Fingers | Overlay.Sparse.Harmonic _ -> (clockwise, 1)
    | Overlay.Sparse.Buckets { group; fallback } ->
        ((if fallback then first_alive_digit else leading_digit), group)
  in
  let trav, term =
    match Obs.Loadmap.sink () with
    | None -> (off, off)
    | Some lm ->
        if Obs.Loadmap.nodes lm <> n then
          invalid_arg
            (Printf.sprintf
               "Sparse_router.route: loadmap sink covers %d nodes but the overlay has %d"
               (Obs.Loadmap.nodes lm) n);
        ( Obs.Loadmap.slice lm Obs.Loadmap.Route_traversal,
          Obs.Loadmap.slice lm Obs.Loadmap.Route_termination )
  in
  let packed =
    route_lane (Overlay.Sparse.ids overlay)
      (Overlay.Sparse.contact_block overlay)
      (Overlay.Failure.Bitset.words alive)
      (Overlay.Sparse.degree overlay) mode (Overlay.Sparse.bits overlay) group src dst trav
      term
  in
  (* hops in the low 31 bits, stuck node + 1 above (0 = delivered). *)
  let hops = packed land 0x7FFF_FFFF and stuck = (packed lsr 31) - 1 in
  if stuck < 0 then Outcome.Delivered { hops } else Outcome.Dropped { hops; stuck_at = stuck }
