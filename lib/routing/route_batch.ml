(* Batched routing over the flat CSR backend.

   The scalar [Router.route] pays, on every hop, for geometry dispatch,
   a closure-based neighbour iteration and a [repr] match inside every
   [Overlay.Table] accessor. At 2^20 nodes that caps the whole engine
   at ~100k routes/s. Here an entire pair set goes through one C
   driver per geometry (route_batch_stubs.c): neighbour lookups are
   direct loads from the CSR [offsets]/[targets] Bigarrays, liveness is
   one load + shift + mask against the packed {!Overlay.Bitset} words,
   and per-pair results land in reusable off-heap scratch buffers —
   zero allocation per hop, and one metrics flush per batch instead of
   one per route. This module keeps the geometry dispatch, argument
   validation, scratch ownership, metrics and the {!Scalar} lane of
   custom families.

   Bit-identity contract (pinned by [test/test_batch.ml] and the CLI
   byte-identity checks): for every geometry the kernel visits
   candidates in exactly the scalar router's order and consumes PRNG
   draws in exactly the scalar order, so outcomes, hop counts, stuck
   nodes and the post-batch rng state are equal to the scalar path's.
   The rng-free geometries draw nothing while routing, so
   [sample_and_route] samples every pair first
   ([Stats.Sampler.ordered_pair] inlined draw-for-draw) and routes the
   block afterwards. The hypercube router draws on every hop, so its C
   driver samples and routes pair by pair on an unboxed copy of the
   SplitMix64 state and hands the post-batch state back. *)

type offsets = Overlay.Flat.offsets
type targets = Overlay.Flat.targets
type words = Overlay.Bitset.words

(* --- batch toggle --------------------------------------------------------- *)

let enabled_flag = Atomic.make true

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* --- per-domain scratch --------------------------------------------------- *)

(* Every buffer a C driver reads or writes is off-heap, so the drivers
   can release the domain lock while they run (see the stub file). *)
type scratch = {
  mutable cap : int;
  mutable src_buf : buf;  (* pair k's source and destination *)
  mutable dst_buf : buf;
  mutable pool_buf : buf;  (* the sampling pool of the last batch *)
  mutable hops_buf : buf;
  mutable stuck_buf : buf;  (* stuck node id, -1 when delivered *)
  mutable count : int;  (* pairs routed by the last batch *)
  mutable delivered : int;
  mutable dropped : int;
  (* Hop histogram of the last batch, accumulated here so the shared
     metrics registry sees one locked add per batch, not one per
     route. [hist_used] caps the zeroing cost on reuse. *)
  mutable hist : int array;
  mutable hist_used : int;
}

let create_buf n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let empty_buf = create_buf 0

let create_scratch () =
  {
    cap = 0;
    src_buf = empty_buf;
    dst_buf = empty_buf;
    pool_buf = empty_buf;
    hops_buf = empty_buf;
    stuck_buf = empty_buf;
    count = 0;
    delivered = 0;
    dropped = 0;
    hist = Array.make 64 0;
    hist_used = 0;
  }

let scratch_key = Domain.DLS.new_key create_scratch

let domain_scratch () = Domain.DLS.get scratch_key

let prepare s n =
  if n > s.cap then begin
    let cap = max n (max 1024 (2 * s.cap)) in
    s.src_buf <- create_buf cap;
    s.dst_buf <- create_buf cap;
    s.hops_buf <- create_buf cap;
    s.stuck_buf <- create_buf cap;
    s.cap <- cap
  end;
  Array.fill s.hist 0 s.hist_used 0;
  s.hist_used <- 0;
  s.count <- n;
  s.delivered <- 0;
  s.dropped <- 0

(* Copies [pool] into [pool_buf] for the C samplers. Every driver
   indexes the table by pool member without a bounds check, so this is
   also where an out-of-range member is rejected, once per batch. *)
let load_pool s pool ~nodes =
  let n = Array.length pool in
  if n > Bigarray.Array1.dim s.pool_buf then s.pool_buf <- create_buf (max 1024 (2 * n));
  Array.iteri
    (fun i v ->
      if v < 0 || v >= nodes then
        invalid_arg
          (Printf.sprintf "Route_batch.sample_and_route: pool member %d outside [0, %d)" v nodes);
      Bigarray.Array1.unsafe_set s.pool_buf i v)
    pool

(* --- scratch accessors ---------------------------------------------------- *)

let batch_size s = s.count

let delivered_count s = s.delivered

let dropped_count s = s.dropped

let check_index s k context =
  if k < 0 || k >= s.count then
    invalid_arg (Printf.sprintf "Route_batch.%s: index %d outside [0, %d)" context k s.count)

let hops s k =
  check_index s k "hops";
  Bigarray.Array1.unsafe_get s.hops_buf k

let is_delivered s k =
  check_index s k "is_delivered";
  Bigarray.Array1.unsafe_get s.stuck_buf k < 0

let outcome s k =
  check_index s k "outcome";
  let hops = Bigarray.Array1.unsafe_get s.hops_buf k in
  let stuck = Bigarray.Array1.unsafe_get s.stuck_buf k in
  if stuck < 0 then Outcome.Delivered { hops } else Outcome.Dropped { hops; stuck_at = stuck }

let raw_hops s = Bigarray.Array1.sub s.hops_buf 0 s.count

let raw_stuck s = Bigarray.Array1.sub s.stuck_buf 0 s.count

(* Delivered hop counts in routing order, as the [float list] the
   estimate layer aggregates (built back-to-front so the list comes
   out in pair order, exactly like the scalar trial loop's
   [List.rev] of its accumulator). *)
let delivered_hops_rev_order s =
  let acc = ref [] in
  for k = s.count - 1 downto 0 do
    if Bigarray.Array1.unsafe_get s.stuck_buf k >= 0 then ()
    else acc := float_of_int (Bigarray.Array1.unsafe_get s.hops_buf k) :: !acc
  done;
  !acc

(* --- metrics -------------------------------------------------------------- *)

(* Mirrors the scalar [Router.record] totals with one locked update per
   distinct hop value and one atomic add per outcome class. Exactness:
   hop values and counts are small integers, so the histogram sum
   [v *. count] equals [count] repeated additions of [v] in float —
   the --metrics snapshot is equal (not just close) to the scalar
   path's, which test_batch pins. Empty batches register nothing, like
   a loop that never routed. *)
let flush_metrics geometry s =
  if s.count > 0 && Obs.Metrics.enabled () then begin
    let name = Rcm.Geometry.slug geometry in
    List.iter
      (fun label -> ignore (Obs.Metrics.counter (Printf.sprintf "routing/%s/%s" name label)))
      Outcome.metric_labels;
    if s.delivered > 0 then
      Obs.Metrics.incr_named ~by:s.delivered (Printf.sprintf "routing/%s/delivered" name);
    if s.dropped > 0 then
      Obs.Metrics.incr_named ~by:s.dropped (Printf.sprintf "routing/%s/dead_end" name);
    if s.delivered > 0 then begin
      let h = Obs.Metrics.histogram (Printf.sprintf "routing/%s/hops" name) in
      for hop = 0 to s.hist_used - 1 do
        let c = s.hist.(hop) in
        if c > 0 then Obs.Metrics.observe_n h (float_of_int hop) ~times:c
      done
    end
  end

(* --- C drivers ------------------------------------------------------------- *)

(* The rng-free geometries (tree, xor and ReCord digits, ring/symphony)
   route whole pair blocks through lane drivers: many independent
   routes in flight, one software-prefetched hop per lane per round,
   results written straight into the scratch buffers ([stuck = -1] when
   delivered, else the stuck node id). See the stub file's header for
   why the hot loop is C and for the bit-identity contract. Lane
   interleaving is invisible in the results: each pair still visits
   candidates in the scalar order — or an order-insensitive equivalent
   — these geometries consume no randomness while routing, and results
   are indexed by pair, not by completion order.

   Lane arguments: targets, alive words, offsets, srcs, dsts, pair
   count, hops out, stuck out, bits (distance mask for ring), [group]
   for the digits lane only, uniform degree (-1 when ragged), and the
   loadmap traversal / termination counter slices (zero-length =
   telemetry off). *)

external route_block_tree :
  targets ->
  words ->
  offsets ->
  buf ->
  buf ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  unit = "rcm_route_tree_bc" "rcm_route_tree"

external route_block_digits :
  targets ->
  words ->
  offsets ->
  buf ->
  buf ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  int ->
  buf ->
  buf ->
  unit = "rcm_route_digits_bc" "rcm_route_digits"

external route_block_ring :
  targets ->
  words ->
  offsets ->
  buf ->
  buf ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  unit = "rcm_route_ring_bc" "rcm_route_ring"

(* The hypercube drivers take the rng state unboxed and return the
   post-batch state, which the caller writes back with
   [Splitmix.set_state]. [route_hypercube] routes [srcs]/[dsts];
   [sample_route_hypercube] draws [pairs] ordered pairs from the first
   [npool] entries of the pool buffer and routes each as it is drawn.
   Remaining arguments as for the lanes. *)

external route_hypercube :
  targets ->
  words ->
  offsets ->
  buf ->
  buf ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  (int64[@unboxed]) ->
  (int64[@unboxed]) = "rcm_route_hypercube_bc" "rcm_route_hypercube"

external sample_route_hypercube :
  targets ->
  words ->
  offsets ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  (int64[@unboxed]) ->
  (int64[@unboxed]) = "rcm_sample_route_hypercube_bc" "rcm_sample_route_hypercube"

(* Draws [pairs] ordered pairs of distinct entries of the pool buffer's
   first [npool] into [srcs]/[dsts], draw-for-draw
   [Stats.Sampler.ordered_pair], and returns the post-batch state — the
   lanes' pair sampler. *)
external sample_pairs :
  buf -> int -> int -> buf -> buf -> (int64[@unboxed]) -> (int64[@unboxed])
  = "rcm_sample_pairs_bc" "rcm_sample_pairs"

(* Fold a routed block into the batch totals. *)
let tally s n =
  for k = 0 to n - 1 do
    if Bigarray.Array1.unsafe_get s.stuck_buf k < 0 then begin
      let hops = Bigarray.Array1.unsafe_get s.hops_buf k in
      s.delivered <- s.delivered + 1;
      if hops >= Array.length s.hist then begin
        let grown = Array.make (2 * max (Array.length s.hist) (hops + 1)) 0 in
        Array.blit s.hist 0 grown 0 s.hist_used;
        s.hist <- grown
      end;
      s.hist.(hops) <- s.hist.(hops) + 1;
      if hops >= s.hist_used then s.hist_used <- hops + 1
    end
    else s.dropped <- s.dropped + 1
  done

(* --- lanes ----------------------------------------------------------------- *)

(* A block driver with the lane drivers' calling convention. The [int]
   argument in [bits] position is lane-defined, exactly as the ring
   lane passes a distance mask there — a plugin driver can pack extra
   static parameters into it inside its closure. *)
type block_router =
  targets ->
  words ->
  offsets ->
  buf ->
  buf ->
  int ->
  buf ->
  buf ->
  int ->
  int ->
  buf ->
  buf ->
  unit

let digits_block ~group =
  if group < 1 then invalid_arg "Route_batch.digits_block: group must be >= 1";
  fun targets words offsets srcs dsts n hops_buf stuck_buf bits deg trav term ->
    if bits mod group <> 0 then
      invalid_arg
        (Printf.sprintf "Route_batch.digits_block: group %d does not divide bits = %d" group
           bits);
    route_block_digits targets words offsets srcs dsts n hops_buf stuck_buf bits group deg trav
      term

let ring_block targets words offsets srcs dsts n hops_buf stuck_buf bits deg trav term =
  route_block_ring targets words offsets srcs dsts n hops_buf stuck_buf ((1 lsl bits) - 1) deg
    trav term

(* How a custom family routes under the batch engine. [Scalar] (the
   default when a family registers no lane) drives the family's
   registered scalar router pair by pair, interleaving pair-sampling
   draws with any forwarding draws — bit-identical to the scalar trial
   loop for every router, including randomized ones, at scalar speed.
   [Block] is the opt-in fast path, valid only for rng-free routers
   (the block runs after all pairs are sampled). *)
type lane = Scalar | Block of block_router

let custom_lanes : (string, (string * int) list -> lane) Hashtbl.t = Hashtbl.create 8

let register_custom_lane ~family resolve =
  if Hashtbl.mem custom_lanes family then
    invalid_arg
      (Printf.sprintf "Route_batch.register_custom_lane: %S already registered" family);
  Hashtbl.replace custom_lanes family resolve

(* One pair through a family's scalar router into result slot [k],
   with the batch path's loadmap accounting (bumps on the calling
   domain's slices at the C drivers' counting points). Metrics are NOT
   recorded here — the caller flushes once per batch. *)
let scalar_custom_pair s k (router : Router.custom_router) table ~rng ~alive ~trav ~term ~src
    ~dst =
  let bump (b : buf) v =
    if Bigarray.Array1.dim b > 0 then
      Bigarray.Array1.unsafe_set b v (Bigarray.Array1.unsafe_get b v + 1)
  in
  let hops, stuck =
    match router ~on_hop:(bump trav) table ~rng ~alive ~src ~dst with
    | Outcome.Delivered { hops } -> (hops, -1)
    | Outcome.Dropped { hops; stuck_at } -> (hops, stuck_at)
  in
  bump term (if stuck < 0 then dst else stuck);
  Bigarray.Array1.unsafe_set s.hops_buf k hops;
  Bigarray.Array1.unsafe_set s.stuck_buf k stuck

(* What routes a table: a block lane (every rng-free geometry), the
   hypercube drivers, or a custom family's scalar router. *)
type kernel = Lane of block_router | Hypercube | Scalar_router of Router.custom_router

let xor_block = digits_block ~group:1

let scalar_kernel family context =
  match Router.find_custom family with
  | Some router -> Scalar_router router
  | None ->
      invalid_arg
        (Printf.sprintf "Route_batch.%s: family %S has no registered router" context family)

let kernel_of table context =
  match Overlay.Table.geometry table with
  | Rcm.Geometry.Tree -> Lane route_block_tree
  | Rcm.Geometry.Xor -> Lane xor_block
  | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> Lane ring_block
  | Rcm.Geometry.Hypercube -> Hypercube
  | Rcm.Geometry.Custom { family; params } -> (
      match Hashtbl.find_opt custom_lanes family with
      | Some resolve -> (
          match resolve params with
          | Block block -> Lane block
          | Scalar -> scalar_kernel family context)
      | None -> scalar_kernel family context)

(* --- drivers -------------------------------------------------------------- *)

let flat_of table context =
  match Overlay.Table.csr table with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Route_batch.%s: table backend is not Flat (flatten it first)"
           context)

let mask_words ~table ~alive context =
  if Overlay.Failure.length alive <> Overlay.Table.node_count table then
    invalid_arg (Printf.sprintf "Route_batch.%s: alive mask size mismatch" context);
  Overlay.Failure.Bitset.words alive

(* The calling domain's loadmap slices, or the zero-length "off"
   buffers when no sink is installed — what the C drivers decode to
   NULL. Looked up once per batch, not per hop. *)
let loadmap_slices ~table context =
  match Obs.Loadmap.sink () with
  | None -> (empty_buf, empty_buf)
  | Some lm ->
      if Obs.Loadmap.nodes lm <> Overlay.Table.node_count table then
        invalid_arg
          (Printf.sprintf
             "Route_batch.%s: loadmap sink covers %d nodes but the table has %d" context
             (Obs.Loadmap.nodes lm)
             (Overlay.Table.node_count table))
      else
        ( Obs.Loadmap.slice lm Obs.Loadmap.Route_traversal,
          Obs.Loadmap.slice lm Obs.Loadmap.Route_termination )

let route_many ?scratch table ~rng ~alive pairs =
  let flat = flat_of table "route_many" in
  let words = mask_words ~table ~alive "route_many" in
  let space = Overlay.Table.space table in
  Array.iter
    (fun (src, dst) ->
      Idspace.Space.check space src;
      Idspace.Space.check space dst)
    pairs;
  let kernel = kernel_of table "route_many" in
  let offsets = Overlay.Flat.offsets flat in
  let targets = Overlay.Flat.targets flat in
  let bits = Overlay.Table.bits table in
  let deg = Overlay.Flat.uniform_degree flat in
  let n = Array.length pairs in
  let trav, term = loadmap_slices ~table "route_many" in
  let s = match scratch with Some s -> s | None -> domain_scratch () in
  prepare s n;
  Array.iteri
    (fun k (src, dst) ->
      Bigarray.Array1.unsafe_set s.src_buf k src;
      Bigarray.Array1.unsafe_set s.dst_buf k dst)
    pairs;
  (match kernel with
  | Lane block ->
      block targets words offsets s.src_buf s.dst_buf n s.hops_buf s.stuck_buf bits deg trav term
  | Hypercube ->
      Prng.Splitmix.set_state rng
        (route_hypercube targets words offsets s.src_buf s.dst_buf n s.hops_buf s.stuck_buf bits
           deg trav term (Prng.Splitmix.state rng))
  | Scalar_router router ->
      Array.iteri
        (fun k (src, dst) -> scalar_custom_pair s k router table ~rng ~alive ~trav ~term ~src ~dst)
        pairs);
  tally s n;
  flush_metrics (Overlay.Table.geometry table) s;
  s

let sample_and_route ?scratch table ~rng ~alive ~pool ~pairs =
  let flat = flat_of table "sample_and_route" in
  let words = mask_words ~table ~alive "sample_and_route" in
  let npool = Array.length pool in
  if npool < 2 then invalid_arg "Route_batch.sample_and_route: pool smaller than 2";
  if pairs < 0 then invalid_arg "Route_batch.sample_and_route: negative pair count";
  let s = match scratch with Some s -> s | None -> domain_scratch () in
  load_pool s pool ~nodes:(Overlay.Table.node_count table);
  let kernel = kernel_of table "sample_and_route" in
  let offsets = Overlay.Flat.offsets flat in
  let targets = Overlay.Flat.targets flat in
  let bits = Overlay.Table.bits table in
  let deg = Overlay.Flat.uniform_degree flat in
  let trav, term = loadmap_slices ~table "sample_and_route" in
  prepare s pairs;
  (match kernel with
  | Lane block ->
      (* Lanes consume no randomness while routing, so the scalar draw
         sequence — sample pair k, route pair k — is exactly reproduced
         by sampling every pair first and routing the block after. *)
      Prng.Splitmix.set_state rng
        (sample_pairs s.pool_buf npool pairs s.src_buf s.dst_buf (Prng.Splitmix.state rng));
      block targets words offsets s.src_buf s.dst_buf pairs s.hops_buf s.stuck_buf bits deg trav
        term
  | Hypercube ->
      Prng.Splitmix.set_state rng
        (sample_route_hypercube targets words offsets s.pool_buf npool pairs s.hops_buf
           s.stuck_buf bits deg trav term (Prng.Splitmix.state rng))
  | Scalar_router router ->
      (* The scalar lane interleaves sampling and routing pair by pair
         — the scalar trial loop's draw order for any router,
         randomized ones included. Pair sampling is inlined from
         [Stats.Sampler.ordered_pair]: the source index, then
         rejection-draw a distinct destination index. *)
      let rec draw_distinct i =
        let j = Prng.Splitmix.int rng npool in
        if j = i then draw_distinct i else j
      in
      for k = 0 to pairs - 1 do
        let i = Prng.Splitmix.int rng npool in
        let src = Array.unsafe_get pool i in
        let dst = Array.unsafe_get pool (draw_distinct i) in
        scalar_custom_pair s k router table ~rng ~alive ~trav ~term ~src ~dst
      done);
  tally s pairs;
  flush_metrics (Overlay.Table.geometry table) s;
  s
