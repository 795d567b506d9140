(* Struct-of-arrays (CSR) neighbour storage. Two Bigarrays:

     offsets : int,   length n+1   (edge offsets; offsets.(n) = edge count)
     targets : int32, length edges (neighbour ids, row-major)

   Bigarrays live outside the OCaml heap, so a block built once is
   shared read-only by every domain of an [Exec.Pool] with zero copying
   and zero GC traffic — the representation behind [Table]'s [Flat]
   backend. Node ids fit int32 because [Idspace.Space.max_bits] is 30. *)

type offsets = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type targets = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* [uniform] caches the common row degree (-1 when rows differ or the
   block is empty): the batch routing kernels replace the per-hop
   offsets indirection with [v * uniform] when it applies, which is
   every table the overlay builders produce. *)
type t = { offsets : offsets; targets : targets; uniform : int }

let offsets t = t.offsets

let uniform_degree t = t.uniform

let targets t = t.targets

let node_count t = Bigarray.Array1.dim t.offsets - 1

let edge_count t = Bigarray.Array1.dim t.targets

let degree t v = t.offsets.{v + 1} - t.offsets.{v}

let neighbor t v i = Int32.to_int (Bigarray.Array1.unsafe_get t.targets (t.offsets.{v} + i))

let iter_neighbors t v f =
  for i = t.offsets.{v} to t.offsets.{v + 1} - 1 do
    f (Int32.to_int (Bigarray.Array1.unsafe_get t.targets i))
  done

let row t v = Array.init (degree t v) (fun i -> neighbor t v i)

(* Bigarray payload only; the handful of header words is noise. *)
let memory_bytes t =
  (8 * Bigarray.Array1.dim t.offsets) + (4 * Bigarray.Array1.dim t.targets)

let check_target ~nodes ~context u =
  if u < 0 || u >= nodes then
    invalid_arg (Printf.sprintf "Flat.%s: neighbour %d outside [0, %d)" context u nodes)

(* Uniform-degree construction. [f v i] is called for v = 0..nodes-1 in
   ascending order and, within each node, i = 0..degree-1 in ascending
   order — the exact evaluation order of the classic
   [Array.init size (fun v -> Array.init degree (f v))] builders, so a
   PRNG threaded through [f] is left in the same state either way. *)
(* Hint the kernel to back a payload with 2 MiB huge pages (see
   flat_stubs.c); a no-op outside Linux or without THP. *)
external advise_hugepages : ('a, 'b, 'c) Bigarray.Array1.t -> unit
  = "rcm_advise_hugepages"
[@@noalloc]

let init ~nodes ~degree f =
  if nodes < 0 then invalid_arg "Flat.init: negative node count";
  if degree < 0 then invalid_arg "Flat.init: negative degree";
  let offsets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (nodes + 1) in
  let targets =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (nodes * degree)
  in
  advise_hugepages offsets;
  advise_hugepages targets;
  let k = ref 0 in
  for v = 0 to nodes - 1 do
    offsets.{v} <- !k;
    for i = 0 to degree - 1 do
      let u = f v i in
      check_target ~nodes ~context:"init" u;
      Bigarray.Array1.unsafe_set targets !k (Int32.of_int u);
      incr k
    done
  done;
  offsets.{nodes} <- !k;
  { offsets; targets; uniform = (if nodes > 0 then degree else -1) }

(* Build lanes (build_lanes_stubs.c): the whole uniform-degree fill in
   one C call, on the identical SplitMix64 stream, with the domain lock
   released. *)
type lane =
  | Digits of { group : int; draw : bool }
  | Offsets of int array
  | Harmonic of { near : int }

external lane_digits : offsets -> targets -> int -> int -> bool -> int64 -> int64
  = "rcm_lane_digits_byte" "rcm_lane_digits"

external lane_offsets : offsets -> targets -> int -> offsets -> unit = "rcm_lane_offsets"

external lane_harmonic : offsets -> targets -> int -> int -> int -> int64 -> int64
  = "rcm_lane_harmonic_byte" "rcm_lane_harmonic"

let of_lane ?rng ~bits ~degree lane =
  let fail fmt = Printf.ksprintf invalid_arg ("Flat.of_lane: " ^^ fmt) in
  if bits < 1 || bits > Idspace.Space.max_bits then
    fail "bits %d outside 1..%d" bits Idspace.Space.max_bits;
  let lane_degree, draws =
    match lane with
    | Digits { group; draw } ->
        if group < 1 || bits mod group <> 0 then
          fail "digit width %d does not divide bits=%d" group bits;
        (bits / group * ((1 lsl group) - 1), draw)
    | Offsets steps -> (Array.length steps, false)
    | Harmonic { near } ->
        if near < 0 || near > degree then fail "near count %d outside 0..%d" near degree;
        (degree, near < degree)
  in
  if degree <> lane_degree then
    fail "degree %d, but the lane fills %d entries per node" degree lane_degree;
  let state =
    match rng with
    | Some rng -> Prng.Splitmix.state rng
    | None -> if draws then fail "a drawing lane needs ~rng" else 0L
  in
  let nodes = 1 lsl bits in
  let offsets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (nodes + 1) in
  let targets =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (nodes * degree)
  in
  advise_hugepages offsets;
  advise_hugepages targets;
  let resume =
    match lane with
    | Digits { group; draw } -> lane_digits offsets targets bits group draw state
    | Offsets steps ->
        (* The lane reads the steps with the domain lock released, so
           they move off the OCaml heap first. *)
        lane_offsets offsets targets bits
          (Bigarray.Array1.of_array Bigarray.int Bigarray.c_layout steps);
        state
    | Harmonic { near } -> lane_harmonic offsets targets bits degree near state
  in
  Option.iter (fun rng -> Prng.Splitmix.set_state rng resume) rng;
  { offsets; targets; uniform = degree }

(* Variable-degree conversion from classic per-node rows (copies). *)
let of_rows rows =
  let nodes = Array.length rows in
  let offsets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (nodes + 1) in
  let edges = ref 0 in
  for v = 0 to nodes - 1 do
    offsets.{v} <- !edges;
    edges := !edges + Array.length rows.(v)
  done;
  offsets.{nodes} <- !edges;
  let targets = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout !edges in
  advise_hugepages offsets;
  advise_hugepages targets;
  let k = ref 0 in
  Array.iter
    (fun neighbours ->
      Array.iter
        (fun u ->
          check_target ~nodes ~context:"of_rows" u;
          Bigarray.Array1.unsafe_set targets !k (Int32.of_int u);
          incr k)
        neighbours)
    rows;
  let uniform =
    if nodes = 0 then -1
    else begin
      let d = Array.length rows.(0) in
      if Array.for_all (fun row -> Array.length row = d) rows then d else -1
    end
  in
  { offsets; targets; uniform }
