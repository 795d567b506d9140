(* Sorted ids plus one uniform-degree contact block, both off-heap
   int32 Bigarrays (ids fit because bits <= 30): node v's contacts are
   entries [v * degree, (v + 1) * degree) of [contacts]. Every domain
   of an Exec.Pool reads a shared overlay without copies or GC traffic,
   and the C build lanes (build_lanes_stubs.c) and the sparse router
   (Routing.Sparse_router) read the payloads directly. *)

type ids = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type lane =
  | Fingers
  | Buckets of { group : int; fallback : bool }
  | Harmonic of { near : int; shortcuts : int }

type t = {
  bits : int;
  geometry : Rcm.Geometry.t;
  lane : lane;
  ids : ids;
  degree : int;
  contacts : Flat.targets;
}

let missing = -1

let bits t = t.bits

let geometry t = t.geometry

let lane t = t.lane

let node_count t = Bigarray.Array1.dim t.ids

let degree t = t.degree

let ids t = t.ids

let contact_block t = t.contacts

let occupancy t = float_of_int (node_count t) /. Float.pow 2.0 (float_of_int t.bits)

let check_index t context v =
  if v < 0 || v >= node_count t then
    invalid_arg (Printf.sprintf "Sparse.%s: node %d outside [0, %d)" context v (node_count t))

let id_of t index =
  check_index t "id_of" index;
  Int32.to_int (Bigarray.Array1.unsafe_get t.ids index)

let contacts t v =
  check_index t "contacts" v;
  Array.init t.degree (fun i ->
      Int32.to_int (Bigarray.Array1.unsafe_get t.contacts ((v * t.degree) + i)))

(* First index whose id is >= target; [node_count t] when none. *)
let lower_bound t target =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Int32.to_int (Bigarray.Array1.unsafe_get t.ids mid) >= target then search lo mid
      else search (mid + 1) hi
    end
  in
  search 0 (node_count t)

(* Index of the first node clockwise from [target] (inclusive),
   wrapping past the top of the ring. *)
let successor_index t target =
  let i = lower_bound t target in
  if i = node_count t then 0 else i

let index_of_id t id =
  let i = successor_index t id in
  if Int32.to_int (Bigarray.Array1.unsafe_get t.ids i) = id then Some i else None

(* Range of node indexes whose ids share the given [prefix_len]-bit
   prefix of [pattern]: ids are sorted, so it is one contiguous run. *)
let prefix_range t ~pattern ~prefix_len =
  if prefix_len = 0 then (0, node_count t)
  else begin
    let width = t.bits - prefix_len in
    let lo_id = pattern land lnot ((1 lsl width) - 1) in
    let hi_id = lo_id + (1 lsl width) in
    (lower_bound t lo_id, lower_bound t hi_id)
  end

(* Build lanes (build_lanes_stubs.c). Each runs SplitMix64 inline on
   the identical stream and returns the post-lane state; the domain
   lock is released while it runs. *)
external lane_sample_ids : ids -> int -> int64 -> int64 = "rcm_sparse_sample_ids"

external lane_fingers : ids -> Flat.targets -> int -> unit = "rcm_sparse_fingers"

external lane_buckets : ids -> Flat.targets -> int -> int -> int64 -> int64
  = "rcm_sparse_buckets"

external lane_harmonic : Flat.targets -> int -> int -> int -> int64 -> int64
  = "rcm_sparse_harmonic"

(* [count] sorted distinct ids, drawn by the lane. *)
let draw_ids rng ~bits ~count =
  if bits < 1 || bits > 30 then invalid_arg "Sparse.sample_ids: bits outside 1..30";
  if count < 2 || count > 1 lsl bits then
    invalid_arg "Sparse.sample_ids: node count outside 2..2^bits";
  let ids = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout count in
  Prng.Splitmix.set_state rng (lane_sample_ids ids bits (Prng.Splitmix.state rng));
  ids

let sample_ids rng ~bits ~count =
  let ids = draw_ids rng ~bits ~count in
  Array.init count (fun i -> Int32.to_int (Bigarray.Array1.unsafe_get ids i))

(* Custom-family sparse lanes, keyed by family name. *)
type custom_builder = bits:int -> (string * int) list -> lane

let custom_builders : (string, custom_builder) Hashtbl.t = Hashtbl.create 8

let register_custom_builder ~family builder =
  if Hashtbl.mem custom_builders family then
    invalid_arg
      (Printf.sprintf "Sparse.register_custom_builder: %S already registered" family);
  Hashtbl.replace custom_builders family builder

let lane_of ~bits geometry =
  match geometry with
  | Rcm.Geometry.Ring -> Fingers
  | Rcm.Geometry.Tree -> Buckets { group = 1; fallback = false }
  | Rcm.Geometry.Xor -> Buckets { group = 1; fallback = true }
  | Rcm.Geometry.Symphony { k_n; k_s } -> Harmonic { near = k_n; shortcuts = k_s }
  | Rcm.Geometry.Hypercube ->
      invalid_arg
        "Sparse.build: CAN's sparse form is a zone partition, not an id-subset overlay"
  | Rcm.Geometry.Custom { family; params } -> (
      match Hashtbl.find_opt custom_builders family with
      | Some builder -> builder ~bits params
      | None ->
          invalid_arg
            (Printf.sprintf "Sparse.build: family %S has no registered sparse builder"
               family))

let lane_degree ~bits ~nodes = function
  | Fingers -> bits
  | Buckets { group; _ } ->
      if group < 1 || bits mod group <> 0 then
        invalid_arg
          (Printf.sprintf "Sparse.build: digit width %d does not divide bits=%d" group bits);
      bits / group * ((1 lsl group) - 1)
  | Harmonic { near; shortcuts } ->
      if near < 0 || shortcuts < 0 then invalid_arg "Sparse: negative symphony degree";
      if near + shortcuts >= nodes then
        invalid_arg "Sparse: symphony degree exceeds node count";
      near + shortcuts

(* The draw order is the reference construction's: the ids first (one
   Splitmix.int per shuffle position or rejection draw), then the
   contacts in (v ascending, slot ascending) order — nothing for
   fingers, one bounded draw per non-empty bucket, one harmonic_int per
   Symphony shortcut. Geometry validation happens after the ids are
   drawn, so a rejected geometry leaves the generator where the
   reference construction leaves it. *)
let build ?(rng = Prng.Splitmix.create ~seed:0x5ea5) ~bits ~nodes geometry =
  if bits < 1 || bits > 30 then invalid_arg "Sparse.build: bits outside 1..30";
  let ids = draw_ids rng ~bits ~count:nodes in
  let lane = lane_of ~bits geometry in
  let degree = lane_degree ~bits ~nodes lane in
  let contacts = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (nodes * degree) in
  let state = Prng.Splitmix.state rng in
  (match lane with
  | Fingers -> lane_fingers ids contacts bits
  | Buckets { group; _ } ->
      Prng.Splitmix.set_state rng (lane_buckets ids contacts bits group state)
  | Harmonic { near; shortcuts } ->
      Prng.Splitmix.set_state rng (lane_harmonic contacts nodes near shortcuts state));
  { bits; geometry; lane; ids; degree; contacts }
