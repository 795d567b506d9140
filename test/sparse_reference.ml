(* The OCaml sparse overlay construction and routers that the C lanes
   of Overlay.Sparse and Routing.Sparse_router replace, kept verbatim
   in behaviour as the reference the lanes are diffed against
   (test_lanes.ml). Heap arrays, Splitmix.int per draw, one binary
   search per finger and bucket, closures over each contact row. *)

type t = {
  bits : int;
  geometry : Rcm.Geometry.t;
  ids : int array;
  contacts : int array array;
}

let missing = -1

let lower_bound ids target =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if ids.(mid) >= target then search lo mid else search (mid + 1) hi
    end
  in
  search 0 (Array.length ids)

let successor_index ids target =
  let i = lower_bound ids target in
  if i = Array.length ids then 0 else i

let prefix_range ~bits ids ~pattern ~prefix_len =
  if prefix_len = 0 then (0, Array.length ids)
  else begin
    let width = bits - prefix_len in
    let lo_id = pattern land lnot ((1 lsl width) - 1) in
    let hi_id = lo_id + (1 lsl width) in
    (lower_bound ids lo_id, lower_bound ids hi_id)
  end

let sample_ids rng ~bits ~count =
  let size = 1 lsl bits in
  if count < 2 || count > size then
    invalid_arg "Sparse.sample_ids: node count outside 2..2^bits";
  if 2 * count >= size then begin
    (* Dense regime: shuffle the whole space and take a prefix. *)
    let all = Array.init size Fun.id in
    Prng.Splitmix.shuffle_in_place rng all;
    let chosen = Array.sub all 0 count in
    Array.sort compare chosen;
    chosen
  end
  else begin
    let seen = Hashtbl.create (2 * count) in
    let chosen = Array.make count 0 in
    let filled = ref 0 in
    while !filled < count do
      let id = Prng.Splitmix.int rng size in
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        chosen.(!filled) <- id;
        incr filled
      end
    done;
    Array.sort compare chosen;
    chosen
  end

(* Chord over a sparse ring: finger i of node v is the first occupied
   id clockwise from id_v + 2^i. *)
let ring_contacts ~bits ids =
  let size = 1 lsl bits in
  Array.map
    (fun id_v ->
      Array.init bits (fun i -> successor_index ids ((id_v + (1 lsl i)) land (size - 1))))
    ids

(* Kademlia/Plaxton buckets over a sparse space: the level-i contact of
   v is a uniformly random occupied id matching v's first i-1 bits and
   differing on bit i, or [missing] when no such node exists. *)
let prefix_contacts ~bits ids rng =
  Array.map
    (fun id_v ->
      Array.init bits (fun i ->
          let level = i + 1 in
          let pattern = Idspace.Id.flip_bit ~bits id_v level in
          let lo, hi = prefix_range ~bits ids ~pattern ~prefix_len:level in
          if hi <= lo then missing else lo + Prng.Splitmix.int rng (hi - lo)))
    ids

(* ReCord's digit generalisation: the (level, rank) contact of v is a
   uniformly random occupied index matching v's digits above [level]
   and holding digit own+rank there, or [missing]. *)
let record_contacts ~bits ~group ids rng =
  let b = 1 lsl group in
  let digits = bits / group in
  Array.map
    (fun id_v ->
      Array.init (digits * (b - 1)) (fun i ->
          let level = (i / (b - 1)) + 1 in
          let rank = (i mod (b - 1)) + 1 in
          let own = Idspace.Digit.get ~bits ~group id_v level in
          let pattern = Idspace.Digit.set ~bits ~group id_v level ((own + rank) mod b) in
          let lo, hi = prefix_range ~bits ids ~pattern ~prefix_len:(level * group) in
          if hi <= lo then missing else lo + Prng.Splitmix.int rng (hi - lo)))
    ids

let symphony_contacts ids rng ~k_n ~k_s =
  let n = Array.length ids in
  if k_n + k_s >= n then invalid_arg "Sparse: symphony degree exceeds node count";
  Array.init n (fun v ->
      Array.init (k_n + k_s) (fun i ->
          if i < k_n then (v + i + 1) mod n
          else (v + Prng.Splitmix.harmonic_int rng ~n:(n - 1)) mod n))

let record_group ~bits params =
  let h = List.assoc "h" params in
  let rec log2 g x = if x <= 1 then g else log2 (g + 1) (x lsr 1) in
  let group = log2 0 h in
  if bits mod group <> 0 then
    invalid_arg
      (Printf.sprintf "record: h=%d needs digit width %d to divide bits=%d" h group bits);
  group

let build ?(rng = Prng.Splitmix.create ~seed:0x5ea5) ~bits ~nodes geometry =
  if bits < 1 || bits > 30 then invalid_arg "Sparse.build: bits outside 1..30";
  let ids = sample_ids rng ~bits ~count:nodes in
  let contacts =
    match geometry with
    | Rcm.Geometry.Ring -> ring_contacts ~bits ids
    | Rcm.Geometry.Tree | Rcm.Geometry.Xor -> prefix_contacts ~bits ids rng
    | Rcm.Geometry.Symphony { k_n; k_s } -> symphony_contacts ids rng ~k_n ~k_s
    | Rcm.Geometry.Hypercube ->
        invalid_arg
          "Sparse.build: CAN's sparse form is a zone partition, not an id-subset overlay"
    | Rcm.Geometry.Custom { family = "record"; params } ->
        record_contacts ~bits ~group:(record_group ~bits params) ids rng
    | Rcm.Geometry.Custom { family; _ } ->
        invalid_arg
          (Printf.sprintf "Sparse.build: family %S has no registered sparse builder" family)
  in
  { bits; geometry; ids; contacts }

(* Greedy clockwise over ring-structured contacts (Chord fingers or
   Symphony links). *)
let route_ring ~on_hop t ~alive ~src ~dst =
  let id_dst = t.ids.(dst) in
  let rec step cur hops remaining =
    if remaining = 0 then Routing.Outcome.Delivered { hops }
    else begin
      let best = ref (-1) in
      let best_remaining = ref remaining in
      Array.iter
        (fun candidate ->
          if candidate <> missing && Overlay.Failure.get alive candidate then begin
            let after = Idspace.Id.ring_distance ~bits:t.bits t.ids.(candidate) id_dst in
            if after < !best_remaining then begin
              best := candidate;
              best_remaining := after
            end
          end)
        t.contacts.(cur);
      if !best < 0 then Routing.Outcome.Dropped { hops; stuck_at = cur }
      else begin
        on_hop !best;
        step !best (hops + 1) !best_remaining
      end
    end
  in
  step src 0 (Idspace.Id.ring_distance ~bits:t.bits t.ids.(src) id_dst)

(* Prefix routing: [`Xor] falls back to lower-order differing bits,
   [`Tree] must use the leading one. *)
let route_prefix ~on_hop ~mode t ~alive ~src ~dst =
  let bits = t.bits in
  let id_dst = t.ids.(dst) in
  let rec step cur hops =
    if cur = dst then Routing.Outcome.Delivered { hops }
    else begin
      let id_cur = t.ids.(cur) in
      let diff = Idspace.Id.xor_distance id_cur id_dst in
      let leading = bits - Idspace.Id.floor_log2 diff in
      let contacts = t.contacts.(cur) in
      let usable level =
        let candidate = contacts.(level - 1) in
        if candidate <> missing && Overlay.Failure.get alive candidate then Some candidate
        else None
      in
      let next =
        match mode with
        | `Tree -> usable leading
        | `Xor ->
            let rec try_level level =
              if level > bits then None
              else if Idspace.Id.get_bit ~bits diff level then
                match usable level with
                | Some _ as found -> found
                | None -> try_level (level + 1)
              else try_level (level + 1)
            in
            try_level leading
      in
      match next with
      | None -> Routing.Outcome.Dropped { hops; stuck_at = cur }
      | Some next ->
          on_hop next;
          step next (hops + 1)
    end
  in
  step src 0

(* ReCord: greedy digit correction with the xor-style fallback over
   lower differing digits. *)
let route_record ~on_hop ~group t ~alive ~src ~dst =
  let bits = t.bits in
  let b = 1 lsl group in
  let digits = bits / group in
  let id_dst = t.ids.(dst) in
  let rec step cur hops =
    if cur = dst then Routing.Outcome.Delivered { hops }
    else begin
      let id_cur = t.ids.(cur) in
      let contacts = t.contacts.(cur) in
      let leading =
        match Idspace.Digit.highest_differing ~bits ~group id_cur id_dst with
        | Some level -> level
        | None -> assert false (* ids are distinct *)
      in
      let rec try_level level =
        if level > digits then None
        else begin
          let own = Idspace.Digit.get ~bits ~group id_cur level in
          let want = Idspace.Digit.get ~bits ~group id_dst level in
          if own = want then try_level (level + 1)
          else begin
            let candidate = contacts.(((level - 1) * (b - 1)) + ((want - own + b) mod b) - 1) in
            if candidate <> missing && Overlay.Failure.get alive candidate then Some candidate
            else try_level (level + 1)
          end
        end
      in
      match try_level leading with
      | None -> Routing.Outcome.Dropped { hops; stuck_at = cur }
      | Some next ->
          on_hop next;
          step next (hops + 1)
    end
  in
  step src 0

(* Same per-node load accounting as the lane: one traversal per
   accepted hop, one termination where the walk ends. *)
let route ?(on_hop = ignore) t ~alive ~src ~dst =
  let count, finish =
    match Obs.Loadmap.sink () with
    | None -> (ignore, ignore)
    | Some lm ->
        ( Obs.Loadmap.record lm Obs.Loadmap.Route_traversal,
          Obs.Loadmap.record lm Obs.Loadmap.Route_termination )
  in
  let on_hop v =
    count v;
    on_hop v
  in
  let outcome =
    match t.geometry with
    | Rcm.Geometry.Ring | Rcm.Geometry.Symphony _ -> route_ring ~on_hop t ~alive ~src ~dst
    | Rcm.Geometry.Tree -> route_prefix ~on_hop ~mode:`Tree t ~alive ~src ~dst
    | Rcm.Geometry.Xor -> route_prefix ~on_hop ~mode:`Xor t ~alive ~src ~dst
    | Rcm.Geometry.Custom { family = "record"; params } ->
        route_record ~on_hop ~group:(record_group ~bits:t.bits params) t ~alive ~src ~dst
    | _ -> invalid_arg "Sparse_reference.route: no sparse router for this geometry"
  in
  (match outcome with
  | Routing.Outcome.Delivered _ -> finish dst
  | Routing.Outcome.Dropped { stuck_at; _ } -> finish stuck_at);
  outcome
