type config = {
  geometry : Rcm.Geometry.t;
  bits : int;
  session : Lifetime.t;
  gap : Lifetime.t;
  maintenance_interval : float;
  k : int;
  cache_k : int;
  warmup : float;
  measurements : int;
  measurement_spacing : float;
  pairs_per_measurement : int;
  seed : int;
}

let config ?(bits = 10) ?(session = Lifetime.exponential ~mean:8.0)
    ?(gap = Lifetime.exponential ~mean:2.0) ?(maintenance_interval = 1.0) ?(k = 4)
    ?(cache_k = 4) ?(warmup = 20.0) ?(measurements = 5) ?(measurement_spacing = 2.0)
    ?(pairs_per_measurement = 800) ?(seed = 808) geometry =
  if maintenance_interval <= 0.0 then
    invalid_arg "Session_churn.config: maintenance interval must be positive";
  if k < 1 then invalid_arg "Session_churn.config: k < 1";
  if cache_k < 0 then invalid_arg "Session_churn.config: cache_k < 0";
  if measurements < 1 then invalid_arg "Session_churn.config: need at least one measurement";
  if warmup < 0.0 || measurement_spacing <= 0.0 then
    invalid_arg "Session_churn.config: bad measurement schedule";
  if pairs_per_measurement < 1 then
    invalid_arg "Session_churn.config: need at least one pair per measurement";
  if bits < 1 || bits > 30 then
    invalid_arg (Printf.sprintf "Session_churn.config: bits must be in 1..30 (got %d)" bits);
  (match geometry with
  | Rcm.Geometry.Custom { family; _ } ->
      if not (Churn_profile.registered ~family) then
        invalid_arg
          (Printf.sprintf
             "Session_churn.config: family %S has no registered churn profile" family);
      (* Resolving checks the family's constraints on [bits] (ReCord's
         digit width must divide it), so a bad width fails here rather
         than inside [run]. *)
      ignore (Churn_profile.resolve_exn "Session_churn.config" geometry ~bits)
  | _ -> ());
  {
    geometry;
    bits;
    session;
    gap;
    maintenance_interval;
    k;
    cache_k;
    warmup;
    measurements;
    measurement_spacing;
    pairs_per_measurement;
    seed;
  }

let churn_rate cfg = 1.0 /. (Lifetime.mean cfg.session +. Lifetime.mean cfg.gap)

let expected_availability cfg =
  Lifetime.mean cfg.session /. (Lifetime.mean cfg.session +. Lifetime.mean cfg.gap)

type measurement = {
  time : float;
  alive_fraction : float;
  stale_fraction : float;
  stale_near : float;
  stale_shortcut : float;
  routability : float option;
  static_prediction : float;
}

type report = {
  config : config;
  measurements : measurement list;
  mean_alive : float;
  mean_stale : float;
  mean_routability : float;
  mean_prediction : float;
  no_pair_measurements : int;
  events_processed : int;
}

(* Events are ints for the allocation-free queue: [v lsl 2 lor kind]. *)
let depart = 0

let arrive = 1

let maintain = 2

let measure_event = 3

(* The two table representations under churn: xor runs real Kademlia
   k-buckets with LRU maintenance; every other geometry owns a mutable
   neighbour matrix (ring fingers and tree/hypercube bit-links are
   deterministic — their "re-binding" on rejoin is to the same
   identifier, so they heal exactly when the target returns; symphony
   shortcuts are re-drawable). *)
type tables =
  | Buckets of Overlay.Kbucket.t
  | Matrix of { neighbors : int array array; table : Overlay.Table.t }

(* Alive-preferring redraw of a symphony shortcut (bounded rejection,
   as in Churn.refresh_entry). *)
let rec redraw_shortcut rng ~alive ~size v attempts =
  let candidate = (v + Prng.Splitmix.harmonic_int rng ~n:(size - 1)) land (size - 1) in
  if Overlay.Failure.get alive candidate || attempts >= 8 then candidate
  else redraw_shortcut rng ~alive ~size v (attempts + 1)

(* Stale fraction of the k-bucket overlay, counted against bucket
   *capacity*: a slot emptied by eviction is exactly as useless to the
   router as a dead contact, so missing entries count as stale. This
   keeps the static prediction at q = stale honest for tables that
   shrink under churn. *)
let bucket_staleness table ~alive =
  let bits = Overlay.Kbucket.bits table in
  let n = Overlay.Kbucket.node_count table in
  let stale = ref 0 and total = ref 0 in
  for v = 0 to n - 1 do
    if Overlay.Failure.get alive v then
      for level = 1 to bits do
        let capacity = Overlay.Kbucket.capacity table ~level in
        let count = Overlay.Kbucket.contact_count table v level in
        total := !total + capacity;
        stale := !stale + (capacity - count);
        for i = 0 to count - 1 do
          if not (Overlay.Failure.get alive (Overlay.Kbucket.contact table v level i)) then
            incr stale
        done
      done
  done;
  if !total = 0 then 0.0 else float_of_int !stale /. float_of_int !total

let matrix_staleness ~alive ~near_slots neighbors =
  let stale = [| 0; 0 |] in
  let total = [| 0; 0 |] in
  Array.iteri
    (fun v row ->
      if Overlay.Failure.get alive v then
        Array.iteri
          (fun slot target ->
            let cls = if slot < near_slots then 0 else 1 in
            total.(cls) <- total.(cls) + 1;
            if not (Overlay.Failure.get alive target) then stale.(cls) <- stale.(cls) + 1)
          row)
    neighbors;
  let fraction cls =
    if total.(cls) = 0 then 0.0
    else float_of_int stale.(cls) /. float_of_int total.(cls)
  in
  let overall =
    let t = total.(0) + total.(1) in
    if t = 0 then 0.0 else float_of_int (stale.(0) + stale.(1)) /. float_of_int t
  in
  (overall, fraction 0, fraction 1)

let measure cfg rng ~profile ~alive ~tables ~time =
  let n = 1 lsl cfg.bits in
  let pool = Overlay.Failure.survivors alive in
  let route src dst =
    match tables with
    | Buckets table ->
        Routing.Bucket_router.route ~mode:`Xor table ~alive ~src ~dst
    | Matrix { table; _ } -> Routing.Router.route table ~rng ~alive ~src ~dst
  in
  (* Fewer than two survivors: no pair exists, so no routability sample
     — never fabricate a zero. *)
  let routability =
    if Array.length pool < 2 then None
    else begin
      let delivered = ref 0 in
      for _ = 1 to cfg.pairs_per_measurement do
        let src, dst = Stats.Sampler.ordered_pair rng pool in
        if Routing.Outcome.is_delivered (route src dst) then incr delivered
      done;
      Some (float_of_int !delivered /. float_of_int cfg.pairs_per_measurement)
    end
  in
  let stale, stale_near, stale_shortcut =
    match tables with
    | Buckets table ->
        let s = bucket_staleness table ~alive in
        (s, s, s)
    | Matrix { neighbors; _ } ->
        let near_slots =
          match (cfg.geometry, profile) with
          | Rcm.Geometry.Symphony { k_n; _ }, _ -> k_n
          | _, Some p -> p.Churn_profile.near_slots
          | _, None -> 0
        in
        matrix_staleness ~alive ~near_slots neighbors
  in
  (* The churn-to-static bridge: evaluate the closed-form r(N,q) at
     q = the instantaneous stale fraction just measured. Xor uses the
     k-bucket form; Symphony the heterogeneous Eq. 7 with per-class
     staleness; custom families bring their own; the rest use the
     paper's basic model. *)
  let static_prediction =
    match cfg.geometry with
    | Rcm.Geometry.Xor -> Rcm.Replication.routability_xor ~d:cfg.bits ~q:stale ~k:cfg.k
    | Rcm.Geometry.Symphony { k_n; k_s } ->
        Rcm.Engine.routability
          (Rcm.Symphony.spec_heterogeneous ~q_near:stale_near ~k_n ~k_s)
          ~d:cfg.bits ~q:stale_shortcut
    | Rcm.Geometry.Custom _ ->
        let p = Option.get profile in
        p.Churn_profile.prediction ~bits:cfg.bits ~stale ~stale_near ~stale_shortcut
    | Rcm.Geometry.Tree | Rcm.Geometry.Hypercube | Rcm.Geometry.Ring ->
        Rcm.Model.routability cfg.geometry ~d:cfg.bits ~q:stale
  in
  {
    time;
    alive_fraction = float_of_int (Array.length pool) /. float_of_int n;
    stale_fraction = stale;
    stale_near;
    stale_shortcut;
    routability;
    static_prediction;
  }

(* A rejoining xor node rebuilds its own buckets (alive-preferring
   draws, caches cleared) and announces itself to the live contacts it
   just acquired — the announce is what seeds *their* buckets and
   replacement caches with the returned node, mirroring a real Kademlia
   bootstrap lookup. Announcing touches only the contacts' buckets, so
   reading v's own buckets while announcing is safe. *)
let rejoin_xor table rng ~alive ~is_alive v =
  let bits = Overlay.Kbucket.bits table in
  for level = 1 to bits do
    Overlay.Kbucket.rebuild_bucket ~alive:is_alive table rng v ~level
  done;
  for level = 1 to bits do
    for i = 0 to Overlay.Kbucket.contact_count table v level - 1 do
      let c = Overlay.Kbucket.contact table v level i in
      if Overlay.Failure.get alive c then Overlay.Kbucket.observe table c v
    done
  done

(* Redraws the re-drawable slots of [v]'s row ([from] up); with
   [~only_dead] only the slots whose target is down. Symphony draws a
   harmonic shortcut; a custom family draws through its profile. *)
let redraw_row rng ~profile ~alive ~neighbors ~size ~from ~only_dead v =
  let row = neighbors.(v) in
  for slot = from to Array.length row - 1 do
    if not (only_dead && Overlay.Failure.get alive row.(slot)) then
      row.(slot) <-
        (match profile with
        | Some p -> Churn_profile.redraw_alive p rng ~alive ~v ~slot
        | None -> redraw_shortcut rng ~alive ~size v 0)
  done

(* The first re-drawable slot of a matrix row, or [None] when the rows
   are deterministic (ring fingers, tree/hypercube bit-links re-bind to
   the same identifiers and are never redrawn). *)
let redrawable_from cfg ~profile =
  match (cfg.geometry, profile) with
  | Rcm.Geometry.Symphony { k_n; _ }, _ -> Some k_n
  | _, Some p -> Some p.Churn_profile.near_slots
  | _, None -> None

let rejoin_matrix cfg rng ~profile ~alive ~neighbors v =
  match redrawable_from cfg ~profile with
  | Some from ->
      redraw_row rng ~profile ~alive ~neighbors ~size:(1 lsl cfg.bits) ~from
        ~only_dead:false v
  | None -> ()

(* Maintenance tick for one live node. Xor: a ping-before-evict pass
   over every bucket (dead heads evicted, cache entries promoted), then
   one Kademlia-style bucket refresh on a rotating level — a fresh
   candidate is drawn and, when live, observed, which is how buckets
   emptied by eviction regain contacts once their cache has drained.
   Symphony and custom families: dead re-drawable entries are redrawn
   in place. *)
let maintain_node cfg rng ~profile ~alive ~is_alive ~tables ~refresh_level v =
  match tables with
  | Buckets table ->
      Overlay.Kbucket.maintain table v ~alive:is_alive;
      let bits = cfg.bits in
      let level = (refresh_level.(v) mod bits) + 1 in
      refresh_level.(v) <- refresh_level.(v) + 1;
      let base = Idspace.Id.flip_bit ~bits v level in
      let suffix = Prng.Splitmix.int rng (1 lsl (bits - level)) in
      let candidate = Idspace.Id.with_suffix ~bits base ~prefix_len:level ~suffix in
      if Overlay.Failure.get alive candidate then begin
        Overlay.Kbucket.observe table v candidate;
        Overlay.Kbucket.observe table candidate v
      end
  | Matrix { neighbors; _ } -> (
      match redrawable_from cfg ~profile with
      | Some from ->
          redraw_row rng ~profile ~alive ~neighbors ~size:(1 lsl cfg.bits) ~from
            ~only_dead:true v
      | None -> ())

let run cfg =
  let rng = Prng.Splitmix.create ~seed:cfg.seed in
  let n = 1 lsl cfg.bits in
  (* A custom family's profile, resolved once for the whole run. *)
  let profile =
    match cfg.geometry with
    | Rcm.Geometry.Custom _ ->
        Some (Churn_profile.resolve_exn "Session_churn.run" cfg.geometry ~bits:cfg.bits)
    | _ -> None
  in
  let tables =
    match cfg.geometry with
    | Rcm.Geometry.Xor ->
        Buckets (Overlay.Kbucket.build ~rng ~cache_k:cfg.cache_k ~bits:cfg.bits ~k:cfg.k ())
    | _ ->
        let base = Overlay.Table.build ~rng ~bits:cfg.bits cfg.geometry in
        let neighbors =
          Array.init n (fun v -> Array.copy (Overlay.Table.neighbors base v))
        in
        let table = Overlay.Table.of_neighbors ~bits:cfg.bits cfg.geometry neighbors in
        Matrix { neighbors; table }
  in
  let alive = Overlay.Failure.none n in
  let is_alive id = Overlay.Failure.get alive id in
  let refresh_level = Array.make n 0 in
  let queue = Event_queue.create () in
  let maintained =
    match (cfg.geometry, profile) with
    | (Rcm.Geometry.Symphony _ | Rcm.Geometry.Xor), _ -> true
    | _, Some p -> p.Churn_profile.maintained
    | _, None -> false
  in
  for v = 0 to n - 1 do
    Event_queue.add queue ~time:(Lifetime.draw cfg.session rng) ((v lsl 2) lor depart);
    if maintained then
      Event_queue.add queue
        ~time:(Prng.Splitmix.float rng *. cfg.maintenance_interval)
        ((v lsl 2) lor maintain)
  done;
  for i = 0 to cfg.measurements - 1 do
    Event_queue.add queue
      ~time:(cfg.warmup +. (float_of_int i *. cfg.measurement_spacing))
      measure_event
  done;
  let horizon = cfg.warmup +. (float_of_int cfg.measurements *. cfg.measurement_spacing) in
  let out = ref [] in
  let events = ref 0 in
  while (not (Event_queue.is_empty queue)) && Event_queue.top_time queue <= horizon do
    let time = Event_queue.top_time queue in
    let ev = Event_queue.take queue in
    let v = ev lsr 2 in
    let kind = ev land 3 in
    incr events;
    if kind = depart then begin
      Overlay.Failure.set alive v false;
      Event_queue.add queue ~time:(time +. Lifetime.draw cfg.gap rng) ((v lsl 2) lor arrive)
    end
    else if kind = arrive then begin
      Overlay.Failure.set alive v true;
      (match tables with
      | Buckets table -> rejoin_xor table rng ~alive ~is_alive v
      | Matrix { neighbors; _ } -> rejoin_matrix cfg rng ~profile ~alive ~neighbors v);
      Event_queue.add queue ~time:(time +. Lifetime.draw cfg.session rng) ((v lsl 2) lor depart)
    end
    else if kind = maintain then begin
      if Overlay.Failure.get alive v then
        maintain_node cfg rng ~profile ~alive ~is_alive ~tables ~refresh_level v;
      Event_queue.add queue ~time:(time +. cfg.maintenance_interval) ev
    end
    else out := measure cfg rng ~profile ~alive ~tables ~time :: !out
  done;
  let measurements = List.rev !out in
  let mean f =
    List.fold_left (fun acc m -> acc +. f m) 0.0 measurements
    /. float_of_int (List.length measurements)
  in
  let routable = List.filter_map (fun m -> m.routability) measurements in
  let mean_routability =
    match routable with
    | [] -> Float.nan
    | rs -> List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)
  in
  {
    config = cfg;
    measurements;
    mean_alive = mean (fun m -> m.alive_fraction);
    mean_stale = mean (fun m -> m.stale_fraction);
    mean_routability;
    mean_prediction = mean (fun m -> m.static_prediction);
    no_pair_measurements = List.length measurements - List.length routable;
    events_processed = !events;
  }

let pp_report ppf r =
  Fmt.pf ppf
    "%a d=%d session=%a gap=%a maintain=%.2f: alive %.3f, stale %.4f, routability %.4f (static @ q_stale: %.4f)"
    Rcm.Geometry.pp r.config.geometry r.config.bits Lifetime.pp r.config.session
    Lifetime.pp r.config.gap r.config.maintenance_interval r.mean_alive r.mean_stale
    r.mean_routability r.mean_prediction;
  if r.no_pair_measurements > 0 then
    Fmt.pf ppf " [%d measurement%s with no routable pairs]" r.no_pair_measurements
      (if r.no_pair_measurements = 1 then "" else "s")
