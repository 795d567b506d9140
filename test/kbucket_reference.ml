(* The nested-array k-bucket store that Overlay.Kbucket's flat store
   replaces, kept verbatim in behaviour as the reference the flat store
   is diffed against (test_replication.ml): one record of two small
   arrays per bucket, every mutation copying through [Array.init], and
   a [Hashtbl] of drawn suffixes per sampled bucket. Kademlia-style
   k-buckets with the maintenance discipline of real implementations:
   contacts kept in least-recently-seen order (head at index 0, tail at
   the end), ping-before-evict on the head, and a bounded replacement
   cache whose most-recently-seen entry is promoted when a dead head is
   evicted. *)

type bucket = { mutable contacts : int array; mutable cache : int array }

type t = {
  space : Idspace.Space.t;
  k : int;
  cache_k : int;
  buckets : bucket array array;
}

type maintenance =
  | No_contact
  | Refreshed of int
  | Evicted of { dead : int; promoted : int option }

let space t = t.space

let bits t = Idspace.Space.bits t.space

let node_count t = Idspace.Space.size t.space

let k t = t.k

let cache_k t = t.cache_k

let capacity t ~level = min t.k (1 lsl (bits t - level))

let check_level t level =
  if level < 1 || level > bits t then
    invalid_arg "Kbucket.bucket: level outside 1..bits"

let unsafe_bucket t v level =
  check_level t level;
  t.buckets.(v).(level - 1).contacts

let bucket t v level = Array.copy (unsafe_bucket t v level)

let cache t v level =
  check_level t level;
  Array.copy t.buckets.(v).(level - 1).cache

(* All candidates for the level bucket of v share v's first level-1
   bits and differ on bit [level]; there are 2^(bits-level) of them.
   When the candidate set is small we enumerate it; otherwise we draw
   distinct random suffixes by rejection (k << candidates). With
   [?alive] a dead draw is retried up to 8 times before being accepted,
   so redraws under churn prefer live contacts without ever spinning on
   a mostly-dead population. *)
let sample_bucket ?alive space rng ~k v ~level =
  let bits = Idspace.Space.bits space in
  let base = Idspace.Id.flip_bit ~bits v level in
  let candidates = 1 lsl (bits - level) in
  if candidates <= k then
    Array.init candidates (fun suffix ->
        Idspace.Id.with_suffix ~bits base ~prefix_len:level ~suffix)
  else begin
    let is_alive id = match alive with None -> true | Some f -> f id in
    let chosen = Hashtbl.create k in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let rec draw attempts =
        let suffix = Prng.Splitmix.int rng candidates in
        if Hashtbl.mem chosen suffix then draw attempts
        else
          let id = Idspace.Id.with_suffix ~bits base ~prefix_len:level ~suffix in
          if attempts >= 8 || is_alive id then (suffix, id) else draw (attempts + 1)
      in
      let suffix, id = draw 0 in
      Hashtbl.add chosen suffix ();
      out.(!filled) <- id;
      incr filled
    done;
    out
  end

let build ?(rng = Prng.Splitmix.create ~seed:0xb0cce) ?(cache_k = 0) ~bits ~k () =
  if k < 1 then invalid_arg "Kbucket.build: k < 1";
  if cache_k < 0 then invalid_arg "Kbucket.build: cache_k < 0";
  let space = Idspace.Space.create ~bits in
  let node v =
    Array.init bits (fun i ->
        { contacts = sample_bucket space rng ~k v ~level:(i + 1); cache = [||] })
  in
  { space; k; cache_k; buckets = Array.init (Idspace.Space.size space) node }

let rebuild_bucket ?alive t rng v ~level =
  let b = t.buckets.(v).(level - 1) in
  b.contacts <- sample_bucket ?alive t.space rng ~k:t.k v ~level;
  b.cache <- [||]

let iter_contacts t v f =
  Array.iter (fun b -> Array.iter f b.contacts) t.buckets.(v)

let index_of a x =
  let n = Array.length a in
  let rec scan i = if i >= n then None else if a.(i) = x then Some i else scan (i + 1) in
  scan 0

(* Remove index i, keeping order. *)
let remove_at a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

let append a x =
  let n = Array.length a in
  Array.init (n + 1) (fun j -> if j < n then a.(j) else x)

let move_to_tail a i =
  let x = a.(i) in
  append (remove_at a i) x

let observe t v id =
  if v <> id then
    match Idspace.Id.highest_differing_bit ~bits:(bits t) v id with
    | None -> ()
    | Some level ->
        let b = t.buckets.(v).(level - 1) in
        (match index_of b.contacts id with
        | Some i -> b.contacts <- move_to_tail b.contacts i
        | None ->
            if Array.length b.contacts < capacity t ~level then
              b.contacts <- append b.contacts id
            else if t.cache_k > 0 then begin
              (match index_of b.cache id with
              | Some i -> b.cache <- move_to_tail b.cache i
              | None -> b.cache <- append b.cache id);
              if Array.length b.cache > t.cache_k then
                b.cache <- remove_at b.cache 0
            end)

let ping_evict t v ~level ~alive =
  check_level t level;
  let b = t.buckets.(v).(level - 1) in
  if Array.length b.contacts = 0 then No_contact
  else begin
    let head = b.contacts.(0) in
    if alive head then begin
      b.contacts <- move_to_tail b.contacts 0;
      Refreshed head
    end
    else begin
      let rest = remove_at b.contacts 0 in
      let promoted =
        let m = Array.length b.cache in
        if m = 0 then None
        else begin
          let candidate = b.cache.(m - 1) in
          b.cache <- remove_at b.cache (m - 1);
          Some candidate
        end
      in
      b.contacts <- (match promoted with None -> rest | Some c -> append rest c);
      Evicted { dead = head; promoted }
    end
  end

let maintain t v ~alive =
  for level = 1 to bits t do
    ignore (ping_evict t v ~level ~alive)
  done

let invariant_violation t =
  let d = bits t in
  let fail = ref None in
  let note msg = if !fail = None then fail := Some msg in
  let check_entry v level id =
    if id = v then note (Printf.sprintf "node %d level %d: contains self" v level)
    else
      match Idspace.Id.highest_differing_bit ~bits:d v id with
      | Some l when l = level -> ()
      | _ ->
          note
            (Printf.sprintf "node %d level %d: contact %d belongs to another bucket"
               v level id)
  in
  Array.iteri
    (fun v levels ->
      Array.iteri
        (fun i b ->
          let level = i + 1 in
          if Array.length b.contacts > capacity t ~level then
            note (Printf.sprintf "node %d level %d: over capacity" v level);
          if Array.length b.cache > t.cache_k then
            note (Printf.sprintf "node %d level %d: cache over bound" v level);
          let seen = Hashtbl.create 16 in
          let distinct id =
            if Hashtbl.mem seen id then
              note (Printf.sprintf "node %d level %d: duplicate %d" v level id)
            else Hashtbl.add seen id ()
          in
          Array.iter
            (fun id ->
              check_entry v level id;
              distinct id)
            b.contacts;
          Array.iter
            (fun id ->
              check_entry v level id;
              distinct id)
            b.cache)
        levels)
    t.buckets;
  !fail
