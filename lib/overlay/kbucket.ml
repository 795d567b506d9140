(* Kademlia-style k-buckets with the maintenance discipline of real
   implementations: contacts kept in least-recently-seen order (head at
   index 0, tail at the end), ping-before-evict on the head, and a
   bounded replacement cache whose most-recently-seen entry is promoted
   when a dead head is evicted.

   One flat store for the whole table. Bucket [b = v·bits + level - 1]
   owns slots [b·k .. b·k + k - 1] of [contacts], of which the first
   [lens.(b)] are live, and slots [b·cache_k ..] of [cache], of which
   the first [cache_lens.(b)] are live. Every maintenance step (LRU
   rotation, eviction, promotion, cache insert/drop) is an in-place
   shift inside those slots: nothing is allocated per step. *)

type t = {
  space : Idspace.Space.t;
  bits : int;
  k : int;
  cache_k : int;
  contacts : int array;
  lens : int array;
  cache : int array;
  cache_lens : int array;
}

type maintenance =
  | No_contact
  | Refreshed of int
  | Evicted of { dead : int; promoted : int option }

let space t = t.space

let bits t = t.bits

let node_count t = Idspace.Space.size t.space

let k t = t.k

let cache_k t = t.cache_k

let capacity t ~level = min t.k (1 lsl (t.bits - level))

let check_level t level =
  if level < 1 || level > t.bits then
    invalid_arg "Kbucket.bucket: level outside 1..bits"

(* Bucket index of (v, level); the level must already be checked. An
   out-of-range [v] makes the index out of range too, so the first
   array access raises. *)
let index t v level = (v * t.bits) + level - 1

let contact_count t v level =
  check_level t level;
  t.lens.(index t v level)

let contact t v level i =
  check_level t level;
  let b = index t v level in
  if i < 0 || i >= t.lens.(b) then invalid_arg "Kbucket.contact: index outside the bucket";
  t.contacts.((b * t.k) + i)

let bucket t v level =
  check_level t level;
  let b = index t v level in
  Array.sub t.contacts (b * t.k) t.lens.(b)

let cache t v level =
  check_level t level;
  let b = index t v level in
  Array.sub t.cache (b * t.cache_k) t.cache_lens.(b)

(* [a.(pos) .. a.(pos + len - 1)] move one slot left, onto [pos - 1]. *)
let shift_left a ~pos ~len =
  for j = pos to pos + len - 1 do
    Array.unsafe_set a (j - 1) (Array.unsafe_get a j)
  done

(* Offset of [x] in [a.(base) .. a.(base + len - 1)], or -1. *)
let find a ~base ~len x =
  let rec scan i = if i >= len then -1 else if a.(base + i) = x then i else scan (i + 1) in
  scan 0

(* All candidates for the level bucket of v share v's first level-1
   bits and differ on bit [level]; there are 2^(bits-level) of them.
   When the candidate set is small we enumerate it; otherwise we draw
   distinct random suffixes by rejection (k << candidates), checking a
   draw against the ids already taken — the same test as checking its
   suffix, since [with_suffix] is injective for a fixed base. With
   [?alive] a dead draw is retried up to 8 times before being accepted,
   so redraws under churn prefer live contacts without ever spinning on
   a mostly-dead population. Writes into bucket [b]'s slots and sets
   its length. *)
let rec draw_contact t rng alive ~out ~filled ~base ~level ~candidates attempts =
  let suffix = Prng.Splitmix.int rng candidates in
  let id = Idspace.Id.with_suffix ~bits:t.bits base ~prefix_len:level ~suffix in
  if find t.contacts ~base:out ~len:filled id >= 0 then
    draw_contact t rng alive ~out ~filled ~base ~level ~candidates attempts
  else if attempts >= 8 || match alive with None -> true | Some f -> f id then id
  else draw_contact t rng alive ~out ~filled ~base ~level ~candidates (attempts + 1)

let sample_bucket ?alive t rng b v ~level =
  let bits = t.bits in
  let base = Idspace.Id.flip_bit ~bits v level in
  let candidates = 1 lsl (bits - level) in
  let out = b * t.k in
  if candidates <= t.k then begin
    for suffix = 0 to candidates - 1 do
      t.contacts.(out + suffix) <-
        Idspace.Id.with_suffix ~bits base ~prefix_len:level ~suffix
    done;
    t.lens.(b) <- candidates
  end
  else begin
    for filled = 0 to t.k - 1 do
      t.contacts.(out + filled) <-
        draw_contact t rng alive ~out ~filled ~base ~level ~candidates 0
    done;
    t.lens.(b) <- t.k
  end

let build ?(rng = Prng.Splitmix.create ~seed:0xb0cce) ?(cache_k = 0) ~bits ~k () =
  if k < 1 then invalid_arg "Kbucket.build: k < 1";
  if cache_k < 0 then invalid_arg "Kbucket.build: cache_k < 0";
  let space = Idspace.Space.create ~bits in
  let buckets = Idspace.Space.size space * bits in
  let t =
    {
      space;
      bits;
      k;
      cache_k;
      contacts = Array.make (buckets * k) 0;
      lens = Array.make buckets 0;
      cache = Array.make (buckets * cache_k) 0;
      cache_lens = Array.make buckets 0;
    }
  in
  for v = 0 to Idspace.Space.size space - 1 do
    for level = 1 to bits do
      sample_bucket t rng (index t v level) v ~level
    done
  done;
  t

let rebuild_bucket ?alive t rng v ~level =
  check_level t level;
  let b = index t v level in
  sample_bucket ?alive t rng b v ~level;
  t.cache_lens.(b) <- 0

let observe t v id =
  if v <> id then begin
    if id < 0 || id >= node_count t then invalid_arg "Kbucket.observe: id outside the space";
    let level = t.bits - Idspace.Id.floor_log2 (v lxor id) in
    let b = index t v level in
    let base = b * t.k in
    let len = t.lens.(b) in
    let i = find t.contacts ~base ~len id in
    if i >= 0 then begin
      (* Seen again: move to the tail. *)
      shift_left t.contacts ~pos:(base + i + 1) ~len:(len - i - 1);
      t.contacts.(base + len - 1) <- id
    end
    else if len < capacity t ~level then begin
      t.contacts.(base + len) <- id;
      t.lens.(b) <- len + 1
    end
    else if t.cache_k > 0 then begin
      let cbase = b * t.cache_k in
      let m = t.cache_lens.(b) in
      let j = find t.cache ~base:cbase ~len:m id in
      if j >= 0 then begin
        shift_left t.cache ~pos:(cbase + j + 1) ~len:(m - j - 1);
        t.cache.(cbase + m - 1) <- id
      end
      else if m < t.cache_k then begin
        t.cache.(cbase + m) <- id;
        t.cache_lens.(b) <- m + 1
      end
      else begin
        (* Full: the oldest entry drops off the head. *)
        shift_left t.cache ~pos:(cbase + 1) ~len:(m - 1);
        t.cache.(cbase + m - 1) <- id
      end
    end
  end

(* The head of non-empty bucket [b] leaves the head slot: a live head
   rotates to the tail; a dead one is dropped and the cache's
   most-recently-seen entry, if any, takes the tail. *)
let pop_head t b ~head_alive =
  let base = b * t.k in
  let len = t.lens.(b) in
  let head = t.contacts.(base) in
  shift_left t.contacts ~pos:(base + 1) ~len:(len - 1);
  if head_alive then t.contacts.(base + len - 1) <- head
  else begin
    let m = t.cache_lens.(b) in
    if m = 0 then t.lens.(b) <- len - 1
    else begin
      t.contacts.(base + len - 1) <- t.cache.((b * t.cache_k) + m - 1);
      t.cache_lens.(b) <- m - 1
    end
  end

let ping_evict t v ~level ~alive =
  check_level t level;
  let b = index t v level in
  if t.lens.(b) = 0 then No_contact
  else begin
    let head = t.contacts.(b * t.k) in
    if alive head then begin
      pop_head t b ~head_alive:true;
      Refreshed head
    end
    else begin
      let m = t.cache_lens.(b) in
      let promoted = if m = 0 then None else Some t.cache.((b * t.cache_k) + m - 1) in
      pop_head t b ~head_alive:false;
      Evicted { dead = head; promoted }
    end
  end

let maintain t v ~alive =
  for level = 1 to t.bits do
    let b = index t v level in
    if t.lens.(b) > 0 then pop_head t b ~head_alive:(alive t.contacts.(b * t.k))
  done

let invariant_violation t =
  let d = t.bits in
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
  for v = 0 to node_count t - 1 do
    for level = 1 to d do
      let b = index t v level in
      if t.lens.(b) > capacity t ~level then
        note (Printf.sprintf "node %d level %d: over capacity" v level);
      if t.cache_lens.(b) > t.cache_k then
        note (Printf.sprintf "node %d level %d: cache over bound" v level);
      let seen = Hashtbl.create 16 in
      let distinct id =
        if Hashtbl.mem seen id then
          note (Printf.sprintf "node %d level %d: duplicate %d" v level id)
        else Hashtbl.add seen id ()
      in
      let entry id =
        check_entry v level id;
        distinct id
      in
      Array.iter entry (bucket t v level);
      Array.iter entry (cache t v level)
    done
  done;
  !fail
