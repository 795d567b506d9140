(** Kademlia-style k-bucket tables: the level-i bucket of node v holds
    up to k distinct contacts matching v's first i-1 bits and differing
    on bit i (fewer when the identifier space has fewer candidates —
    deep buckets are inherently small).

    Buckets carry the maintenance discipline of real Kademlia
    implementations: contacts stay in least-recently-seen order (head
    at index 0, most recently seen at the tail), {!ping_evict} applies
    ping-before-evict to the head, and each bucket keeps a bounded
    replacement cache whose most-recently-seen entry is promoted when a
    dead head is evicted.

    The whole table is one flat store: an [n·bits·k] contact array
    with a per-bucket length array, and an [n·bits·cache_k] cache array
    with its own lengths. Maintenance ({!observe}, {!ping_evict},
    {!maintain}) shifts entries in place and allocates nothing; routing
    reads a bucket without copying it through {!contact_count} and
    {!contact}.

    Used by the replication experiments (A5) and the churn simulators;
    the basic single-contact tables live in {!Table}. *)

type t

type maintenance =
  | No_contact  (** The bucket is empty. *)
  | Refreshed of int  (** Live head, moved to the tail. *)
  | Evicted of { dead : int; promoted : int option }
      (** Dead head evicted; [promoted] is the replacement-cache entry
          appended at the tail, if the cache had one. *)

val build :
  ?rng:Prng.Splitmix.t -> ?cache_k:int -> bits:int -> k:int -> unit -> t
(** [cache_k] bounds each bucket's replacement cache (default [0]: no
    cache, matching the static experiments).
    @raise Invalid_argument when [k < 1] or [cache_k < 0]. *)

val space : t -> Idspace.Space.t
val bits : t -> int
val node_count : t -> int
val k : t -> int
val cache_k : t -> int

val capacity : t -> level:int -> int
(** [min k (2^(bits-level))] — the candidate-set bound on bucket size. *)

val bucket : t -> int -> int -> int array
(** [bucket t v level] is a copy of the contacts of [v]'s bucket for
    bit [level] (1-based from the MSB), least-recently-seen first.
    Mutating the returned array cannot affect the table.
    @raise Invalid_argument when the level is outside 1..bits. *)

val contact_count : t -> int -> int -> int
(** [contact_count t v level] is the number of contacts in [v]'s
    bucket for bit [level], without copying it.
    @raise Invalid_argument when the level is outside 1..bits. *)

val contact : t -> int -> int -> int -> int
(** [contact t v level i] is contact [i] of that bucket (0 = least
    recently seen), without copying it.
    @raise Invalid_argument when the level is outside 1..bits or [i]
    outside [0 .. contact_count t v level - 1]. *)

val cache : t -> int -> int -> int array
(** A copy of the bucket's replacement cache, oldest first. *)

val observe : t -> int -> int -> unit
(** [observe t v id] records that [v] heard from [id]: an existing
    contact moves to the tail; a new contact is appended when the
    bucket has room; otherwise it enters the replacement cache (whose
    oldest entry is dropped beyond [cache_k]). No-op when [v = id].
    @raise Invalid_argument when [id] is outside the space. *)

val ping_evict : t -> int -> level:int -> alive:(int -> bool) -> maintenance
(** One ping-before-evict step on the bucket head: a live head is
    refreshed to the tail; a dead head is evicted and the cache's
    most-recently-seen entry promoted in its place.
    @raise Invalid_argument when the level is outside 1..bits. *)

val maintain : t -> int -> alive:(int -> bool) -> unit
(** One {!ping_evict} pass over every bucket of node [v]. *)

val rebuild_bucket :
  ?alive:(int -> bool) -> t -> Prng.Splitmix.t -> int -> level:int -> unit
(** Redraws one bucket — a routing-table repair action under churn —
    and clears its replacement cache. With [?alive], each draw retries
    a dead candidate up to 8 times, preferring live contacts. *)

val invariant_violation : t -> string option
(** [None] when every bucket satisfies the structural invariants
    (distinct entries, correct bucket placement, no self-contact,
    capacity and cache bounds); otherwise a description of the first
    violation found. For tests. *)
