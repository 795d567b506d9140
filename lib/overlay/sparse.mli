(** DHT overlays over *non-fully-populated* identifier spaces — the
    extension the paper's section 6 leaves as future work.

    [nodes] distinct identifiers are drawn uniformly from the 2^bits
    space; nodes are addressed by their index in the sorted id array.
    Constructions mirror the real sparse protocols: Chord fingers point
    at the clockwise successor of id + 2^i; Kademlia/Plaxton buckets
    draw a uniform occupied id from the matching prefix range (possibly
    [missing] when the range is empty); Symphony works on the circle of
    occupied positions. CAN is excluded: its sparse form is a
    zone partition, not an id subset.

    The overlay is two off-heap int32 Bigarrays — the sorted ids and
    one uniform-degree contact block — filled by C build lanes that
    consume the identical SplitMix64 stream as the OCaml reference
    construction (kept in [test/sparse_reference.ml]), and read
    directly by {!Routing.Sparse_router}'s C route lane. *)

type t

val missing : int
(** Sentinel (-1) for an empty bucket slot. *)

(** How an overlay is built and routed. Every sparse family is one of
    three shapes:
    - [Fingers]: Chord, degree [bits]; finger [i] of v is the successor
      of id_v + 2^i. Draws nothing. Routes greedy clockwise.
    - [Buckets {group; fallback}]: base-[2^group] prefix buckets, slot
      [(level - 1) * (2^group - 1) + rank - 1] for level
      [1 .. bits / group] (most significant digit first) and rank
      [1 .. 2^group - 1]: a uniform occupied index among the ids
      sharing v's first [level - 1] digits and holding v's digit +
      [rank] (mod [2^group]) at [level], one [Splitmix.int] draw per
      non-empty range, [missing] (no draw) for an empty one. Routes by
      the most significant differing digit; with [fallback], on to the
      lower differing digits when that contact is dead or missing.
      Tree is [group = 1] without fallback, xor [group = 1] with it,
      ReCord [group = log2 h] with it.
    - [Harmonic {near; shortcuts}]: Symphony on the circle of the n
      occupied positions; [near] successors, then [shortcuts] entries
      at a [Splitmix.harmonic_int ~n:(n - 1)] distance each. Routes
      greedy clockwise. *)
type lane =
  | Fingers
  | Buckets of { group : int; fallback : bool }
  | Harmonic of { near : int; shortcuts : int }

val build :
  ?rng:Prng.Splitmix.t -> bits:int -> nodes:int -> Rcm.Geometry.t -> t
(** Draws the ids, then the contacts in (node ascending, slot
    ascending) order.
    @raise Invalid_argument for [Hypercube], a custom geometry with no
    registered sparse builder, node counts outside 2..2^bits, bits
    outside 1..30, a digit width that does not divide [bits], or a
    Symphony degree of [nodes] or more. *)

type custom_builder = bits:int -> (string * int) list -> lane
(** A plugin family's sparse shape: called with the id-space width and
    the family parameters (after the ids are drawn); returns the lane
    that builds and routes its overlays. Raise [Invalid_argument] on
    parameters the family cannot build at [bits]. *)

val register_custom_builder : family:string -> custom_builder -> unit
(** Registers the sparse shape of a custom family. Call at module-init
    time from the plugin library.
    @raise Invalid_argument if the family is already registered. *)

val bits : t -> int
val geometry : t -> Rcm.Geometry.t
val node_count : t -> int

val lane : t -> lane
(** The shape the overlay was built with (what the router follows). *)

val degree : t -> int
(** Contacts per node (every row has the same count). *)

val occupancy : t -> float
(** nodes / 2^bits. *)

val id_of : t -> int -> int
(** The identifier of a node index.
    @raise Invalid_argument outside [0, node_count). *)

val index_of_id : t -> int -> int option

val contacts : t -> int -> int array
(** Contact *indexes* of a node (layout as in {!lane}), entries
    possibly [missing] for bucket lanes. A fresh copy.
    @raise Invalid_argument outside [0, node_count). *)

type ids = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

val ids : t -> ids
(** The sorted ids, off-heap, read-only by convention: index v holds
    [id_of t v]. *)

val contact_block : t -> Flat.targets
(** The contact block, off-heap, read-only by convention: node v's
    row is entries [v * degree .. (v + 1) * degree - 1]. *)

val successor_index : t -> int -> int
(** Index of the first node clockwise from an id (inclusive, with
    wraparound). *)

val lower_bound : t -> int -> int
(** First index whose id is >= the target; [node_count] when none. *)

val prefix_range : t -> pattern:int -> prefix_len:int -> int * int
(** Half-open index range of nodes sharing the prefix of [pattern]. *)

val sample_ids : Prng.Splitmix.t -> bits:int -> count:int -> int array
(** [count] distinct sorted ids, uniform over the space: the first
    [count] entries of a shuffle of the whole space when [2 * count >=
    2^bits], otherwise rejection draws until [count] distinct ids are
    seen.
    @raise Invalid_argument when [bits] is outside 1..30 or [count]
    outside 2..2^bits. *)
