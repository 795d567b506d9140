(** Deterministic binary-heap event queue for discrete-event
    simulation, monomorphic and allocation-free per event.

    Each event is a float timestamp and an int payload: the churn
    engines pack a node and an event kind into one int
    ([v lsl 2 lor kind]). Timestamps live in a float array, insertion
    sequence numbers and payloads in int arrays, so adding and taking
    an event allocates no record, tuple or box. Events pop in
    (time, insertion sequence) order: equal timestamps pop in
    insertion order. The backing arrays grow by doubling and halve
    once they fall to a quarter full. *)

type t

val create : unit -> t

val add : t -> time:float -> int -> unit
(** @raise Invalid_argument on a nan timestamp. *)

val top_time : t -> float
(** Timestamp of the earliest event.
    @raise Invalid_argument when the queue is empty. *)

val take : t -> int
(** Removes the earliest event and returns its payload — read
    {!top_time} first for its timestamp.
    @raise Invalid_argument when the queue is empty. *)

val pop : t -> (float * int) option
(** [top_time] and [take] in one call, or [None] when empty. Allocates
    the pair: simulation loops use [top_time] and [take]. *)

val size : t -> int
val is_empty : t -> bool
