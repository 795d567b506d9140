(** Routing over sparse overlays ({!Overlay.Sparse}).

    Identical forwarding rules to the fully-populated routers, with
    distances measured on identifiers and empty bucket slots skipped.
    The overlay's {!Overlay.Sparse.lane} picks the rule: [Fingers] and
    [Harmonic] route greedy clockwise (the alive contact with the
    smallest remaining clockwise distance, strictly below the current
    one); [Buckets] correct the most significant differing
    base-2^group digit, and with [fallback] move on to the lower
    differing digits, in order, when that contact is dead or
    [missing]. One C call walks the whole route; the lanes draw no
    randomness. *)

val route :
  Overlay.Sparse.t -> alive:Overlay.Failure.t -> src:int -> dst:int -> Outcome.t
(** [src], [dst] and [stuck_at] are node *indexes*. With a loadmap
    sink installed ({!Obs.Loadmap.with_sink}), counts one
    [Route_traversal] per accepted hop (the node hopped to) and one
    [Route_termination] where the walk ends — [dst] when delivered,
    the stuck node when dropped; sink indexes are overlay indexes.
    @raise Invalid_argument when [src] or [dst] is not a node index,
    the alive mask does not cover exactly the overlay's nodes, or the
    installed sink's node count differs from the overlay's. *)
