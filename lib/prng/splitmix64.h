/* SplitMix64 in C, draw-for-draw the OCaml Splitmix module.

   The C build lanes (lib/overlay/build_lanes_stubs.c) and routing
   drivers (lib/routing/route_batch_stubs.c) run the generator on an
   unboxed state that the caller reads with Splitmix.state and writes
   back with Splitmix.set_state, so every draw here must be the draw
   the OCaml code would have made at the same point of the stream.
   The state lives in the caller's frame: no static mutable state, so
   the functions are safe on any number of domains. */

#ifndef DHT_RCM_SPLITMIX64_H
#define DHT_RCM_SPLITMIX64_H

#include <stdint.h>

/* Splitmix.next_int64: one additive step, two xor-shift-multiply
   rounds. */
static inline uint64_t splitmix_next(uint64_t *state)
{
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/* Splitmix.int for bound >= 1, with limit = splitmix_limit(bound):
   draws above the limit are rejected and the first accepted one is
   reduced mod bound. A power-of-two bound divides 2^62, so its limit
   is max62 and the draw never rejects; the reduction is then a mask.
   The limit is a separate argument so that callers drawing many times
   against the same bounds compute it once. */
static inline uint64_t splitmix_limit(uint64_t bound)
{
  const uint64_t max62 = ((uint64_t)1 << 62) - 1;
  return max62 - ((max62 % bound) + 1) % bound;
}

static inline uint64_t splitmix_int(uint64_t *state, uint64_t bound, uint64_t limit)
{
  if ((bound & (bound - 1)) == 0)
    return (splitmix_next(state) >> 2) & (bound - 1);
  for (;;) {
    const uint64_t v = splitmix_next(state) >> 2;
    if (v <= limit)
      return v % bound;
  }
}

/* splitmix_int for a bound drawn against only once or twice, so that
   precomputing its limit does not pay: a 62-bit draw v <= max62 -
   bound is below every limit (the limit is at least max62 - bound +
   1), so the two divisions of splitmix_limit run only for the
   ~bound/2^62 of draws above that. Same accepted values, same
   rejections, same draw count as splitmix_int. */
static inline uint64_t splitmix_int_once(uint64_t *state, uint64_t bound)
{
  const uint64_t max62 = ((uint64_t)1 << 62) - 1;
  if ((bound & (bound - 1)) == 0)
    return (splitmix_next(state) >> 2) & (bound - 1);
  for (;;) {
    const uint64_t v = splitmix_next(state) >> 2;
    if (v <= max62 - bound || v <= splitmix_limit(bound))
      return v % bound;
  }
}

#endif
