/* Routing drivers for every built-in geometry and the digit-layout
   custom families, one call per pair block: lane drivers for the
   rng-free geometries (tree, digits = xor and ReCord, ring /
   symphony), a sequential sample-and-route driver for the hypercube,
   and the pair sampler the lanes' sample_and_route uses.

   Why C, and why whole blocks: at 2^20 nodes the CSR targets block is
   tens of MiB, so each hop is a dependent random load the hardware
   prefetchers cannot follow. Hiding that latency needs (a) many
   independent routes in flight with a software PREFETCH issued one
   round ahead of each lane's next row — prefetches retire immediately,
   while a discarded demand load would stall the reorder buffer on
   every miss and serialise the lanes again — and (b) so few
   instructions per hop that the out-of-order window always holds the
   next lanes' misses. (b) is what OCaml's codegen cannot deliver: the
   hop steps below lean on count-leading-zeros and conditional moves,
   and a per-hop foreign call would cost more than the hop. The
   hypercube router draws from the PRNG on every hop, so it cannot use
   lanes; in C it still runs SplitMix64 on an unboxed state, where
   OCaml's Splitmix boxes its int64 state on every draw. The geometry
   dispatch, validation, scratch ownership and metrics stay in OCaml —
   see route_batch.ml.

   Bit-identity contract (pinned by test/test_batch.ml and the CLI
   byte-identity checks): each driver visits candidates in exactly the
   scalar router's order — or in an order-insensitive form proved
   equivalent (ring, below) — and the lanes consume no randomness, so
   outcomes, hop counts and stuck nodes equal the scalar path's for
   every pair. The samplers draw exactly the scalar SplitMix64 sequence
   (splitmix64.h) and return the post-batch state.

   Memory discipline: every input and output is a Bigarray payload
   (off-heap, never moved), so each driver reads its data pointers,
   then releases the domain lock for the whole block. A block can run
   for tenths of a second, and a domain holding the lock in C would
   stall every other domain's stop-the-world minor collection until it
   returned; with the lock released, the domain's backup thread answers
   for it. The Bigarray arguments are registered as local roots, so
   their payloads stay alive while the lock is released. No
   allocation, callbacks or OCaml heap access happen in between. Every
   node id the drivers index by was range-checked by the caller.
   Results are written straight into the caller's scratch Bigarrays:
   hops_out[k] = hop count, stuck_out[k] = -1 when delivered or the
   stuck node id.

   Load telemetry (Obs.Loadmap): each driver also takes two per-node
   counter slices, trav and term, owned by the calling domain's loadmap
   shard. A zero-length Bigarray means "telemetry off" and decodes to
   NULL below, so the disabled path costs one well-predicted branch per
   hop. Counting points mirror the scalar Router hook exactly:
   trav[next] is bumped at every accepted hop (each node the message
   reaches after the source, including the final one) and term[v] once
   per pair where the walk ends — the destination when delivered, the
   stuck node when dropped. */

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <stdint.h>

#include "splitmix64.h"

/* Independent routes in flight per block. Enough that a full round of
   other lanes (each a handful of nanoseconds once rows are cached)
   covers one memory latency; small enough that the prefetched rows
   (<= 3 lines each) sit comfortably in L1. The ring hop is an order of
   magnitude fatter than the tree/xor single-candidate steps (it reads
   the whole row), so its optimum is fewer lanes — fat hops fill the
   out-of-order window quickly, and extra lanes only add L1 pressure —
   where the thin hops want more lanes in flight to cover the same
   latency. Both measured on 2^20-node tables. */
#define LANES 64
#define RING_LANES 24

static inline int alive_bit(const intnat *words, intnat v)
{
  return (int)((words[v >> 5] >> (v & 31)) & 1);
}

static inline intnat *ints(value v)
{
  return (intnat *)Caml_ba_data_val(v);
}

/* The Bigarray arguments every route driver shares, registered as
   local roots before the domain lock is released. */
#define ROUTE_ROOTS                                                            \
  CAMLparam5(vtargets, vwords, voffsets, vsrcs, vdsts);                        \
  CAMLxparam4(vhops_out, vstuck_out, vtrav, vterm)

/* Loadmap counter slice, or NULL when the zero-length "off" Bigarray
   was passed. */
static inline intnat *loadmap_slice(value v)
{
  return Caml_ba_array_val(v)->dim[0] == 0 ? NULL
                                           : (intnat *)Caml_ba_data_val(v);
}

/* Fetch of row [rs, re]: first, middle and last entry cover the <= 3
   cache lines a misaligned row of degree <= 32 can span. */
static inline void prefetch_row(const int32_t *targets, intnat rs, intnat re)
{
  __builtin_prefetch(targets + rs);
  __builtin_prefetch(targets + ((rs + re) >> 1));
  __builtin_prefetch(targets + re);
}

/* Row base: uniform tables (deg >= 0, every builder-produced block)
   use a multiply so the prefetch and the hop skip the offsets
   indirection; ragged tables (bidirectional Symphony via of_rows) fall
   back to the offsets array. */
static inline intnat row_base(const intnat *offsets, intnat deg, intnat v)
{
  return deg >= 0 ? v * deg : offsets[v];
}

static inline intnat row_limit(const intnat *offsets, intnat deg, intnat v,
                               intnat base)
{
  return deg >= 0 ? base + deg : offsets[v + 1];
}

#define TAKE_PAIR(m)                                  \
  do {                                                \
    intnat kk = next_pair++;                          \
    intnat src_ = srcs[kk];                           \
    lk[m] = kk;                                       \
    lcur[m] = src_;                                   \
    ldst[m] = dsts[kk];                               \
    lhops[m] = 0;                                     \
    if (src_ != ldst[m]) {                            \
      intnat rs_ = row_base(offsets, deg, src_);      \
      prefetch_row(targets, rs_,                      \
                   row_limit(offsets, deg, src_, rs_) - 1); \
    }                                                 \
  } while (0)

#define LANE_DONE(m)   \
  do {                 \
    lk[m] = -1;        \
    live--;            \
  } while (0)

/* stuck_val is -1 (delivered: the walk ended at the destination) or
   the stuck node id (dropped: it ended there). For the ring driver the
   delivered case fires at remaining distance 0, where lcur == ldst, so
   ldst[m] is the terminating node in every driver. */
#define FINISH(m, stuck_val)                            \
  do {                                                  \
    intnat stuck_ = (stuck_val);                        \
    hops_out[lk[m]] = lhops[m];                         \
    stuck_out[lk[m]] = stuck_;                          \
    if (term)                                           \
      term[stuck_ < 0 ? ldst[m] : stuck_]++;            \
    if (next_pair < n)                                  \
      TAKE_PAIR(m);                                     \
    else                                                \
      LANE_DONE(m);                                     \
  } while (0)

/* Tree (Plaxton, scalar Tree_router): the only useful neighbour is the
   one correcting the leftmost differing bit (table index
   [bits - 1 - floor_log2 diff]); dead means dropped. */
CAMLprim value rcm_route_tree(value vtargets, value vwords, value voffsets,
                              value vsrcs, value vdsts, value vn,
                              value vhops_out, value vstuck_out, value vbits,
                              value vdeg, value vtrav, value vterm)
{
  ROUTE_ROOTS;
  const int32_t *targets = (const int32_t *)Caml_ba_data_val(vtargets);
  const intnat *words = ints(vwords), *offsets = ints(voffsets);
  const intnat *srcs = ints(vsrcs), *dsts = ints(vdsts);
  intnat *hops_out = ints(vhops_out), *stuck_out = ints(vstuck_out);
  intnat *trav = loadmap_slice(vtrav), *term = loadmap_slice(vterm);
  intnat n = Long_val(vn), bits = Long_val(vbits), deg = Long_val(vdeg);
  intnat lk[LANES], lcur[LANES], ldst[LANES], lhops[LANES];
  intnat lanes = n < LANES ? n : LANES;
  intnat next_pair = 0, live = lanes;
  caml_enter_blocking_section();
  for (intnat m = 0; m < lanes; m++)
    TAKE_PAIR(m);
  while (live > 0) {
    for (intnat m = 0; m < lanes; m++) {
      if (lk[m] < 0)
        continue;
      intnat cur = lcur[m], dst = ldst[m];
      if (cur == dst) {
        FINISH(m, -1);
        continue;
      }
      intnat p = 63 - __builtin_clzl((unsigned long)(cur ^ dst));
      intnat rb = row_base(offsets, deg, cur);
      intnat next = targets[rb + bits - 1 - p];
      if (!alive_bit(words, next)) {
        FINISH(m, cur);
        continue;
      }
      lcur[m] = next;
      lhops[m]++;
      if (trav)
        trav[next]++;
      if (next != dst) {
        intnat rs = row_base(offsets, deg, next);
        prefetch_row(targets, rs, row_limit(offsets, deg, next, rs) - 1);
      }
    }
  }
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

CAMLprim value rcm_route_tree_bc(value *argv, int argn)
{
  (void)argn;
  return rcm_route_tree(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9], argv[10], argv[11]);
}

/* Digits (Kademlia XOR at group = 1, ReCord base-2^group digits at
   larger groups; scalar Xor_router and the record family's router):
   candidates are the differing base-2^group digits of [cur ^ dst],
   most significant first; the first alive contact wins. The digit
   with index di from the low end (its lowest bit at di * group) sits
   at level digits - di, and the contact adding rank = (want - own) mod
   2^group there at slot (level - 1)(2^group - 1) + rank - 1. The walk
   is inlined per call site so that group = 1 — a digit is a bit, the
   rank is always 1 and the slot is bits - 1 - p — is a compile-time
   constant for xor, as in fill_digits (build_lanes_stubs.c). */
static inline __attribute__((always_inline)) void
route_digits(const int32_t *targets, const intnat *words, const intnat *offsets,
             const intnat *srcs, const intnat *dsts, intnat n, intnat *hops_out,
             intnat *stuck_out, intnat bits, intnat group, intnat deg,
             intnat *trav, intnat *term)
{
  const uintnat digit_mask = ((uintnat)1 << group) - 1;
  const intnat digits = bits / group;
  /* Per highest-set-bit p: the digit index p / group, and the slot of
     rank 0 at that digit, so that slot = slot0[di] + rank. */
  uint8_t digit_of[64];
  intnat slot0[64];
  if (group > 1) {
    for (intnat p = 0; p < bits; p++)
      digit_of[p] = (uint8_t)(p / group);
    for (intnat di = 0; di < digits; di++)
      slot0[di] = (digits - 1 - di) * (intnat)digit_mask - 1;
  }
  intnat lk[LANES], lcur[LANES], ldst[LANES], lhops[LANES];
  intnat lanes = n < LANES ? n : LANES;
  intnat next_pair = 0, live = lanes;
  for (intnat m = 0; m < lanes; m++)
    TAKE_PAIR(m);
  while (live > 0) {
    for (intnat m = 0; m < lanes; m++) {
      if (lk[m] < 0)
        continue;
      intnat cur = lcur[m], dst = ldst[m];
      if (cur == dst) {
        FINISH(m, -1);
        continue;
      }
      intnat rb = row_base(offsets, deg, cur);
      unsigned long rem = (unsigned long)(cur ^ dst);
      intnat next = -1;
      do {
        intnat p = 63 - __builtin_clzl(rem);
        intnat slot;
        if (group == 1) {
          slot = bits - 1 - p;
          rem &= ~(1UL << p);
        } else {
          intnat di = digit_of[p];
          int shift = (int)(di * group);
          uintnat rank = (((uintnat)dst >> shift) - ((uintnat)cur >> shift)) & digit_mask;
          slot = slot0[di] + (intnat)rank;
          rem &= ~(digit_mask << shift);
        }
        intnat cand = targets[rb + slot];
        if (alive_bit(words, cand)) {
          next = cand;
          break;
        }
      } while (rem);
      if (next < 0) {
        FINISH(m, cur);
        continue;
      }
      lcur[m] = next;
      lhops[m]++;
      if (trav)
        trav[next]++;
      if (next != dst) {
        intnat rs = row_base(offsets, deg, next);
        prefetch_row(targets, rs, row_limit(offsets, deg, next, rs) - 1);
      }
    }
  }
}

CAMLprim value rcm_route_digits(value vtargets, value vwords, value voffsets,
                                value vsrcs, value vdsts, value vn,
                                value vhops_out, value vstuck_out, value vbits,
                                value vgroup, value vdeg, value vtrav,
                                value vterm)
{
  ROUTE_ROOTS;
  const int32_t *targets = (const int32_t *)Caml_ba_data_val(vtargets);
  const intnat *words = ints(vwords), *offsets = ints(voffsets);
  const intnat *srcs = ints(vsrcs), *dsts = ints(vdsts);
  intnat *hops_out = ints(vhops_out), *stuck_out = ints(vstuck_out);
  intnat *trav = loadmap_slice(vtrav), *term = loadmap_slice(vterm);
  intnat n = Long_val(vn), bits = Long_val(vbits), group = Long_val(vgroup);
  intnat deg = Long_val(vdeg);
  caml_enter_blocking_section();
  if (group == 1)
    route_digits(targets, words, offsets, srcs, dsts, n, hops_out, stuck_out,
                 bits, 1, deg, trav, term);
  else
    route_digits(targets, words, offsets, srcs, dsts, n, hops_out, stuck_out,
                 bits, group, deg, trav, term);
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

CAMLprim value rcm_route_digits_bc(value *argv, int argn)
{
  (void)argn;
  return rcm_route_digits(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7], argv[8], argv[9], argv[10], argv[11],
                          argv[12]);
}

/* Ring and Symphony (scalar Greedy_ring): greedy clockwise, next hop =
   the unique minimiser of the remaining clockwise distance over the
   alive contacts strictly closer than the current node. Distances of
   distinct candidates are pairwise distinct, so the strict min is
   unique and equals the scalar router's first-scanned minimiser no
   matter in which order candidates are examined.

   That order-independence is what makes the hop cheap. The expensive
   part of a naive scan is not the row (cache-resident after the lane
   prefetch) but the per-candidate liveness probe — a dependent
   random-index load into the bitset for every contact. Instead, the
   fast path computes all candidate keys with pure arithmetic, then
   probes liveness lazily, best candidate first: at failure fraction q
   that is 1/(1-q) probes per hop (~1.2 at q=0.2) instead of [degree].
   Keys pack [(after << 5) | slot] into 32 bits so the min-reduction
   runs branch-free (conditional moves, vectorizable); that needs
   [bits + 5 <= 32] and at most 32 slots, which covers every practical
   table — wider rows or deeper id spaces take the eager path. */

static inline intnat ring_hop_fast(const int32_t *row, const intnat *words,
                                   intnat deg, intnat dst, intnat mask,
                                   intnat *rem /* in/out */)
{
  uint32_t key[32];
  uint32_t seed = (uint32_t)*rem << 5;
  for (intnat k = 0; k < deg; k++) {
    uint32_t cand = (uint32_t)row[k];
    key[k] = ((((uint32_t)dst - cand) & (uint32_t)mask) << 5) | (uint32_t)k;
  }
  for (;;) {
    uint32_t best = seed;
    for (intnat k = 0; k < deg; k++)
      if (key[k] < best)
        best = key[k];
    if (best >= seed)
      return -1;
    intnat bi = best & 31;
    intnat cand = row[bi];
    if (alive_bit(words, cand)) {
      *rem = (intnat)(best >> 5);
      return cand;
    }
    key[bi] = UINT32_MAX;
  }
}

static inline intnat ring_hop_eager(const int32_t *row, const intnat *words,
                                    intnat deg, intnat dst, intnat mask,
                                    intnat *rem /* in/out */)
{
  int64_t seed = (int64_t)*rem << 30;
  int64_t best = seed;
  for (intnat k = 0; k < deg; k++) {
    intnat cand = row[k];
    int64_t key = ((int64_t)((dst - cand) & mask) << 30) | cand;
    if (!alive_bit(words, cand))
      key = INT64_MAX;
    if (key < best)
      best = key;
  }
  if (best >= seed)
    return -1;
  *rem = (intnat)(best >> 30);
  return (intnat)(best & 0x3FFFFFFF);
}

CAMLprim value rcm_route_ring(value vtargets, value vwords, value voffsets,
                              value vsrcs, value vdsts, value vn,
                              value vhops_out, value vstuck_out, value vmask,
                              value vdeg, value vtrav, value vterm)
{
  ROUTE_ROOTS;
  const int32_t *targets = (const int32_t *)Caml_ba_data_val(vtargets);
  const intnat *words = ints(vwords), *offsets = ints(voffsets);
  const intnat *srcs = ints(vsrcs), *dsts = ints(vdsts);
  intnat *hops_out = ints(vhops_out), *stuck_out = ints(vstuck_out);
  intnat *trav = loadmap_slice(vtrav), *term = loadmap_slice(vterm);
  intnat n = Long_val(vn), mask = Long_val(vmask), deg = Long_val(vdeg);
  int shallow = mask < (1 << 27);
  intnat lk[RING_LANES], lcur[RING_LANES], ldst[RING_LANES], lhops[RING_LANES], lrem[RING_LANES];
  intnat lanes = n < RING_LANES ? n : RING_LANES;
  intnat next_pair = 0, live = lanes;
  caml_enter_blocking_section();
  for (intnat m = 0; m < lanes; m++) {
    TAKE_PAIR(m);
    lrem[m] = (ldst[m] - lcur[m]) & mask;
  }
  while (live > 0) {
    for (intnat m = 0; m < lanes; m++) {
      if (lk[m] < 0)
        continue;
      if (lrem[m] == 0) {
        FINISH(m, -1);
        lrem[m] = (ldst[m] - lcur[m]) & mask;
        continue;
      }
      intnat cur = lcur[m], dst = ldst[m];
      intnat rb = row_base(offsets, deg, cur);
      intnat rdeg = row_limit(offsets, deg, cur, rb) - rb;
      intnat rem = lrem[m];
      intnat next = (shallow && rdeg <= 32)
                        ? ring_hop_fast(targets + rb, words, rdeg, dst, mask,
                                        &rem)
                        : ring_hop_eager(targets + rb, words, rdeg, dst, mask,
                                         &rem);
      if (next < 0) {
        FINISH(m, cur);
        lrem[m] = (ldst[m] - lcur[m]) & mask;
        continue;
      }
      lcur[m] = next;
      lrem[m] = rem;
      lhops[m]++;
      if (trav)
        trav[next]++;
      if (rem != 0) {
        intnat rs = row_base(offsets, deg, next);
        prefetch_row(targets, rs, row_limit(offsets, deg, next, rs) - 1);
      }
    }
  }
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

CAMLprim value rcm_route_ring_bc(value *argv, int argn)
{
  (void)argn;
  return rcm_route_ring(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9], argv[10], argv[11]);
}

/* Hypercube (CAN, scalar Hypercube_router): a uniform reservoir over
   the alive neighbours correcting a differing bit — scan the set bits
   of [cur ^ dst] lowest-first and replace the choice when
   Splitmix.int seen = 0, seen counting the alive candidates so far.
   The router draws on every hop, so pairs cannot be interleaved across
   lanes: the drivers below route one pair at a time, in pair order, on
   one unboxed SplitMix64 state, and return the post-batch state for
   the caller to hand back with Splitmix.set_state. Traversals are
   counted at the accepted hop (the reservoir winner), terminations
   where the walk ends. */
static inline __attribute__((always_inline)) void
hypercube_pair(const int32_t *targets, const intnat *words, const intnat *offsets,
               intnat bits, intnat deg, intnat *trav, intnat *term, intnat src,
               intnat dst, intnat *hops_out, intnat *stuck_out,
               const uint64_t *limit, uint64_t *state)
{
  intnat cur = src, hops = 0;
  while (cur != dst) {
    const int32_t *row = targets + row_base(offsets, deg, cur);
    unsigned long rem = (unsigned long)(cur ^ dst);
    intnat chosen = -1;
    uint64_t seen = 0;
    do {
      intnat cand = row[bits - 1 - __builtin_ctzl(rem)];
      rem &= rem - 1;
      if (!alive_bit(words, cand))
        continue;
      seen++;
      if (splitmix_int(state, seen, limit[seen]) == 0)
        chosen = cand;
    } while (rem);
    if (chosen < 0) {
      *hops_out = hops;
      *stuck_out = cur;
      if (term)
        term[cur]++;
      return;
    }
    cur = chosen;
    hops++;
    if (trav)
      trav[cur]++;
  }
  *hops_out = hops;
  *stuck_out = -1;
  if (term)
    term[dst]++;
}

/* The reservoir bound [seen] never exceeds [bits] (one candidate per
   differing bit), so each driver computes the rejection limits of
   bounds 1..bits once per batch instead of once per draw. */
static void hypercube_limits(uint64_t *limit, intnat bits)
{
  for (intnat b = 1; b <= bits; b++)
    limit[b] = splitmix_limit((uint64_t)b);
}

/* Route_batch.route_many: pair k is (srcs[k], dsts[k]). */
int64_t rcm_route_hypercube(value vtargets, value vwords, value voffsets,
                            value vsrcs, value vdsts, value vn, value vhops_out,
                            value vstuck_out, value vbits, value vdeg,
                            value vtrav, value vterm, int64_t vstate)
{
  ROUTE_ROOTS;
  const int32_t *targets = (const int32_t *)Caml_ba_data_val(vtargets);
  const intnat *words = ints(vwords), *offsets = ints(voffsets);
  const intnat *srcs = ints(vsrcs), *dsts = ints(vdsts);
  intnat *hops_out = ints(vhops_out), *stuck_out = ints(vstuck_out);
  intnat *trav = loadmap_slice(vtrav), *term = loadmap_slice(vterm);
  intnat n = Long_val(vn), bits = Long_val(vbits), deg = Long_val(vdeg);
  uint64_t state = (uint64_t)vstate, limit[64];
  hypercube_limits(limit, bits);
  caml_enter_blocking_section();
  for (intnat k = 0; k < n; k++)
    hypercube_pair(targets, words, offsets, bits, deg, trav, term, srcs[k],
                   dsts[k], hops_out + k, stuck_out + k, limit, &state);
  caml_leave_blocking_section();
  CAMLreturnT(int64_t, (int64_t)state);
}

CAMLprim value rcm_route_hypercube_bc(value *argv, int argn)
{
  (void)argn;
  return caml_copy_int64(rcm_route_hypercube(
      argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
      argv[8], argv[9], argv[10], argv[11], Int64_val(argv[12])));
}

/* Pair sampling for Route_batch.sample_and_route, draw-for-draw
   Stats.Sampler.ordered_pair on pool indices: i = Splitmix.int npool,
   then j = Splitmix.int npool until j <> i. [limit] is
   splitmix_limit(npool). */
static inline void ordered_pair(uint64_t *state, uint64_t npool, uint64_t limit,
                                uint64_t *i, uint64_t *j)
{
  *i = splitmix_int(state, npool, limit);
  do
    *j = splitmix_int(state, npool, limit);
  while (*j == *i);
}

/* The hypercube routes each pair before the next is drawn, so sampling
   and forwarding draws interleave as in the scalar trial loop. */
int64_t rcm_sample_route_hypercube(value vtargets, value vwords, value voffsets,
                                   value vpool, value vnpool, value vpairs,
                                   value vhops_out, value vstuck_out, value vbits,
                                   value vdeg, value vtrav, value vterm,
                                   int64_t vstate)
{
  CAMLparam5(vtargets, vwords, voffsets, vpool, vhops_out);
  CAMLxparam3(vstuck_out, vtrav, vterm);
  const int32_t *targets = (const int32_t *)Caml_ba_data_val(vtargets);
  const intnat *words = ints(vwords), *offsets = ints(voffsets);
  const intnat *pool = ints(vpool);
  intnat *hops_out = ints(vhops_out), *stuck_out = ints(vstuck_out);
  intnat *trav = loadmap_slice(vtrav), *term = loadmap_slice(vterm);
  intnat pairs = Long_val(vpairs), bits = Long_val(vbits), deg = Long_val(vdeg);
  const uint64_t npool = (uint64_t)Long_val(vnpool);
  const uint64_t pool_limit = splitmix_limit(npool);
  uint64_t state = (uint64_t)vstate, limit[64], i, j;
  hypercube_limits(limit, bits);
  caml_enter_blocking_section();
  for (intnat k = 0; k < pairs; k++) {
    ordered_pair(&state, npool, pool_limit, &i, &j);
    hypercube_pair(targets, words, offsets, bits, deg, trav, term, pool[i],
                   pool[j], hops_out + k, stuck_out + k, limit, &state);
  }
  caml_leave_blocking_section();
  CAMLreturnT(int64_t, (int64_t)state);
}

CAMLprim value rcm_sample_route_hypercube_bc(value *argv, int argn)
{
  (void)argn;
  return caml_copy_int64(rcm_sample_route_hypercube(
      argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
      argv[8], argv[9], argv[10], argv[11], Int64_val(argv[12])));
}

/* The lanes draw nothing while routing, so all their pairs are drawn
   up front: pair k lands in srcs[k], dsts[k]. */
int64_t rcm_sample_pairs(value vpool, value vnpool, value vpairs, value vsrcs,
                         value vdsts, int64_t vstate)
{
  CAMLparam3(vpool, vsrcs, vdsts);
  const intnat *pool = ints(vpool);
  intnat *srcs = ints(vsrcs), *dsts = ints(vdsts);
  intnat pairs = Long_val(vpairs);
  const uint64_t npool = (uint64_t)Long_val(vnpool);
  const uint64_t pool_limit = splitmix_limit(npool);
  uint64_t state = (uint64_t)vstate, i, j;
  caml_enter_blocking_section();
  for (intnat k = 0; k < pairs; k++) {
    ordered_pair(&state, npool, pool_limit, &i, &j);
    srcs[k] = pool[i];
    dsts[k] = pool[j];
  }
  caml_leave_blocking_section();
  CAMLreturnT(int64_t, (int64_t)state);
}

CAMLprim value rcm_sample_pairs_bc(value *argv, int argn)
{
  (void)argn;
  return caml_copy_int64(rcm_sample_pairs(argv[0], argv[1], argv[2], argv[3],
                                          argv[4], Int64_val(argv[5])));
}
