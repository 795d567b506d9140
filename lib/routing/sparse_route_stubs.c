/* Route lane for sparse overlays (Routing.Sparse_router): one whole
   route per call, over the sorted ids and the uniform-degree contact
   block of Overlay.Sparse.

   Why one route per call rather than blocks: the storage plane sends
   one message at a time — each read decides its next probe from the
   outcome of the last — so there are no independent routes to
   interleave. Why C: a hop in OCaml pays a closure over the contact
   row, an option per probed candidate and a bounds-checked bitset
   read per liveness probe; here it is a few loads and compares. The
   call allocates nothing, takes no lock and cannot raise (declared
   [@@noalloc]); the caller range-checked src, dst, the alive mask
   and the loadmap slices.

   Bit-identity contract (pinned by test/test_lanes.ml's qcheck
   differential against the reference routers in
   test/sparse_reference.ml, and test/test_sparse_golden.ml): each
   mode visits candidates in the reference router's order — or, for
   the clockwise mode, in an order-insensitive form proved equivalent
   below — so outcomes, hop counts, stuck nodes and loadmap counts are
   the reference's for every pair.

   Loadmap: trav[next] is bumped at every accepted hop and term[v] once
   where the walk ends (dst when delivered, the stuck node when
   dropped). A zero-length Bigarray decodes to NULL: telemetry off. */

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <stdint.h>

#define MODE_CLOCKWISE 0
#define MODE_LEADING_DIGIT 1
#define MODE_FIRST_ALIVE_DIGIT 2

static inline int alive_bit(const intnat *words, intnat v)
{
  return (int)((words[v >> 5] >> (v & 31)) & 1);
}

static inline intnat *loadmap_slice(value v)
{
  return Caml_ba_array_val(v)->dim[0] == 0 ? NULL
                                           : (intnat *)Caml_ba_data_val(v);
}

/* Greedy clockwise (Chord fingers, Symphony links): the next hop is the
   alive contact minimising the remaining clockwise id distance,
   strictly below the current one. Distinct nodes have distinct ids and
   so distinct distances, and a node listed twice has one distance: the
   minimiser is unique and equals the reference's first-scanned one in
   any scan order. So, as rcm_route_ring does for flat tables, the fast
   path computes every candidate's key by arithmetic and probes
   liveness lazily, best candidate first — ~1/(1-q) probes per hop
   instead of one per contact. Keys pack (after << 5) | slot into 32
   bits, which needs bits + 5 <= 32 and at most 32 slots; other rows
   take the eager scan. Missing slots (-1) never win. */
static inline intnat clockwise_hop(const int32_t *ids, const int32_t *row,
                                   const intnat *words, intnat deg, uint32_t id_dst,
                                   uint32_t mask, int fast, intnat *rem /* in/out */)
{
  if (fast) {
    uint32_t key[32];
    const uint32_t seed = (uint32_t)*rem << 5;
    for (intnat k = 0; k < deg; k++) {
      const int32_t cand = row[k];
      key[k] = cand < 0 ? UINT32_MAX
                        : (((id_dst - (uint32_t)ids[cand]) & mask) << 5) | (uint32_t)k;
    }
    for (;;) {
      uint32_t best = seed;
      for (intnat k = 0; k < deg; k++)
        if (key[k] < best)
          best = key[k];
      if (best >= seed)
        return -1;
      const intnat bi = best & 31;
      const intnat cand = row[bi];
      if (alive_bit(words, cand)) {
        *rem = (intnat)(best >> 5);
        return cand;
      }
      key[bi] = UINT32_MAX;
    }
  }
  const int64_t seed = (int64_t)*rem << 30;
  int64_t best = seed;
  for (intnat k = 0; k < deg; k++) {
    const intnat cand = row[k];
    if (cand < 0 || !alive_bit(words, cand))
      continue;
    const int64_t key =
        ((int64_t)((id_dst - (uint32_t)ids[cand]) & mask) << 30) | cand;
    if (key < best)
      best = key;
  }
  if (best >= seed)
    return -1;
  *rem = (intnat)(best >> 30);
  return (intnat)(best & 0x3FFFFFFF);
}

/* Bucket routing (tree, xor, ReCord): the candidates are the differing
   base-2^group digits of id_cur ^ id_dst, most significant first; the
   digit with index di from the low end sits at level digits - di, and
   the contact adding rank = (want - own) mod 2^group there is at slot
   (level - 1)(2^group - 1) + rank - 1. The first alive, non-missing
   one wins; without [fallback] (tree) only the leading digit is
   tried. Inlined per call site so that group = 1 (tree, xor: a digit
   is a bit, the rank is always 1) drops the per-candidate division. */
static inline __attribute__((always_inline)) intnat
digit_hop(const int32_t *row, const intnat *words, uint32_t id_cur, uint32_t id_dst,
          intnat bits, intnat group, int fallback)
{
  const uint32_t digit_mask = ((uint32_t)1 << group) - 1;
  const intnat digits = bits / group;
  uint32_t rem = id_cur ^ id_dst;
  do {
    const int p = 31 - __builtin_clz(rem);
    const intnat di = p / group;
    const int shift = (int)(di * group);
    const uint32_t rank = ((id_dst >> shift) - (id_cur >> shift)) & digit_mask;
    const intnat cand =
        row[(digits - 1 - di) * (intnat)digit_mask + (intnat)rank - 1];
    if (cand >= 0 && alive_bit(words, cand))
      return cand;
    rem &= ~(digit_mask << shift);
  } while (fallback && rem);
  return -1;
}

/* Returns (stuck + 1) << 31 | hops: stuck = -1 when delivered. Hops
   stay below 2^30 (every hop strictly shrinks a distance below 2^30)
   and stuck + 1 <= 2^30, so the packing fits an OCaml int. */
value rcm_sparse_route(value vids, value vcontacts, value vwords, value vdeg,
                       value vmode, value vbits, value vgroup, value vsrc,
                       value vdst, value vtrav, value vterm)
{
  const int32_t *ids = (const int32_t *)Caml_ba_data_val(vids);
  const int32_t *contacts = (const int32_t *)Caml_ba_data_val(vcontacts);
  const intnat *words = (const intnat *)Caml_ba_data_val(vwords);
  intnat *trav = loadmap_slice(vtrav), *term = loadmap_slice(vterm);
  const intnat deg = Long_val(vdeg), mode = Long_val(vmode);
  const intnat bits = Long_val(vbits), group = Long_val(vgroup);
  const intnat dst = Long_val(vdst);
  const uint32_t id_dst = (uint32_t)ids[dst];
  intnat cur = Long_val(vsrc), hops = 0, stuck = -1;
  if (mode == MODE_CLOCKWISE) {
    const uint32_t mask = (uint32_t)(((uint64_t)1 << bits) - 1);
    const int fast = bits + 5 <= 32 && deg <= 32;
    intnat rem = (intnat)((id_dst - (uint32_t)ids[cur]) & mask);
    while (rem != 0) {
      const intnat next =
          clockwise_hop(ids, contacts + cur * deg, words, deg, id_dst, mask, fast, &rem);
      if (next < 0) {
        stuck = cur;
        break;
      }
      cur = next;
      hops++;
      if (trav)
        trav[cur]++;
    }
  } else {
    const int fallback = mode == MODE_FIRST_ALIVE_DIGIT;
    while (cur != dst) {
      const int32_t *row = contacts + cur * deg;
      const intnat next =
          group == 1 ? digit_hop(row, words, (uint32_t)ids[cur], id_dst, bits, 1, fallback)
                     : digit_hop(row, words, (uint32_t)ids[cur], id_dst, bits, group, fallback);
      if (next < 0) {
        stuck = cur;
        break;
      }
      cur = next;
      hops++;
      if (trav)
        trav[cur]++;
    }
  }
  if (term)
    term[stuck < 0 ? dst : stuck]++;
  return Val_long(((stuck + 1) << 31) | hops);
}

value rcm_sparse_route_bc(value *argv, int argn)
{
  (void)argn;
  return rcm_sparse_route(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7], argv[8], argv[9], argv[10]);
}
