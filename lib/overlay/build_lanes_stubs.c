/* Build lanes: fill a uniform-degree CSR block, a sparse overlay, or
   a failure mask, in one C call per build.

   Why C: the closure fill of Flat.init pays, per table entry, an
   indirect call, the Digit/Id argument re-validation, and — for the
   randomized geometries — a boxed int64 PRNG state plus two hardware
   divisions inside Splitmix.int. At 2^18 nodes and ~20 entries per
   node that is most of a simulate run. A lane computes the same
   entries with shifts and masks and runs SplitMix64 inline on an
   unboxed state. The sparse lanes (Overlay.Sparse) also replace the
   per-entry binary searches over the sorted ids with sweeps and
   per-level range caches.

   Bit-identity contract (pinned by test/test_lanes.ml's lane-vs-entry
   and lane-vs-reference matrices, test/test_sparse_golden.ml and
   scripts/batch_smoke.sh's classic-vs-flat CLI diff): each lane writes
   exactly the entries the OCaml reference construction of its
   geometry returns, consumes exactly the same SplitMix64 draws in the
   same (v ascending, slot ascending) order, and returns the post-build
   state so the caller's generator continues the same stream:

   - Splitmix.int with a power-of-two bound 2^k never rejects, so each
     bounded draw is (next >> 2) & (2^k - 1); other bounds go through
     splitmix64.h's rejection branch;
   - Splitmix.float is (next >> 11) * 2^-53, and harmonic_int is
     (int) exp (u * log (n + 1)) clamped to [1, n], with the same libm
     exp and log as OCaml's. This file must be compiled without
     -ffast-math and without floating-point contraction (see dune).

   Every flat target still passes Flat's range check ([0, nodes)),
   raising the same Invalid_argument shape as Flat.init.

   Memory discipline: every input and output is a Bigarray payload
   (off-heap, never moved) registered as a local root, so each lane
   reads its data pointers and then releases the domain lock for the
   whole fill — a d=20 build runs for tenths of a second, and a domain
   holding the lock in C would stall every other domain's
   stop-the-world minor collection until it returned. No OCaml
   allocation, callback or heap access happens while the lock is
   released; an out-of-range target or a failed scratch allocation is
   only recorded there and raised after the lock is taken back. */

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#include "splitmix64.h"

/* No target was out of range. Lane targets are never negative, so -1
   cannot collide with a recorded one. */
#define TARGETS_OK ((intnat)-1)

static void out_of_range(intnat u, intnat nodes)
{
  caml_invalid_argument_value(caml_alloc_sprintf(
      "Flat.of_lane: neighbour %ld outside [0, %ld)", (long)u, (long)nodes));
}

/* Call with the domain lock held again: raises on a recorded
   out-of-range target. */
static void check_fill(intnat bad, intnat nodes)
{
  if (bad != TARGETS_OK)
    out_of_range(bad, nodes);
}

/* The same unsigned comparison covers u < 0 and u >= nodes. Inside a
   fill (lock released) the first bad target is returned, and the
   caller raises once it holds the lock again. */
#define CHECK_TARGET(u, nodes)                                                 \
  do {                                                                         \
    if ((uintnat)(u) >= (uintnat)(nodes))                                      \
      return (intnat)(u);                                                      \
  } while (0)

/* Digits {group; draw}: slot (level, rank), level 1..bits/group most
   significant digit first, rank 1..2^group - 1. The entry adds rank
   (mod 2^group) to v's digit at that level and, when [draw], replaces
   every lower-order bit with one Splitmix.int (2^bits) draw. group = 1
   without a draw is the tree/hypercube flip of bit i + 1; group = 1
   with a draw is the xor bucket contact; larger groups are ReCord.
   The fill loop is inlined per call site below, so that group = 1 and
   [draw] are compile-time constants for the three built-in uses. */
static inline __attribute__((always_inline)) intnat
fill_digits(intnat *offsets, int32_t *targets, intnat bits, intnat group, int draw,
            uint64_t *state)
{
  const intnat nodes = (intnat)1 << bits;
  const uintnat digit_mask = ((uintnat)1 << group) - 1;
  const intnat digits = bits / group;
  intnat k = 0;
  for (intnat v = 0; v < nodes; v++) {
    offsets[v] = k;
    for (intnat level = 1; level <= digits; level++) {
      const int shift = (int)(bits - level * group);
      const uintnat low = ((uintnat)1 << shift) - 1;
      const uintnat own = ((uintnat)v >> shift) & digit_mask;
      const uintnat cleared = (uintnat)v & ~(digit_mask << shift);
      for (uintnat rank = 1; rank <= digit_mask; rank++) {
        uintnat u = cleared | (((own + rank) & digit_mask) << shift);
        if (draw)
          u = (u & ~low) | ((splitmix_next(state) >> 2) & low);
        CHECK_TARGET(u, nodes);
        targets[k++] = (int32_t)u;
      }
    }
  }
  offsets[nodes] = k;
  return TARGETS_OK;
}

CAMLprim value rcm_lane_digits(value v_offsets, value v_targets, value v_bits,
                               value v_group, value v_draw, value v_state)
{
  CAMLparam5(v_offsets, v_targets, v_bits, v_group, v_draw);
  CAMLxparam1(v_state);
  intnat *offsets = (intnat *)Caml_ba_data_val(v_offsets);
  int32_t *targets = (int32_t *)Caml_ba_data_val(v_targets);
  const intnat bits = Long_val(v_bits);
  const intnat group = Long_val(v_group);
  const int draw = Bool_val(v_draw);
  uint64_t state = (uint64_t)Int64_val(v_state);
  intnat bad;
  caml_enter_blocking_section();
  if (group == 1 && !draw)
    bad = fill_digits(offsets, targets, bits, 1, 0, &state);
  else if (group == 1)
    bad = fill_digits(offsets, targets, bits, 1, 1, &state);
  else if (draw)
    bad = fill_digits(offsets, targets, bits, group, 1, &state);
  else
    bad = fill_digits(offsets, targets, bits, group, 0, &state);
  caml_leave_blocking_section();
  check_fill(bad, (intnat)1 << bits);
  CAMLreturn(caml_copy_int64((int64_t)state));
}

CAMLprim value rcm_lane_digits_byte(value *argv, int argn)
{
  (void)argn;
  return rcm_lane_digits(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* Offsets: entry i of every node is v + steps[i] on the ring — Chord
   fingers (2^i) and the successor lists appended to them. Draws
   nothing. The steps arrive as an int Bigarray, so they stay readable
   with the lock released. */
static intnat fill_offsets(intnat *offsets, int32_t *targets, intnat bits,
                           const intnat *steps, intnat degree)
{
  const intnat nodes = (intnat)1 << bits;
  const uintnat mask = (uintnat)nodes - 1;
  intnat k = 0;
  for (intnat v = 0; v < nodes; v++) {
    offsets[v] = k;
    for (intnat i = 0; i < degree; i++) {
      const uintnat u = ((uintnat)v + (uintnat)steps[i]) & mask;
      CHECK_TARGET(u, nodes);
      targets[k++] = (int32_t)u;
    }
  }
  offsets[nodes] = k;
  return TARGETS_OK;
}

CAMLprim value rcm_lane_offsets(value v_offsets, value v_targets, value v_bits,
                                value v_steps)
{
  CAMLparam4(v_offsets, v_targets, v_bits, v_steps);
  intnat *offsets = (intnat *)Caml_ba_data_val(v_offsets);
  int32_t *targets = (int32_t *)Caml_ba_data_val(v_targets);
  const intnat bits = Long_val(v_bits);
  const intnat *steps = (const intnat *)Caml_ba_data_val(v_steps);
  const intnat degree = Caml_ba_array_val(v_steps)->dim[0];
  caml_enter_blocking_section();
  intnat bad = fill_offsets(offsets, targets, bits, steps, degree);
  caml_leave_blocking_section();
  check_fill(bad, (intnat)1 << bits);
  CAMLreturn(Val_unit);
}

/* Harmonic {near}: entries 0..near-1 are the successors at distance
   i + 1; the remaining degree - near entries are Symphony shortcuts at
   a Splitmix.harmonic_int ~n:(nodes - 1) distance each. */
static intnat fill_harmonic(intnat *offsets, int32_t *targets, intnat bits,
                            intnat degree, intnat near, uint64_t *state)
{
  const intnat nodes = (intnat)1 << bits;
  const uintnat mask = (uintnat)nodes - 1;
  const intnat n = nodes - 1;
  /* log (float_of_int (n + 1)), hoisted out of every draw. */
  const double log_range = log((double)(n + 1));
  intnat k = 0;
  for (intnat v = 0; v < nodes; v++) {
    offsets[v] = k;
    for (intnat i = 0; i < near; i++) {
      const uintnat u = ((uintnat)v + (uintnat)i + 1) & mask;
      CHECK_TARGET(u, nodes);
      targets[k++] = (int32_t)u;
    }
    for (intnat i = near; i < degree; i++) {
      const double x = (double)(splitmix_next(state) >> 11) * 0x1.0p-53;
      intnat dist = (intnat)exp(x * log_range);
      if (dist < 1)
        dist = 1;
      else if (dist > n)
        dist = n;
      const uintnat u = ((uintnat)v + (uintnat)dist) & mask;
      CHECK_TARGET(u, nodes);
      targets[k++] = (int32_t)u;
    }
  }
  offsets[nodes] = k;
  return TARGETS_OK;
}

CAMLprim value rcm_lane_harmonic(value v_offsets, value v_targets, value v_bits,
                                 value v_degree, value v_near, value v_state)
{
  CAMLparam5(v_offsets, v_targets, v_bits, v_degree, v_near);
  CAMLxparam1(v_state);
  intnat *offsets = (intnat *)Caml_ba_data_val(v_offsets);
  int32_t *targets = (int32_t *)Caml_ba_data_val(v_targets);
  const intnat bits = Long_val(v_bits);
  const intnat degree = Long_val(v_degree);
  const intnat near = Long_val(v_near);
  uint64_t state = (uint64_t)Int64_val(v_state);
  caml_enter_blocking_section();
  intnat bad = fill_harmonic(offsets, targets, bits, degree, near, &state);
  caml_leave_blocking_section();
  check_fill(bad, (intnat)1 << bits);
  CAMLreturn(caml_copy_int64((int64_t)state));
}

CAMLprim value rcm_lane_harmonic_byte(value *argv, int argn)
{
  (void)argn;
  return rcm_lane_harmonic(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* Failure mask: node v dies when its Splitmix.float draw is below q
   (Splitmix.bernoulli), one draw per node, id ascending. Writes every
   32-bit word of the packed alive-bitset (see bitset.ml) from scratch,
   so bits past [n] in the last word stay zero. */
CAMLprim value rcm_lane_failure(value v_words, value v_n, value v_q, value v_state)
{
  CAMLparam4(v_words, v_n, v_q, v_state);
  intnat *words = (intnat *)Caml_ba_data_val(v_words);
  const intnat n = Long_val(v_n);
  const double q = Double_val(v_q);
  uint64_t state = (uint64_t)Int64_val(v_state);
  caml_enter_blocking_section();
  for (intnat base = 0; base < n; base += 32) {
    const intnat width = n - base < 32 ? n - base : 32;
    intnat word = 0;
    for (intnat bit = 0; bit < width; bit++) {
      const double u = (double)(splitmix_next(&state) >> 11) * 0x1.0p-53;
      word |= (intnat)!(u < q) << bit;
    }
    words[base >> 5] = word;
  }
  caml_leave_blocking_section();
  CAMLreturn(caml_copy_int64((int64_t)state));
}

/* --- Sparse overlays (Overlay.Sparse) ---------------------------------

   Node v is the v-th smallest of [n] distinct ids in [0, 2^bits); the
   contact block is uniform-degree int32, row v at v * degree, with -1
   (Sparse.missing) for an empty bucket. */

/* Sparse.sample_ids, dense regime (2 * count >= 2^bits): the
   Splitmix.shuffle_in_place of the whole space (i from size - 1 down
   to 1, swap with j = Splitmix.int (i + 1)) and its first [count]
   entries, sorted. The sort is a bitmap scan: mark the chosen ids,
   then read the marks in id order. */
static int sample_dense(int32_t *ids, intnat count, intnat size, uint64_t *state)
{
  int32_t *all = malloc((size_t)size * sizeof(int32_t));
  uint32_t *marks = calloc((size_t)(size + 31) / 32, sizeof(uint32_t));
  if (all == NULL || marks == NULL) {
    free(all);
    free(marks);
    return 0;
  }
  for (intnat i = 0; i < size; i++)
    all[i] = (int32_t)i;
  for (intnat i = size - 1; i >= 1; i--) {
    const intnat j = (intnat)splitmix_int_once(state, (uint64_t)i + 1);
    const int32_t tmp = all[i];
    all[i] = all[j];
    all[j] = tmp;
  }
  for (intnat k = 0; k < count; k++)
    marks[all[k] >> 5] |= (uint32_t)1 << (all[k] & 31);
  intnat out = 0;
  for (intnat w = 0; w < (size + 31) / 32; w++)
    for (uint32_t word = marks[w]; word != 0; word &= word - 1)
      ids[out++] = (int32_t)(w * 32 + __builtin_ctz(word));
  free(all);
  free(marks);
  return 1;
}

/* Sparse regime: Splitmix.int (2^bits) draws (a mask: the bound is a
   power of two) until [count] distinct ids have been seen, in draw
   order, then an LSD radix sort. The seen-set is open addressing over
   a power-of-two table at most half full; -1 marks an empty slot. */
static int sample_sparse(int32_t *ids, intnat count, intnat bits, uint64_t *state)
{
  int log_cap = 1;
  while (((intnat)1 << log_cap) < 2 * count)
    log_cap++;
  const uintnat cap_mask = ((uintnat)1 << log_cap) - 1;
  int32_t *seen = malloc(((size_t)cap_mask + 1) * sizeof(int32_t));
  int32_t *tmp = malloc((size_t)count * sizeof(int32_t));
  if (seen == NULL || tmp == NULL) {
    free(seen);
    free(tmp);
    return 0;
  }
  for (uintnat i = 0; i <= cap_mask; i++)
    seen[i] = -1;
  const uint64_t id_mask = ((uint64_t)1 << bits) - 1;
  intnat filled = 0;
  while (filled < count) {
    const int32_t id = (int32_t)((splitmix_next(state) >> 2) & id_mask);
    uintnat slot = (((uint32_t)id * 0x9E3779B1u) >> (32 - log_cap)) & cap_mask;
    while (seen[slot] >= 0 && seen[slot] != id)
      slot = (slot + 1) & cap_mask;
    if (seen[slot] < 0) {
      seen[slot] = id;
      ids[filled++] = id;
    }
  }
  free(seen);
  /* 11-bit digits: three passes cover every bits <= 30. */
  int32_t *src = ids, *dst = tmp;
  for (int shift = 0; shift < bits; shift += 11) {
    intnat bucket[2049] = {0};
    for (intnat k = 0; k < count; k++)
      bucket[((src[k] >> shift) & 2047) + 1]++;
    for (int b = 0; b < 2048; b++)
      bucket[b + 1] += bucket[b];
    for (intnat k = 0; k < count; k++)
      dst[bucket[(src[k] >> shift) & 2047]++] = src[k];
    int32_t *swap = src;
    src = dst;
    dst = swap;
  }
  if (src != ids)
    for (intnat k = 0; k < count; k++)
      ids[k] = src[k];
  free(tmp);
  return 1;
}

/* Sparse.sample_ids: fills [ids] (its length is the count). */
CAMLprim value rcm_sparse_sample_ids(value v_ids, value v_bits, value v_state)
{
  CAMLparam3(v_ids, v_bits, v_state);
  int32_t *ids = (int32_t *)Caml_ba_data_val(v_ids);
  const intnat count = Caml_ba_array_val(v_ids)->dim[0];
  const intnat bits = Long_val(v_bits);
  const intnat size = (intnat)1 << bits;
  uint64_t state = (uint64_t)Int64_val(v_state);
  caml_enter_blocking_section();
  const int ok = 2 * count >= size ? sample_dense(ids, count, size, &state)
                                   : sample_sparse(ids, count, bits, &state);
  caml_leave_blocking_section();
  if (!ok)
    caml_raise_out_of_memory();
  CAMLreturn(caml_copy_int64((int64_t)state));
}

/* First index in [lo, hi) whose id is >= target; hi when none. */
static inline intnat lower_bound(const int32_t *ids, intnat lo, intnat hi, intnat target)
{
  while (lo < hi) {
    const intnat mid = lo + ((hi - lo) >> 1);
    if (ids[mid] >= target)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/* Fingers: finger i of node v is the successor (first index clockwise,
   inclusive, wrapping to 0) of (id_v + 2^i) mod 2^bits. Draws nothing.
   For a fixed i those targets ascend with v until they wrap past the
   top of the space, and ascend again after, so one pointer sweeping
   the sorted ids per run replaces a binary search per entry. */
CAMLprim value rcm_sparse_fingers(value v_ids, value v_contacts, value v_bits)
{
  CAMLparam3(v_ids, v_contacts, v_bits);
  const int32_t *ids = (const int32_t *)Caml_ba_data_val(v_ids);
  int32_t *contacts = (int32_t *)Caml_ba_data_val(v_contacts);
  const intnat n = Caml_ba_array_val(v_ids)->dim[0];
  const intnat bits = Long_val(v_bits);
  const intnat size = (intnat)1 << bits;
  caml_enter_blocking_section();
  for (intnat i = 0; i < bits; i++) {
    const intnat step = (intnat)1 << i;
    intnat v = 0, p = 0;
    for (; v < n && ids[v] + step < size; v++) {
      while (p < n && ids[p] < ids[v] + step)
        p++;
      contacts[v * bits + i] = (int32_t)(p == n ? 0 : p);
    }
    p = 0;
    for (; v < n; v++) {
      while (p < n && ids[p] < ids[v] + step - size)
        p++;
      contacts[v * bits + i] = (int32_t)(p == n ? 0 : p);
    }
  }
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

/* Buckets {group}: slot (level, rank) as in Digits above, but the
   contact is a uniform occupied index among the ids whose first
   level * group bits are v's prefix with digit [level] moved by
   [rank] — lo + Splitmix.int (hi - lo) over that index range [lo, hi)
   — or -1 when the range is empty (no draw). group = 1 is the tree/xor
   bucket, larger groups are ReCord.

   The 2^group sibling ranges at [level] are the children of v's
   (level - 1)-digit prefix range. Ids are sorted, so that prefix only
   changes a handful of times as v ascends: each level caches its
   prefix and the child boundaries bounds[level][0 .. 2^group], and
   recomputes them (binary searches inside the parent's range) only
   when v's prefix at that level changes. */
static int fill_buckets(const int32_t *ids, int32_t *contacts, intnat n, intnat bits,
                        intnat group, uint64_t *state)
{
  const intnat b = (intnat)1 << group;
  const uintnat digit_mask = (uintnat)b - 1;
  const intnat digits = bits / group;
  intnat *bounds = malloc((size_t)(digits * (b + 1)) * sizeof(intnat));
  intnat *prefix = malloc((size_t)digits * sizeof(intnat));
  if (bounds == NULL || prefix == NULL) {
    free(bounds);
    free(prefix);
    return 0;
  }
  for (intnat l = 0; l < digits; l++)
    prefix[l] = -1;
  intnat k = 0;
  for (intnat v = 0; v < n; v++) {
    const intnat id = ids[v];
    intnat parent_lo = 0, parent_hi = n;
    for (intnat l = 0; l < digits; l++) {
      const int shift = (int)(bits - (l + 1) * group);
      const intnat p = id >> (shift + group);
      intnat *bnd = bounds + l * (b + 1);
      if (p != prefix[l]) {
        prefix[l] = p;
        bnd[0] = parent_lo;
        bnd[b] = parent_hi;
        for (intnat d = 1; d < b; d++)
          bnd[d] = lower_bound(ids, bnd[d - 1], parent_hi, ((p << group) | d) << shift);
      }
      const uintnat own = ((uintnat)id >> shift) & digit_mask;
      for (uintnat rank = 1; rank <= digit_mask; rank++) {
        const uintnat d = (own + rank) & digit_mask;
        const intnat lo = bnd[d], hi = bnd[d + 1];
        contacts[k++] =
            hi <= lo ? -1 : (int32_t)(lo + (intnat)splitmix_int_once(state, (uint64_t)(hi - lo)));
      }
      parent_lo = bnd[own];
      parent_hi = bnd[own + 1];
    }
  }
  free(bounds);
  free(prefix);
  return 1;
}

CAMLprim value rcm_sparse_buckets(value v_ids, value v_contacts, value v_bits,
                                  value v_group, value v_state)
{
  CAMLparam5(v_ids, v_contacts, v_bits, v_group, v_state);
  const int32_t *ids = (const int32_t *)Caml_ba_data_val(v_ids);
  int32_t *contacts = (int32_t *)Caml_ba_data_val(v_contacts);
  const intnat n = Caml_ba_array_val(v_ids)->dim[0];
  const intnat bits = Long_val(v_bits);
  const intnat group = Long_val(v_group);
  uint64_t state = (uint64_t)Int64_val(v_state);
  caml_enter_blocking_section();
  const int ok = fill_buckets(ids, contacts, n, bits, group, &state);
  caml_leave_blocking_section();
  if (!ok)
    caml_raise_out_of_memory();
  CAMLreturn(caml_copy_int64((int64_t)state));
}

/* Harmonic {near; shortcuts} over the circle of the n occupied
   positions: entries 0..near-1 are (v + i + 1) mod n, the shortcuts
   (v + Splitmix.harmonic_int ~n:(n - 1)) mod n, as fill_harmonic. */
CAMLprim value rcm_sparse_harmonic(value v_contacts, value v_n, value v_near,
                                   value v_shortcuts, value v_state)
{
  CAMLparam5(v_contacts, v_n, v_near, v_shortcuts, v_state);
  int32_t *contacts = (int32_t *)Caml_ba_data_val(v_contacts);
  const intnat n = Long_val(v_n);
  const intnat near = Long_val(v_near);
  const intnat degree = near + Long_val(v_shortcuts);
  uint64_t state = (uint64_t)Int64_val(v_state);
  /* log (float_of_int ((n - 1) + 1)), hoisted out of every draw. */
  const double log_range = log((double)n);
  caml_enter_blocking_section();
  intnat k = 0;
  for (intnat v = 0; v < n; v++) {
    for (intnat i = 0; i < near; i++)
      contacts[k++] = (int32_t)((v + i + 1) % n);
    for (intnat i = near; i < degree; i++) {
      const double x = (double)(splitmix_next(&state) >> 11) * 0x1.0p-53;
      intnat dist = (intnat)exp(x * log_range);
      if (dist < 1)
        dist = 1;
      else if (dist > n - 1)
        dist = n - 1;
      contacts[k++] = (int32_t)((v + dist) % n);
    }
  }
  caml_leave_blocking_section();
  CAMLreturn(caml_copy_int64((int64_t)state));
}
