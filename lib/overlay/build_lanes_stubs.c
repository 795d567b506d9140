/* Build lanes: fill a uniform-degree CSR block, or a failure mask, in
   one C call per build.

   Why C: the closure fill of Flat.init pays, per table entry, an
   indirect call, the Digit/Id argument re-validation, and — for the
   randomized geometries — a boxed int64 PRNG state plus two hardware
   divisions inside Splitmix.int. At 2^18 nodes and ~20 entries per
   node that is most of a simulate run. A lane computes the same
   entries with shifts and masks and runs SplitMix64 inline on an
   unboxed state.

   Bit-identity contract (pinned by test/test_lanes.ml's lane-vs-entry
   matrix and scripts/batch_smoke.sh's classic-vs-flat CLI diff): each
   lane writes exactly the entries the OCaml entry function of its
   geometry returns, consumes exactly the same SplitMix64 draws in the
   same (v ascending, i ascending) order, and returns the post-build
   state so the caller's generator continues the same stream:

   - Splitmix.int with a power-of-two bound 2^k never rejects, so each
     bounded draw is (next >> 2) & (2^k - 1);
   - Splitmix.float is (next >> 11) * 2^-53, and harmonic_int is
     (int) exp (u * log (n + 1)) clamped to [1, n], with the same libm
     exp and log as OCaml's. This file must be compiled without
     -ffast-math and without floating-point contraction (see dune).

   Every target still passes Flat's range check ([0, nodes)), raising
   the same Invalid_argument shape as Flat.init.

   Memory discipline: no OCaml allocation before the fill ends, so the
   raw Bigarray and int-array pointers stay valid for the whole loop. */

#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <math.h>
#include <stdint.h>

#include "splitmix64.h"

static void out_of_range(intnat u, intnat nodes)
{
  caml_invalid_argument_value(caml_alloc_sprintf(
      "Flat.of_lane: neighbour %ld outside [0, %ld)", (long)u, (long)nodes));
}

/* The same unsigned comparison covers u < 0 and u >= nodes. */
#define CHECK_TARGET(u, nodes)                                                 \
  do {                                                                         \
    if ((uintnat)(u) >= (uintnat)(nodes))                                      \
      out_of_range((intnat)(u), (nodes));                                      \
  } while (0)

/* Digits {group; draw}: slot (level, rank), level 1..bits/group most
   significant digit first, rank 1..2^group - 1. The entry adds rank
   (mod 2^group) to v's digit at that level and, when [draw], replaces
   every lower-order bit with one Splitmix.int (2^bits) draw. group = 1
   without a draw is the tree/hypercube flip of bit i + 1; group = 1
   with a draw is the xor bucket contact; larger groups are ReCord.
   The fill loop is inlined per call site below, so that group = 1 and
   [draw] are compile-time constants for the three built-in uses. */
static inline __attribute__((always_inline)) uint64_t
fill_digits(intnat *offsets, int32_t *targets, intnat bits, intnat group, int draw,
            uint64_t state)
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
          u = (u & ~low) | ((splitmix_next(&state) >> 2) & low);
        CHECK_TARGET(u, nodes);
        targets[k++] = (int32_t)u;
      }
    }
  }
  offsets[nodes] = k;
  return state;
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
  if (group == 1 && !draw)
    state = fill_digits(offsets, targets, bits, 1, 0, state);
  else if (group == 1)
    state = fill_digits(offsets, targets, bits, 1, 1, state);
  else if (draw)
    state = fill_digits(offsets, targets, bits, group, 1, state);
  else
    state = fill_digits(offsets, targets, bits, group, 0, state);
  CAMLreturn(caml_copy_int64((int64_t)state));
}

CAMLprim value rcm_lane_digits_byte(value *argv, int argn)
{
  (void)argn;
  return rcm_lane_digits(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* Offsets: entry i of every node is v + offsets[i] on the ring — Chord
   fingers (2^i) and the successor lists appended to them. Draws
   nothing. */
CAMLprim value rcm_lane_offsets(value v_offsets, value v_targets, value v_bits,
                                value v_steps)
{
  CAMLparam4(v_offsets, v_targets, v_bits, v_steps);
  intnat *offsets = (intnat *)Caml_ba_data_val(v_offsets);
  int32_t *targets = (int32_t *)Caml_ba_data_val(v_targets);
  const intnat bits = Long_val(v_bits);
  const intnat nodes = (intnat)1 << bits;
  const uintnat mask = (uintnat)nodes - 1;
  const intnat degree = (intnat)Wosize_val(v_steps);
  intnat k = 0;
  for (intnat v = 0; v < nodes; v++) {
    offsets[v] = k;
    for (intnat i = 0; i < degree; i++) {
      const uintnat u = ((uintnat)v + (uintnat)Long_val(Field(v_steps, i))) & mask;
      CHECK_TARGET(u, nodes);
      targets[k++] = (int32_t)u;
    }
  }
  offsets[nodes] = k;
  CAMLreturn(Val_unit);
}

/* Harmonic {near}: entries 0..near-1 are the successors at distance
   i + 1; the remaining degree - near entries are Symphony shortcuts at
   a Splitmix.harmonic_int ~n:(nodes - 1) distance each. */
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
  const intnat nodes = (intnat)1 << bits;
  const uintnat mask = (uintnat)nodes - 1;
  const intnat n = nodes - 1;
  /* log (float_of_int (n + 1)), hoisted out of every draw. */
  const double log_range = log((double)(n + 1));
  uint64_t state = (uint64_t)Int64_val(v_state);
  intnat k = 0;
  for (intnat v = 0; v < nodes; v++) {
    offsets[v] = k;
    for (intnat i = 0; i < near; i++) {
      const uintnat u = ((uintnat)v + (uintnat)i + 1) & mask;
      CHECK_TARGET(u, nodes);
      targets[k++] = (int32_t)u;
    }
    for (intnat i = near; i < degree; i++) {
      const double x = (double)(splitmix_next(&state) >> 11) * 0x1.0p-53;
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
  for (intnat base = 0; base < n; base += 32) {
    const intnat width = n - base < 32 ? n - base : 32;
    intnat word = 0;
    for (intnat bit = 0; bit < width; bit++) {
      const double u = (double)(splitmix_next(&state) >> 11) * 0x1.0p-53;
      word |= (intnat)!(u < q) << bit;
    }
    words[base >> 5] = word;
  }
  CAMLreturn(caml_copy_int64((int64_t)state));
}
