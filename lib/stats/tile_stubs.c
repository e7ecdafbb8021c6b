/* The product-model tiles of the Pearson and profiled sweeps.

   Both score the Hamming weight of the integer intermediate g * p for
   every (guess, trace) pair.  OCaml 5 without flambda has no popcount
   intrinsic, so the same loops in OCaml pay a twelve-operation SWAR
   popcount per pair; here it is one instruction.  On x86-64 the tiles
   are compiled twice (target_clones) and the loader picks the clone
   using the popcnt instruction when the CPU has it, so no build flag is
   needed; elsewhere __builtin_popcountll is whatever the target has.

   Same bits as the OCaml tiles these replace:
   - products are taken as uint64_t, whose low 63 bits are OCaml's
     wrapped [g * p]; bit 63 is masked off before counting;
   - every product is ORed into a witness and the caller refuses the
     fold when bit 62 (OCaml's sign bit) was ever set, exactly the
     inputs [Bitops.popcount] refuses;
   - each accumulator is a local double receiving its additions in
     trace order, compiled with -ffp-contract=off so no multiply-add is
     fused; the four-row tile only interleaves distinct accumulators.

   Both entries are [@@noalloc] externals: they read OCaml arrays in
   place and allocate nothing. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#endif
#endif
#ifndef POPCNT_CLONES
#define POPCNT_CLONES
#endif

#define LOW63 (~(uint64_t)0 >> 1)
#define BIT62 ((uint64_t)1 << 62)
#define HW(v) __builtin_popcountll((v) & LOW63)
#define WORD(a, i) ((uint64_t)Long_val(Field((a), (i))))

/* Row r accumulates x = HW(guesses[r] * prepped[i]) into sh[r] (x),
   shh[r] (x * x) and sht[r] (x * col[i]) for i = 0 .. len-1. */
POPCNT_CLONES
static uint64_t product_tile(double *sh, double *shh, double *sht, value guesses,
                             intnat g, value prepped, const double *col, intnat len)
{
  uint64_t seen = 0;
  intnat r = 0;
  for (; r + 4 <= g; r += 4) {
    uint64_t g0 = WORD(guesses, r), g1 = WORD(guesses, r + 1);
    uint64_t g2 = WORD(guesses, r + 2), g3 = WORD(guesses, r + 3);
    double a0 = sh[r], q0 = shh[r], c0 = sht[r];
    double a1 = sh[r + 1], q1 = shh[r + 1], c1 = sht[r + 1];
    double a2 = sh[r + 2], q2 = shh[r + 2], c2 = sht[r + 2];
    double a3 = sh[r + 3], q3 = shh[r + 3], c3 = sht[r + 3];
    for (intnat i = 0; i < len; i++) {
      uint64_t p = WORD(prepped, i);
      double t = col[i];
      uint64_t v0 = g0 * p, v1 = g1 * p, v2 = g2 * p, v3 = g3 * p;
      seen |= v0 | v1 | v2 | v3;
      double x0 = (double)HW(v0), x1 = (double)HW(v1);
      double x2 = (double)HW(v2), x3 = (double)HW(v3);
      a0 += x0; q0 += x0 * x0; c0 += x0 * t;
      a1 += x1; q1 += x1 * x1; c1 += x1 * t;
      a2 += x2; q2 += x2 * x2; c2 += x2 * t;
      a3 += x3; q3 += x3 * x3; c3 += x3 * t;
    }
    sh[r] = a0; shh[r] = q0; sht[r] = c0;
    sh[r + 1] = a1; shh[r + 1] = q1; sht[r + 1] = c1;
    sh[r + 2] = a2; shh[r + 2] = q2; sht[r + 2] = c2;
    sh[r + 3] = a3; shh[r + 3] = q3; sht[r + 3] = c3;
  }
  for (; r < g; r++) {
    uint64_t gu = WORD(guesses, r);
    double a = sh[r], q = shh[r], c = sht[r];
    for (intnat i = 0; i < len; i++) {
      uint64_t v = gu * WORD(prepped, i);
      seen |= v;
      double x = (double)HW(v);
      a += x; q += x * x; c += x * col[i];
    }
    sh[r] = a; shh[r] = q; sht[r] = c;
  }
  return seen;
}

/* Row r accumulates tbl[i * nclass + min(HW(guesses[r] * prepped[i]),
   nclass - 1)] into acc[r] for i = 0 .. len-1. */
POPCNT_CLONES
static uint64_t class_product_tile(double *acc, const double *tbl, intnat nclass,
                                   value guesses, intnat g, value prepped, intnat len)
{
  uint64_t seen = 0;
  intnat top = nclass - 1;
#define CLS(v) ((intnat)HW(v) < top ? (intnat)HW(v) : top)
  intnat r = 0;
  for (; r + 4 <= g; r += 4) {
    uint64_t g0 = WORD(guesses, r), g1 = WORD(guesses, r + 1);
    uint64_t g2 = WORD(guesses, r + 2), g3 = WORD(guesses, r + 3);
    double e0 = acc[r], e1 = acc[r + 1], e2 = acc[r + 2], e3 = acc[r + 3];
    for (intnat i = 0; i < len; i++) {
      uint64_t p = WORD(prepped, i);
      const double *row = tbl + i * nclass;
      uint64_t v0 = g0 * p, v1 = g1 * p, v2 = g2 * p, v3 = g3 * p;
      seen |= v0 | v1 | v2 | v3;
      e0 += row[CLS(v0)];
      e1 += row[CLS(v1)];
      e2 += row[CLS(v2)];
      e3 += row[CLS(v3)];
    }
    acc[r] = e0; acc[r + 1] = e1; acc[r + 2] = e2; acc[r + 3] = e3;
  }
  for (; r < g; r++) {
    uint64_t gu = WORD(guesses, r);
    double e = acc[r];
    for (intnat i = 0; i < len; i++) {
      uint64_t v = gu * WORD(prepped, i);
      seen |= v;
      e += tbl[i * nclass + CLS(v)];
    }
    acc[r] = e;
  }
#undef CLS
  return seen;
}

/* The OCaml wrappers have checked every length; the result is true
   when some product had bit 62 set. */
value fd_product_tile(value sh, value shh, value sht, value guesses, value prepped,
                      value col, value len)
{
  uint64_t seen = product_tile((double *)sh, (double *)shh, (double *)sht, guesses,
                               (intnat)Wosize_val(guesses), prepped,
                               (const double *)col, Long_val(len));
  return Val_bool((seen & BIT62) != 0);
}

value fd_product_tile_byte(value *argv, int argn)
{
  (void)argn;
  return fd_product_tile(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

value fd_class_product_tile(value acc, value tbl, value nclass, value guesses,
                            value prepped, value len)
{
  uint64_t seen = class_product_tile((double *)acc, (const double *)tbl, Long_val(nclass),
                                     guesses, (intnat)Wosize_val(guesses), prepped,
                                     Long_val(len));
  return Val_bool((seen & BIT62) != 0);
}

value fd_class_product_tile_byte(value *argv, int argn)
{
  (void)argn;
  return fd_class_product_tile(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}
