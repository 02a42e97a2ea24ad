/* CUBA-LIF recurrence of one layer over lanes of a (T, B * n) block.
 *
 * The matmuls stay in numpy; these loops are the element-wise time
 * recurrences of snn._lif_forward and snn._lif_backward, written with the
 * same operations in the same order, so that built without floating-point
 * contraction (-ffp-contract=off) they give bitwise the same results.
 * A call covers width lanes of blocks whose rows lie stride doubles apart:
 * every pointer (the blocks, the mask, the state) points at the call's
 * first lane, and stride is the block's full B * n.  state is a zeroed
 * (2, stride) block: u and v (forward), or cu and cvp (backward), one row
 * each.  Lanes never meet, so snn can run a block as two calls on disjoint
 * lane ranges, one per thread, with the bits of one call over all of it.
 *
 * The training tape holds only each layer's input and pre-reset
 * potentials: the forward pass writes the spikes times the dropout mask
 * straight into the next layer's input, and the backward pass re-derives
 * the spikes as v >= thr, the comparison that made them.
 *
 * One case keeps a loop of its own: inference (no v_rec, no mask) inlines
 * the forward loop with constant NULLs, since testing both pointers per
 * element made it 1.16-1.21x slower at batch 1 (widths 256, 64, 3; T = 400;
 * gcc 12.2 on x86-64, measured at -O2 before the AVX2 clones).  Training
 * runs one forward and one backward loop that test them per element: a
 * copy per case changed the cases training uses by 0.97-1.01x at
 * 16 * 256 x 400.
 *
 * On x86-64 with glibc, each entry point is built twice, for AVX2 and for
 * the baseline ISA, and the dynamic loader picks one per host (GNU ifunc),
 * so the cached library stays portable.  At -O3 GCC vectorises the inner
 * loops of the AVX2 clones over i, four lanes per instruction; each lane
 * runs the same IEEE double operations in the same order as the scalar
 * loop, with no contraction into FMA and no reduction across i, so the
 * results do not change.  The baseline (SSE2) clone stays scalar.  Other
 * hosts build the plain functions.  A third, AVX-512 clone was faster per
 * call but not end to end: the benchmark's matrix workload read 3% lower,
 * within its run-to-run spread, in 7 of 10 pairs.
 */

#include <math.h>
#include <stddef.h>

#define INLINE static inline __attribute__((always_inline))

/* __GLIBC__ comes from <math.h>; ifunc needs the GNU dynamic loader */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef CLONED
#define CLONED
#endif

INLINE void forward_loop(double *restrict drive, double *restrict v_rec,
                         const double *restrict mask, double *restrict u,
                         double *restrict v, long t_len, long width,
                         long stride, double au, double av, double thr)
{
    for (long t = 0; t < t_len; t++) {
        double *restrict d = drive + t * stride;
        for (long i = 0; i < width; i++) {
            double ui = au * u[i] + d[i];
            double vi = av * v[i] + ui;
            /* the quiet comparison gives the spike without a branch */
            double s = isgreaterequal(vi, thr);
            if (v_rec)
                v_rec[t * stride + i] = vi;
            u[i] = ui;
            v[i] = vi * (1.0 - s);
            d[i] = mask ? s * mask[i] : s;
        }
    }
}

/* drive holds the layer input currents on entry and on return the spikes,
 * times mask (a (B, n) dropout mask) when it is not NULL; v_rec, if not
 * NULL, receives the pre-reset potentials. */
CLONED
void cuba_forward(double *restrict drive, double *restrict v_rec,
                  const double *restrict mask, double *restrict state,
                  long t_len, long width, long stride, double au, double av,
                  double thr)
{
    double *u = state, *v = state + stride;

    if (v_rec || mask)
        forward_loop(drive, v_rec, mask, u, v, t_len, width, stride, au, av,
                     thr);
    else
        forward_loop(drive, NULL, NULL, u, v, t_len, width, stride, au, av,
                     thr);
}

/* Reverse recurrence with the fast-sigmoid surrogate, in place: g holds the
 * spike gradients (times mask when it is not NULL) on entry and the current
 * gradients on return. */
CLONED
void cuba_backward(const double *restrict v, double *restrict g,
                   const double *restrict mask, double *restrict state,
                   long t_len, long width, long stride, double au, double av,
                   double thr, double slope)
{
    double *restrict cu = state, *restrict cvp = state + stride;

    for (long t = t_len - 1; t >= 0; t--) {
        const double *restrict vt = v + t * stride;
        double *restrict gt = g + t * stride;
        for (long i = 0; i < width; i++) {
            double a = 1.0 + slope * fabs(vt[i] - thr);
            double sd = 1.0 / (a * a);
            double s = isgreaterequal(vt[i], thr);
            double gs = mask ? gt[i] * mask[i] : gt[i];
            double gv = sd * (gs - vt[i] * cvp[i]) + (1.0 - s) * cvp[i];
            double gu = gv + au * cu[i];
            gt[i] = gu;
            cu[i] = gu;
            cvp[i] = av * gv;
        }
    }
}
