/* CUBA-LIF recurrence of one layer over a (T, width) block, width = B * n.
 *
 * The matmuls stay in numpy; these loops are the element-wise time
 * recurrences of snn._lif_forward and snn._lif_backward, written with the
 * same operations in the same order, so that built without floating-point
 * contraction (-ffp-contract=off) they give bitwise the same results.
 * state is a zeroed (2, width) block: u and v (forward), or cu and cvp
 * (backward), one row each.
 *
 * The training tape holds only each layer's input and pre-reset
 * potentials: the forward pass writes the spikes times the dropout mask
 * straight into the next layer's input, and the backward pass re-derives
 * the spikes as v >= thr, the comparison that made them.
 *
 * One case keeps a loop of its own: inference (no v_rec, no mask) inlines
 * the forward loop with constant NULLs, since testing both pointers per
 * element made it 1.16-1.21x slower at batch 1 (widths 256, 64, 3; T = 400;
 * gcc 12.2 -O2 on x86-64).  Training runs one forward and one backward
 * loop that test them per element: a copy per case changed the cases
 * training uses by 0.97-1.01x at 16 * 256 x 400.
 */

#include <math.h>
#include <stddef.h>

#define INLINE static inline __attribute__((always_inline))

INLINE void forward_loop(double *restrict drive, double *restrict v_rec,
                         const double *restrict mask, double *restrict u,
                         double *restrict v, long t_len, long width,
                         double au, double av, double thr)
{
    for (long t = 0; t < t_len; t++) {
        double *restrict d = drive + t * width;
        for (long i = 0; i < width; i++) {
            double ui = au * u[i] + d[i];
            double vi = av * v[i] + ui;
            /* the quiet comparison gives the spike without a branch */
            double s = isgreaterequal(vi, thr);
            if (v_rec)
                v_rec[t * width + i] = vi;
            u[i] = ui;
            v[i] = vi * (1.0 - s);
            d[i] = mask ? s * mask[i] : s;
        }
    }
}

/* drive holds the layer input currents on entry and on return the spikes,
 * times mask (a (B, n) dropout mask) when it is not NULL; v_rec, if not
 * NULL, receives the pre-reset potentials. */
void cuba_forward(double *restrict drive, double *restrict v_rec,
                  const double *restrict mask, double *restrict state,
                  long t_len, long width, double au, double av, double thr)
{
    double *u = state, *v = state + width;

    if (v_rec || mask)
        forward_loop(drive, v_rec, mask, u, v, t_len, width, au, av, thr);
    else
        forward_loop(drive, NULL, NULL, u, v, t_len, width, au, av, thr);
}

/* Reverse recurrence with the fast-sigmoid surrogate, in place: g holds the
 * spike gradients (times mask when it is not NULL) on entry and the current
 * gradients on return. */
void cuba_backward(const double *restrict v, double *restrict g,
                   const double *restrict mask, double *restrict state,
                   long t_len, long width, double au, double av, double thr,
                   double slope)
{
    double *restrict cu = state, *restrict cvp = state + width;

    for (long t = t_len - 1; t >= 0; t--) {
        const double *restrict vt = v + t * width;
        double *restrict gt = g + t * width;
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
