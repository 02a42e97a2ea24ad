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
 * the spikes as v >= thr, the comparison that made them.  The optional
 * arguments are resolved outside the loops: each exported function calls
 * an always-inlined loop with constant NULLs, so no element tests them.
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
            /* the quiet comparison keeps this loop free of branches */
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

    if (v_rec && mask)
        forward_loop(drive, v_rec, mask, u, v, t_len, width, au, av, thr);
    else if (v_rec)
        forward_loop(drive, v_rec, NULL, u, v, t_len, width, au, av, thr);
    else if (mask)
        forward_loop(drive, NULL, mask, u, v, t_len, width, au, av, thr);
    else
        forward_loop(drive, NULL, NULL, u, v, t_len, width, au, av, thr);
}

/* g_s and g_u carry no restrict: g_u may be g_s itself, each element of
 * which is read before the same element of g_u is written. */
INLINE void backward_loop(const double *restrict v, const double *g_s,
                          const double *restrict mask, double *g_u,
                          double *restrict cu, double *restrict cvp,
                          long t_len, long width, double au, double av,
                          double thr, double slope)
{
    for (long t = t_len - 1; t >= 0; t--) {
        const double *restrict vt = v + t * width;
        const double *gt = g_s + t * width;
        double *ut = g_u + t * width;
        for (long i = 0; i < width; i++) {
            double a = 1.0 + slope * fabs(vt[i] - thr);
            double sd = 1.0 / (a * a);
            double s = isgreaterequal(vt[i], thr);
            double g = mask ? gt[i] * mask[i] : gt[i];
            double gv = sd * (g - vt[i] * cvp[i]) + (1.0 - s) * cvp[i];
            double gu = gv + au * cu[i];
            ut[i] = gu;
            cu[i] = gu;
            cvp[i] = av * gv;
        }
    }
}

/* Reverse recurrence with the fast-sigmoid surrogate.  g_s, times mask
 * when mask is not NULL, is the spike gradient; g_u receives the current
 * gradients and may be g_s itself. */
void cuba_backward(const double *restrict v, const double *g_s,
                   const double *restrict mask, double *g_u,
                   double *restrict state, long t_len, long width, double au,
                   double av, double thr, double slope)
{
    double *cu = state, *cvp = state + width;

    if (mask)
        backward_loop(v, g_s, mask, g_u, cu, cvp, t_len, width, au, av, thr,
                      slope);
    else
        backward_loop(v, g_s, NULL, g_u, cu, cvp, t_len, width, au, av, thr,
                      slope);
}
