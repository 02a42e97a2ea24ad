/* CUBA-LIF recurrence of one layer over a (T, width) block, width = B * n.
 *
 * The matmuls stay in numpy; these loops are the element-wise time
 * recurrences of snn._lif_forward and snn._lif_backward, written with the
 * same operations in the same order, so that built without floating-point
 * contraction (-ffp-contract=off) they give bitwise the same results.
 * u and v (forward) and cu and cvp (backward) are zeroed state of width
 * elements.
 */

#include <math.h>

/* drive holds the layer input currents on entry and the spikes on return;
 * v_rec, if not NULL, receives the pre-reset potentials. */
void cuba_forward(double *restrict drive, double *restrict v_rec,
                  double *restrict u, double *restrict v,
                  long t_len, long width, double au, double av, double thr)
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
            d[i] = s;
        }
    }
}

/* Reverse recurrence with the fast-sigmoid surrogate.  g_s advances by
 * gs_step per step (0 broadcasts one row over time) and is multiplied by
 * mask when mask is not NULL; g_u receives the current gradients. */
void cuba_backward(const double *restrict v, const double *restrict s,
                   const double *restrict g_s, long gs_step,
                   const double *restrict mask, double *restrict g_u,
                   double *restrict cu, double *restrict cvp,
                   long t_len, long width, double au, double av,
                   double thr, double slope)
{
    for (long t = t_len - 1; t >= 0; t--) {
        const double *restrict vt = v + t * width;
        const double *restrict st = s + t * width;
        const double *restrict gt = g_s + t * gs_step;
        for (long i = 0; i < width; i++) {
            double a = 1.0 + slope * fabs(vt[i] - thr);
            double sd = 1.0 / (a * a);
            double g = mask ? gt[i] * mask[i] : gt[i];
            double gv = sd * (g - vt[i] * cvp[i]) + (1.0 - st[i]) * cvp[i];
            double gu = gv + au * cu[i];
            g_u[t * width + i] = gu;
            cu[i] = gu;
            cvp[i] = av * gv;
        }
    }
}
