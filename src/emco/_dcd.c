/* The epoch loop of classifier.train in C: dual coordinate descent for the
 * L1-loss linear SVM, with the bias as a separate variable. Its statements
 * are those of classifier._python_epochs, in the same order, and every sum
 * runs left to right, so both give the same bytes when this file is built
 * without contraction (-ffp-contract=off) and without -ffast-math.
 *
 * dcd_epoch is the only entry point: one call per epoch, which also gives
 * the epoch's dual value. Row i is indices/data[indptr[i] .. indptr[i + 1]),
 * read as they come from vectorize.to_csr: C-contiguous np.intp (ptrdiff_t)
 * and float64 arrays. The caller checks that every index is in
 * [0, n_features), every value is finite and every order entry in [0, n).
 */
#include <stddef.h>

/* One epoch over the rows in `order`: updates w, *bias and alpha in place,
 * writes the dual objective 0.5 * (||w||^2 + bias^2) - sum(alpha) after it
 * to *dual, and returns its max projected-gradient violation. */
double dcd_epoch(const ptrdiff_t *indptr, const ptrdiff_t *indices,
                 const double *data, const double *y, const double *qii,
                 const ptrdiff_t *order, ptrdiff_t n, ptrdiff_t n_features,
                 double c, double *w, double *bias, double *alpha, double *dual)
{
    double b = *bias;
    double max_violation = 0.0;
    for (ptrdiff_t k = 0; k < n; k++) {
        ptrdiff_t i = order[k];
        ptrdiff_t start = indptr[i], end = indptr[i + 1];
        double yi = y[i];
        double m = 0.0;
        for (ptrdiff_t j = start; j < end; j++)
            m += w[indices[j]] * data[j];
        double g = yi * (m + b) - 1.0;
        /* projected gradient: min(g, 0) at the lower bound, max(g, 0) at c */
        double a = alpha[i];
        double pg = g;
        if (a == 0.0) {
            if (g > 0.0)
                pg = 0.0;
        } else if (a == c) {
            if (g < 0.0)
                pg = 0.0;
        }
        if (pg > max_violation)
            max_violation = pg;
        else if (-pg > max_violation)
            max_violation = -pg;
        if (pg != 0.0) {
            double next = a - g / qii[i];
            if (next < 0.0)
                next = 0.0;
            if (next > c)
                next = c;
            double delta = (next - a) * yi;
            if (delta != 0.0) {
                for (ptrdiff_t j = start; j < end; j++)
                    w[indices[j]] += delta * data[j];
                b += delta;
                alpha[i] = next;
            }
        }
    }
    *bias = b;
    double w_sq = 0.0;
    for (ptrdiff_t j = 0; j < n_features; j++)
        w_sq += w[j] * w[j];
    double alpha_sum = 0.0;
    for (ptrdiff_t i = 0; i < n; i++)
        alpha_sum += alpha[i];
    *dual = 0.5 * (w_sq + b * b) - alpha_sum;
    return max_violation;
}
