/* The compiled loops of emco, loaded with ctypes by classifier.load_kernel:
 *
 * - dcd_epochs, the epoch loop of classifier.train: dual coordinate descent
 *   for the L1-loss linear SVM, with the bias as a separate variable;
 * - row_cumsum and chain_walk, the running sums of a chain's transition table
 *   and the random walk over it (chain.py).
 *
 * Each keeps the statements of its Python twin (classifier._python_epochs,
 * chain._running_sums and chain._walk), in the same order, and every sum runs
 * left to right, so both give the same bytes when this file is built without
 * contraction (-ffp-contract=off) and without -ffast-math. Index arrays are
 * C-contiguous np.intp (ptrdiff_t), values float64; the callers check every
 * index before a call.
 *
 * dcd_epochs runs a whole training in one call, up to a given number of
 * epochs, and draws each epoch's row order itself: the Fisher-Yates shuffle
 * of Generator.permutation(n), on the Generator's own uint32 stream. Row i is
 * indices/data[indptr[i] .. indptr[i + 1]), read as they come from
 * vectorize.to_csr. The caller checks that every index is in [0, n_features)
 * and every value is finite.
 */
#include <stddef.h>
#include <stdint.h>

/* One epoch over the rows in `order`: updates w, *bias and alpha in place,
 * writes the dual objective 0.5 * (||w||^2 + bias^2) - sum(alpha) after it
 * to *dual, and returns its max projected-gradient violation. */
static double dcd_epoch(const ptrdiff_t *indptr, const ptrdiff_t *indices,
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

/* Writes to order the permutation that Generator.permutation(n) would give
 * next: arange(n), then for i from n - 1 down to 1 a swap of order[i] with
 * order[j], j drawn in [0, i] as numpy's random_interval draws it, by masking
 * next_uint32 to the smallest all-ones mask >= i and drawing again while the
 * result exceeds i. numpy takes next_uint64 instead once i exceeds
 * 0xffffffff, so this assumes fewer than 2^32 rows: beyond that y, qii and
 * alpha alone would need 96 GiB. */
static void draw_permutation(ptrdiff_t *order, ptrdiff_t n,
                             uint32_t (*next_uint32)(void *), void *bitgen_state)
{
    for (ptrdiff_t k = 0; k < n; k++)
        order[k] = k;
    for (ptrdiff_t i = n - 1; i > 0; i--) {
        uint32_t max = (uint32_t)i, mask = max, j;
        mask |= mask >> 1;
        mask |= mask >> 2;
        mask |= mask >> 4;
        mask |= mask >> 8;
        mask |= mask >> 16;
        while ((j = next_uint32(bitgen_state) & mask) > max)
            ;
        ptrdiff_t swap = order[i];
        order[i] = order[j];
        order[j] = swap;
    }
}

/* Up to max_epochs epochs of classifier.train from (w, *bias, alpha), each
 * over the rows in the order draw_permutation gives; order is scratch space
 * of n entries. Epoch e writes its dual value to duals[e]. Stops after the
 * first epoch whose max violation is at most tol, writes the last epoch's
 * max violation to *violation and returns the number of epochs run.
 * next_uint32 and bitgen_state are those of a numpy Generator's
 * bit_generator.ctypes, so the draws continue the Generator's stream: a
 * training split across several calls runs the same epochs as one call. */
ptrdiff_t dcd_epochs(const ptrdiff_t *indptr, const ptrdiff_t *indices,
                     const double *data, const double *y, const double *qii,
                     ptrdiff_t n, ptrdiff_t n_features, double c, double tol,
                     ptrdiff_t max_epochs, uint32_t (*next_uint32)(void *),
                     void *bitgen_state, ptrdiff_t *order, double *w, double *bias,
                     double *alpha, double *duals, double *violation)
{
    for (ptrdiff_t e = 0; e < max_epochs; e++) {
        draw_permutation(order, n, next_uint32, bitgen_state);
        *violation = dcd_epoch(indptr, indices, data, y, qii, order, n, n_features,
                               c, w, bias, alpha, &duals[e]);
        if (*violation <= tol)
            return e + 1;
    }
    return max_epochs;
}

/* The running sums of each row r of weights[indptr[r] .. indptr[r + 1]),
 * written to cumsum at the same positions. Each row starts from its first
 * weight and adds the others left to right, as itertools.accumulate does. */
void row_cumsum(const ptrdiff_t *indptr, const double *weights, ptrdiff_t n_rows,
                double *cumsum)
{
    for (ptrdiff_t r = 0; r < n_rows; r++) {
        ptrdiff_t start = indptr[r], end = indptr[r + 1];
        if (start == end)
            continue;
        double s = weights[start];
        cumsum[start] = s;
        for (ptrdiff_t j = start + 1; j < end; j++) {
            s += weights[j];
            cumsum[j] = s;
        }
    }
}

/* One walk from the stop state until `length` states other than the stop
 * state have been written to out. In state s, the step samples row
 * r = sampling[s]: it draws u = next_double(bitgen_state), takes the
 * position bisect_right would give for u * total[r] among the running sums
 * cumsum[indptr[r] .. indptr[r + 1]), clamped to the row's last entry, and
 * moves to the target there. Every sampled row is nonempty and every target
 * in [0, stop]. next_double and bitgen_state are those of a numpy
 * Generator's bit_generator.ctypes, so each step takes the uniform that
 * Generator.random would give next. */
void chain_walk(const ptrdiff_t *indptr, const ptrdiff_t *targets, const double *cumsum,
                const double *total, const ptrdiff_t *sampling, ptrdiff_t stop,
                ptrdiff_t length, double (*next_double)(void *), void *bitgen_state,
                ptrdiff_t *out)
{
    ptrdiff_t current = stop;
    ptrdiff_t written = 0;
    while (written < length) {
        ptrdiff_t r = sampling[current];
        ptrdiff_t lo = indptr[r], hi = indptr[r + 1];
        double x = next_double(bitgen_state) * total[r];
        ptrdiff_t end = hi;
        while (lo < hi) { /* bisect_right */
            ptrdiff_t mid = lo + (hi - lo) / 2;
            if (x < cumsum[mid])
                hi = mid;
            else
                lo = mid + 1;
        }
        current = targets[lo < end ? lo : end - 1];
        if (current != stop)
            out[written++] = current;
    }
}
