/* The compiled loops of eventforest: the split search of its trees, one
 * candidate test at a time, and the routing and vote splatting of detection.
 *
 * A node's rows are the columns of xt, a C-contiguous (d, n) float64 array,
 * positives first. Candidate k compares the differences xt[r[k]] - xt[q[k]]
 * with the threshold lo + u[k] * (hi - lo), where [lo, hi] is their range.
 * Built with -ffp-contract=off, that threshold takes the same rounding steps
 * as numpy's, so both give it the same bits. -ffinite-math-only and
 * -fno-signed-zeros let gcc vectorize the minimum and maximum; they are exact
 * only on finite differences, which the caller checks. A zero's sign can
 * change lo but not the threshold's bits: when lo is a zero of either sign,
 * lo + u * (hi - lo) is u * hi, or +0.0 where that is a zero.
 *
 * forest.py compiles this file at first use (see _kernel there). It scores
 * every node but a classification node of one class, whose earliest valid
 * test forest.py finds with numpy. route_rows and the two vote functions
 * below serve forest.route and detect.render_tracks; each takes the rounding
 * steps of the numpy code it stands for, so both give the same bits.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define CLONES __attribute__((target_clones("avx512f", "avx2", "default")))

/* Eight doubles, and a comparison's result over them: AVX-512 holds them in
 * one register, the other clones in two or four. */
enum { LANES = 8 };
typedef double lanes __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t mask __attribute__((vector_size(LANES * sizeof(int64_t))));

static inline void load(lanes *v, const double *p)
{
    memcpy(v, p, sizeof *v);
}

/* The threshold of the n differences a - b, stored in diff, and their
 * maximum in *hi. */
static inline double threshold(const double *a, const double *b, int64_t n,
                               double u, double *hi, double *diff)
{
    double lo = a[0] - b[0], top = lo;
    for (int64_t i = 0; i < n; i++) {
        double d = a[i] - b[i];
        diff[i] = d;
        lo = d < lo ? d : lo;
        top = d > top ? d : top;
    }
    *hi = top;
    return lo + u * (top - lo);
}

/* How many of diff[start:stop] lie above tau. */
static inline int64_t count_right(const double *diff, int64_t start,
                                  int64_t stop, double tau)
{
    int64_t count = 0;
    for (int64_t i = start; i < stop; i++)
        count += diff[i] > tau;
    return count;
}

/* The right child's sums of the positives' onset, offset and squared norm,
 * the three rows of the (3, n_pos) array stats. Each lane of a vector sums
 * every LANES-th positive. The distances are whole numbers, so every partial
 * sum is exact and their order does not matter. */
static inline void right_sums(const double *diff, int64_t n_pos, double tau,
                              const double *stats, double *out)
{
    const double *onset = stats, *offset = stats + n_pos;
    const double *norm = stats + 2 * n_pos;
    lanes s0 = {0.0}, s1 = {0.0}, s2 = {0.0};
    lanes cut = s0 + tau;
    int64_t i = 0;
    for (; i + LANES <= n_pos; i += LANES) {
        lanes d, v0, v1, v2;
        load(&d, diff + i);
        load(&v0, onset + i);
        load(&v1, offset + i);
        load(&v2, norm + i);
        /* all ones where the row goes right: keeps a value's bits, else +0.0 */
        mask right = d > cut;
        s0 += (lanes)((mask)v0 & right);
        s1 += (lanes)((mask)v1 & right);
        s2 += (lanes)((mask)v2 & right);
    }
    out[0] = out[1] = out[2] = 0.0;
    for (int j = 0; j < LANES; j++) {
        out[0] += s0[j];
        out[1] += s1[j];
        out[2] += s2[j];
    }
    for (; i < n_pos; i++) {
        if (diff[i] > tau) {
            out[0] += onset[i];
            out[1] += offset[i];
            out[2] += norm[i];
        }
    }
}

/* Each candidate's threshold, its right child's row and positive counts and,
 * when regression is set, its right child's distance sums, three per
 * candidate in sums. diff is a buffer of n doubles; n must be at least 1. */
CLONES void split_counts(const double *xt, int64_t n, int64_t n_pos,
                         const int64_t *r, const int64_t *q, const double *u,
                         int64_t n_candidates, const double *stats,
                         int64_t regression, double *diff, double *tau,
                         double *n_right, double *n_pos_right, double *sums)
{
    for (int64_t k = 0; k < n_candidates; k++) {
        double hi, t = threshold(xt + r[k] * n, xt + q[k] * n, n, u[k], &hi,
                                 diff);
        tau[k] = t;
        /* no difference lies above a threshold at or past the largest one */
        if (!(t < hi)) {
            n_right[k] = n_pos_right[k] = 0.0;
            if (regression)
                sums[3 * k] = sums[3 * k + 1] = sums[3 * k + 2] = 0.0;
            continue;
        }
        int64_t pos = count_right(diff, 0, n_pos, t);
        n_pos_right[k] = (double)pos;
        n_right[k] = (double)(pos + count_right(diff, n_pos, n, t));
        if (regression)
            right_sums(diff, n_pos, t, stats, sums + 3 * k);
    }
}

/* The leaf of every (row, tree) pair of the C-contiguous (n, d) array x, row
 * after row and tree after tree within a row. Split i sends a row to right[i]
 * when x[r[i]] - x[q[i]] > tau[i] and to i + 1 otherwise; a leaf has
 * right[i] == -1. The rows must be finite. */
void route_rows(const double *x, int64_t n, int64_t d, const int64_t *roots,
                int64_t n_trees, const int64_t *right, const int64_t *r,
                const int64_t *q, const double *tau, int64_t *leaf)
{
    for (int64_t i = 0; i < n; i++) {
        const double *row = x + i * d;
        for (int64_t t = 0; t < n_trees; t++) {
            int64_t node = roots[t];
            while (right[node] >= 0)
                node = row[r[node]] - row[q[node]] > tau[node] ? right[node]
                                                               : node + 1;
            *leaf++ = node;
        }
    }
}

/* The kernels of votes [start, stop) of a block: onset kernels, centred
 * mean_on before the vote's segment, then offset kernels, centred mean_off
 * after it. A vote's segment is first + segment[i]. A kernel covers the
 * integer positions within truncation standard deviations of its centre,
 * clipped to [lo, hi); a vote with p < alpha has none. spans[2 * k] and
 * spans[2 * k + 1] get the first position and the number of positions of
 * kernel k, the onset kernels' k counting from 0 and the offset kernels'
 * from stop - start. When they fit in capacity, out gets the exponents
 * -(x - centre)^2 / (2 var) of every kernel's positions x, kernel after
 * kernel. Returns their number. */
CLONES int64_t vote_exponents(const double *p, const int64_t *segment,
                              const double *mean_on, const double *var_on,
                              const double *mean_off, const double *var_off,
                              int64_t start, int64_t stop, double alpha,
                              int64_t first, int64_t lo, int64_t hi,
                              double truncation, int64_t *spans, double *out,
                              int64_t capacity)
{
    int64_t total = 0, *span = spans;
    for (int side = 0; side < 2; side++) {
        const double *mean = side ? mean_off : mean_on;
        const double *var = side ? var_off : var_on;
        for (int64_t i = start; i < stop; i++, span += 2) {
            span[0] = lo;
            span[1] = 0;
            if (p[i] < alpha)
                continue;
            double m = (double)(segment[i] + first);
            double centre = side ? m + mean[i] : m - mean[i];
            double spread = truncation * sqrt(var[i]);
            /* clipped as floats, so a far-off centre casts in range */
            double a = ceil(centre - spread), b = floor(centre + spread);
            a = a < lo ? lo : a > hi ? hi : a;
            b = b < lo - 1 ? lo - 1 : b > hi - 1 ? hi - 1 : b;
            if (b < a)
                continue;
            span[0] = (int64_t)a;
            span[1] = (int64_t)b - span[0] + 1;
            total += span[1];
        }
    }
    if (total > capacity)
        return total;
    span = spans;
    for (int side = 0; side < 2; side++) {
        const double *mean = side ? mean_off : mean_on;
        const double *var = side ? var_off : var_on;
        for (int64_t i = start; i < stop; i++, span += 2) {
            double m = (double)(segment[i] + first);
            double centre = side ? m + mean[i] : m - mean[i];
            for (int64_t k = 0; k < span[1]; k++) {
                double dev = (double)(span[0] + k) - centre;
                *out++ = -(dev * dev) / (2.0 * var[i]);
            }
        }
    }
    return total;
}

/* Adds the kernels of vote_exponents, whose exponentials values holds, to
 * the sums of every gate they pass: vote i passes gate g when
 * !(p[i] < gates[g]), and its kernel on side s then adds to the array at
 * address sums[2 * g + s]. Each value is first made
 * p * (e / sqrt(2 pi var)), as gaussian_pdf and its weight make it. The adds
 * run side by side, gate by gate, then in vote and position order: the
 * order of np.add.at over the block's pairs. */
CLONES void splat_votes(const double *p, const double *var_on,
                        const double *var_off, int64_t start, int64_t stop,
                        const int64_t *spans, double *values, int64_t n_gates,
                        const double *gates, const uint64_t *sums)
{
    const double two_pi = 2.0 * 3.141592653589793;
    for (int side = 0; side < 2; side++) {
        const double *var = side ? var_off : var_on;
        double *v = values;
        const int64_t *span = spans;
        for (int64_t i = start; i < stop; i++, span += 2) {
            double scale = sqrt(two_pi * var[i]);
            for (int64_t k = 0; k < span[1]; k++, v++)
                *v = p[i] * (*v / scale);
        }
        for (int64_t g = 0; g < n_gates; g++) {
            double *sum = (double *)(uintptr_t)sums[2 * g + side];
            const double *w = values;
            span = spans;
            for (int64_t i = start; i < stop; i++, span += 2) {
                if (!(p[i] < gates[g]))
                    for (int64_t k = 0; k < span[1]; k++)
                        sum[span[0] + k] += w[k];
                w += span[1];
            }
        }
        values = v;
        spans = span;
    }
}
