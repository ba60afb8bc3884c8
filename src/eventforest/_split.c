/* The split search of eventforest's trees, one candidate test at a time.
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
 * forest.py compiles this file at first use (see _kernel there).
 */

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

/* The threshold of the n differences a - b, and their maximum in *hi. With
 * diff, the differences are also stored there. */
static inline double threshold(const double *a, const double *b, int64_t n,
                               double u, double *hi, double *diff)
{
    double lo = a[0] - b[0], top = lo;
    for (int64_t i = 0; i < n; i++) {
        double d = a[i] - b[i];
        if (diff)
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

/* The first candidate whose threshold lies below its largest difference,
 * with that threshold in *tau, or -1 when there is none. n must be at
 * least 1. */
CLONES int64_t split_first_valid(const double *xt, int64_t n, const int64_t *r,
                                 const int64_t *q, const double *u,
                                 int64_t n_candidates, double *tau)
{
    for (int64_t k = 0; k < n_candidates; k++) {
        double hi, t = threshold(xt + r[k] * n, xt + q[k] * n, n, u[k], &hi,
                                 NULL);
        if (t < hi) {
            *tau = t;
            return k;
        }
    }
    return -1;
}
