/* dfSDCA kernels: a block of iterations over flat subsets plus offsets, and
 * a block of uniform tau-subset draws.
 *
 * Subset s is idx[off[s]] .. idx[off[s+1] - 1]. Each iteration computes
 * every drawn margin A_i^T w against the pre-update w, summing the row's
 * CSR nonzeros left to right from 0.0, then moves each alpha_i by
 * theta / p_i times delta_i = phi_i'(A_i^T w) + alpha_i and subtracts
 * delta_i theta / (n lam p_i) A_i from w, row after row in subset order.
 * That is the operation order of the numpy reference kernel in
 * tests/test_kernel.py, so with -ffp-contract=off the iterates match it
 * bitwise. The CSR index arrays are int32: the callers reject a dataset
 * whose n, d or nnz does not fit.
 *
 * Every subset is checked before any state changes: offsets that partition
 * idx first, then indices in [0, n) and theta / p_i <= guard over the whole
 * call, then no index twice within a subset. A failed check returns its
 * code with the offending offset position or index in *bad; a repeat is
 * the first one in call order.
 *
 * The draws take Floyd's algorithm (Bentley & Floyd, CACM 30(9), 1987) as
 * numpy's Generator.choice(replace=False) runs it: slot c of a tau-subset of
 * range(units) draws t uniform in [0, units - tau + c] and keeps t, or
 * units - tau + c if t is already in the subset.
 *
 * Both membership tests (a repeat within a subset, a draw already taken)
 * use a byte marker over the index range, allocated per call and cleared
 * after each subset, since an index may recur in the next one.
 *
 * Build: gcc -O2 -ffp-contract=off -shared -fPIC -x c - -lm
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { LOGISTIC = 0, SQUARED = 1, QUADFAM = 2 };  /* order of losses.KINDS */
enum { OK = 0, OUT_OF_RANGE = 1, REPEATED = 2, GUARD = 3, BAD_OFFSETS = 4,
       NO_MEMORY = 5 };

/* Checks every subset; sets *max_m to the largest subset size. */
static int check(int64_t n, const double *p, double theta, double guard,
                 int64_t n_sub, const int64_t *off, const int64_t *idx,
                 int64_t n_idx, int64_t *max_m, int64_t *bad)
{
    int64_t s, r, m = 0;
    int rc = OK;
    unsigned char *seen;
    if (off[0] != 0 || off[n_sub] != n_idx) {
        *bad = off[0] != 0 ? 0 : n_sub;
        return BAD_OFFSETS;
    }
    for (s = 0; s < n_sub; s++) {
        if (off[s + 1] < off[s]) {
            *bad = s + 1;
            return BAD_OFFSETS;
        }
        if (off[s + 1] - off[s] > m)
            m = off[s + 1] - off[s];
    }
    *max_m = m;
    seen = calloc((size_t)n + 1, 1);  /* + 1: no zero-size request */
    if (seen == NULL)
        return NO_MEMORY;
    for (s = 0; s < n_sub; s++) {
        for (r = off[s]; r < off[s + 1]; r++) {
            int64_t i = idx[r];
            if (i < 0 || i >= n || theta / p[i] > guard) {
                *bad = i;
                rc = i < 0 || i >= n ? OUT_OF_RANGE : GUARD;
                goto done;
            }
            if (seen[i] && rc == OK) {  /* range and guard still take precedence */
                *bad = i;
                rc = REPEATED;
            }
            seen[i] = 1;
        }
        for (r = off[s]; r < off[s + 1]; r++)
            seen[idx[r]] = 0;
    }
done:
    free(seen);
    return rc;
}

/* phi_i'(x); the logistic form is -y * expit(-y x), expit(z) = 1/(1+e^-z) */
static inline double gradient(int kind, int64_t i, double x, const double *y,
                              const double *c, const double *b)
{
    if (kind == LOGISTIC) {
        double ny = -y[i];
        return ny * (1.0 / (1.0 + exp(-(ny * x))));
    }
    if (kind == SQUARED)
        return x - y[i];
    return c[i] * x + b[i];
}

int dfsdca_steps(const int32_t *indptr, const int32_t *indices,
                 const double *data, int64_t n, int kind, const double *y,
                 const double *c, const double *b, const double *p,
                 double theta, double guard, double n_lam, int64_t n_sub,
                 const int64_t *off, const int64_t *idx, int64_t n_idx,
                 double *w, double *alpha, int64_t *bad)
{
    int64_t s, r, k, max_m = 0;
    double *margin;
    int rc = check(n, p, theta, guard, n_sub, off, idx, n_idx, &max_m, bad);
    if (rc != OK)
        return rc;
    margin = malloc((size_t)(max_m > 0 ? max_m : 1) * sizeof(double));
    if (margin == NULL)
        return NO_MEMORY;
    for (s = 0; s < n_sub; s++) {
        const int64_t *sub = idx + off[s];
        int64_t m = off[s + 1] - off[s];
        for (r = 0; r < m; r++) {
            int64_t i = sub[r], hi = indptr[i + 1];
            double acc = 0.0;
            for (k = indptr[i]; k < hi; k++)
                acc += data[k] * w[indices[k]];
            margin[r] = acc;
        }
        for (r = 0; r < m; r++) {
            int64_t i = sub[r], hi = indptr[i + 1];
            double delta = gradient(kind, i, margin[r], y, c, b) + alpha[i];
            double coef = delta * theta / (n_lam * p[i]);
            alpha[i] -= theta / p[i] * delta;
            for (k = indptr[i]; k < hi; k++)
                w[indices[k]] -= coef * data[k];
        }
    }
    free(margin);
    return OK;
}

/* Resolves, in place, k rows of tau bounded draws t[r * tau + c] in
 * [0, units - tau + c] into tau-subsets of range(units): entry (r, c)
 * becomes what slot c keeps. Every entry is checked before any is written;
 * one out of range returns OUT_OF_RANGE with its flat position in *bad. */
int dfsdca_tau_subsets(int64_t units, int64_t tau, int64_t k, int64_t *t,
                       int64_t *bad)
{
    int64_t r, c, base = units - tau;
    unsigned char *taken;
    for (r = 0; r < k; r++) {
        for (c = 0; c < tau; c++) {
            int64_t v = t[r * tau + c];
            if (v < 0 || v > base + c) {
                *bad = r * tau + c;
                return OUT_OF_RANGE;
            }
        }
    }
    taken = calloc((size_t)units + 1, 1);
    if (taken == NULL)
        return NO_MEMORY;
    for (r = 0; r < k; r++) {
        int64_t *row = t + r * tau;
        for (c = 0; c < tau; c++) {
            if (taken[row[c]])  /* taken: keep the slot's own top value */
                row[c] = base + c;
            taken[row[c]] = 1;
        }
        for (c = 0; c < tau; c++)
            taken[row[c]] = 0;
    }
    free(taken);
    return OK;
}
