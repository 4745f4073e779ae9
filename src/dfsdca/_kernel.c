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
 * bitwise.
 *
 * Every subset is checked before any state changes: indices in [0, n), no
 * index twice within a subset, theta / p_i <= guard, and offsets that
 * partition idx. A failed check returns its code with the offending index
 * (or offset position) in *bad.
 *
 * The draws take Floyd's algorithm (Bentley & Floyd, CACM 30(9), 1987) as
 * numpy's Generator.choice(replace=False) runs it: slot c of a tau-subset of
 * range(units) draws t uniform in [0, units - tau + c] and keeps t, or
 * units - tau + c if t is already in the subset.
 *
 * Build: gcc -O2 -ffp-contract=off -shared -fPIC -x c - -lm
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { LOGISTIC = 0, SQUARED = 1, QUADFAM = 2 };  /* order of losses.KINDS */
enum { OK = 0, OUT_OF_RANGE = 1, REPEATED = 2, GUARD = 3, BAD_OFFSETS = 4,
       NO_MEMORY = 5 };

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* Checks every subset; sets *max_m to the largest subset size. A subset
 * that is not strictly increasing is sorted into a scratch copy to look
 * for a repeat. */
static int check(int64_t n, const double *p, double theta, double guard,
                 int64_t n_sub, const int64_t *off, const int64_t *idx,
                 int64_t n_idx, int64_t *max_m, int64_t *bad)
{
    int64_t s, r, m = 0, *scratch;
    int sorted = 1, rc = OK;
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
    for (s = 0; s < n_sub; s++) {
        for (r = off[s]; r < off[s + 1]; r++) {
            int64_t i = idx[r];
            if (i < 0 || i >= n) {
                *bad = i;
                return OUT_OF_RANGE;
            }
            if (theta / p[i] > guard) {
                *bad = i;
                return GUARD;
            }
            if (r > off[s] && i <= idx[r - 1])
                sorted = 0;
        }
    }
    if (sorted)
        return OK;
    scratch = malloc((size_t)m * sizeof(int64_t));
    if (scratch == NULL)
        return NO_MEMORY;
    for (s = 0; s < n_sub && rc == OK; s++) {
        int64_t k = off[s + 1] - off[s];
        memcpy(scratch, idx + off[s], (size_t)k * sizeof(int64_t));
        qsort(scratch, (size_t)k, sizeof(int64_t), cmp_i64);
        for (r = 1; r < k && rc == OK; r++) {
            if (scratch[r] == scratch[r - 1]) {
                *bad = scratch[r];
                rc = REPEATED;
            }
        }
    }
    free(scratch);
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

/* The iterations, for one CSR index width; inlined into each caller so the
 * width is a compile-time constant there. */
static inline __attribute__((always_inline)) void
iterate(int wide, const void *indptr, const void *indices, const double *data,
        int kind, const double *y, const double *c, const double *b,
        const double *p, double theta, double n_lam, int64_t n_sub,
        const int64_t *off, const int64_t *idx, double *w, double *alpha,
        double *margin)
{
    const int32_t *ptr32 = indptr, *ind32 = indices;
    const int64_t *ptr64 = indptr, *ind64 = indices;
    int64_t s, r, k;
    for (s = 0; s < n_sub; s++) {
        const int64_t *sub = idx + off[s];
        int64_t m = off[s + 1] - off[s];
        for (r = 0; r < m; r++) {
            int64_t i = sub[r];
            int64_t lo = wide ? ptr64[i] : ptr32[i];
            int64_t hi = wide ? ptr64[i + 1] : ptr32[i + 1];
            double acc = 0.0;
            for (k = lo; k < hi; k++)
                acc += data[k] * w[wide ? ind64[k] : ind32[k]];
            margin[r] = acc;
        }
        for (r = 0; r < m; r++) {
            int64_t i = sub[r];
            int64_t lo = wide ? ptr64[i] : ptr32[i];
            int64_t hi = wide ? ptr64[i + 1] : ptr32[i + 1];
            double delta = gradient(kind, i, margin[r], y, c, b) + alpha[i];
            double coef = delta * theta / (n_lam * p[i]);
            alpha[i] -= theta / p[i] * delta;
            for (k = lo; k < hi; k++)
                w[wide ? ind64[k] : ind32[k]] -= coef * data[k];
        }
    }
}

int dfsdca_steps(int wide, const void *indptr, const void *indices,
                 const double *data, int64_t n, int kind, const double *y,
                 const double *c, const double *b, const double *p,
                 double theta, double guard, double n_lam, int64_t n_sub,
                 const int64_t *off, const int64_t *idx, int64_t n_idx,
                 double *w, double *alpha, int64_t *bad)
{
    int64_t max_m = 0;
    double *margin;
    int rc = check(n, p, theta, guard, n_sub, off, idx, n_idx, &max_m, bad);
    if (rc != OK)
        return rc;
    margin = malloc((size_t)(max_m > 0 ? max_m : 1) * sizeof(double));
    if (margin == NULL)
        return NO_MEMORY;
    if (wide)
        iterate(1, indptr, indices, data, kind, y, c, b, p, theta, n_lam,
                n_sub, off, idx, w, alpha, margin);
    else
        iterate(0, indptr, indices, data, kind, y, c, b, p, theta, n_lam,
                n_sub, off, idx, w, alpha, margin);
    free(margin);
    return OK;
}

/* Resolves, in place, k rows of tau bounded draws t[r * tau + c] in
 * [0, units - tau + c] into tau-subsets of range(units): entry (r, c)
 * becomes what slot c keeps. Every entry is checked before any is written;
 * one out of range returns OUT_OF_RANGE with its flat position in *bad.
 * The subset so far lives in an open-addressed hash set whose size is the
 * power of two above 1.2 tau, probed linearly from the value's low bits. */
int dfsdca_tau_subsets(int64_t units, int64_t tau, int64_t k, int64_t *t,
                       int64_t *bad)
{
    int64_t r, c, base = units - tau;
    uint64_t size = 1, mask, *set;
    for (r = 0; r < k; r++) {
        for (c = 0; c < tau; c++) {
            int64_t v = t[r * tau + c];
            if (v < 0 || v > base + c) {
                *bad = r * tau + c;
                return OUT_OF_RANGE;
            }
        }
    }
    while (size <= (uint64_t)(1.2 * (double)tau))
        size <<= 1;
    mask = size - 1;
    set = malloc(size * sizeof(uint64_t));
    if (set == NULL)
        return NO_MEMORY;
    for (r = 0; r < k; r++) {
        int64_t *row = t + r * tau;
        memset(set, 0xff, size * sizeof(uint64_t));
        for (c = 0; c < tau; c++) {
            uint64_t val = (uint64_t)row[c], loc = val & mask;
            while (set[loc] != UINT64_MAX && set[loc] != val)
                loc = (loc + 1) & mask;
            if (set[loc] == val) {  /* taken: keep the slot's own top value */
                val = (uint64_t)(base + c);
                loc = val & mask;
                while (set[loc] != UINT64_MAX)
                    loc = (loc + 1) & mask;
            }
            set[loc] = val;
            row[c] = (int64_t)val;
        }
    }
    free(set);
    return OK;
}
