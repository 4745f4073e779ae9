/* dfSDCA kernels: a block of iterations over flat subsets plus offsets, a
 * block of uniform tau-subset draws, the synthetic generator's row draws,
 * a LIBSVM parser, the pass that checks a Dataset's CSR arrays and takes
 * its row norms, the row pass with its loss epilogue, the transpose, and
 * the reference oracle's Hessian products.
 *
 * Every product of a CSR matrix with a vector sums each row's entries left
 * to right from 0.0, the order of scipy's csr_matvec: row_sum does it for
 * the row pass behind Dataset.margins and combine (the latter over the
 * transpose) and for both passes of the Hessian products, each with an
 * epilogue of its own, and the step kernel's margins sum the same way. The
 * losses follow numpy's and scipy's operation order, with libm's exp and
 * log1p, as they call them (loss_at).
 *
 * Subset s is idx[off[s]] .. idx[off[s+1] - 1]. Each iteration computes
 * every drawn margin A_i^T w against the pre-update w, summing the row's
 * CSR nonzeros left to right from 0.0, then moves each alpha_i by
 * theta / p_i times delta_i = phi_i'(A_i^T w) + alpha_i and
 * subtracts delta_i theta / (n lam p_i) A_i from w, row after row in subset
 * order. That is the operation order of the numpy reference kernel in
 * tests/test_kernel.py, so with -ffp-contract=off the iterates match it
 * bitwise. It reads a Dataset's own int32 CSR binding (struct csr).
 *
 * Every subset is checked before any state changes: offsets that partition
 * idx first, then indices in [0, n) and theta / p_i <= guard over the whole
 * call, then no index twice within a subset. A failed check returns its
 * code with the offending offset position or index in *bad; a repeat is
 * the first one in call order.
 *
 * The draws come from numpy's own distribution code: the library links
 * numpy's static libnpyrandom.a (numpy/random/lib), whose
 * random_bounded_uint64 draws a bounded integer by Lemire's rule (Lemire,
 * "Fast Random Integer Generation in an Interval", ACM TOMACS 2019) and
 * whose random_standard_normal_fill runs the ziggurat, on the caller's
 * bitgen_t (numpy/random/bitgen.h). The caller holds the bit generator's
 * lock. So a pass makes exactly the draws that numpy's Python-level calls
 * would make, and leaves the generator where they leave it.
 *
 * The tau-subset draws take Floyd's algorithm (Bentley & Floyd, CACM 30(9),
 * 1987) as numpy's Generator.choice(replace=False) runs it: slot c of a
 * tau-subset of range(units) draws t uniform in [0, units - tau + c] and
 * keeps t, or units - tau + c if t is already in the subset. The row pass
 * (dfsdca_choice_rows) replays all of rng.choice(d, k, replace=False) per
 * row, in both of numpy's regimes, then rng.standard_normal(k). Each row's
 * columns are written sorted.
 *
 * Both membership tests (a repeat within a subset, a draw already taken)
 * use a byte marker over the index range, allocated per call and cleared
 * after each subset, since an index may recur in the next one.
 *
 * The LIBSVM parser (dfsdca_parse_libsvm) reads `label idx:val ...` lines
 * from a byte buffer in pieces of whole lines, cut right after a \n, one
 * thread per piece, each piece in one pass with every scan bounded by the
 * piece's length. A counting pass (dfsdca_libsvm_bounds) cuts the pieces
 * and bounds each one's rows by its line breaks and its entries by its
 * colons, which places each piece's rows in the caller's arrays; after the
 * threads are joined the pieces are moved together. So the arrays, and the
 * first error in reading order, are the same whatever the number of
 * pieces. Lines
 * break as Python's str.splitlines() breaks ASCII text: at \n, \r\n, \r,
 * \v, \f and \x1c-\x1e. Tokens are split at space, \t and \x1f, the
 * other ASCII whitespace of str.split(), and '#' starts a comment that runs
 * to the line break. Each token is read in one forward scan that checks it
 * against a grammar of its own (below) and converts it, without libc: an
 * index's digits up to its ':' by an integer reader with exact overflow
 * checks, then the value's sign, digits, '.', digits and exponent, the
 * digits 8 at a time where 8 bytes remain in the buffer (Lemire's SWAR
 * check and combine, as fast_float runs them). A value with at most 19
 * significant digits and a decimal exponent in [-342, 308] is converted by
 * Lemire's Eisel-Lemire algorithm (arXiv:2101.11408) against the caller's
 * table of 128-bit powers of five. Only the other values (more digits, an
 * exponent outside the table, a subnormal or overflowing result, inf and
 * nan) fall back to strtod_l on a copy of the number, under a "C" numeric
 * locale of its own, so the caller's setlocale changes neither path.
 * Eisel-Lemire and strtod_l both round correctly, as Python's float()
 * does, so a value gets float()'s bits whichever path reads it. The byte
 * after a number must end its token; only a malformed token is scanned
 * again, to name it. A byte >= 0x80 anywhere is an error. The first error
 * in reading order stops the parse and returns its code, with its line
 * number and the byte span of the token at fault (of the byte, for
 * NON_ASCII) in info.
 *
 * The Dataset pass (dfsdca_csr_pass) reads each row once: it checks that
 * indptr delimits the rows, that the indices increase strictly and lie in
 * [0, d) and that no value is an explicit zero, counts the entries, sums
 * the squares left to right from 0.0 (np.bincount's order, so the norms
 * keep its bits) and writes the index arrays as int32. It reports the
 * first row at fault for each kind of fault, and the caller raises them in
 * a fixed order.
 *
 * The row pass (dfsdca_rows) gives the margins A x and, for each loss
 * kind, on request the losses phi_i, the matched duals -phi_i' and the
 * curvatures phi_i'' at them; run on given margins it is the loss pass
 * alone. The transpose (dfsdca_transpose) is a stable counting pass, so
 * unique: the arrays of scipy's csr_tocsc.
 *
 * The oracle's Hessian products (dfsdca_hessian_*) fuse the row pass and
 * the row pass over the transpose (the column pass) with the vector
 * arithmetic of numpy's expressions, each with its own epilogue, so with
 * their bits. A helper thread, started once per oracle call and joined
 * before it returns, may take the second half of either pass; the caller
 * runs any half the helper has not claimed, so it never waits for a helper
 * that is not running. The comment above dfsdca_hessian_open has the rest.
 *
 * Build: gcc -O2 -ffp-contract=off -shared -fPIC -pthread -I <numpy include>
 *        -x c - -x none <numpy>/random/lib/libnpyrandom.a -lm
 *        -Wl,--exclude-libs,ALL
 */
#define _GNU_SOURCE  /* strtod_l, the parser's fallback */
#include <locale.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#include "numpy/random/bitgen.h"

enum { LOGISTIC = 0, SQUARED = 1, QUADFAM = 2 };  /* order of losses.KINDS */
enum { OK = 0, OUT_OF_RANGE = 1, REPEATED = 2, GUARD = 3, BAD_OFFSETS = 4,
       NO_MEMORY = 5, BAD_LABEL = 6, NO_COLON = 7, BAD_TOKEN = 8,
       NOT_ONE_BASED = 9, INDEX_TOO_LARGE = 10, NOT_INCREASING = 11,
       NON_ASCII = 12 };

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

/* A rows x cols matrix as int32 CSR arrays: row i is entries indptr[i] ..
 * indptr[i + 1] - 1 of indices and data. The kernels read it unchecked:
 * one is bound only over arrays that dfsdca_csr_pass has checked or that
 * dfsdca_transpose wrote (_kernel.Csr). */
struct csr {
    int64_t rows;
    const int32_t *indptr, *indices;
    const double *data;
};

/* sum_k A_ik x_k over row i's entries (A_ik A_ik x_k if squared), left to
 * right from 0.0: the order of scipy's csr_matvec */
static inline double row_sum(const struct csr *A, int64_t i, const double *x,
                             bool squared)
{
    const int32_t *indices = A->indices;
    const double *data = A->data;
    double s = 0.0;
    /* unrolled, the loop keeps its order of additions; on rows of some 17
     * entries it took 70 us where csr_matvec took 80 (85 000 entries, 2
     * cores). The step kernel, which reads rows in random order, keeps a
     * plain loop: there the remainder's dispatch costs more than it saves */
#pragma GCC unroll 8
    for (int32_t k = A->indptr[i]; k < A->indptr[i + 1]; k++)
        s += (squared ? data[k] * data[k] : data[k]) * x[indices[k]];
    return s;
}

/* A loss kind and its per-example parameters: y for LOGISTIC and SQUARED,
 * c and b for QUADFAM; the others are not read. */
struct loss {
    int64_t kind;
    const double *y, *c, *b;
};

/* scipy.special.expit's form, 1 / (1 + exp(-z)) */
static inline double expit(double z)
{
    return 1.0 / (1.0 + exp(-z));
}

#define LOGE2 0.693147180559945309417232121458176568

/* log(1 + exp(t)) as numpy's npy_logaddexp(0, t) computes it */
static inline double logaddexp0(double t)
{
    const double x = 0.0, tmp = x - t;
    if (x == t)
        return x + LOGE2;
    if (tmp > 0)
        return x + log1p(exp(-tmp));
    if (tmp <= 0)
        return t + log1p(exp(tmp));
    return tmp;  /* NaN */
}

/* phi_e(m), -phi_e'(m) and phi_e''(m) into *value, *alpha and *curv, each
 * only where it is not NULL, in the operation order of the numpy and scipy
 * forms they replaced (tests/test_row_pass.py keeps them): with
 * t = (-y) m, the logistic value is np.logaddexp(0.0, t),
 * phi' = (-y) expit(t) and phi'' = s (1 - s) for s = expit(t); the squared
 * loss takes r = m - y, 0.5 r r, r and 1; the quadratic family
 * 0.5 c m m + b m, c m + b and c. */
static inline void loss_at(const struct loss *L, int64_t e, double m, double *value,
                           double *alpha, double *curv)
{
    if (L->kind == LOGISTIC) {
        double ny = -L->y[e], t = ny * m;
        if (value != NULL)
            *value = logaddexp0(t);
        if (alpha != NULL || curv != NULL) {
            double s = expit(t);
            if (alpha != NULL)
                *alpha = -(ny * s);
            if (curv != NULL)
                *curv = s * (1.0 - s);
        }
    } else if (L->kind == SQUARED) {
        double r = m - L->y[e];
        if (value != NULL)
            *value = 0.5 * r * r;
        if (alpha != NULL)
            *alpha = -r;
        if (curv != NULL)
            *curv = 1.0;
    } else {
        double c = L->c[e], b = L->b[e];
        if (value != NULL)
            *value = 0.5 * c * m * m + b * m;
        if (alpha != NULL)
            *alpha = -(c * m + b);
        if (curv != NULL)
            *curv = c;
    }
}

int dfsdca_steps(const struct csr *A, const struct loss *L, const double *p,
                 double theta, double guard, double n_lam, int64_t n_sub,
                 const int64_t *off, const int64_t *idx, int64_t n_idx,
                 double *w, double *alpha, int64_t *bad)
{
    const int32_t *indptr = A->indptr, *indices = A->indices;
    const double *data = A->data;
    int64_t s, r, k, n = A->rows, max_m = 0;
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
            double neg, delta, coef;
            loss_at(L, i, margin[r], NULL, &neg, NULL);
            /* -neg is phi_i' exactly: a negation only flips the sign */
            delta = -neg + alpha[i];
            coef = delta * theta / (n_lam * p[i]);
            alpha[i] -= theta / p[i] * delta;
            for (k = indptr[i]; k < hi; k++)
                w[indices[k]] -= coef * data[k];
        }
    }
    free(margin);
    return OK;
}

/* numpy/random/distributions.h declares these two, but it includes Python.h */
uint64_t random_bounded_uint64(bitgen_t *bitgen_state, uint64_t off,
                               uint64_t rng, uint64_t mask, bool use_masked);
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t cnt,
                                 double *out);

/* A uniform integer in [0, top], by numpy's Lemire rule. */
static inline int64_t bounded(bitgen_t *bg, int64_t top)
{
    return (int64_t)random_bounded_uint64(bg, 0, (uint64_t)top, 0, false);
}

/* Floyd's draws of one k-subset of range(top + 1), in slot order: slot c
 * draws t in [0, top - k + 1 + c] and keeps t, or that top if t is taken.
 * taken[] is all zero on entry and on return. */
static void floyd(bitgen_t *bg, int64_t top, int64_t k, int64_t *row,
                  unsigned char *taken)
{
    int64_t c, base = top + 1 - k;
    for (c = 0; c < k; c++) {
        int64_t t = bounded(bg, base + c);
        if (taken[t])
            t = base + c;
        taken[t] = 1;
        row[c] = t;
    }
    for (c = 0; c < k; c++)
        taken[row[c]] = 0;
}

/* Draws k uniform tau-subsets of range(units) into the rows of out,
 * out[r * tau + c]: row after row, Floyd's draws as above. */
int dfsdca_tau_subsets(bitgen_t *bg, int64_t units, int64_t tau, int64_t k,
                       int64_t *out)
{
    int64_t r;
    unsigned char *taken = calloc((size_t)units + 1, 1);
    if (taken == NULL)
        return NO_MEMORY;
    for (r = 0; r < k; r++)
        floyd(bg, units - 1, tau, out + r * tau, taken);
    free(taken);
    return OK;
}

/* Sorts the k distinct columns in [0, d) of a row in place: by insertion,
 * or where 4 k k > d, by marking them in taken[] (all zero on entry and on
 * return) and scanning range(d) for the marks, without a branch per mark. */
static void sort_row(int64_t *row, int64_t k, int64_t d, unsigned char *taken)
{
    int64_t i, j;
    if (4 * k * k > d) {
        for (i = 0; i < k; i++)
            taken[row[i]] = 1;
        for (i = j = 0; i < k; j++) {
            row[i] = j;
            i += taken[j];
            taken[j] = 0;
        }
        return;
    }
    for (i = 1; i < k; i++) {
        int64_t v = row[i];
        for (j = i; j > 0 && row[j - 1] > v; j--)
            row[j] = row[j - 1];
        row[j] = v;
    }
}

/* Draws n sparse rows of dimension d, row r holding k = counts[r] entries,
 * laid end to end in cols and vals. Each row makes the draws of
 * rng.choice(d, k, replace=False) then rng.standard_normal(k), so the
 * generator ends where those calls leave it: Floyd's draws plus numpy's
 * shuffle of the k kept (bounds k - 1 down to 1) where d <= 10000 or
 * k <= d / 50, else numpy's shuffle of the tail of range(d) from position
 * d - 1 down to max(d - k, 1), keeping the last k. The shuffle's own order
 * is not kept: a row's columns are choice's set, sorted (sort_row). A value
 * of 0.0 becomes 1.0. A count outside [0, d] returns OUT_OF_RANGE with its
 * row in *bad, before any draw. */
int dfsdca_choice_rows(bitgen_t *bg, int64_t d, int64_t n,
                       const int64_t *counts, int64_t *cols, double *vals,
                       int64_t *bad)
{
    int64_t r, i, pos = 0;
    unsigned char *taken;
    int64_t *pool = NULL;
    for (r = 0; r < n; r++) {
        if (counts[r] < 0 || counts[r] > d) {
            *bad = r;
            return OUT_OF_RANGE;
        }
    }
    taken = calloc((size_t)d + 1, 1);
    if (taken == NULL)
        return NO_MEMORY;
    for (r = 0; r < n; r++) {
        int64_t k = counts[r], *row = cols + pos;
        if (d <= 10000 || k <= d / 50) {
            floyd(bg, d - 1, k, row, taken);
            for (i = k - 1; i >= 1; i--)
                bounded(bg, i);
        } else {
            if (pool == NULL && (pool = malloc((size_t)d * sizeof *pool)) == NULL) {
                free(taken);
                return NO_MEMORY;
            }
            for (i = 0; i < d; i++)
                pool[i] = i;
            for (i = d - 1; i >= (d - k > 1 ? d - k : 1); i--) {
                int64_t j = bounded(bg, i), v = pool[j];
                pool[j] = pool[i];
                pool[i] = v;
            }
            memcpy(row, pool + d - k, (size_t)k * sizeof *row);
        }
        sort_row(row, k, d, taken);
        random_standard_normal_fill(bg, k, vals + pos);
        for (i = 0; i < k; i++)
            if (vals[pos + i] == 0.0)
                vals[pos + i] = 1.0;
        pos += k;
    }
    free(pool);
    free(taken);
    return OK;
}

/* Bit c is set for the control bytes c < 32 that break a line as
 * str.splitlines() breaks ASCII text (\n, \v, \f, \r, \x1c-\x1e; \r\n is
 * one break), and for the rest of str.split()'s ASCII whitespace, besides
 * the space (\t, \x1f). */
#define BREAKS 0x70003C00u
#define BLANKS 0x80000200u

static inline int is_break(unsigned char ch)
{
    return ch < 32 && (BREAKS >> ch & 1);
}

static inline int is_blank(unsigned char ch)
{
    return ch == ' ' || (ch < 32 && (BLANKS >> ch & 1));
}

/* neither whitespace, a line break, '#' nor a byte >= 0x80 */
static inline int in_token(unsigned char ch)
{
    if (ch > ' ')
        return ch != '#' && ch < 0x80;
    return ch < ' ' && !((BREAKS | BLANKS) >> ch & 1);
}

typedef unsigned char bytes16 __attribute__((vector_size(16)));

/* Upper bounds for a piece's arrays: bounds[0] = rows (line breaks + 1),
 * bounds[1] = entries (colons). Counted 16 bytes at a time in byte-wide
 * lanes, which are summed before they can wrap, every 255 blocks; the
 * lanes test the bytes of BREAKS as two ranges, \n-\r and \x1c-\x1e. */
static void count_bounds(const unsigned char *buf, int64_t len, int64_t *bounds)
{
    int64_t k = 0, breaks = 0, colons = 0;
    int i;
    while (len - k >= 16) {
        bytes16 in_breaks = {0}, in_colons = {0};
        int64_t stop = k + 16 * (len - k >= 16 * 255 ? 255 : (len - k) / 16);
        for (; k < stop; k += 16) {
            bytes16 c;
            memcpy(&c, buf + k, sizeof c);
            /* a lane that compares true is all ones, -1 */
            in_breaks -= (bytes16)((c - '\n' < 4) | (c - 0x1c < 3));
            in_colons -= (bytes16)(c == ':');
        }
        for (i = 0; i < 16; i++) {
            breaks += in_breaks[i];
            colons += in_colons[i];
        }
    }
    for (; k < len; k++) {
        breaks += is_break(buf[k]);
        colons += buf[k] == ':';
    }
    bounds[0] = breaks + 1;
    bounds[1] = colons;
}

/* Cuts buf into `pieces` pieces and bounds each one's arrays: piece p is
 * bounds[4p] .. bounds[4p + 1] - 1, with at most bounds[4p + 2] rows and
 * bounds[4p + 3] entries. Piece p > 0 starts right after the first \n at
 * or past p * len / pieces, or where piece p - 1 ends if that is later, or
 * at len if there is none. A \n always ends a line and never sits inside a
 * token or splits a \r\n, so every piece but the last is whole lines; a
 * piece may be empty. */
void dfsdca_libsvm_bounds(const unsigned char *buf, int64_t len, int64_t pieces,
                          int64_t *bounds)
{
    int64_t p, cut = 0;
    for (p = 0; p < pieces; p++) {
        int64_t *b = bounds + 4 * p, end = len;
        if (p + 1 < pieces) {
            int64_t near = (int64_t)((__int128)len * (p + 1) / pieces);
            const unsigned char *nl;
            if (near < cut)
                near = cut;
            nl = memchr(buf + near, '\n', (size_t)(len - near));
            if (nl != NULL)
                end = nl - buf + 1;
        }
        b[0] = cut;
        b[1] = end;
        count_bounds(buf + cut, end - cut, b + 2);
        cut = end;
    }
}

static int64_t skip_sign(const unsigned char *s, int64_t k, int64_t len)
{
    return k < len && (s[k] == '+' || s[k] == '-') ? k + 1 : k;
}

static inline int is_digit(unsigned char ch)
{
    return ch >= '0' && ch <= '9';
}

/* s[k:] starts with the lower-case word w, in any case */
static int starts_with(const unsigned char *s, int64_t k, int64_t len, const char *w)
{
    int64_t i;
    for (i = 0; w[i] != '\0'; i++)
        if (k + i >= len || (s[k + i] | 0x20) != w[i])
            return 0;
    return 1;
}

/* Whether the token of a number that ends at s[k] goes on: at a byte that
 * is neither whitespace, a line break nor '#', which makes the token
 * malformed, or at a byte >= 0x80, an error of its own */
static inline int goes_on(const unsigned char *s, int64_t k, int64_t len)
{
    return k < len && !is_blank(s[k]) && !is_break(s[k]) && s[k] != '#';
}

/* Scans an index [+-]?[0-9]+ from s[*k], leaving *k after its digits.
 * Returns BAD_TOKEN where there is no digit, else strtoll's outcome:
 * NOT_ONE_BASED for a '-' or a zero, however many digits, else
 * INDEX_TOO_LARGE from 2**63, else OK with the index in *j. */
static int scan_index(const unsigned char *s, int64_t *k, int64_t len, int64_t *j)
{
    int64_t a = *k, i = skip_sign(s, a, len), digits = i;
    uint64_t v = 0;
    int big = 0;
    for (; i < len && is_digit(s[i]); i++) {
        uint64_t d = s[i] - '0';
        if (big || v > (INT64_MAX - d) / 10)  /* 10 v + d would pass 2**63 - 1 */
            big = 1;
        else
            v = 10 * v + d;
    }
    *k = i;
    if (i == digits)
        return BAD_TOKEN;
    if (s[a] == '-' || v == 0)
        return NOT_ONE_BASED;
    if (big)
        return INDEX_TOO_LARGE;
    *j = (int64_t)v;
    return OK;
}

/* scan_real's outcomes besides OK: no number, or one that only to_real
 * converts */
enum { NOT_A_NUMBER = -1, SLOW = -2 };

/* The decimal exponents q whose 5**q pow5 holds */
#define POW5_MIN (-342)
#define POW5_MAX 308

/* w * 10**q, for 0 < w < 10**19 and q in [POW5_MIN, POW5_MAX], correctly
 * rounded to nearest, ties to even, by Eisel-Lemire (Lemire, "Number
 * Parsing at a Gigabyte per Second", Software: Practice and Experience
 * 51(8), 2021, arXiv:2101.11408), as fast_float's compute_float runs it.
 * pow5[2 (q - POW5_MIN)] and the word after it are the high and low 64
 * bits of 5**q scaled into [2**127, 2**128) (_kernel.pow5_table says how
 * they are rounded). The product of w with the high word, refined by the
 * low word when the 9 bits below the product's top 55 are all ones, always
 * decides the rounding (Mushtak & Lemire, "Fast Number Parsing Without
 * Fallback", arXiv:2212.06644). Returns 0 where the result would be
 * subnormal or overflow, which to_real converts. */
static int eisel_lemire(uint64_t w, int64_t q, const uint64_t *pow5, double *x)
{
    const uint64_t *t = pow5 + 2 * (q - POW5_MIN);
    int lz = __builtin_clzll(w);
    __extension__ unsigned __int128 full;
    uint64_t hi, lo, upper, mantissa, bits;
    int shift;
    int64_t power2;
    w <<= lz;
    full = (unsigned __int128)w * t[0];
    hi = (uint64_t)(full >> 64);
    lo = (uint64_t)full;
    if ((hi & 0x1FF) == 0x1FF) {  /* the low word may carry into the 55 bits */
        uint64_t second = (uint64_t)(((unsigned __int128)w * t[1]) >> 64);
        lo += second;
        hi += lo < second;
    }
    upper = hi >> 63;
    shift = (int)upper + 9;
    mantissa = hi >> shift;
    /* floor(log2(10**q)) + 63, the exponent of 2 that 5**q's scaling
     * leaves, plus the binary64 bias 1023 */
    power2 = ((217706 * q) >> 16) + 63 + (int64_t)upper - lz + 1023;
    if (power2 <= 0)
        return 0;
    /* w * 10**q lies exactly halfway between two doubles: only possible
     * where 5**q fits 64 bits (q in [-4, 23]) and the product's discarded
     * bits are zero; round to even */
    if (lo <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1
            && mantissa << shift == hi)
        mantissa &= ~(uint64_t)1;
    mantissa = (mantissa + (mantissa & 1)) >> 1;
    if (mantissa >> 53) {  /* rounding carried into a new bit */
        mantissa = (uint64_t)1 << 52;
        power2++;
    }
    if (power2 >= 2047)
        return 0;
    bits = (uint64_t)power2 << 52 | (mantissa & (((uint64_t)1 << 52) - 1));
    memcpy(x, &bits, sizeof bits);
    return 1;
}

/* 8 bytes of the buffer as one word, the first byte the lowest */
static inline uint64_t load8(const unsigned char *p)
{
    uint64_t v;
    memcpy(&v, p, sizeof v);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
}

/* The top bit of each byte of v that is not an ASCII digit, and maybe of
 * bytes after it: a byte above '9' sets its top bit in the sum, one below
 * '0' in the difference. Zero where all 8 are digits: Lemire's SWAR check
 * (arXiv:2101.11408), as fast_float's is_made_of_eight_digits_fast. */
static inline uint64_t non_digits(uint64_t v)
{
    return ((v + 0x4646464646464646u) | (v - 0x3030303030303030u))
           & 0x8080808080808080u;
}

/* The value of the 8 ASCII digits in v, its first byte the most
 * significant: pairs, then quadruples, then all 8 are combined by three
 * multiplications, as fast_float's parse_eight_digits_unrolled. */
static inline uint64_t eight_digit_value(uint64_t v)
{
    const uint64_t mask = 0x000000FF000000FFu;
    v -= 0x3030303030303030u;
    v = v * 10 + (v >> 8);
    return ((v & mask) * 0x000F424000000064u  /* 100 + (1000000 << 32) */
            + ((v >> 16) & mask) * 0x0000271000000001u) >> 32;  /* 1 + (10000 << 32) */
}

/* 10**n for n in [0, 8] */
static const uint64_t POW10[9] = {1, 10, 100, 1000, 10000, 100000, 1000000,
                                  10000000, 100000000};

/* Reads the digits at s[i:] into *w, as w = 10 w + digit each (modulo
 * 2**64: only a w of at most 19 digits is used). Where 8 bytes remain in
 * the buffer they are read as one word: all 8 digits are added at once,
 * else the digits before the first other byte, which the SWAR check finds
 * as its lowest flagged byte (a byte below '0' borrows, and one above '9'
 * carries, only into the bytes after it). Returns the end of the digits. */
static int64_t read_digits(const unsigned char *s, int64_t i, int64_t len,
                           uint64_t *w)
{
    while (len - i >= 8) {
        uint64_t v = load8(s + i), flags = non_digits(v);
        int n;
        if (flags == 0) {
            *w = *w * 100000000 + eight_digit_value(v);
            i += 8;
            continue;
        }
        n = __builtin_ctzll(flags) >> 3;
        if (n > 0)  /* the n digits, after 8 - n zeros */
            *w = *w * POW10[n] + eight_digit_value(
                v << (64 - 8 * n) | 0x3030303030303030u >> 8 * n);
        return i + n;
    }
    for (; i < len && is_digit(s[i]); i++)
        *w = 10 * *w + (uint64_t)(s[i] - '0');
    return i;
}

/* The significant digits of the digits and '.' in s[a:b]: from the first
 * nonzero digit on */
static int64_t significant(const unsigned char *s, int64_t a, int64_t b)
{
    int64_t n = 0;
    while (a < b && (s[a] == '0' || s[a] == '.'))
        a++;
    for (; a < b; a++)
        n += s[a] != '.';
    return n;
}

/* Scans the number at s[*k], leaving *k where it ends: the longest prefix
 * of [+-]? then inf, infinity or nan in any case, or digits with at most
 * one '.' and at least one digit, then [eE][+-]?[0-9]+ or nothing.
 * Returns NOT_A_NUMBER where no prefix is one. Python's float() also takes
 * '_' between digits and non-ASCII digits, and strtod hexadecimal floats
 * and nan(...); for this grammar the number ends before them, so their
 * token goes on past it and is malformed. A number with at most 19
 * significant digits w and a decimal exponent q is converted here and
 * returns OK: a zero w as a signed zero, else by eisel_lemire if q is in
 * pow5's range and the result is a normal double. Every other number
 * returns SLOW: more digits, q outside the table (an exponent of 10**8 or
 * more counts as outside), a subnormal or overflowing result, inf and nan.
 * Leading zeros, of the integer part and then of the fraction, are not
 * significant; they are counted only where there are more than 19 digits. */
static int scan_real(const unsigned char *s, int64_t *k, int64_t len,
                     const uint64_t *pow5, double *x)
{
    int negative = *k < len && s[*k] == '-';
    int64_t i = skip_sign(s, *k, len), first = i, n_digits, q = 0;
    uint64_t w = 0;
    int many;
    if (i < len && !is_digit(s[i]) && s[i] != '.') {
        int64_t word = starts_with(s, i, len, "infinity") ? 8
                       : starts_with(s, i, len, "inf")
                         || starts_with(s, i, len, "nan") ? 3 : 0;
        *k = i + word;
        return word ? SLOW : NOT_A_NUMBER;
    }
    i = read_digits(s, i, len, &w);
    n_digits = i - first;
    if (i < len && s[i] == '.') {
        int64_t frac = ++i;
        i = read_digits(s, i, len, &w);
        n_digits += i - frac;
        q = -(i - frac);
    }
    *k = i;
    if (n_digits == 0)
        return NOT_A_NUMBER;
    /* leading zeros add nothing to w, which holds the digits unless more
     * than 19 are significant */
    many = n_digits > 19 && significant(s, first, i) > 19;
    if (i < len && (s[i] | 0x20) == 'e') {
        int64_t exp = skip_sign(s, i + 1, len), e = 0;
        for (i = exp; i < len && is_digit(s[i]); i++)
            if (e < 100000000)  /* saturates, far past the table */
                e = 10 * e + (s[i] - '0');
        if (i == exp)  /* no exponent digit: the 'e' is not the number's */
            i = *k;
        else if (e >= 100000000)  /* whatever the fraction's length: to_real */
            q = POW5_MAX + 1;
        else
            q += s[exp - 1] == '-' ? -e : e;
        *k = i;
    }
    if (many)
        return SLOW;
    if (w == 0) {
        *x = negative ? -0.0 : 0.0;
        return OK;
    }
    if (q < POW5_MIN || q > POW5_MAX || !eisel_lemire(w, q, pow5, x))
        return SLOW;
    if (negative)
        *x = -*x;
    return OK;
}

/* The fallback: strtod_l of a number s[a:b] that scan_real left (SLOW),
 * one with more than 19 significant digits, an exponent outside the
 * table, a subnormal or overflowing value, or inf or nan. It reads a
 * NUL-terminated copy (on the stack unless it is long), so that strtod
 * never sees the buffer and cannot read past it. strtod_l rounds
 * correctly, as Python's float() does, in a "C" numeric locale of its own,
 * so the caller's setlocale cannot change it. */
static int to_real(const unsigned char *s, int64_t a, int64_t b,
                   locale_t c_locale, double *x)
{
    char small[64], *copy = small;
    size_t n = (size_t)(b - a);
    if (n >= sizeof small && (copy = malloc(n + 1)) == NULL)
        return NO_MEMORY;
    memcpy(copy, s + a, n);
    copy[n] = '\0';
    *x = strtod_l(copy, NULL, c_locale);
    if (copy != small)
        free(copy);
    return OK;
}

/* One row per line with a label: labels[r] and the 0-based entries
 * idx/vals[indptr[r] .. indptr[r + 1] - 1], explicit zeros dropped.
 * info[0..2] = rows, entries and the largest index, and info[3] = the
 * number of lines; on an error info[3..5] = line number (from 1) and the
 * span [start, end) at fault. More rows than max_rows or entries than
 * max_nnz return OUT_OF_RANGE.
 *
 * A token is read in one forward scan: a label by scan_real, an entry by
 * scan_index up to its ':' and scan_real after it. Only a malformed token
 * is scanned again, from its start to its end (bad_token), to name it and
 * to tell NO_COLON from BAD_TOKEN; a byte >= 0x80 right after it is a
 * NON_ASCII error instead. The checks of a well-formed entry follow in
 * this order: its index's range, then the order of the indices, then the
 * space left for entries. */
static int parse(const unsigned char *s, int64_t len, int64_t max_rows,
                 int64_t max_nnz, double *labels, int64_t *indptr,
                 int64_t *idx, double *vals, int64_t *info,
                 const uint64_t *pow5, locale_t c_locale)
{
    int64_t pos = 0, line = 0, rows = 0, nnz = 0, max_index = 0, start = 0;
    int rc = OK;
    indptr[0] = 0;
    while (pos < len) {
        int64_t prev = 0;
        int labelled = 0;
        line++;
        for (;;) {
            int64_t value_start, j = 0;
            int index, value;
            double x = 0.0;
            while (pos < len && is_blank(s[pos]))
                pos++;
            if (pos < len && s[pos] == '#')  /* a comment, to the line break */
                while (pos < len && !is_break(s[pos]) && s[pos] < 0x80)
                    pos++;
            if (pos == len || is_break(s[pos]))
                break;
            start = pos;
            if (s[pos] >= 0x80) {
                rc = NON_ASCII;
                pos++;
                goto fail;
            }
            if (!labelled) {
                if (rows == max_rows) {
                    rc = OUT_OF_RANGE;
                    goto fail;
                }
                value = scan_real(s, &pos, len, pow5, &x);
                if (value == NOT_A_NUMBER || goes_on(s, pos, len)) {
                    rc = BAD_LABEL;
                    goto bad_token;
                }
                if (value == SLOW && (rc = to_real(s, start, pos, c_locale, &x)) != OK)
                    goto fail;
                labels[rows] = x;
                labelled = 1;
                continue;
            }
            index = scan_index(s, &pos, len, &j);
            if (index == BAD_TOKEN || pos == len || s[pos] != ':') {
                rc = NO_COLON;
                goto bad_token;
            }
            value_start = ++pos;
            value = scan_real(s, &pos, len, pow5, &x);
            if (value == NOT_A_NUMBER || goes_on(s, pos, len)) {
                rc = BAD_TOKEN;
                goto bad_token;
            }
            if (index != OK)
                rc = index;
            else if (j <= prev)
                rc = NOT_INCREASING;
            else if (nnz == max_nnz)
                rc = OUT_OF_RANGE;
            else if (value == SLOW)
                rc = to_real(s, value_start, pos, c_locale, &x);
            if (rc != OK)
                goto fail;
            prev = j;
            if (x != 0.0) {
                idx[nnz] = j - 1;
                vals[nnz++] = x;
            }
        }
        if (labelled) {
            if (prev > max_index)
                max_index = prev;
            indptr[++rows] = nnz;
        }
        if (pos < len)  /* the line break */
            pos += s[pos] == '\r' && pos + 1 < len && s[pos + 1] == '\n' ? 2 : 1;
    }
    info[0] = rows;
    info[1] = nnz;
    info[2] = max_index;
    info[3] = line;
    return OK;
bad_token:
    for (pos = start; pos < len && in_token(s[pos]); pos++)
        ;
    if (pos < len && s[pos] >= 0x80) {
        rc = NON_ASCII;
        start = pos++;
    } else if (rc == NO_COLON && memchr(s + start, ':', (size_t)(pos - start))) {
        rc = BAD_TOKEN;
    }
fail:
    info[3] = line;
    info[4] = start;
    info[5] = pos;
    return rc;
}

/* A piece of the buffer and where its rows go: parse()'s arguments, its
 * return code and its info. */
struct piece {
    const unsigned char *s;
    int64_t len, max_rows, max_nnz;
    double *labels, *vals;
    int64_t *indptr, *idx;
    const uint64_t *pow5;
    locale_t c_locale;
    int64_t info[6];
    int rc;
    pthread_t thread;
    bool threaded;
};

static void *parse_piece(void *arg)
{
    struct piece *t = arg;
    t->rc = parse(t->s, t->len, t->max_rows, t->max_nnz, t->labels, t->indptr,
                  t->idx, t->vals, t->info, t->pow5, t->c_locale);
    return NULL;
}

/* Parses the pieces that dfsdca_libsvm_bounds cut, at once: piece 0 on the
 * caller's thread, each other piece on a thread of its own (or after piece
 * 0 on the caller's, if no thread can be started), all joined before the
 * call returns. Piece p writes its rows at the sum of the earlier pieces'
 * bounds, its indptr one slot further per earlier piece, so indptr holds
 * max_rows + pieces slots. Then each piece's arrays are moved down to
 * close the gaps and its indptr shifted by the entries before it, so the
 * arrays and info[0..2] are those of parse() over the whole buffer. The
 * first piece that fails, in reading order, gives the error: its line
 * number counts the earlier pieces' lines and its span their bytes, as in
 * a parse of the whole buffer, since each piece starts a line. The threads
 * share the "C" locale made here, read-only; none of them allocates, but
 * for to_real's copy of a long number. */
int dfsdca_parse_libsvm(const unsigned char *buf, int64_t pieces,
                        const int64_t *bounds, double *labels, int64_t *indptr,
                        int64_t *idx, double *vals, int64_t *info,
                        const uint64_t *pow5)
{
    int64_t p, r, rows = 0, nnz = 0, line = 0, max_index = 0;
    int rc = OK;
    struct piece *t = calloc((size_t)pieces, sizeof *t);
    locale_t c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (t == NULL || c_locale == (locale_t)0) {
        free(t);
        if (c_locale != (locale_t)0)
            freelocale(c_locale);
        return NO_MEMORY;
    }
    for (p = 0; p < pieces; p++) {
        const int64_t *b = bounds + 4 * p;
        t[p] = (struct piece){
            .s = buf + b[0], .len = b[1] - b[0], .max_rows = b[2], .max_nnz = b[3],
            .labels = labels + rows, .vals = vals + nnz, .indptr = indptr + rows + p,
            .idx = idx + nnz, .pow5 = pow5, .c_locale = c_locale,
        };
        rows += b[2];
        nnz += b[3];
    }
    for (p = 1; p < pieces; p++)
        t[p].threaded = pthread_create(&t[p].thread, NULL, parse_piece, &t[p]) == 0;
    parse_piece(&t[0]);
    for (p = 1; p < pieces; p++) {
        if (t[p].threaded)
            pthread_join(t[p].thread, NULL);
        else
            parse_piece(&t[p]);
    }
    rows = nnz = 0;
    for (p = 0; p < pieces; p++) {
        int64_t *ti = t[p].info, start = t[p].s - buf;
        if ((rc = t[p].rc) != OK) {
            info[3] = line + ti[3];
            info[4] = start + ti[4];
            info[5] = start + ti[5];
            break;
        }
        if (p > 0) {  /* piece 0 is in place */
            memmove(labels + rows, t[p].labels, (size_t)ti[0] * sizeof *labels);
            memmove(idx + nnz, t[p].idx, (size_t)ti[1] * sizeof *idx);
            memmove(vals + nnz, t[p].vals, (size_t)ti[1] * sizeof *vals);
            for (r = 1; r <= ti[0]; r++)  /* never past the slot it reads */
                indptr[rows + r] = t[p].indptr[r] + nnz;
        }
        rows += ti[0];
        nnz += ti[1];
        if (ti[2] > max_index)
            max_index = ti[2];
        line += ti[3];
    }
    info[0] = rows;
    info[1] = nnz;
    info[2] = max_index;
    freelocale(c_locale);
    free(t);
    return rc;
}

/* A Dataset's CSR arrays, checked and measured in one pass over its n rows.
 * Row r is entries indptr[r] .. indptr[r + 1] - 1 of indices and data, of
 * nnz in all. bad[0..3] get the first row, or -1 for none, where:
 *   0. indptr does not delimit the row (a start below 0, an end before its
 *      start or past nnz), or its indices do not increase strictly: the
 *      rows are not canonical (scipy's has_canonical_format), and the pass
 *      stops there, since it cannot read the rows after it;
 *   1. an index lies outside [0, d);
 *   2. a value is an explicit zero;
 *   3. the label, or the norm, is not finite.
 * counts[r] is the row's number of entries and norms[r] the square root of
 * its squares summed left to right from 0.0, the order of np.bincount.
 * indptr32 and indices32 get the index arrays as int32: the caller checks
 * that n, d and nnz fit. */
void dfsdca_csr_pass(int64_t n, int64_t d, int64_t nnz, const int64_t *indptr,
                     const int64_t *indices, const double *data,
                     const double *labels, int32_t *indptr32, int32_t *indices32,
                     int64_t *counts, double *norms, int64_t *bad)
{
    int64_t r, k;
    bad[0] = bad[1] = bad[2] = bad[3] = -1;
    indptr32[0] = (int32_t)indptr[0];
    for (r = 0; r < n; r++) {
        int64_t lo = indptr[r], hi = indptr[r + 1];
        double acc = 0.0;
        if (lo < 0 || hi < lo || hi > nnz) {
            bad[0] = r;
            return;
        }
        for (k = lo; k < hi; k++) {
            int64_t j = indices[k];
            if (k > lo && j <= indices[k - 1]) {
                bad[0] = r;
                return;
            }
            if ((j < 0 || j >= d) && bad[1] < 0)
                bad[1] = r;
            if (data[k] == 0.0 && bad[2] < 0)
                bad[2] = r;
            acc += data[k] * data[k];
            indices32[k] = (int32_t)j;
        }
        counts[r] = hi - lo;
        norms[r] = sqrt(acc);
        indptr32[r + 1] = (int32_t)hi;
        if (bad[3] < 0 && !(isfinite(labels[r]) && isfinite(norms[r])))
            bad[3] = r;
    }
}

/* The row pass: for each of count examples, the margin m[i] = A_i . x by
 * row_sum, or, where A is NULL, m[i] as given; then, where L is not NULL,
 * the loss of example e = idx[i] (i where idx is NULL) at m[i]: its value,
 * -phi_e'(m[i]) and phi_e''(m[i]) into values[i], alpha[i] and curv[i],
 * each only where that array is not NULL (loss_at). With A, count is
 * A->rows. */
/* The loss half of dfsdca_rows for one kind: called with a constant kind
 * and a copy of the loss that libm's calls cannot reach, so that the kind
 * and the parameter arrays are tested and loaded once, not per example */
static inline __attribute__((always_inline)) void
loss_loop(struct loss L, int64_t kind, int64_t count, const int64_t *idx,
          const double *m, double *values, double *alpha, double *curv)
{
    L.kind = kind;
    for (int64_t i = 0; i < count; i++)
        loss_at(&L, idx != NULL ? idx[i] : i, m[i], values ? values + i : NULL,
                alpha ? alpha + i : NULL, curv ? curv + i : NULL);
}

void dfsdca_rows(const struct csr *A, const double *x, const struct loss *L,
                 int64_t count, const int64_t *idx, double *m, double *values,
                 double *alpha, double *curv)
{
    /* two loops: libm's calls in the second would keep A's arrays from
     * being hoisted out of the first */
    if (A != NULL)
        for (int64_t i = 0; i < count; i++)
            m[i] = row_sum(A, i, x, false);
    if (L == NULL)
        return;
    if (L->kind == LOGISTIC)
        loss_loop(*L, LOGISTIC, count, idx, m, values, alpha, curv);
    else if (L->kind == SQUARED)
        loss_loop(*L, SQUARED, count, idx, m, values, alpha, curv);
    else
        loss_loop(*L, QUADFAM, count, idx, m, values, alpha, curv);
}

/* One example's loss_at: phi_e(m), -phi_e'(m) or phi_e''(m) for which = 0,
 * 1 or 2 */
double dfsdca_loss_at(const struct loss *L, int64_t e, double m, int64_t which)
{
    double out = 0.0;
    loss_at(L, e, m, which == 0 ? &out : NULL, which == 1 ? &out : NULL,
            which == 2 ? &out : NULL);
    return out;
}

/* The CSR arrays of the transpose of A, whose indices lie in [0, cols):
 * t_indptr (cols + 1 entries), t_indices and t_data. A counting pass
 * places the entries of each column in A's row order, so the transpose is
 * stable, hence unique: the arrays scipy's csr_tocsc writes. */
void dfsdca_transpose(const struct csr *A, int64_t cols, int32_t *restrict t_indptr,
                      int32_t *restrict t_indices, double *restrict t_data)
{
    const int32_t *restrict indptr = A->indptr, *restrict indices = A->indices;
    const double *restrict data = A->data;
    int64_t nnz = indptr[A->rows], i, j;
    memset(t_indptr, 0, (size_t)(cols + 1) * sizeof *t_indptr);
    for (int64_t k = 0; k < nnz; k++)
        t_indptr[indices[k] + 1]++;
    for (j = 0; j < cols; j++)
        t_indptr[j + 1] += t_indptr[j];
    /* t_indptr[j] is where column j's next entry goes */
    for (i = 0; i < A->rows; i++)
        for (int32_t k = indptr[i]; k < indptr[i + 1]; k++) {
            int32_t at = t_indptr[indices[k]]++;
            t_indices[at] = (int32_t)i;
            t_data[at] = data[k];
        }
    /* each column's cursor has reached the next one's start */
    for (j = cols; j > 0; j--)
        t_indptr[j] = t_indptr[j - 1];
    t_indptr[0] = 0;
}

/* The reference oracle's Hessian products, out = A^T (c o A p) / n + lam p,
 * and the Jacobi diagonal out_j = sum_i c_i A_ij^2 / n + lam, over a
 * Dataset's int32 CSR binding and its transpose's (Dataset.csr, csr_t). A
 * product is the row pass with the epilogue m_i = c_i (A_i . p), then the
 * column pass (the row pass over the transpose) with the epilogue
 * out_j = (At_j . m) / n + lam p_j; the diagonal is the column pass over
 * the squared entries, At_j^2 . c / n + lam. Every sum is row_sum's, so a
 * product has the bits of numpy's ds.combine(c * ds.margins(p)) / ds.n +
 * lam * p, and the diagonal those of np.bincount(ds.indices, ds.data *
 * ds.data * np.repeat(c, ds.nnz)) / ds.n + lam, which adds column j's
 * terms in increasing row order from 0.0.
 *
 * With a helper thread, each pass is cut in two at row_cut or col_cut. The
 * caller runs the first half of a pass, and the second half goes to
 * whichever of the two threads claims it first (a compare-and-swap on
 * `taken`): the caller waits only for a half the helper is running, never
 * for a helper that is late, asleep or sharing its CPU. Each output is
 * still summed by one thread, so the bits do not depend on the cuts or on
 * who ran which half. The column pass starts once every row is done
 * (`rows_ready`). The caller posts a job by bumping `posted`; the helper
 * spins on it for at most SPIN_NS, or until it finds itself on the
 * caller's CPU, then sleeps on a condition variable until the next post.
 * Results are published with release stores and read after acquire loads. */
#if defined(__x86_64__) || defined(__i386__)
#define RELAX() __builtin_ia32_pause()
#else
#define RELAX() ((void)0)
#endif

enum { PRODUCT = 0, DIAGONAL = 1 };
enum { ROWS = 0, COLUMNS = 1 };  /* the second halves of the two passes */
/* how long an idle helper spins before it sleeps: longer than the oracle
 * takes between two Newton iterations on the benchmark's 50 000-entry
 * problems, so the helper sleeps there only between oracle calls */
#define SPIN_NS 1000000

struct hessian {
    int64_t n, d;
    struct csr rows, cols;  /* the n x d matrix and its transpose */
    double lam, *m;
    /* the caller's vectors: p and out of length d, c of length n */
    const double *p, *c;
    double *out;
    /* the job, written by the caller before it bumps `posted` and read by
     * the helper only once it has claimed a half of it */
    int kind;
    int64_t row_cut, col_cut;
    uint64_t jobs;  /* the caller's count of posted jobs */
    int64_t helped;  /* the halves the helper ran, which only it writes */
    /* job numbers: the last posted, the last whose second halves were
     * claimed and done, the last whose rows are all done */
    atomic_uint_fast64_t posted, taken[2], done[2], rows_ready;
    atomic_int caller_cpu;
    atomic_bool sleeping, stop;
    pthread_mutex_t lock;
    pthread_cond_t wake;
    pthread_t thread;
    bool threaded;
};

static void row_pass(const struct hessian *h, int64_t lo, int64_t hi)
{
    for (int64_t i = lo; i < hi; i++)
        h->m[i] = h->c[i] * row_sum(&h->rows, i, h->p, false);
}

static void column_pass(const struct hessian *h, int64_t lo, int64_t hi)
{
    double n = (double)h->n, lam = h->lam;
    if (h->kind == PRODUCT) {
        for (int64_t j = lo; j < hi; j++)
            h->out[j] = row_sum(&h->cols, j, h->m, false) / n + lam * h->p[j];
    } else {
        for (int64_t j = lo; j < hi; j++)
            h->out[j] = row_sum(&h->cols, j, h->c, true) / n + lam;
    }
}

static void second_half(const struct hessian *h, int half)
{
    if (half == ROWS)
        row_pass(h, h->row_cut, h->n);
    else
        column_pass(h, h->col_cut, h->d);
}

/* Claims the second half of a pass of job for the calling thread: false if
 * it is claimed already, for this job or (a late helper's) a later one. */
static bool claim(struct hessian *h, int half, uint64_t job)
{
    uint64_t old = atomic_load(&h->taken[half]);
    while (old < job)
        if (atomic_compare_exchange_weak(&h->taken[half], &old, job))
            return true;
    return false;
}

static int64_t since(const struct timespec *t0)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (int64_t)(t.tv_sec - t0->tv_sec) * 1000000000 + (t.tv_nsec - t0->tv_nsec);
}

/* The helper's spin: true once *word reaches job, false once *other does,
 * SPIN_NS have passed or the helper runs on the caller's CPU. */
static bool spin(struct hessian *h, atomic_uint_fast64_t *word,
                 atomic_uint_fast64_t *other, uint64_t job)
{
    struct timespec t0;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    for (int k = 1; atomic_load_explicit(word, memory_order_acquire) < job; k++) {
        if (other != NULL && atomic_load_explicit(other, memory_order_relaxed) >= job)
            return false;
        RELAX();
        if (k % 64 == 0 && (since(&t0) > SPIN_NS
                            || sched_getcpu() == atomic_load(&h->caller_cpu)))
            return false;
    }
    return true;
}

/* The helper's wait for the job after `seen`: spin, then sleep. Sleeping is
 * announced before `posted` is read again and the caller reads `sleeping`
 * after its post (both sequentially consistent), so one of them sees the
 * other and no post is missed. */
static uint64_t await_job(struct hessian *h, uint64_t seen)
{
    uint64_t job;
    if (spin(h, &h->posted, NULL, seen + 1))
        return atomic_load_explicit(&h->posted, memory_order_acquire);
    pthread_mutex_lock(&h->lock);
    atomic_store(&h->sleeping, true);
    while ((job = atomic_load(&h->posted)) == seen)
        pthread_cond_wait(&h->wake, &h->lock);
    atomic_store(&h->sleeping, false);
    pthread_mutex_unlock(&h->lock);
    return job;
}

static void post(struct hessian *h)
{
    atomic_store_explicit(&h->caller_cpu, sched_getcpu(), memory_order_relaxed);
    atomic_store(&h->posted, h->jobs);
    if (atomic_load(&h->sleeping)) {
        pthread_mutex_lock(&h->lock);
        pthread_cond_signal(&h->wake);
        pthread_mutex_unlock(&h->lock);
    }
}

/* The caller's end of a pass: its second half, unless the helper claimed
 * it, in which case the caller waits for it (spinning: the helper is at
 * work on it, but it yields now and then in case the two share a CPU). */
static void finish(struct hessian *h, int half, uint64_t job)
{
    if (claim(h, half, job)) {
        second_half(h, half);
        return;
    }
    for (int k = 1; atomic_load_explicit(&h->done[half], memory_order_acquire) < job; k++) {
        RELAX();
        if (k % 64 == 0)
            sched_yield();
    }
}

static void *helper(void *arg)
{
    struct hessian *h = arg;
    uint64_t job = 0;
    for (;;) {
        job = await_job(h, job);
        if (atomic_load(&h->stop))
            return NULL;
        if (claim(h, ROWS, job)) {
            second_half(h, ROWS);
            h->helped++;
            atomic_store_explicit(&h->done[ROWS], job, memory_order_release);
        }
        if (spin(h, &h->rows_ready, &h->taken[COLUMNS], job) && claim(h, COLUMNS, job)) {
            second_half(h, COLUMNS);
            h->helped++;
            atomic_store_explicit(&h->done[COLUMNS], job, memory_order_release);
        }
    }
}

/* A handle on an n x d matrix, its d x n transpose (copies of both
 * structs; the caller keeps their arrays alive) and the vectors p, out and
 * c, laid end to end from `vectors`, which the caller keeps alive until
 * dfsdca_hessian_close, with a helper thread if threads > 1 and one can be
 * started (else every pass runs on the caller's thread). NULL if out of
 * memory. */
struct hessian *dfsdca_hessian_open(const struct csr *rows, const struct csr *cols,
                                    double lam, double *vectors, int64_t threads)
{
    int64_t n = rows->rows, d = cols->rows;
    struct hessian *h = calloc(1, sizeof *h);
    if (h == NULL)
        return NULL;
    *h = (struct hessian){
        .n = n, .d = d, .rows = *rows, .cols = *cols, .lam = lam, .p = vectors,
        .out = vectors + d, .c = vectors + 2 * d,
        .m = malloc((size_t)(n + 1) * sizeof *h->m),
    };
    if (h->m == NULL) {
        free(h);
        return NULL;
    }
    if (threads > 1 && pthread_mutex_init(&h->lock, NULL) == 0) {
        if (pthread_cond_init(&h->wake, NULL) == 0) {
            h->threaded = pthread_create(&h->thread, NULL, helper, h) == 0;
            if (!h->threaded)
                pthread_cond_destroy(&h->wake);
        }
        if (!h->threaded)
            pthread_mutex_destroy(&h->lock);
    }
    return h;
}

/* Writes the product (kind PRODUCT) or the diagonal (kind DIAGONAL; p
 * unread) into out. With a helper, the passes are cut at row_cut and
 * col_cut, in [0, n] and [0, d]. */
void dfsdca_hessian_apply(struct hessian *h, int64_t kind, int64_t row_cut,
                          int64_t col_cut)
{
    h->kind = (int)kind;
    if (!h->threaded) {
        if (kind == PRODUCT)
            row_pass(h, 0, h->n);
        column_pass(h, 0, h->d);
        return;
    }
    h->row_cut = row_cut;
    h->col_cut = col_cut;
    uint64_t job = ++h->jobs;
    if (kind == DIAGONAL) {  /* no row pass: its half is nobody's to claim */
        atomic_store(&h->taken[ROWS], job);
        atomic_store(&h->rows_ready, job);
    }
    post(h);
    if (kind == PRODUCT) {
        row_pass(h, 0, row_cut);
        finish(h, ROWS, job);
        atomic_store_explicit(&h->rows_ready, job, memory_order_release);
    }
    column_pass(h, 0, col_cut);
    finish(h, COLUMNS, job);
}

/* Stops and joins the helper, if any, and frees the handle. Returns the
 * number of pass halves the helper ran. */
int64_t dfsdca_hessian_close(struct hessian *h)
{
    int64_t helped;
    if (h->threaded) {
        atomic_store(&h->stop, true);
        h->jobs++;
        post(h);
        pthread_join(h->thread, NULL);
        pthread_cond_destroy(&h->wake);
        pthread_mutex_destroy(&h->lock);
    }
    helped = h->helped;
    free(h->m);
    free(h);
    return helped;
}
