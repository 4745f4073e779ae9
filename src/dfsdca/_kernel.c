/* dfSDCA kernels: a block of iterations over flat subsets plus offsets, a
 * block of uniform tau-subset draws, the synthetic generator's row draws,
 * and a LIBSVM parser.
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
 * row, in both of numpy's regimes, then rng.standard_normal(k). Rows are
 * written unsorted: the caller sorts them, with numpy's vectorized sort.
 *
 * Both membership tests (a repeat within a subset, a draw already taken)
 * use a byte marker over the index range, allocated per call and cleared
 * after each subset, since an index may recur in the next one.
 *
 * The LIBSVM parser (dfsdca_parse_libsvm) reads `label idx:val ...` lines
 * from a byte buffer in one pass, every scan bounded by the buffer's
 * length, into arrays sized by a counting pass (dfsdca_libsvm_bounds) that
 * bounds the rows by the line breaks and the entries by the colons. Lines
 * break as Python's str.splitlines() breaks ASCII text: at \n, \r\n, \r,
 * \v, \f and \x1c-\x1e. Tokens are split at space, \t and \x1f, the
 * other ASCII whitespace of str.split(), and '#' starts a comment that runs
 * to the line break. Numbers are checked against a grammar of their own
 * (below) before strtoll or strtod converts them. strtod reads a copy of
 * the number under a "C" numeric locale of its own, so the caller's
 * setlocale cannot change it, and like Python's float() it rounds
 * correctly, so both give the same bits. A byte >= 0x80 anywhere is an error. The first error in reading
 * order stops the parse and returns its code, with its line number and the
 * byte span of the token at fault (of the byte, for NON_ASCII) in info.
 *
 * Build: gcc -O2 -ffp-contract=off -shared -fPIC -I <numpy include> -x c -
 *        -x none <numpy>/random/lib/libnpyrandom.a -lm
 *        -Wl,--exclude-libs,ALL
 */
#define _GNU_SOURCE  /* strtod_l */
#include <errno.h>
#include <locale.h>
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* Draws n sparse rows of dimension d, row r holding k = counts[r] entries,
 * laid end to end in cols and vals. Each row makes the draws of
 * rng.choice(d, k, replace=False) then rng.standard_normal(k), so the
 * generator ends where those calls leave it: Floyd's draws plus numpy's
 * shuffle of the k kept (bounds k - 1 down to 1) where d <= 10000 or
 * k <= d / 50, else numpy's shuffle of the tail of range(d) from position
 * d - 1 down to max(d - k, 1), keeping the last k. The shuffle's own order
 * is not kept: a row's columns are choice's set, unsorted. A value of 0.0
 * becomes 1.0. A count outside [0, d] returns OUT_OF_RANGE with its row in
 * *bad, before any draw. */
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

/* Upper bounds for the parser's arrays: bounds[0] = rows (line breaks + 1),
 * bounds[1] = entries (colons). */
void dfsdca_libsvm_bounds(const unsigned char *buf, int64_t len, int64_t *bounds)
{
    int64_t k, breaks = 0, colons = 0;
    for (k = 0; k < len; k++) {
        breaks += is_break(buf[k]);
        colons += buf[k] == ':';
    }
    bounds[0] = breaks + 1;
    bounds[1] = colons;
}

static int64_t skip_digits(const unsigned char *s, int64_t k, int64_t end)
{
    while (k < end && s[k] >= '0' && s[k] <= '9')
        k++;
    return k;
}

static int64_t skip_sign(const unsigned char *s, int64_t k, int64_t end)
{
    return k < end && (s[k] == '+' || s[k] == '-') ? k + 1 : k;
}

/* s[a:b] is the lower-case word w in any case */
static int is_word(const unsigned char *s, int64_t a, int64_t b, const char *w)
{
    int64_t k;
    for (k = 0; w[k] != '\0'; k++)
        if (a + k >= b || (s[a + k] | 0x20) != w[k])
            return 0;
    return a + k == b;
}

/* index grammar: [+-]?[0-9]+ */
static int is_integer(const unsigned char *s, int64_t a, int64_t b)
{
    a = skip_sign(s, a, b);
    return a < b && skip_digits(s, a, b) == b;
}

/* value grammar: [+-]? then inf, infinity or nan in any case, or digits
 * with at most one '.' and at least one digit, then [eE][+-]?[0-9]+ or
 * nothing. Python's float() also takes '_' between digits and non-ASCII
 * digits, and strtod hexadecimal floats and nan(...); this grammar rejects
 * all four. */
static int is_real(const unsigned char *s, int64_t a, int64_t b)
{
    int64_t k, n_digits;
    a = skip_sign(s, a, b);
    if (is_word(s, a, b, "inf") || is_word(s, a, b, "infinity")
            || is_word(s, a, b, "nan"))
        return 1;
    k = skip_digits(s, a, b);
    n_digits = k - a;
    if (k < b && s[k] == '.') {
        int64_t frac = skip_digits(s, k + 1, b);
        n_digits += frac - k - 1;
        k = frac;
    }
    if (n_digits == 0)
        return 0;
    if (k < b && (s[k] == 'e' || s[k] == 'E')) {
        int64_t exp = skip_sign(s, k + 1, b);
        k = skip_digits(s, exp, b);
        if (k == exp)
            return 0;
    }
    return k == b;
}

/* strtod_l of the checked number s[a:b], read from a NUL-terminated copy
 * (on the stack unless it is long), so that strtod never sees the buffer
 * and cannot read past it. */
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
 * info[0..2] = rows, entries and the largest index; on an error
 * info[3..5] = line number (from 1) and the span [start, end) at fault.
 * More rows than max_rows or entries than max_nnz return OUT_OF_RANGE. */
static int parse(const unsigned char *s, int64_t len, int64_t max_rows,
                 int64_t max_nnz, double *labels, int64_t *indptr,
                 int64_t *idx, double *vals, int64_t *info, locale_t c_locale)
{
    int64_t pos = 0, line = 0, rows = 0, nnz = 0, max_index = 0;
    int64_t start = 0, end = 0;
    int rc = OK;
    indptr[0] = 0;
    while (pos < len) {
        int64_t prev = 0;
        int labelled = 0;
        line++;
        for (;;) {
            int64_t colon, j = 0;
            double x = 0.0;
            while (pos < len && is_blank(s[pos]))
                pos++;
            if (pos < len && s[pos] == '#')  /* a comment, to the line break */
                while (pos < len && !is_break(s[pos]) && s[pos] < 0x80)
                    pos++;
            start = pos;
            while (pos < len && in_token(s[pos]))
                pos++;
            end = pos;
            if (pos < len && s[pos] >= 0x80) {
                start = pos;
                end = pos + 1;
                rc = NON_ASCII;
                goto fail;
            }
            if (start == end)  /* a line break or the end of the buffer */
                break;
            if (!labelled) {
                if (rows == max_rows)
                    rc = OUT_OF_RANGE;
                else if (!is_real(s, start, end))
                    rc = BAD_LABEL;
                else
                    rc = to_real(s, start, end, c_locale, &labels[rows]);
                if (rc != OK)
                    goto fail;
                labelled = 1;
                continue;
            }
            for (colon = start; colon < end && s[colon] != ':'; colon++)
                ;
            if (colon == end) {
                rc = NO_COLON;
            } else if (!is_integer(s, start, colon) || !is_real(s, colon + 1, end)) {
                rc = BAD_TOKEN;
            } else {
                errno = 0;
                j = strtoll((const char *)s + start, NULL, 10);  /* stops at the ':' */
                if (j < 1)
                    rc = NOT_ONE_BASED;
                else if (errno == ERANGE)
                    rc = INDEX_TOO_LARGE;
                else if (j <= prev)
                    rc = NOT_INCREASING;
                else if (nnz == max_nnz)
                    rc = OUT_OF_RANGE;
                else
                    rc = to_real(s, colon + 1, end, c_locale, &x);
            }
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
    return OK;
fail:
    info[3] = line;
    info[4] = start;
    info[5] = end;
    return rc;
}

int dfsdca_parse_libsvm(const unsigned char *buf, int64_t len, int64_t max_rows,
                        int64_t max_nnz, double *labels, int64_t *indptr,
                        int64_t *idx, double *vals, int64_t *info)
{
    int rc;
    locale_t c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return NO_MEMORY;
    rc = parse(buf, len, max_rows, max_nnz, labels, indptr, idx, vals, info,
               c_locale);
    freelocale(c_locale);
    return rc;
}
