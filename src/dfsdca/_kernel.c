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
 * (below) and converted in the same scan, without libc: an index by an
 * integer reader with exact overflow checks, a value with at most 19
 * significant digits and a decimal exponent in [-342, 308] by Lemire's
 * Eisel-Lemire algorithm (arXiv:2101.11408) against the caller's table of
 * 128-bit powers of five. Only the other values (more digits, an exponent
 * outside the table, a subnormal or overflowing result, inf and nan) fall
 * back to strtod_l on a copy of the number, under a "C" numeric locale of
 * its own, so the caller's setlocale changes neither path. Eisel-Lemire
 * and strtod_l both round correctly, as Python's float() does, so a value
 * gets float()'s bits whichever path reads it. A byte >= 0x80 anywhere
 * is an error. The first error in reading order stops the parse and
 * returns its code, with its line number and the byte span of the token at
 * fault (of the byte, for NON_ASCII) in info.
 *
 * Build: gcc -O2 -ffp-contract=off -shared -fPIC -I <numpy include> -x c -
 *        -x none <numpy>/random/lib/libnpyrandom.a -lm
 *        -Wl,--exclude-libs,ALL
 */
#define _GNU_SOURCE  /* strtod_l, the parser's fallback */
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

typedef unsigned char bytes16 __attribute__((vector_size(16)));

/* Upper bounds for the parser's arrays: bounds[0] = rows (line breaks + 1),
 * bounds[1] = entries (colons). Counted 16 bytes at a time in byte-wide
 * lanes, which are summed before they can wrap, every 255 blocks; the
 * lanes test the bytes of BREAKS as two ranges, \n-\r and \x1c-\x1e. */
void dfsdca_libsvm_bounds(const unsigned char *buf, int64_t len, int64_t *bounds)
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

static int64_t skip_sign(const unsigned char *s, int64_t k, int64_t end)
{
    return k < end && (s[k] == '+' || s[k] == '-') ? k + 1 : k;
}

static inline int is_digit(unsigned char ch)
{
    return ch >= '0' && ch <= '9';
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

/* An index s[a:b], grammar [+-]?[0-9]+, into *j. Returns BAD_TOKEN off the
 * grammar, else strtoll's outcome: NOT_ONE_BASED for a '-' or a zero,
 * however many digits, else INDEX_TOO_LARGE from 2**63, else OK. */
static int read_index(const unsigned char *s, int64_t a, int64_t b, int64_t *j)
{
    int64_t k = skip_sign(s, a, b), digits = k;
    uint64_t v = 0;
    int big = 0;
    for (; k < b && is_digit(s[k]); k++) {
        uint64_t d = s[k] - '0';
        if (big || v > (INT64_MAX - d) / 10)  /* 10 v + d would pass 2**63 - 1 */
            big = 1;
        else
            v = 10 * v + d;
    }
    if (k == digits || k != b)
        return BAD_TOKEN;
    if (s[a] == '-' || v == 0)
        return NOT_ONE_BASED;
    if (big)
        return INDEX_TOO_LARGE;
    *j = (int64_t)v;
    return OK;
}

/* read_real's outcomes besides OK: s[a:b] is not a number, or it is one
 * that only to_real converts */
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

/* Reads the digits of s[k:end] into the significand *w, which holds up to
 * 19 of them: leading zeros (of the whole number) are skipped, and
 * *n_sig counts the rest, kept or not. Returns the end of the digits. */
static int64_t read_digits(const unsigned char *s, int64_t k, int64_t end,
                           uint64_t *w, int64_t *n_sig)
{
    for (; k < end && is_digit(s[k]); k++) {
        if (*n_sig == 0 && s[k] == '0')
            continue;
        if (*n_sig < 19)
            *w = 10 * *w + (uint64_t)(s[k] - '0');
        ++*n_sig;
    }
    return k;
}

/* Checks the number s[a:b] against the value grammar: [+-]? then inf,
 * infinity or nan in any case, or digits with at most one '.' and at least
 * one digit, then [eE][+-]?[0-9]+ or nothing. Python's float() also takes
 * '_' between digits and non-ASCII digits, and strtod hexadecimal floats
 * and nan(...); this grammar rejects all four. Returns NOT_A_NUMBER off the
 * grammar. A number with at most 19 significant digits w and a decimal
 * exponent q is converted here and returns OK: a zero w as a signed zero,
 * else by eisel_lemire if q is in pow5's range and the result is a normal
 * double. Every other number returns SLOW: more digits, q outside the
 * table (an exponent of 10**8 or more counts as outside), a subnormal or
 * overflowing result, inf and nan. */
static int read_real(const unsigned char *s, int64_t a, int64_t b,
                     const uint64_t *pow5, double *x)
{
    int negative = a < b && s[a] == '-';
    int64_t k, frac, n_digits, n_sig = 0, q = 0;
    uint64_t w = 0;
    a = skip_sign(s, a, b);
    if (is_word(s, a, b, "inf") || is_word(s, a, b, "infinity")
            || is_word(s, a, b, "nan"))
        return SLOW;
    k = read_digits(s, a, b, &w, &n_sig);
    n_digits = k - a;
    if (k < b && s[k] == '.') {
        frac = read_digits(s, k + 1, b, &w, &n_sig);
        n_digits += frac - k - 1;
        q = -(frac - k - 1);
        k = frac;
    }
    if (n_digits == 0)
        return NOT_A_NUMBER;
    if (k < b && (s[k] == 'e' || s[k] == 'E')) {
        int64_t exp = skip_sign(s, k + 1, b), e = 0;
        for (k = exp; k < b && is_digit(s[k]); k++)
            if (e < 100000000)  /* saturates, far past the table */
                e = 10 * e + (s[k] - '0');
        if (k == exp)
            return NOT_A_NUMBER;
        if (e >= 100000000)  /* whatever the fraction's length: to_real */
            q = POW5_MAX + 1;
        else
            q += s[exp - 1] == '-' ? -e : e;
    }
    if (k != b)
        return NOT_A_NUMBER;
    if (n_sig == 0) {
        *x = negative ? -0.0 : 0.0;
        return OK;
    }
    if (n_sig > 19 || q < POW5_MIN || q > POW5_MAX
            || !eisel_lemire(w, q, pow5, x))
        return SLOW;
    if (negative)
        *x = -*x;
    return OK;
}

/* The fallback: strtod_l of a number s[a:b] that read_real left (SLOW),
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
 * info[0..2] = rows, entries and the largest index; on an error
 * info[3..5] = line number (from 1) and the span [start, end) at fault.
 * More rows than max_rows or entries than max_nnz return OUT_OF_RANGE. */
static int parse(const unsigned char *s, int64_t len, int64_t max_rows,
                 int64_t max_nnz, double *labels, int64_t *indptr,
                 int64_t *idx, double *vals, int64_t *info,
                 const uint64_t *pow5, locale_t c_locale)
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
            int index, value;
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
                else if ((value = read_real(s, start, end, pow5, &labels[rows]))
                         == NOT_A_NUMBER)
                    rc = BAD_LABEL;
                else if (value == SLOW)
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
            } else {
                index = read_index(s, start, colon, &j);
                value = read_real(s, colon + 1, end, pow5, &x);
                if (index == BAD_TOKEN || value == NOT_A_NUMBER)
                    rc = BAD_TOKEN;
                else if (index != OK)
                    rc = index;
                else if (j <= prev)
                    rc = NOT_INCREASING;
                else if (nnz == max_nnz)
                    rc = OUT_OF_RANGE;
                else if (value == SLOW)
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
                        int64_t *idx, double *vals, int64_t *info,
                        const uint64_t *pow5)
{
    int rc;
    locale_t c_locale = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c_locale == (locale_t)0)
        return NO_MEMORY;
    rc = parse(buf, len, max_rows, max_nnz, labels, indptr, idx, vals, info,
               pow5, c_locale);
    freelocale(c_locale);
    return rc;
}
