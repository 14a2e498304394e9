/* The truncated Euler-Maruyama steps of the builtin models example1 and
 * example2, the Brownian draws that drive every model (draw_normals, at the
 * end of this file, with its own notes), the strong-error sweep's
 * in-place coarsening of a stream block (halve_rows), and the squared norms
 * and per-step sums over replicas that the moment and stability observers
 * take of a block of observed states (observed_sums).
 *
 * ex1_steps advances a batch of B replicas of example1,
 *     dx = (1 + 4x - 4x^3) dt + 2 (int_{-1/2}^0 x^2(t+s) ds) dB,
 * and ex2_steps a batch of example2,
 *     dx1 = (-2 x1 - 3 x1^3 + int_{-1/4}^0 x2(t+s) ds) dt + x1 dB1,
 *     dx2 = (-2 x2 - 2 x2^3 + int_{-1/2}^0 x1^3(t+s) ds) dt + x2 dB2,
 * over rows of increments, time in the outer loop and replicas in the inner
 * loop.  Every value is computed in the order the numpy driver computes it
 * (scheme._Driver._advance_numpy and _apply_noise, model._ex1_drift,
 * _ex1_diffusion, _ex2_drift and _ex2_diffusion, scheme._IntegralTerm), down
 * to the 0.0 * dB products of example2's zero off-diagonal diffusion
 * entries, so each replica's states are bit-identical to it.  Build with
 * -ffp-contract=off: a fused multiply-add rounds once where numpy rounds
 * twice.  The arrays a function reads and writes through `restrict`
 * pointers do not overlap, which lets the compiler keep values in registers.
 *
 * A replica whose pre-clip state has an entry past `inside` is clipped to
 * the ball of `radius` as model.clip_to_ball clips a finite row: rescaled
 * until its norm is within the radius, one hit counted in `hits`, a row
 * whose squared norm overflows measured and rescaled on the scale of its
 * max|x| (model._norms).  sqrt, division and multiplication are correctly
 * rounded, so the bits match.  A function returns the number of rows
 * taken: it stops only before a row in which some replica's pre-clip state
 * is not finite, leaving that row's pre-clip states in `pre`, and the
 * driver raises numpy's error.  If `out` is not NULL, the states after row
 * t are written to out[t], a (B, n) block.  The increments of row t,
 * replica r, coordinate j are read at db[t * row_stride + r * replica_stride
 * + j * coord_stride].  A call with no rows reads no pointer, the terms'
 * included.
 *
 * The running integrals are the constant and boxcar terms of
 * scheme._IntegralTerm, one `struct term` each: the support starts at window
 * node m, `value` and `head` (the newest transformed node) per replica,
 * `initial` the N+1 transformed initial nodes, and, when a simulated node
 * leaves the support (K > N - m), `ring` holds simulated index i >= 1 at row
 * (i - 1) mod min(N + 1, K).  A ring of K <= N rows never wraps, as the last
 * step updates no integral, so that row is (i - 1) mod (N + 1) in either
 * case.  When the run outlasts the window (K > N), the sum is recomputed from
 * the ring every N shifts.
 *
 * The library is built with -O3, whose cost model vectorises the steps'
 * loops over the batch; -O2's very cheap model in gcc 12 vectorises none of
 * them, since their trip count is the batch size.  The vectors run across
 * replicas, elementwise, so every value takes the same operations in the
 * same order: add, multiply, divide and sqrt are correctly rounded at every
 * vector width, and without -ffast-math nothing is reassociated.  So that
 * the vectors are four doubles wide where the CPU allows, ex1_steps and
 * ex2_steps are also compiled for x86-64-v3 (AVX2) by target_clones; the
 * loader picks a clone once, when the library is loaded, by CPUID.  The
 * clones need glibc's ifuncs and gcc 12 or later, the first to dispatch a
 * clone for an x86-64 ISA level, so on other platforms (or
 * with SFDE_TEM_NO_CLONES defined, which the tests use to build the default
 * clone alone) each step is compiled once, for the baseline target.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GLIBC__) && __GNUC__ >= 12 && !defined(SFDE_TEM_NO_CLONES)
#define CLONES __attribute__((target_clones("arch=x86-64-v3", "default")))
#else
#define CLONES
#endif

struct term {
    int64_t m;
    double coeff;
    const double *w;
    const double *initial;
    double *ring;
    double *value;
    double *head;
};

/* Grid index i of a transformed history: initial node N + i for i <= 0 (the
   same for every replica: stride 0), else row (i - 1) mod (N + 1) of the ring. */
static const double *hist(int64_t i, int64_t n, int64_t batch, const struct term *tm, int64_t *stride)
{
    if (i <= 0) {
        *stride = 0;
        return tm->initial + n + i;
    }
    *stride = 1;
    return tm->ring + ((i - 1) % (n + 1)) * batch;
}

/* value = step * (total - (w_0 h[s-N] + w_N h[s]) / 2), total adding the nodes
   s-N+m..s one after another.  s is a positive multiple of N, so only node
   s-N+m with m = 0 can be initial data; the others walk the ring. */
static void resync(const struct term *tm, int64_t s, int64_t n, int64_t batch, double step, double *restrict total)
{
    const double *w = tm->w;
    int64_t m = tm->m, sf, so, sn;
    const double *first = hist(s - n + m, n, batch, tm, &sf);
    const double *oldest = hist(s - n, n, batch, tm, &so);
    const double *newest = hist(s, n, batch, tm, &sn);
    for (int64_t r = 0; r < batch; r++)
        total[r] = w[m] * first[r * sf];
    int64_t row = (s - n + m) % (n + 1);
    for (int64_t j = m + 1; j <= n; j++) {
        const double *h = tm->ring + row * batch;
        for (int64_t r = 0; r < batch; r++)
            total[r] = total[r] + w[j] * h[r];
        if (++row == n + 1)
            row = 0;
    }
    double *restrict value = tm->value;
    for (int64_t r = 0; r < batch; r++)
        value[r] = step * (total[r] - 0.5 * (w[0] * oldest[r * so] + w[n] * newest[r * sn]));
}

/* Every function from here on is inlined into ex1_steps and ex2_steps, so
   each kernel compiles with its state dimension a constant. */
#define INLINE static inline __attribute__((always_inline))

/* Replica r's transformed node of term j, from its states x: example1's x^2,
   example2's x2 (term 0, the boxcar) or x1^3 (term 1, the constant weight). */
INLINE double node(int64_t dim, int64_t j, const double *restrict x, int64_t r)
{
    if (dim == 1)
        return x[r] * x[r];
    if (j == 0)
        return x[2 * r + 1];
    double h = x[2 * r];
    return (h * h) * h;
}

/* Shift s of term j: take in each replica's newest node, as scheme._IntegralTerm.shift does. */
INLINE void shift(int64_t dim, int64_t j, const struct term *tm, const double *restrict x, int64_t s, int64_t n,
                  int64_t batch, double step, double *restrict scratch)
{
    int64_t i = s - n + tm->m, si, sp;
    const double *hi = hist(i, n, batch, tm, &si);
    const double *hp = hist(i - 1, n, batch, tm, &sp);
    double *restrict value = tm->value, *restrict head = tm->head;
    double coeff = tm->coeff;
    if (tm->ring) {
        /* with m = 0 this is node i - 1's row, read before it is written */
        double *put = tm->ring + ((s - 1) % (n + 1)) * batch;
        for (int64_t r = 0; r < batch; r++) {
            double h = node(dim, j, x, r);
            value[r] = value[r] + coeff * (((h + head[r]) - hi[r * si]) - hp[r * sp]);
            head[r] = h;
            put[r] = h;
        }
    } else {
        for (int64_t r = 0; r < batch; r++) {
            double h = node(dim, j, x, r);
            value[r] = value[r] + coeff * (((h + head[r]) - hi[r * si]) - hp[r * sp]);
            head[r] = h;
        }
    }
    if (s % n == 0)
        resync(tm, s, n, batch, step, scratch);
}

/* The norm of v / unit, unit being max|v| if v's squared norm overflows and
   1 otherwise, as model._norms measures a finite row. */
INLINE double norm(int64_t dim, const double *v, double *unit)
{
    double sq = 0.0, big = 0.0;
    for (int64_t j = 0; j < dim; j++)
        sq = sq + v[j] * v[j];
    *unit = 1.0;
    if (!isinf(sq))
        return sqrt(sq);
    for (int64_t j = 0; j < dim; j++)
        big = fmax(big, fabs(v[j]));
    *unit = big;
    sq = 0.0;
    for (int64_t j = 0; j < dim; j++) {
        double u = v[j] / big;
        sq = sq + u * u;
    }
    return sqrt(sq);
}

/* Clip the finite pre-clip states into x, as clip_to_ball does. */
INLINE void clip(int64_t dim, const double *restrict pre, double *restrict x, int64_t batch, double inside,
                 double radius, int64_t *restrict hits)
{
    for (int64_t r = 0; r < batch; r++) {
        const double *p = pre + r * dim;
        double *v = x + r * dim;
        int outside = 0;
        for (int64_t j = 0; j < dim; j++) {
            v[j] = p[j];
            outside |= !(fabs(p[j]) <= inside);
        }
        if (!outside)
            continue;
        double unit, nrm = norm(dim, v, &unit);
        if (nrm > radius / unit)
            hits[r] += 1;
        while (nrm > radius / unit) {
            double scale = radius / nrm;
            for (int64_t j = 0; j < dim; j++)
                v[j] = v[j] / unit * scale;
            nrm = norm(dim, v, &unit);
        }
    }
}

/* The pre-clip states of one row in numpy's order, and whether an entry
   lies past `inside` (a NaN does). */
INLINE int pre_clip(int64_t dim, const double *restrict x, const double *restrict dbt, int64_t replica_stride,
                    int64_t coord_stride, const struct term *terms, int64_t batch, double delta, double inside,
                    double *restrict pre)
{
    int outside = 0;
    if (dim == 1) {
        const double *restrict value = terms[0].value;
        for (int64_t r = 0; r < batch; r++) {
            double h = x[r];
            double f = (1.0 + 4.0 * h) - 4.0 * (h * h * h);
            double p = (f * delta + h) + (0.0 + (2.0 * value[r]) * dbt[r * replica_stride]);
            pre[r] = p;
            outside |= !(fabs(p) <= inside);
        }
        return outside;
    }
    const double *restrict box = terms[0].value, *restrict lebesgue = terms[1].value;
    for (int64_t r = 0; r < batch; r++) {
        double h0 = x[2 * r], h1 = x[2 * r + 1];
        double db0 = dbt[r * replica_stride], db1 = dbt[r * replica_stride + coord_stride];
        double f0 = (-2.0 * h0 - ((h0 * h0) * h0) * 3.0) + box[r];
        double f1 = (-2.0 * h1 - ((h1 * h1) * h1) * 2.0) + lebesgue[r];
        double p0 = (f0 * delta + h0) + ((0.0 + h0 * db0) + 0.0 * db1);
        double p1 = (f1 * delta + h1) + ((0.0 + 0.0 * db0) + h1 * db1);
        pre[2 * r] = p0;
        pre[2 * r + 1] = p1;
        outside |= !(fabs(p0) <= inside) | !(fabs(p1) <= inside);
    }
    return outside;
}

/* example1 (dim 1) integrates one term, example2 (dim 2) two; `pre` is
   free scratch once a row's states are in x. */
INLINE int64_t steps(int64_t dim, int64_t rows, int64_t batch, const double *restrict db, int64_t row_stride,
                     int64_t replica_stride, int64_t coord_stride, int64_t k, int64_t n_steps, int64_t n,
                     double delta, double inside, double radius, const struct term *terms, double *restrict x,
                     int64_t *restrict hits, double *restrict out, double *restrict pre)
{
    int64_t size = dim * batch;
    for (int64_t t = 0; t < rows; t++) {
        if (pre_clip(dim, x, db + t * row_stride, replica_stride, coord_stride, terms, batch, delta, inside, pre)) {
            for (int64_t r = 0; r < size; r++)
                if (!isfinite(pre[r]))
                    return t;
            clip(dim, pre, x, batch, inside, radius, hits);
        } else {
            for (int64_t r = 0; r < size; r++)
                x[r] = pre[r];
        }
        if (out)
            for (int64_t r = 0; r < size; r++)
                out[t * size + r] = x[r];
        int64_t s = k + t + 1;
        if (s >= n_steps)
            continue; /* nothing reads the history after the last step */
        shift(dim, 0, &terms[0], x, s, n, batch, delta, pre);
        if (dim == 2)
            shift(dim, 1, &terms[1], x, s, n, batch, delta, pre);
    }
    return rows;
}

CLONES
int64_t ex1_steps(int64_t rows, int64_t batch, const double *db, int64_t row_stride, int64_t replica_stride,
                  int64_t coord_stride, int64_t k, int64_t n_steps, int64_t n, double delta, double inside,
                  double radius, const struct term *terms, double *x, int64_t *hits, double *out, double *pre)
{
    return steps(1, rows, batch, db, row_stride, replica_stride, coord_stride, k, n_steps, n, delta, inside, radius,
                 terms, x, hits, out, pre);
}

CLONES
int64_t ex2_steps(int64_t rows, int64_t batch, const double *db, int64_t row_stride, int64_t replica_stride,
                  int64_t coord_stride, int64_t k, int64_t n_steps, int64_t n, double delta, double inside,
                  double radius, const struct term *terms, double *x, int64_t *hits, double *out, double *pre)
{
    return steps(2, rows, batch, db, row_stride, replica_stride, coord_stride, k, n_steps, n, delta, inside, radius,
                 terms, x, hits, out, pre);
}

/* Halve n floats of rows of dim floats into their first n / 2: row k
   becomes row 2k plus row 2k + 1. */
INLINE void halve(int64_t dim, double *v, int64_t n)
{
    for (int64_t k = 0; k < n / (2 * dim); k++)
        for (int64_t j = 0; j < dim; j++)
            v[k * dim + j] = v[2 * k * dim + j] + v[(2 * k + 1) * dim + j];
}

/* Halve the first `rows` rows of dim floats of each of `count` replicas
   `halvings` times, in place, each halving as above: the order of
   brownian._block_sums, so 2^h rows are summed as it sums them.  Replica
   r's rows start at buf[r * replica_stride]; rows is a multiple of
   2^halvings.  Row k is written only after rows 2k and 2k + 1 are read.
   Rows of one float (example1's noise) get their own copy of the loop,
   which -O3 vectorises: inside converge-ex1 calls it took a quarter of the
   time of the loop over a dim known only at run time. */
void halve_rows(int64_t count, double *buf, int64_t replica_stride, int64_t rows, int64_t dim, int64_t halvings)
{
    for (int64_t r = 0; r < count; r++) {
        double *v = buf + r * replica_stride;
        for (int64_t n = rows * dim, h = 0; h < halvings; h++, n /= 2) {
            if (dim == 1)
                halve(1, v, n);
            else
                halve(dim, v, n);
        }
    }
}

/* The sums of rows of dim floats, for a (rows, batch, dim) block x as
   above: sq[l * batch + b] = 0.0 + x0 * x0 + x1 * x1 + ... of the state of
   replica b at step l, and, if cols is not NULL, cols[l * dim + c] = 0.0 +
   x[l, 0, c] + x[l, 1, c] + ..., each added in that order.  Replicas are
   the outer loop, so that the rows * dim column sums are independent adds
   in the inner one, not one long chain per column. */
INLINE void sums(int64_t dim, int64_t rows, int64_t batch, const double *restrict x, double *restrict sq,
                 double *restrict cols)
{
    for (int64_t i = 0; i < rows * batch; i++) {
        double s = 0.0;
        for (int64_t j = 0; j < dim; j++)
            s += x[i * dim + j] * x[i * dim + j];
        sq[i] = s;
    }
    if (cols == NULL)
        return;
    for (int64_t i = 0; i < rows * dim; i++)
        cols[i] = 0.0;
    for (int64_t b = 0; b < batch; b++)
        for (int64_t l = 0; l < rows; l++)
            for (int64_t j = 0; j < dim; j++)
                cols[l * dim + j] += x[(l * batch + b) * dim + j];
}

/* The squared norms and, if cols is not NULL, the per-step column sums of
   an observed block of states, as sums() above, in the order of
   segment._sum_last_axis(x * x) and of numpy's x[l].sum(axis=0) of a
   C-ordered (batch, dim) step of dim >= 2 columns.  The dims of the
   builtin models get their own copies of the loops, compiled for a dim
   known at compile time. */
void observed_sums(int64_t rows, int64_t batch, int64_t dim, const double *x, double *sq, double *cols)
{
    if (dim == 1)
        sums(1, rows, batch, x, sq, cols);
    else if (dim == 2)
        sums(2, rows, batch, x, sq, cols);
    else
        sums(dim, rows, batch, x, sq, cols);
}

/* The Brownian draws: draw_normals fills a block of standard normals for a
 * batch of replicas, each from its own Philox4x64-10 stream, with numpy's
 * bits.  Replica r's stream is numpy's Philox(key=[seed, r]) and its draws
 * are those of Generator.standard_normal: numpy's ziggurat
 * (random_standard_normal in numpy/random/src/distributions/distributions.c)
 * over Philox's 64-bit words, each taken as (counter block, position) in
 * numpy's order.  The sign is put on by an xor of the sign bit where numpy
 * negates; negation is exact, so the bits are the same.  The rare rejected
 * draws call log1p and exp from the C library, as numpy does.
 *
 * `struct philox` is numpy's philox_state without its unused 32-bit
 * buffer, 88 bytes: the 256-bit counter of the block of four words in
 * `buffer`, the key, and `pos`, the next unused word (4: none left).  A new
 * stream has counter 0, key [seed, r] and pos 4.  Philox is counter-based,
 * so the words of the next two counters are made together, their rounds
 * interleaved; what is made but not used is made again by the next call,
 * which starts from the state written back.
 *
 * The tables ki_double, wi_double and fi_double are numpy's
 * (numpy/random/src/distributions/ziggurat_constants.h), as exact literals.
 * Their source, and the sampler this code follows, carry this notice:
 *
 *   Copyright (c) 2019 Kevin Sheppard. All rights reserved.
 *   Copyright (c) 2005-2024, NumPy Developers. All rights reserved.
 *
 *   Redistribution and use in source and binary forms, with or without
 *   modification, are permitted provided that the following conditions are
 *   met:
 *   1. Redistributions of source code must retain the above copyright
 *      notice, this list of conditions and the following disclaimer.
 *   2. Redistributions in binary form must reproduce the above copyright
 *      notice, this list of conditions and the following disclaimer in the
 *      documentation and/or other materials provided with the distribution.
 *   3. Neither the name of the copyright holder nor the names of its
 *      contributors may be used to endorse or promote products derived from
 *      this software without specific prior written permission.
 *
 *   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS
 *   IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED
 *   TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A
 *   PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER
 *   OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL,
 *   EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO,
 *   PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR
 *   PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF
 *   LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING
 *   NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE OF THIS
 *   SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
 */
struct philox {
    uint64_t counter[4];
    uint64_t key[2];
    uint64_t buffer[4];
    int64_t pos;
};

static const uint64_t ki_double[256] = {
    0xef33d8025ef6a, 0x0000000000000, 0xc08be98fbc6a8, 0xda354fabd8142, 0xe51f67ec1eeea, 0xeb255e9d3f77e,
    0xeef4b817ecab9, 0xf19470afa44aa, 0xf37ed61ffcb18, 0xf4f469561255c, 0xf61a5e41ba396, 0xf707a755396a4,
    0xf7cb2ec28449a, 0xf86f10c6357d3, 0xf8fa6578325de, 0xf9724c74dd0da, 0xf9da907dbf509, 0xfa360f581fa74,
    0xfa86fde5b4bf8, 0xfacf160d354dc, 0xfb0fb6718b90f, 0xfb49f8d5374c6, 0xfb7ec2366fe77, 0xfbaece9a1e50e,
    0xfbdab9d040bed, 0xfc03060ff6c57, 0xfc2821037a248, 0xfc4a67ae25bd1, 0xfc6a2977aee31, 0xfc87aa92896a4,
    0xfca325e4bde85, 0xfcbcce902231a, 0xfcd4d12f839c4, 0xfceb54d8fec99, 0xfd007bf1dc930, 0xfd1464dd6c4e6,
    0xfd272a8e2f450, 0xfd38e4ff0c91e, 0xfd49a9990b478, 0xfd598b8920f53, 0xfd689c08e99ec, 0xfd76ea9c8e832,
    0xfd848547b08e8, 0xfd9178bad2c8c, 0xfd9dd07a7add2, 0xfda9970105e8c, 0xfdb4d5dc02e20, 0xfdbf95c5bfcd0,
    0xfdc9debb99a7d, 0xfdd3b8118729d, 0xfddd288342f90, 0xfde6364369f64, 0xfdeee708d514e, 0xfdf7401a6b42e,
    0xfdff46599ed40, 0xfe06fe4bc24f2, 0xfe0e6c225a258, 0xfe1593c28b84c, 0xfe1c78cbc3f99, 0xfe231e9db1caa,
    0xfe29885da1b91, 0xfe2fb8fb54186, 0xfe35b33558d4a, 0xfe3b799d0002a, 0xfe410e99ead7f, 0xfe46746d47734,
    0xfe4bad34c095c, 0xfe50baed29524, 0xfe559f74ebc78, 0xfe5a5c8e41212, 0xfe5ef3e138689, 0xfe6366fd91078,
    0xfe67b75c6d578, 0xfe6be661e11aa, 0xfe6ff55e5f4f2, 0xfe73e5900a702, 0xfe77b823e9e39, 0xfe7b6e37070a2,
    0xfe7f08d774243, 0xfe8289053f08c, 0xfe85efb35173a, 0xfe893dc840864, 0xfe8c741f0cebc, 0xfe8f9387d4ef6,
    0xfe929cc879b1d, 0xfe95909d388ea, 0xfe986fb939aa2, 0xfe9b3ac714866, 0xfe9df2694b6d5, 0xfea0973abe67c,
    0xfea329cf166a4, 0xfea5aab32952c, 0xfea81a6d5741a, 0xfeaa797de1cf0, 0xfeacc85f3d920, 0xfeaf07865e63c,
    0xfeb13762fec13, 0xfeb3585fe2a4a, 0xfeb56ae3162b4, 0xfeb76f4e284fa, 0xfeb965fe62014, 0xfebb4f4cf9d7c,
    0xfebd2b8f449d0, 0xfebefb16e2e3e, 0xfec0be31ebde8, 0xfec2752b15a15, 0xfec42049dafd3, 0xfec5bfd29f196,
    0xfec75406ceef4, 0xfec8dd2500cb4, 0xfeca5b6911f12, 0xfecbcf0c427fe, 0xfecd38454fb15, 0xfece97488c8b3,
    0xfecfec47f91b7, 0xfed1377358528, 0xfed278f844903, 0xfed3b10242f4c, 0xfed4dfbad586e, 0xfed605498c3dd,
    0xfed721d414fe8, 0xfed8357e4a982, 0xfed9406a42cc8, 0xfeda42b85b704, 0xfedb3c8746ab4, 0xfedc2df416652,
    0xfedd171a46e52, 0xfeddf813c8ad3, 0xfeded0f909980, 0xfedfa1e0fd414, 0xfee06ae124bc4, 0xfee12c0d95a06,
    0xfee1e579006e0, 0xfee29734b6524, 0xfee34150ae4bc, 0xfee3e3db89b3c, 0xfee47ee2982f4, 0xfee51271db086,
    0xfee59e9407f41, 0xfee623528b42e, 0xfee6a0b5897f1, 0xfee716c3e077a, 0xfee7858327b82, 0xfee7ecf7b06ba,
    0xfee84d2484ab2, 0xfee8a60b66343, 0xfee8f7accc851, 0xfee94207e25da, 0xfee9851a829ea, 0xfee9c0e13485c,
    0xfee9f557273f4, 0xfeea22762ccae, 0xfeea4836b42ac, 0xfeea668fc2d71, 0xfeea7d76ed6fa, 0xfeea8ce04fa0a,
    0xfeea94be8333b, 0xfeea950296410, 0xfeea8d9c0075e, 0xfeea7e7897654, 0xfeea678481d24, 0xfeea48aa29e83,
    0xfeea21d22e4da, 0xfee9f2e352024, 0xfee9bbc26af2e, 0xfee97c524f2e4, 0xfee93473c0a3a, 0xfee8e40557516,
    0xfee88ae369c7a, 0xfee828e7f3dfd, 0xfee7bdea7b888, 0xfee749bff37ff, 0xfee6cc3a9bd5e, 0xfee64529e007e,
    0xfee5b45a32888, 0xfee51994e57b6, 0xfee474a0006cf, 0xfee3c53e12c50, 0xfee30b2e02ad8, 0xfee2462ad8205,
    0xfee175eb83c5a, 0xfee09a22a1447, 0xfedfb27e349cc, 0xfedebea76216c, 0xfeddbe422047e, 0xfedcb0ece39d3,
    0xfedb964042cf4, 0xfeda6dce938c9, 0xfed937237e98d, 0xfed7f1c38a836, 0xfed69d2b9c02b, 0xfed538d06ae00,
    0xfed3c41dea422, 0xfed23e76a2fd8, 0xfed0a732fe644, 0xfecefda07fe34, 0xfecd4100eb7b8, 0xfecb708956eb4,
    0xfec98b61230c1, 0xfec790a0da978, 0xfec57f50f31fe, 0xfec356686c962, 0xfec114cb4b335, 0xfebeb948e6fd0,
    0xfebc429a0b692, 0xfeb9af5ee0cdc, 0xfeb6fe1c98542, 0xfeb42d3ad1f9e, 0xfeb13b00b2d4b, 0xfeae2591a02e9,
    0xfeaaeae992257, 0xfea788d8ee326, 0xfea3fcffd73e5, 0xfea044c8dd9f6, 0xfe9c5d62f563b, 0xfe9843ba947a4,
    0xfe93f471d4728, 0xfe8f6bd76c5d6, 0xfe8aa5dc4e8e6, 0xfe859e07ab1ea, 0xfe804f690a940, 0xfe7ab488233c0,
    0xfe74c751f6aa5, 0xfe6e8102aa202, 0xfe67da0b6abd8, 0xfe60c9f38307e, 0xfe5947338f742, 0xfe51470977280,
    0xfe48bd436f458, 0xfe3f9bffd1e37, 0xfe35d35eeb19c, 0xfe2b5122fe4fe, 0xfe20003995557, 0xfe13c82788314,
    0xfe068c4ee67b0, 0xfdf82b02b71aa, 0xfde87c57efeaa, 0xfdd7509c63bfd, 0xfdc46e529bf13, 0xfdaf8f82e0282,
    0xfd985e1b2ba75, 0xfd7e6ef48cf04, 0xfd613adbd650b, 0xfd40149e2f012, 0xfd1a1a7b4c7ac, 0xfcee204761f9e,
    0xfcba8d85e11b2, 0xfc7d26ecd2d22, 0xfc32b2f1e22ed, 0xfbd6581c0b83a, 0xfb606c4005434, 0xfac40582a2874,
    0xf9e971e014598, 0xf89fa48a41dfc, 0xf66c5f7f0302c, 0xf1a5a4b331c4a
};
static const double wi_double[256] = {
    0x1.f493b7815d979p-51, 0x1.b8d0be3fdf6c6p-55, 0x1.250af3c2c5bb4p-54, 0x1.57cb938443b61p-54,
    0x1.801fce82fa70cp-54, 0x1.a230c2e4cd0bcp-54, 0x1.c004d2f3861f7p-54, 0x1.dac2f5a747274p-54,
    0x1.f32482d4cd5c3p-54, 0x1.04d32278ebbadp-53, 0x1.0f5053b025d43p-53, 0x1.192a697413677p-53,
    0x1.227a28f7a1af5p-53, 0x1.2b52e3863d880p-53, 0x1.33c3fc05791f5p-53, 0x1.3bd9ec1a2b12fp-53,
    0x1.439ef8dff9b55p-53, 0x1.4b1bb363dfea7p-53, 0x1.52575621ad374p-53, 0x1.59580a707ce96p-53,
    0x1.60231cfd97eeap-53, 0x1.66bd261a37c3dp-53, 0x1.6d2a292000570p-53, 0x1.736dad346f8a6p-53,
    0x1.798ad10b32a77p-53, 0x1.7f845ad46f543p-53, 0x1.855cc53430a77p-53, 0x1.8b1649e7b769ap-53,
    0x1.90b2ea94ecf98p-53, 0x1.96347822c1eeap-53, 0x1.9b9c98e38c546p-53, 0x1.a0eccdca4a72cp-53,
    0x1.a62676d77cd59p-53, 0x1.ab4ad6e101630p-53, 0x1.b05b16d136c9cp-53, 0x1.b558487427a29p-53,
    0x1.ba4368e529f3ap-53, 0x1.bf1d62abf8232p-53, 0x1.c3e70f9594ef3p-53, 0x1.c8a13a5323b61p-53,
    0x1.cd4c9fe72268bp-53, 0x1.d1e9f0e80b748p-53, 0x1.d679d29e41f10p-53, 0x1.dafce0023b8c3p-53,
    0x1.df73aa9f17653p-53, 0x1.e3debb5d2edfep-53, 0x1.e83e9337a6f00p-53, 0x1.ec93abdf982cep-53,
    0x1.f0de784f06226p-53, 0x1.f51f654d8f688p-53, 0x1.f956d9e87d7aep-53, 0x1.fd8537dfa2eacp-53,
    0x1.00d56e04234ecp-52, 0x1.02e40f5398f9ap-52, 0x1.04eea9e16a5fcp-52, 0x1.06f565b72a010p-52,
    0x1.08f869071f40bp-52, 0x1.0af7d84bc6113p-52, 0x1.0cf3d664bcc7fp-52, 0x1.0eec84b16086bp-52,
    0x1.10e20329515eep-52, 0x1.12d4707310fbep-52, 0x1.14c3e9f8e9141p-52, 0x1.16b08bfc4201ep-52,
    0x1.189a71a78da34p-52, 0x1.1a81b51ee6d88p-52, 0x1.1c666f8f82acbp-52, 0x1.1e48b93e0d42ep-52,
    0x1.2028a9940a09fp-52, 0x1.2206572c4c6e9p-52, 0x1.23e1d7de9c31fp-52, 0x1.25bb40ca96bfbp-52,
    0x1.2792a661dd37fp-52, 0x1.29681c719d71bp-52, 0x1.2b3bb62b82edap-52, 0x1.2d0d862e1b853p-52,
    0x1.2edd9e8cba98ep-52, 0x1.30ac10d6e48d7p-52, 0x1.3278ee1f4b930p-52, 0x1.3444470265ea1p-52,
    0x1.360e2baca52d5p-52, 0x1.37d6abe05586ap-52, 0x1.399dd6fb2b264p-52, 0x1.3b63bbfb83d03p-52,
    0x1.3d28698561de0p-52, 0x1.3eebede725a83p-52, 0x1.40ae571e09e74p-52, 0x1.426fb2da6745dp-52,
    0x1.44300e83c30a4p-52, 0x1.45ef773cac75dp-52, 0x1.47adf9e66c336p-52, 0x1.496ba32488f2fp-52,
    0x1.4b287f602415dp-52, 0x1.4ce49acb311dcp-52, 0x1.4ea001638a605p-52, 0x1.505abef5e5562p-52,
    0x1.5214df20a8b5ap-52, 0x1.53ce6d56a664fp-52, 0x1.558774e1bb2c8p-52, 0x1.574000e555f78p-52,
    0x1.58f81c60e8514p-52, 0x1.5aafd23241b59p-52, 0x1.5c672d17d733dp-52, 0x1.5e1e37b2f8cd3p-52,
    0x1.5fd4fc89f5e38p-52, 0x1.618b860a31fc3p-52, 0x1.6341de8a2b0a2p-52, 0x1.64f8104b7260bp-52,
    0x1.66ae257c99672p-52, 0x1.6864283b13137p-52, 0x1.6a1a22950b2b1p-52, 0x1.6bd01e8b343bbp-52,
    0x1.6d8626128d352p-52, 0x1.6f3c43161f854p-52, 0x1.70f27f78b68ebp-52, 0x1.72a8e516914c6p-52,
    0x1.745f7dc70eedcp-52, 0x1.7616535e5731fp-52, 0x1.77cd6faeff449p-52, 0x1.7984dc8babd93p-52,
    0x1.7b3ca3c8b1409p-52, 0x1.7cf4cf3db22fbp-52, 0x1.7ead68c73dee7p-52, 0x1.80667a486ea1fp-52,
    0x1.82200dac88676p-52, 0x1.83da2ce899f15p-52, 0x1.8594e1fd1f5bdp-52, 0x1.875036f7a7ec5p-52,
    0x1.890c35f47f72dp-52, 0x1.8ac8e9205c043p-52, 0x1.8c865aba10c9cp-52, 0x1.8e44951446a27p-52,
    0x1.9003a2973b58fp-52, 0x1.91c38dc288347p-52, 0x1.9384612ef0afcp-52, 0x1.954627903a28ap-52,
    0x1.9708ebb70d5eep-52, 0x1.98ccb892e2a31p-52, 0x1.9a919933f99bfp-52, 0x1.9c5798cd5d92cp-52,
    0x1.9e1ec2b6f7411p-52, 0x1.9fe7226fad24ap-52, 0x1.a1b0c39f93692p-52, 0x1.a37bb21a2c85bp-52,
    0x1.a547f9e0bbb88p-52, 0x1.a715a724aa9a4p-52, 0x1.a8e4c64a0313dp-52, 0x1.aab563e9ff108p-52,
    0x1.ac878cd5af5cep-52, 0x1.ae5b4e18bb336p-52, 0x1.b030b4fc3a11ap-52, 0x1.b207cf09a985bp-52,
    0x1.b3e0aa0e00c00p-52, 0x1.b5bb541ce3d03p-52, 0x1.b797db93f8927p-52, 0x1.b9764f1e5f73cp-52,
    0x1.bb56bdb85256ep-52, 0x1.bd3936b2ec0a2p-52, 0x1.bf1dc9b81ae83p-52, 0x1.c10486cec16a0p-52,
    0x1.c2ed7e5f07a2dp-52, 0x1.c4d8c136e0d1cp-52, 0x1.c6c6608ec8705p-52, 0x1.c8b66e0eba617p-52,
    0x1.caa8fbd36a2abp-52, 0x1.cc9e1c73bd690p-52, 0x1.ce95e3068e037p-52, 0x1.d0906328b8f6ep-52,
    0x1.d28db1037ef20p-52, 0x1.d48de1533c647p-52, 0x1.d691096e7f123p-52, 0x1.d8973f4d7fba5p-52,
    0x1.daa0999206e70p-52, 0x1.dcad2f8fc490ep-52, 0x1.debd195522e37p-52, 0x1.e0d06fb49d21cp-52,
    0x1.e2e74c4ea46f6p-52, 0x1.e501c99c1d188p-52, 0x1.e72002f97fe25p-52, 0x1.e94214b2abf0ap-52,
    0x1.eb681c0f76f08p-52, 0x1.ed9237610a73ap-52, 0x1.efc086101eca9p-52, 0x1.f1f328ac25321p-52,
    0x1.f42a40fb74d6dp-52, 0x1.f665f20c90168p-52, 0x1.f8a6604899782p-52, 0x1.faebb187122bfp-52,
    0x1.fd360d22fe785p-52, 0x1.ff859c118f60bp-52, 0x1.00ed447d3a075p-51, 0x1.021a8028fc947p-51,
    0x1.034a983a902abp-51, 0x1.047da4e3ef5c7p-51, 0x1.05b3bf6adb37ep-51, 0x1.06ed023a72668p-51,
    0x1.082988f632e17p-51, 0x1.0969708e8a254p-51, 0x1.0aacd7571c0c4p-51, 0x1.0bf3dd1eed448p-51,
    0x1.0d3ea34aa3d30p-51, 0x1.0e8d4cf116593p-51, 0x1.0fdffefa69fb6p-51, 0x1.1136e04207041p-51,
    0x1.129219bbb5d35p-51, 0x1.13f1d69c4096dp-51, 0x1.1556448602e3bp-51, 0x1.16bf93b9deef3p-51,
    0x1.182df74d21261p-51, 0x1.19a1a564eebacp-51, 0x1.1b1ad777f2f8ep-51, 0x1.1c99ca971a694p-51,
    0x1.1e1ebfbe4ae39p-51, 0x1.1fa9fc2e2d901p-51, 0x1.213bc9d04cc81p-51, 0x1.22d477a6fd3eep-51,
    0x1.24745a4ac9c24p-51, 0x1.261bcc77658e0p-51, 0x1.27cb2faa8592ep-51, 0x1.2982ecd770e78p-51,
    0x1.2b437532a0a52p-51, 0x1.2d0d43196db97p-51, 0x1.2ee0db1a978f5p-51, 0x1.30becd256aeeep-51,
    0x1.32a7b5e68a4a3p-51, 0x1.349c405ae12a3p-51, 0x1.369d27a33a840p-51, 0x1.38ab39256410ap-51,
    0x1.3ac7570ae88fap-51, 0x1.3cf27b31704a6p-51, 0x1.3f2dbaa60f475p-51, 0x1.417a49cb9e5dap-51,
    0x1.43d9815545e94p-51, 0x1.464ce44a73a15p-51, 0x1.48d62759c43bcp-51, 0x1.4b7739d6b5a27p-51,
    0x1.4e3250dcd8902p-51, 0x1.5109f53e9ac41p-51, 0x1.54011523a7e42p-51, 0x1.571b1a94ae41bp-51,
    0x1.5a5c08b718dd9p-51, 0x1.5dc8a243ad0fep-51, 0x1.61669cf861e4cp-51, 0x1.653ce7b006aeap-51,
    0x1.69540be9fe5c3p-51, 0x1.6db6b8d09e232p-51, 0x1.72728f05f7a34p-51, 0x1.7799556090673p-51,
    0x1.7d42df4d6ce8cp-51, 0x1.839030529f234p-51, 0x1.8ab0fbfaa7c14p-51, 0x1.92ee0946f4496p-51,
    0x1.9cbee014057abp-51, 0x1.a8fdc7894775ap-51, 0x1.b981f3878fdb1p-51, 0x1.d3bb48209ad33p-51
};
static const double fi_double[256] = {
    0x1.0000000000000p+0, 0x1.f446ac979f087p-1, 0x1.eb7545b6ca915p-1, 0x1.e3f11e027f077p-1,
    0x1.dd36fa704de95p-1, 0x1.d70920657bcf2p-1, 0x1.d144978a119dcp-1, 0x1.cbd33a8a72debp-1,
    0x1.c6a5ecea9787fp-1, 0x1.c1b1cd9eebaeap-1, 0x1.bceeb4ee1dc82p-1, 0x1.b85653a8ff552p-1,
    0x1.b3e3a8234dd10p-1, 0x1.af92a3f6ce8a2p-1, 0x1.ab5fef17a2504p-1, 0x1.a748bd550c9e1p-1,
    0x1.a34aafdf5af0fp-1, 0x1.9f63bee651fd8p-1, 0x1.9b9228d240681p-1, 0x1.97d4657617ac1p-1,
    0x1.94291c21b7a47p-1, 0x1.908f1bd31714fp-1, 0x1.8d0554fe60aa8p-1, 0x1.898ad48badf02p-1,
    0x1.861ebfc37bcacp-1, 0x1.82c050f56cf6ep-1, 0x1.7f6ed4b20e2cbp-1, 0x1.7c29a779c6858p-1,
    0x1.78f033ca0b0d5p-1, 0x1.75c1f0770d856p-1, 0x1.729e5f43f6d12p-1, 0x1.6f850baea7aeep-1,
    0x1.6c7589e635a89p-1, 0x1.696f75e513b2ap-1, 0x1.667272a92e323p-1, 0x1.637e298550c18p-1,
    0x1.6092498802665p-1, 0x1.5dae86f4aff6ap-1, 0x1.5ad29acc85c89p-1, 0x1.57fe4264c8d8fp-1,
    0x1.55313f08d9e46p-1, 0x1.526b55a656cd5p-1, 0x1.4fac4e820b667p-1, 0x1.4cf3f4f494ec0p-1,
    0x1.4a42172dc5278p-1, 0x1.479685fdf5012p-1, 0x1.44f114a493679p-1, 0x1.425198a355fe3p-1,
    0x1.3fb7e99585b82p-1, 0x1.3d23e10af31a3p-1, 0x1.3a955a662cd0ep-1, 0x1.380c32bda00d5p-1,
    0x1.358848bf550e9p-1, 0x1.33097c9703a35p-1, 0x1.308fafd6438efp-1, 0x1.2e1ac55ea3beep-1,
    0x1.2baaa14d7954ap-1, 0x1.293f28e93cd15p-1, 0x1.26d84290504edp-1, 0x1.2475d5a90db84p-1,
    0x1.2217ca92ff7f2p-1, 0x1.1fbe0a9929620p-1, 0x1.1d687fe549969p-1, 0x1.1b171573fd111p-1,
    0x1.18c9b709b3c50p-1, 0x1.16805128639dap-1, 0x1.143ad105ea99cp-1, 0x1.11f9248311f38p-1,
    0x1.0fbb3a2325913p-1, 0x1.0d810104142a0p-1, 0x1.0b4a68d70d9aep-1, 0x1.091761d995d81p-1,
    0x1.06e7dccf03c36p-1, 0x1.04bbcafa63f2ep-1, 0x1.02931e18b822ap-1, 0x1.006dc85b8cac4p-1,
    0x1.fc9778c7bbda1p-2, 0x1.f859da7a900cap-2, 0x1.f4229cb2f7af3p-2, 0x1.eff1a717e8f95p-2,
    0x1.ebc6e20bd1f54p-2, 0x1.e7a236a4ec3c5p-2, 0x1.e3838ea5f9b85p-2, 0x1.df6ad47763a09p-2,
    0x1.db57f320b56b1p-2, 0x1.d74ad6426de33p-2, 0x1.d3436a1021080p-2, 0x1.cf419b4ae5b6dp-2,
    0x1.cb45573c0a848p-2, 0x1.c74e8bb00d7c7p-2, 0x1.c35d26f1d2cb8p-2, 0x1.bf7117c616a17p-2,
    0x1.bb8a4d6716d91p-2, 0x1.b7a8b7807131bp-2, 0x1.b3cc462b331cap-2, 0x1.aff4e9ea18552p-2,
    0x1.ac2293a5f5a9ep-2, 0x1.a85534aa4d880p-2, 0x1.a48cbea20c04dp-2, 0x1.a0c923946843ep-2,
    0x1.9d0a55e1e93dfp-2, 0x1.995048418c0c6p-2, 0x1.959aedbe09f93p-2, 0x1.91ea39b33cb17p-2,
    0x1.8e3e1fcb9f115p-2, 0x1.8a9693fde9188p-2, 0x1.86f38a8ac5ab6p-2, 0x1.8354f7faa0dd9p-2,
    0x1.7fbad11b8d911p-2, 0x1.7c250aff414b0p-2, 0x1.78939af9252ebp-2, 0x1.7506769c7b1edp-2,
    0x1.717d93ba9614cp-2, 0x1.6df8e86124caap-2, 0x1.6a786ad88de21p-2, 0x1.66fc11a25cbe2p-2,
    0x1.6383d377be515p-2, 0x1.600fa7480d2c8p-2, 0x1.5c9f84376c244p-2, 0x1.5933619d6eebep-2,
    0x1.55cb3703d0100p-2, 0x1.5266fc2533bedp-2, 0x1.4f06a8ebf6d92p-2, 0x1.4baa357109ca2p-2,
    0x1.485199fad6ad4p-2, 0x1.44fccefc324fep-2, 0x1.41abcd1357a19p-2, 0x1.3e5e8d08ed2dbp-2,
    0x1.3b1507cf143aep-2, 0x1.37cf368081379p-2, 0x1.348d125f9d19ep-2, 0x1.314e94d5af62fp-2,
    0x1.2e13b77210766p-2, 0x1.2adc73e963fddp-2, 0x1.27a8c414db11ep-2, 0x1.2478a1f17de89p-2,
    0x1.214c079f7cc9ep-2, 0x1.1e22ef6188116p-2, 0x1.1afd539c2f050p-2, 0x1.17db2ed5454e8p-2,
    0x1.14bc7bb34ee67p-2, 0x1.11a134fcf2423p-2, 0x1.0e895598709c4p-2, 0x1.0b74d88b242dap-2,
    0x1.0863b8f904336p-2, 0x1.0555f2242e9d9p-2, 0x1.024b7f6c7747ep-2, 0x1.fe88b89df93c5p-3,
    0x1.f88108cb83235p-3, 0x1.f27fe6ce998d2p-3, 0x1.ec854a4c99c44p-3, 0x1.e6912b2283cddp-3,
    0x1.e0a3816457184p-3, 0x1.dabc455c7900ap-3, 0x1.d4db6f8b2514fp-3, 0x1.cf00f8a5e6fccp-3,
    0x1.c92cd9971df53p-3, 0x1.c35f0b7d89d47p-3, 0x1.bd9787abe18a1p-3, 0x1.b7d647a8731aap-3,
    0x1.b21b452ccd13ap-3, 0x1.ac667a2571807p-3, 0x1.a6b7e0b19267ep-3, 0x1.a10f7322d7e3dp-3,
    0x1.9b6d2bfd2fe5ap-3, 0x1.95d105f6a7c27p-3, 0x1.903afbf74fa69p-3, 0x1.8aab09192815bp-3,
    0x1.852128a819a38p-3, 0x1.7f9d5621f7175p-3, 0x1.7a1f8d368a323p-3, 0x1.74a7c9c7ab5a6p-3,
    0x1.6f3607e964716p-3, 0x1.69ca43e21f25cp-3, 0x1.64647a2adf19cp-3, 0x1.5f04a76f883f9p-3,
    0x1.59aac88f31d6cp-3, 0x1.5456da9c86835p-3, 0x1.4f08dade31fc1p-3, 0x1.49c0c6cf5ce2dp-3,
    0x1.447e9c20375d5p-3, 0x1.3f4258b6931aep-3, 0x1.3a0bfaae8d7eep-3, 0x1.34db805b4ab88p-3,
    0x1.2fb0e847c2a65p-3, 0x1.2a8c3137a071ap-3, 0x1.256d5a2835eb7p-3, 0x1.2054625183c34p-3,
    0x1.1b41492757d42p-3, 0x1.16340e5a82d63p-3, 0x1.112cb1da26eb9p-3, 0x1.0c2b33d5209bap-3,
    0x1.072f94bb8bf85p-3, 0x1.0239d54067d2ap-3, 0x1.fa93ecb6b222cp-4, 0x1.f0bff29520e1cp-4,
    0x1.e6f7bf29aa54bp-4, 0x1.dd3b56176e88fp-4, 0x1.d38abb9bd91e5p-4, 0x1.c9e5f493b740ap-4,
    0x1.c04d0680b1015p-4, 0x1.b6bff78f2e233p-4, 0x1.ad3ece9caf633p-4, 0x1.a3c9933ea6286p-4,
    0x1.9a604dc9d5b19p-4, 0x1.9103075a4a0abp-4, 0x1.87b1c9dbf2852p-4, 0x1.7e6ca013eefd6p-4,
    0x1.753395aaa1176p-4, 0x1.6c06b73694a4cp-4, 0x1.62e6124854d18p-4, 0x1.59d1b577466a4p-4,
    0x1.50c9b06fa2baep-4, 0x1.47ce1401b2213p-4, 0x1.3edef23269a86p-4, 0x1.35fc5e4d93e70p-4,
    0x1.2d266cf9b3111p-4, 0x1.245d344dd0d91p-4, 0x1.1ba0cbe97897dp-4, 0x1.12f14d0f2179dp-4,
    0x1.0a4ed2c159625p-4, 0x1.01b979e30e497p-4, 0x1.f262c2b6c6e35p-5, 0x1.e16d547b25181p-5,
    0x1.d092efeadf162p-5, 0x1.bfd3e0f282a2cp-5, 0x1.af30790385f70p-5, 0x1.9ea90f9295563p-5,
    0x1.8e3e02a68b5abp-5, 0x1.7defb77af271ep-5, 0x1.6dbe9b398d064p-5, 0x1.5dab23cf2add4p-5,
    0x1.4db5d0e11275dp-5, 0x1.3ddf2ce98eecbp-5, 0x1.2e27ce83df497p-5, 0x1.1e9059f1f6abcp-5,
    0x1.0f1982e968011p-5, 0x1.ff881d718a5c4p-6, 0x1.e121adb828c75p-6, 0x1.c301983cd091ap-6,
    0x1.a529f4e22ebf8p-6, 0x1.879d1b600c10ap-6, 0x1.6a5daf40bbf82p-6, 0x1.4d6eaf2fbb064p-6,
    0x1.30d388dab5e13p-6, 0x1.1490334603012p-6, 0x1.f152a4f72dd49p-7, 0x1.ba48d274f8facp-7,
    0x1.841040d8da478p-7, 0x1.4eb96421acfe0p-7, 0x1.1a59229952f92p-7, 0x1.ce160f8ec6837p-8,
    0x1.69ea8d90cb85dp-8, 0x1.08a1f03b0b1fdp-8, 0x1.55f9f43c1b067p-9, 0x1.4a605b6b9f70fp-10
};

/* numpy's ziggurat_nor_r, where the tail begins, and its inverse */
#define ZIGGURAT_NOR_R 3.6541528853610088
#define ZIGGURAT_NOR_INV_R 0.27366123732975828

/* One replica's words while it draws: w[at..have) are unused, and the block
   w[4j..4j+4) has counter ctr[j]. */
struct words {
    uint64_t w[8];
    uint64_t ctr[2][4];
    uint64_t key[2];
    int64_t at, have;
};

/* One Philox4x64 round, with Random123's multipliers as numpy's philox.h has them. */
INLINE void philox_round(uint64_t v[4], uint64_t k0, uint64_t k1)
{
    unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * v[0];
    unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * v[2];
    uint64_t hi0 = (uint64_t)(p0 >> 64), lo0 = (uint64_t)p0, hi1 = (uint64_t)(p1 >> 64), lo1 = (uint64_t)p1;
    v[0] = hi1 ^ v[1] ^ k0;
    v[1] = lo1;
    v[2] = hi0 ^ v[3] ^ k1;
    v[3] = lo0;
}

INLINE void increment(uint64_t c[4])
{
    if (++c[0] == 0 && ++c[1] == 0 && ++c[2] == 0)
        ++c[3];
}

/* The blocks of the two counters after the last one made. */
static __attribute__((noinline)) void refill(struct words *s)
{
    uint64_t a[4], b[4];
    memcpy(a, s->ctr[s->have / 4 - 1], sizeof a);
    increment(a);
    memcpy(b, a, sizeof b);
    increment(b);
    memcpy(s->ctr[0], a, sizeof a);
    memcpy(s->ctr[1], b, sizeof b);
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int round = 0; round < 10; round++) {
        if (round) { /* the key's Weyl increments */
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        philox_round(a, k0, k1);
        philox_round(b, k0, k1);
    }
    memcpy(s->w, a, sizeof a);
    memcpy(s->w + 4, b, sizeof b);
    s->at = 0;
    s->have = 8;
}

INLINE uint64_t next_word(struct words *s)
{
    if (__builtin_expect(s->at == s->have, 0))
        refill(s);
    return s->w[s->at++];
}

INLINE double next_double(struct words *s)
{
    return (next_word(s) >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's random_standard_normal from a first word r that its fast path rejected. */
static __attribute__((noinline)) double rejected(struct words *s, uint64_t r)
{
    for (;;) {
        int idx = r & 0xff;
        r >>= 8;
        uint64_t rabs = (r >> 1) & 0x000fffffffffffffULL;
        double x = rabs * wi_double[idx];
        if (r & 0x1)
            x = -x;
        if (rabs < ki_double[idx])
            return x;
        if (idx == 0) {
            for (;;) {
                double xx = -ZIGGURAT_NOR_INV_R * log1p(-next_double(s));
                double yy = -log1p(-next_double(s));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
            }
        }
        if (((fi_double[idx - 1] - fi_double[idx]) * next_double(s) + fi_double[idx]) < exp(-0.5 * x * x))
            return x;
        r = next_word(s);
    }
}

INLINE double standard_normal(struct words *s)
{
    uint64_t r = next_word(s);
    int idx = r & 0xff;
    uint64_t rabs = (r >> 9) & 0x000fffffffffffffULL;
    if (__builtin_expect(rabs >= ki_double[idx], 0))
        return rejected(s, r);
    double x = rabs * wi_double[idx];
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= (r << 55) & 0x8000000000000000ULL; /* bit 8 of r, the sign */
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* n draws of each of `count` replicas, times `scale`, replica r's at
   out[r * replica_stride + i]; state[r] is read and written back. */
void draw_normals(int64_t count, struct philox *state, double *out, int64_t replica_stride, int64_t n, double scale)
{
    struct words s;
    for (int64_t r = 0; r < count; r++) {
        struct philox *p = state + r;
        memcpy(s.w, p->buffer, sizeof p->buffer);
        memcpy(s.ctr[0], p->counter, sizeof p->counter);
        memcpy(s.key, p->key, sizeof p->key);
        s.at = p->pos;
        s.have = 4;
        double *o = out + r * replica_stride;
        for (int64_t i = 0; i < n; i++)
            o[i] = standard_normal(&s) * scale;
        int64_t j = s.at > 4; /* the block of the last word used */
        memcpy(p->counter, s.ctr[j], sizeof p->counter);
        memcpy(p->buffer, s.w + 4 * j, sizeof p->buffer);
        p->pos = s.at - 4 * j;
    }
}
