/* The truncated Euler-Maruyama steps of the builtin models example1 and example2.
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
 * the ball of `radius` as model.clip_to_ball clips a finite row whose squared
 * norm is finite: rescaled by radius / norm until its norm is within the
 * radius, one hit counted in `hits`.  sqrt, division and multiplication are
 * correctly rounded, so the bits match.  A row in which some replica is not
 * finite, or has a squared norm that overflows, is left untouched: the
 * function returns the number of rows taken, and the numpy driver takes the
 * row it stopped before, with its rescaling and its errors.  If `out` is not
 * NULL, the states after row t are written to out[t], a (B, n) block.  A
 * call with no rows reads no pointer, the terms' included.
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
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

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

/* Whether every replica's pre-clip state can be clipped here: it lies
   within `inside`, or it is finite and its squared norm does not overflow. */
INLINE int clippable(int64_t dim, const double *pre, int64_t batch, double inside)
{
    for (int64_t r = 0; r < batch; r++) {
        const double *p = pre + r * dim;
        double sq = 0.0;
        int outside = 0;
        for (int64_t j = 0; j < dim; j++) {
            outside |= !(fabs(p[j]) <= inside);
            sq = sq + p[j] * p[j];
        }
        if (outside && !isfinite(sq))
            return 0;
    }
    return 1;
}

/* Clip the pre-clip states into x, as clip_to_ball does for finite squared norms. */
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
        double nrm = 0.0;
        for (int64_t j = 0; j < dim; j++)
            nrm = nrm + v[j] * v[j];
        nrm = sqrt(nrm);
        if (nrm > radius)
            hits[r] += 1;
        while (nrm > radius) {
            double scale = radius / nrm;
            nrm = 0.0;
            for (int64_t j = 0; j < dim; j++) {
                v[j] = v[j] * scale;
                nrm = nrm + v[j] * v[j];
            }
            nrm = sqrt(nrm);
        }
    }
}

/* The pre-clip states of one row in numpy's order, and whether an entry
   lies past `inside` (a NaN does). */
INLINE int pre_clip(int64_t dim, const double *restrict x, const double *restrict dbt, int64_t replica_stride,
                    const struct term *terms, int64_t batch, double delta, double inside, double *restrict pre)
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
        double db0 = dbt[r * replica_stride], db1 = dbt[r * replica_stride + 1];
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
                     int64_t replica_stride, int64_t k, int64_t n_steps, int64_t n, double delta, double inside,
                     double radius, const struct term *terms, double *restrict x, int64_t *restrict hits,
                     double *restrict out, double *restrict pre)
{
    int64_t size = dim * batch;
    for (int64_t t = 0; t < rows; t++) {
        if (pre_clip(dim, x, db + t * row_stride, replica_stride, terms, batch, delta, inside, pre)) {
            if (!clippable(dim, pre, batch, inside))
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

int64_t ex1_steps(int64_t rows, int64_t batch, const double *db, int64_t row_stride, int64_t replica_stride,
                  int64_t k, int64_t n_steps, int64_t n, double delta, double inside, double radius,
                  const struct term *terms, double *x, int64_t *hits, double *out, double *pre)
{
    return steps(1, rows, batch, db, row_stride, replica_stride, k, n_steps, n, delta, inside, radius, terms, x,
                 hits, out, pre);
}

int64_t ex2_steps(int64_t rows, int64_t batch, const double *db, int64_t row_stride, int64_t replica_stride,
                  int64_t k, int64_t n_steps, int64_t n, double delta, double inside, double radius,
                  const struct term *terms, double *x, int64_t *hits, double *out, double *pre)
{
    return steps(2, rows, batch, db, row_stride, replica_stride, k, n_steps, n, delta, inside, radius, terms, x,
                 hits, out, pre);
}
