/* example1's truncated Euler-Maruyama step for the observer-free driver.
 *
 * ex1_steps advances a batch of B replicas of
 *     dx = (1 + 4x - 4x^3) dt + 2 (int_{-1/2}^0 x^2(t+s) ds) dB
 * over rows of increments, time in the outer loop and replicas in the inner
 * loop.  Every value is computed in the order the numpy driver computes it
 * (scheme._Driver.advance, model._ex1_drift, scheme._IntegralTerm), so each
 * replica's states are bit-identical to it.  Build with -ffp-contract=off:
 * a fused multiply-add rounds once where numpy rounds twice.
 *
 * A row is taken only if every replica's pre-clip state lies within
 * `inside` (a NaN fails the test).  The function returns the number of rows
 * taken, and the numpy driver takes the row it stopped before, with its clip,
 * hit counts and errors.
 *
 * The running integral of x^2 is the constant-weight term of
 * scheme._IntegralTerm: `value` and `head` (the newest x^2) per replica,
 * `initial` the N+1 transformed initial nodes, and, when the run outlasts
 * the window (K > N), `ring` holds simulated index i >= 1 at row
 * (i - 1) mod (N + 1), with the sum recomputed from it every N shifts.
 */
#include <math.h>
#include <stdint.h>

/* Grid index i of the transformed history: initial node N + i for i <= 0
   (the same for every replica: stride 0), else ring row (i - 1) mod (N+1). */
static const double *hist(int64_t i, int64_t n, int64_t batch, const double *initial,
                          const double *ring, int64_t *stride)
{
    if (i <= 0) {
        *stride = 0;
        return initial + n + i;
    }
    *stride = 1;
    return ring + ((i - 1) % (n + 1)) * batch;
}

/* value = step * (total - (w_0 h[s-N] + w_N h[s]) / 2), total adding the nodes
   s-N..s one after another.  s is a positive multiple of N, so only the
   oldest node can be initial data; the others walk the ring once, from the
   row of index s-N+1 to its end and on from its start. */
static void resync(int64_t s, int64_t n, int64_t batch, const double *initial, const double *ring,
                   const double *w, double step, double *total, double *value)
{
    int64_t first = s - n, so, sn;
    const double *oldest = hist(first, n, batch, initial, ring, &so);
    const double *newest = hist(s, n, batch, initial, ring, &sn);
    for (int64_t r = 0; r < batch; r++)
        total[r] = w[0] * oldest[r * so];
    int64_t row = first % (n + 1);
    for (int64_t j = 1; j <= n; j++) {
        const double *h = ring + row * batch;
        for (int64_t r = 0; r < batch; r++)
            total[r] = total[r] + w[j] * h[r];
        if (++row == n + 1)
            row = 0;
    }
    for (int64_t r = 0; r < batch; r++)
        value[r] = step * (total[r] - 0.5 * (w[0] * oldest[r * so] + w[n] * newest[r * sn]));
}

int64_t ex1_steps(int64_t rows, int64_t batch, const double *db, int64_t row_stride,
                  int64_t replica_stride, int64_t k, int64_t n_steps, int64_t n, double delta,
                  double inside, double coeff, double step, const double *w, const double *initial,
                  double *ring, double *x, double *value, double *head, double *pre)
{
    for (int64_t t = 0; t < rows; t++) {
        const double *dbt = db + t * row_stride;
        int outside = 0;
        for (int64_t r = 0; r < batch; r++) {
            double h = x[r];
            double f = (1.0 + 4.0 * h) - 4.0 * (h * h * h);
            double p = (f * delta + h) + (0.0 + (2.0 * value[r]) * dbt[r * replica_stride]);
            pre[r] = p;
            outside |= !(fabs(p) <= inside);
        }
        if (outside)
            return t;
        for (int64_t r = 0; r < batch; r++)
            x[r] = pre[r];
        int64_t s = k + t + 1;
        if (s >= n_steps)
            continue; /* nothing reads the history after the last step */
        int64_t si, sp;
        const double *hi = hist(s - n, n, batch, initial, ring, &si);
        const double *hp = hist(s - n - 1, n, batch, initial, ring, &sp);
        double *put = ring ? ring + ((s - 1) % (n + 1)) * batch : 0;
        for (int64_t r = 0; r < batch; r++) {
            double h2 = x[r] * x[r];
            value[r] = value[r] + coeff * (((h2 + head[r]) - hi[r * si]) - hp[r * sp]);
            head[r] = h2;
            if (put)
                put[r] = h2;
        }
        if (s % n == 0)
            resync(s, n, batch, initial, ring, w, step, pre, value);
    }
    return rows;
}
