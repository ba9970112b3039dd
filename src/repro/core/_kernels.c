/* Native batch kernels for the stochastic bisection model.
 *
 * One call advances a whole batch: trial i reads its alpha-hat draws from
 * row i of `draws` and writes its outputs into row i of `out` (or the
 * i-th slot of the per-trial metric arrays).  Five kernels live here:
 *
 *   repro_hf_batch    -- HF final weights (hold-back 8-ary max-heap)
 *   repro_ba_batch    -- BA final weights (explicit DFS stack)
 *   repro_bahf_batch  -- BA-HF final weights (BA above the threshold,
 *                        the HF heap below it)
 *   repro_ba_metrics  -- BA / BA-HF machine metrics (complete network):
 *                        makespan and max final weight per trial, from
 *                        the same DFS as the two kernels above
 *   repro_phf_metrics -- PHF machine metrics (central phase 1, complete
 *                        network): makespan, collective time/count,
 *                        control messages and max final weight per trial
 *
 * Exactness contract: children are computed as a*w and (1.0-a)*w -- the
 * same IEEE-754 operations, in the same order, as the scalar Python fast
 * paths -- and heap ordering only permutes equal-weight pops, which
 * leaves the final weight multiset unchanged.  The PHF kernel reproduces
 * the DES oracle's central phase-1 chronology on the complete network,
 * where every send costs t_send and the generations advance in lockstep
 * (repro.simulator.fastpath's per-trial replay is the Python fallback):
 * every float chain is evaluated with the same association.  Must NOT
 * be compiled with -ffast-math or the products may be
 * contracted/reassociated.
 *
 * Trial-block threading: every kernel takes a trailing `n_threads` and
 * shards its trial range into at most that many *contiguous* blocks,
 * one worker per block.  Trials are mutually independent and each trial
 * writes only its own output row / metric slots, so any thread count
 * computes bit-identical results by construction -- threading never
 * changes which float operations run for a trial, only which thread
 * runs them.  _native.py builds with -pthread -DREPRO_THREADS_PTHREAD:
 * spawn-and-join pthreads per call.  Deliberately NOT a persistent
 * pool: the experiment runners fork worker processes
 * (ProcessPoolExecutor), and a library-held thread pool does not survive
 * fork() -- children would inherit locked mutexes and dead threads.
 * Per-call spawn keeps the library fork-safe and costs microseconds
 * against kernel calls that run for milliseconds.
 *
 * Without the define the block runner degrades to one inline call
 * (serial), so the source always compiles with a bare C99 toolchain.
 */

#include <math.h>
#include <stdlib.h>

#if defined(REPRO_THREADS_PTHREAD)
#include <pthread.h>
#define REPRO_THREAD_BACKEND 1
#else
#define REPRO_THREAD_BACKEND 0
#endif

/* Upper bound on worker threads per call; keeps the per-call block
 * table on the stack.  Far above any sane core count. */
#define REPRO_MAX_THREADS 128

/* Which threading backend this library was compiled with: 0 = serial,
 * 1 = pthread.  The Python side reports this as the
 * threading mode and records it in benchmark artifacts. */
int repro_threading_backend(void)
{
    return REPRO_THREAD_BACKEND;
}

/* ------------------------------------------------------------------ */
/* Trial-block runner                                                  */
/* ------------------------------------------------------------------ */

typedef struct {
    void (*fn)(void *ctx, long lo, long hi, int *rc);
    void *ctx;
    long lo;
    long hi;
    int rc;
} trial_block;

static void run_trial_block(trial_block *block)
{
    block->rc = 0;
    block->fn(block->ctx, block->lo, block->hi, &block->rc);
}

#if REPRO_THREAD_BACKEND == 1
static void *trial_block_main(void *arg)
{
    run_trial_block((trial_block *)arg);
    return NULL;
}
#endif

/* Run fn over [0, n_items) in at most n_threads contiguous blocks.
 * Block b covers [b*n_items/nb, (b+1)*n_items/nb) -- disjoint and
 * exhaustive for any nb, so output rows never alias across workers.
 * Returns 0 when every block succeeded, else the first nonzero block
 * status (callers fall back to NumPy wholesale). */
static int for_each_trial_block(void (*fn)(void *, long, long, int *),
                                void *ctx, long n_items, long n_threads)
{
    trial_block blocks[REPRO_MAX_THREADS];
    long nb, b;
    int rc = 0;

    if (n_threads < 1)
        n_threads = 1;
    if (n_threads > REPRO_MAX_THREADS)
        n_threads = REPRO_MAX_THREADS;
    if (n_threads > n_items)
        n_threads = (n_items > 0) ? n_items : 1;
#if REPRO_THREAD_BACKEND == 0
    n_threads = 1;
#endif
    nb = n_threads;
    for (b = 0; b < nb; ++b) {
        blocks[b].fn = fn;
        blocks[b].ctx = ctx;
        blocks[b].lo = b * n_items / nb;
        blocks[b].hi = (b + 1) * n_items / nb;
        blocks[b].rc = 0;
    }
    if (nb == 1) {
        run_trial_block(&blocks[0]);
        return blocks[0].rc;
    }
#if REPRO_THREAD_BACKEND == 1
    {
        pthread_t tids[REPRO_MAX_THREADS];
        long spawned = 0;

        for (b = 0; b + 1 < nb; ++b) {
            if (pthread_create(&tids[b], NULL, trial_block_main,
                               &blocks[b]) != 0)
                break; /* un-spawned blocks run inline below */
            ++spawned;
        }
        run_trial_block(&blocks[nb - 1]);
        for (b = spawned; b + 1 < nb; ++b)
            run_trial_block(&blocks[b]);
        for (b = 0; b < spawned; ++b)
            pthread_join(tids[b], NULL);
    }
#endif
    for (b = 0; b < nb; ++b) {
        if (blocks[b].rc != 0)
            rc = blocks[b].rc;
    }
    return rc;
}

/* ------------------------------------------------------------------ */
/* HF: hold-back 8-ary max-heap                                        */
/* ------------------------------------------------------------------ */

static void hf_one(const double *draws, double *heap, double w0, long n)
{
    double cur = w0;
    long size = 0;
    long k;

    for (k = 0; k < n - 1; ++k) {
        double a = draws[k];
        double c1 = a * cur;
        double c2 = (1.0 - a) * cur;
        double big, small;
        long i;

        if (c1 > c2) {
            big = c1;
            small = c2;
        } else {
            big = c2;
            small = c1;
        }

        /* Push the small child. */
        i = size++;
        while (i > 0) {
            long p = (i - 1) >> 3;
            if (heap[p] >= small)
                break;
            heap[i] = heap[p];
            i = p;
        }
        heap[i] = small;

        /* The big child usually stays the maximum; otherwise swap it
         * with the root and sift it down (8-ary: depth ~log8 N). */
        if (big >= heap[0]) {
            cur = big;
            continue;
        }
        cur = heap[0];
        i = 0;
        for (;;) {
            long c = 8 * i + 1;
            long end, m, j;
            double mw;

            if (c >= size)
                break;
            end = (c + 8 < size) ? c + 8 : size;
            m = c;
            mw = heap[c];
            for (j = c + 1; j < end; ++j) {
                if (heap[j] > mw) {
                    mw = heap[j];
                    m = j;
                }
            }
            if (mw <= big)
                break;
            heap[i] = mw;
            i = m;
        }
        heap[i] = big;
    }
    heap[n - 1] = cur;
}

typedef struct {
    const double *draws;
    long stride;
    const double *w0;
    double *out;
    long n;
} hf_ctx;

static void hf_trial_block(void *vctx, long lo, long hi, int *rc)
{
    hf_ctx *ctx = (hf_ctx *)vctx;
    long i;

    (void)rc; /* the HF kernel cannot fail */
    for (i = lo; i < hi; ++i)
        hf_one(ctx->draws + i * ctx->stride, ctx->out + i * ctx->n,
               ctx->w0[i], ctx->n);
}

void repro_hf_batch(const double *draws, long draws_stride,
                    const double *w0, double *out, long n_trials, long n,
                    long n_threads)
{
    hf_ctx ctx;

    ctx.draws = draws;
    ctx.stride = draws_stride;
    ctx.w0 = w0;
    ctx.out = out;
    ctx.n = n;
    (void)for_each_trial_block(hf_trial_block, &ctx, n_trials, n_threads);
}

/* ------------------------------------------------------------------ */
/* BA / BA-HF: explicit DFS stack replicating the scalar recursion     */
/* ------------------------------------------------------------------ */

/* ba_split for children with w1 >= w2 and n >= 2: the same float ops,
 * in the same order, as repro.core.ba.ba_split. */
static long ba_split_n1(double w1, double w2, long n)
{
    double eta = (double)n * w1 / (w1 + w2);
    long lo = (long)floor(eta);
    long hi = (long)ceil(eta);
    double cost_lo, cost_hi, alt;

    if (lo < 1)
        lo = 1;
    if (lo > n - 1)
        lo = n - 1;
    if (hi < 1)
        hi = 1;
    if (hi > n - 1)
        hi = n - 1;
    cost_lo = w1 / (double)lo;
    alt = w2 / (double)(n - lo);
    if (alt > cost_lo)
        cost_lo = alt;
    cost_hi = w1 / (double)hi;
    alt = w2 / (double)(n - hi);
    if (alt > cost_hi)
        cost_hi = alt;
    return (cost_lo <= cost_hi) ? lo : hi;
}

/* Metrics mode of a BA / BA-HF walk: the per-node clock on the complete
 * network, a start-time stack `ss` parallel to sw/sn (n + 1 slots), the
 * HF-job scratch `heap` (n slots) and the trial's makespan and max final
 * weight, accumulated in `span` and `maxw`. */
typedef struct {
    double t_bisect, t_send;
    double *ss, *heap;
    double span, maxw;
} ba_clock;

/* One BA / BA-HF trial.  threshold < 0 means plain BA (nodes stop at
 * size 1); otherwise nodes with (double)n < threshold finish with the
 * HF heap (BA-HF's switch-over).  `sw`/`sn` are caller-provided stack
 * scratch of n + 1 slots each (the DFS never grows past the recursion
 * depth + 1 <= n).  With clk == NULL the leaf weights go to `orow` in
 * DFS pop order; otherwise the walk times every node as
 * repro.simulator.fastpath does: both children of a node starting at s
 * start at (s + t_bisect) + t_send, and an HF job of size m ends after
 * m-1 bisections, then m-1 sends. */
static void ba_one(const double *row, double *orow, double w0, long n,
                   double threshold, double *sw, long *sn, ba_clock *clk)
{
    long top = 0, pos = 0, k = 0;
    double s = 0.0;

    sw[top] = w0;
    sn[top] = n;
    if (clk)
        clk->ss[top] = 0.0;
    ++top;
    while (top > 0) {
        double w;
        long m;

        --top;
        w = sw[top];
        m = sn[top];
        if (clk)
            s = clk->ss[top];
        if (m == 1 || (threshold >= 0.0 && (double)m < threshold)) {
            double *leaves = clk ? clk->heap : orow + pos;
            long j;

            if (m > 1)
                hf_one(row + k, leaves, w, m);
            else
                leaves[0] = w;
            k += m - 1;
            pos += m;
            if (!clk)
                continue;
            for (j = 1; j < m; ++j)
                s = s + clk->t_bisect;
            for (j = 1; j < m; ++j)
                s = s + clk->t_send;
            if (s > clk->span)
                clk->span = s;
            /* hf_one leaves the held-back maximum in the last slot */
            if (leaves[m - 1] > clk->maxw)
                clk->maxw = leaves[m - 1];
            continue;
        }
        {
            double a = row[k++];
            double w2 = a * w;
            double w1 = w - w2;
            long n1;

            if (w1 < w2) {
                double tmp = w1;
                w1 = w2;
                w2 = tmp;
            }
            n1 = ba_split_n1(w1, w2, m);
            if (clk) {
                s = (s + clk->t_bisect) + clk->t_send;
                clk->ss[top] = s;
                clk->ss[top + 1] = s;
            }
            sw[top] = w2;
            sn[top] = m - n1;
            ++top;
            sw[top] = w1;
            sn[top] = n1;
            ++top;
        }
    }
}

/* Weights mode writes row i of `out` from w0[i]; metrics mode
 * (out == NULL) writes makespan[i] and maxw[i] from the shared *w0. */
typedef struct {
    const double *draws;
    long stride;
    const double *w0;
    double *out;
    long n;
    double threshold;
    double t_bisect, t_send;
    double *makespan, *maxw;
} ba_ctx;

static void ba_trial_block(void *vctx, long lo, long hi, int *rc)
{
    ba_ctx *ctx = (ba_ctx *)vctx;
    long n = ctx->n;
    double *sw = (double *)malloc((size_t)(3 * n + 2) * sizeof(double));
    long *sn = (long *)malloc((size_t)(n + 1) * sizeof(long));
    ba_clock clk;
    long i;

    if (sw == NULL || sn == NULL) {
        free(sw);
        free(sn);
        *rc = -1;
        return;
    }
    clk.t_bisect = ctx->t_bisect;
    clk.t_send = ctx->t_send;
    clk.ss = sw + n + 1;
    clk.heap = clk.ss + n + 1;
    for (i = lo; i < hi; ++i) {
        const double *row = ctx->draws + i * ctx->stride;

        if (ctx->out != NULL) {
            ba_one(row, ctx->out + i * n, ctx->w0[i], n, ctx->threshold, sw,
                   sn, NULL);
            continue;
        }
        clk.span = clk.maxw = 0.0;
        ba_one(row, NULL, *ctx->w0, n, ctx->threshold, sw, sn, &clk);
        ctx->makespan[i] = clk.span;
        ctx->maxw[i] = clk.maxw;
    }
    free(sw);
    free(sn);
}

int repro_bahf_batch(const double *draws, long draws_stride,
                     const double *w0, double *out, long n_trials, long n,
                     double threshold, long n_threads)
{
    ba_ctx ctx = {.draws = draws, .stride = draws_stride, .w0 = w0,
                  .out = out, .n = n, .threshold = threshold};

    return for_each_trial_block(ba_trial_block, &ctx, n_trials, n_threads);
}

int repro_ba_batch(const double *draws, long draws_stride,
                   const double *w0, double *out, long n_trials, long n,
                   long n_threads)
{
    return repro_bahf_batch(draws, draws_stride, w0, out, n_trials, n, -1.0,
                            n_threads);
}

/* BA (threshold < 0) / BA-HF machine metrics on the complete network:
 * makespan and max final weight per trial, no weights matrix. */
int repro_ba_metrics(const double *draws, long draws_stride, long n_trials,
                     long n, double w0, double threshold, double t_bisect,
                     double t_send, double *makespan, double *maxw,
                     long n_threads)
{
    ba_ctx ctx = {.draws = draws, .stride = draws_stride, .w0 = &w0,
                  .n = n, .threshold = threshold, .t_bisect = t_bisect,
                  .t_send = t_send, .makespan = makespan, .maxw = maxw};

    return for_each_trial_block(ba_trial_block, &ctx, n_trials, n_threads);
}

/* ------------------------------------------------------------------ */
/* PHF machine metrics (central phase 1, complete network)             */
/* ------------------------------------------------------------------ */

/* Phase-2 band entries sorted by (weight desc, proc asc) -- processor
 * ids are distinct per trial, so the order is total and qsort's
 * instability is harmless. */
typedef struct {
    double w;
    long proc;
    long col;
} band_entry;

static int band_cmp(const void *pa, const void *pb)
{
    const band_entry *a = (const band_entry *)pa;
    const band_entry *b = (const band_entry *)pb;

    if (a->w > b->w)
        return -1;
    if (a->w < b->w)
        return 1;
    if (a->proc < b->proc)
        return -1;
    if (a->proc > b->proc)
        return 1;
    return 0;
}

typedef struct {
    const double *draws;
    long stride;
    long n;
    double w0;
    double threshold;
    double band_factor;
    int keep_heavy;
    double t_b;
    double t_a;
    double t_s;
    double c;
    double *makespan;
    double *coll_time;
    long *coll_n;
    long *ctrl;
    double *maxw;
    long *status;
} phf_ctx;

/* Per-trial PHF on the complete network: phase 1 in generation
 * lockstep, then the band-peeling rounds of phase 2.  Outputs
 * (one slot per trial): makespan, collective time, collective count,
 * control messages, max final weight and a status code (0 ok, 1 phase 1
 * ran out of free processors, 2 phase 2 failed to converge).  Block
 * status is 0 on success, -1 on scratch allocation failure. */
static void phf_trial_block(void *vctx, long lo, long hi, int *rc)
{
    phf_ctx *p = (phf_ctx *)vctx;
    long n = p->n;
    double w0 = p->w0;
    double threshold = p->threshold;
    double band_factor = p->band_factor;
    int keep_heavy = p->keep_heavy;
    double t_b = p->t_b, t_a = p->t_a, t_s = p->t_s, c = p->c;
    double *weights = (double *)malloc((size_t)n * sizeof(double));
    long *wproc = (long *)malloc((size_t)n * sizeof(long));
    double *fw_a = (double *)malloc((size_t)n * sizeof(double));
    double *fw_b = (double *)malloc((size_t)n * sizeof(double));
    long *fp_a = (long *)malloc((size_t)n * sizeof(long));
    long *fp_b = (long *)malloc((size_t)n * sizeof(long));
    band_entry *band = (band_entry *)malloc((size_t)n * sizeof(band_entry));
    long i;

    if (weights == NULL || wproc == NULL || fw_a == NULL || fw_b == NULL ||
        fp_a == NULL || fp_b == NULL || band == NULL) {
        free(weights);
        free(wproc);
        free(fw_a);
        free(fw_b);
        free(fp_a);
        free(fp_b);
        free(band);
        *rc = -1;
        return;
    }

    for (i = lo; i < hi; ++i) {
        const double *row = p->draws + i * p->stride;
        double *fw_cur = fw_a, *fw_next = fw_b;
        long *fp_cur = fp_a, *fp_next = fp_b;
        long frontier_len = 1;
        long count = 0, acq = 0, err = 0;
        double t_gen = 0.0, p1_end = 0.0;
        double ct, t_cur, mw;
        long ncoll, nctrl, f, rounds, j;

        /* ---- phase 1: generation lockstep --------------------------- */
        fw_cur[0] = w0;
        fp_cur[0] = 1;
        while (frontier_len > 0 && !err) {
            long next_len = 0, nsplit = 0;

            for (j = 0; j < frontier_len; ++j) {
                double w = fw_cur[j];
                long proc = fp_cur[j];

                if (w <= threshold) {
                    weights[count] = w;
                    wproc[count] = proc;
                    ++count;
                    continue;
                }
                {
                    long di = acq++;
                    long dst = di + 2;
                    double a, w1, w2, keep_w, ship_w;

                    if (dst > n) {
                        err = 1;
                        break;
                    }
                    a = row[di];
                    w2 = a * w;
                    w1 = w - w2;
                    if (w1 < w2) {
                        double tmp = w1;
                        w1 = w2;
                        w2 = tmp;
                    }
                    if (keep_heavy) {
                        keep_w = w1;
                        ship_w = w2;
                    } else {
                        keep_w = w2;
                        ship_w = w1;
                    }
                    /* Event order: ship first, then keep. */
                    fw_next[next_len] = ship_w;
                    fp_next[next_len] = dst;
                    ++next_len;
                    fw_next[next_len] = keep_w;
                    fp_next[next_len] = proc;
                    ++next_len;
                    ++nsplit;
                }
            }
            if (err)
                break;
            if (nsplit > 0) {
                t_gen = ((t_gen + t_b) + t_a) + t_s;
                p1_end = t_gen;
            }
            {
                double *tmp_w = fw_cur;
                long *tmp_p = fp_cur;

                fw_cur = fw_next;
                fw_next = tmp_w;
                fp_cur = fp_next;
                fp_next = tmp_p;
            }
            frontier_len = next_len;
        }
        if (err) {
            p->status[i] = 1;
            p->makespan[i] = 0.0;
            p->coll_time[i] = 0.0;
            p->coll_n[i] = 0;
            p->ctrl[i] = 0;
            p->maxw[i] = 0.0;
            continue;
        }

        /* ---- (b)/(c): barrier + count/number free processors -------- */
        ct = 0.0;
        ct = ct + c;
        ct = ct + c;
        ncoll = 2;
        t_cur = p1_end + c;
        t_cur = t_cur + c;
        f = n - count;
        nctrl = 0;
        rounds = 0;

        /* ---- phase 2: band-peeling rounds --------------------------- */
        while (f > 0 && !err) {
            double t_at, m, band_lo, finish;
            long h, b, k, count0;

            ++rounds;
            if (rounds > n + 1) {
                err = 2;
                break;
            }
            t_at = t_cur + c; /* (d) m := max weight */
            t_at = t_at + c;  /* (e) h := band count + numbering */
            ct = ct + c;
            ct = ct + c;
            ncoll += 2;
            m = weights[0];
            for (j = 1; j < count; ++j) {
                if (weights[j] > m)
                    m = weights[j];
            }
            band_lo = m * band_factor;
            h = 0;
            for (j = 0; j < count; ++j) {
                if (weights[j] >= band_lo) {
                    band[h].w = weights[j];
                    band[h].proc = wproc[j];
                    band[h].col = j;
                    ++h;
                }
            }
            if (h > f) {
                t_at = t_at + c; /* selection collective */
                ct = ct + c;
                ++ncoll;
            }
            b = (h < f) ? h : f;
            qsort(band, (size_t)h, sizeof(band_entry), band_cmp);
            count0 = count;
            for (k = 0; k < b; ++k) {
                double a = row[acq + k];
                double pw = band[k].w;
                double w2 = a * pw;
                double w1 = pw - w2;
                double keep_w, ship_w;

                if (w1 < w2) {
                    double tmp = w1;
                    w1 = w2;
                    w2 = tmp;
                }
                if (keep_heavy) {
                    keep_w = w1;
                    ship_w = w2;
                } else {
                    keep_w = w2;
                    ship_w = w1;
                }
                weights[band[k].col] = keep_w;
                /* Free ids after a central phase 1 are contiguous
                 * {count+1..n}, so the k-th numbered free processor is
                 * count0 + 1 + k. */
                weights[count0 + k] = ship_w;
                wproc[count0 + k] = count0 + 1 + k;
            }
            acq += b;
            nctrl += b;
            count = count0 + b;
            finish = ((t_at + t_b) + t_a) + t_s;
            f -= b;
            if (f > 0) {
                finish = finish + c; /* (h) barrier */
                ct = ct + c;
                ++ncoll;
            }
            t_cur = finish;
        }
        if (err) {
            p->status[i] = 2;
            p->makespan[i] = 0.0;
            p->coll_time[i] = 0.0;
            p->coll_n[i] = 0;
            p->ctrl[i] = 0;
            p->maxw[i] = 0.0;
            continue;
        }

        mw = weights[0];
        for (j = 1; j < count; ++j) {
            if (weights[j] > mw)
                mw = weights[j];
        }
        p->status[i] = 0;
        p->makespan[i] = t_cur;
        p->coll_time[i] = ct;
        p->coll_n[i] = ncoll;
        p->ctrl[i] = nctrl;
        p->maxw[i] = mw;
    }

    free(weights);
    free(wproc);
    free(fw_a);
    free(fw_b);
    free(fp_a);
    free(fp_b);
    free(band);
}

int repro_phf_metrics(const double *draws, long draws_stride,
                      long n_trials, long n, double w0, double threshold,
                      double band_factor, int keep_heavy, double t_b,
                      double t_a, double t_s, double c, double *makespan,
                      double *coll_time, long *coll_n, long *ctrl,
                      double *maxw, long *status, long n_threads)
{
    phf_ctx ctx;

    ctx.draws = draws;
    ctx.stride = draws_stride;
    ctx.n = n;
    ctx.w0 = w0;
    ctx.threshold = threshold;
    ctx.band_factor = band_factor;
    ctx.keep_heavy = keep_heavy;
    ctx.t_b = t_b;
    ctx.t_a = t_a;
    ctx.t_s = t_s;
    ctx.c = c;
    ctx.makespan = makespan;
    ctx.coll_time = coll_time;
    ctx.coll_n = coll_n;
    ctx.ctrl = ctrl;
    ctx.maxw = maxw;
    ctx.status = status;
    return for_each_trial_block(phf_trial_block, &ctx, n_trials, n_threads);
}
