/* Native batch kernels for the stochastic bisection model.
 *
 * One call advances a whole batch: trial i reads its alpha-hat draws from
 * row i and writes its outputs into row i of `out` (or the i-th slot of
 * the per-trial metric arrays).  The metrics kernels and the seeded
 * entry read their rows through one row_source: row i of a caller's
 * `draws` matrix, or a row the kernel samples itself from the trial's
 * seed (numpy's default_rng stream, bit for bit).  Six kernels live here:
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
 *   repro_seeded_ratios -- HF / BA / BA-HF max final weight straight
 *                        from each trial's seed: the kernel samples the
 *                        trial's U[low, high] row itself and returns
 *                        one number per trial
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

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
/* Trial rows: a caller's draw matrix, or rows sampled in the kernel   */
/* ------------------------------------------------------------------ */

/* A seeded trial t of a cell with root seed r reads the first n-1 values
 * of numpy's default_rng(split_seed(r, t)).uniform(low, high).  The
 * three pieces below reproduce that stream bit for bit:
 *
 *   split_seed -- SplitMix64, as repro.utils.rng.split_seed;
 *   seed_pcg64 -- numpy's SeedSequence(seed).generate_state(4, uint64)
 *                 (pool of four 32-bit words) and PCG64's seeding;
 *   pcg64_next -- PCG64's 128-bit LCG step and XSL-RR output.
 *
 * A draw is low + (high - low) * ((next >> 11) * 2^-53), numpy's
 * random_uniform.  _native.py compares one row per seed width against
 * numpy at load time and disables every seeded entry on a mismatch, so
 * a numpy stream change can never break bit-identity silently. */

static uint64_t splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static uint64_t split_seed(uint64_t seed, uint64_t index)
{
    return splitmix64(seed ^ splitmix64(index));
}

/* 128-bit PCG state as two 64-bit halves. */
typedef struct {
    uint64_t hi, lo;
} u128;

#define PCG_MULT_HI 2549297995355413924ULL
#define PCG_MULT_LO 4865540595714422341ULL

/* a * b as a full 128-bit product; a portable fallback where the
 * compiler has no 128-bit integer type. */
static u128 mul_64x64(uint64_t a, uint64_t b)
{
    u128 r;
#if defined(__SIZEOF_INT128__)
    unsigned __int128 p = (unsigned __int128)a * b;

    r.hi = (uint64_t)(p >> 64);
    r.lo = (uint64_t)p;
#else
    uint64_t a0 = a & 0xFFFFFFFFULL, a1 = a >> 32;
    uint64_t b0 = b & 0xFFFFFFFFULL, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFULL) +
                   (p10 & 0xFFFFFFFFULL);

    r.lo = (mid << 32) | (p00 & 0xFFFFFFFFULL);
    r.hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
#endif
    return r;
}

static u128 add_128(u128 a, u128 b)
{
    u128 r;

    r.lo = a.lo + b.lo;
    r.hi = a.hi + b.hi + (r.lo < b.lo);
    return r;
}

typedef struct {
    u128 state, inc;
} pcg64;

/* state = state * multiplier + inc (mod 2^128) */
static void pcg64_step(pcg64 *g)
{
    u128 p = mul_64x64(g->state.lo, PCG_MULT_LO);

    p.hi += g->state.lo * PCG_MULT_HI + g->state.hi * PCG_MULT_LO;
    g->state = add_128(p, g->inc);
}

static uint64_t pcg64_next(pcg64 *g)
{
    uint64_t x;
    unsigned rot;

    pcg64_step(g);
    x = g->state.hi ^ g->state.lo;
    rot = (unsigned)(g->state.hi >> 58);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

/* SeedSequence's hashmix; *hash_const is advanced by every call. */
static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const = (uint32_t)(*hash_const * 0x931E8875u);
    value = (uint32_t)(value * *hash_const);
    return value ^ (value >> 16);
}

static uint32_t ss_mix(uint32_t x, uint32_t y)
{
    uint32_t r = (uint32_t)((uint32_t)(0xCA01F9DDu * x) -
                            (uint32_t)(0x4973F715u * y));

    return r ^ (r >> 16);
}

/* PCG64(SeedSequence(seed)).  The seed's little-endian 32-bit words
 * (one for seed < 2^32) fill a pool of four; unused pool words hash a
 * zero word, so one- and two-word seeds need no separate case. */
static void seed_pcg64(pcg64 *g, uint64_t seed)
{
    uint32_t entropy[2], pool[4], words[8];
    uint32_t hash_const = 0x43B0D7E5u;
    uint64_t s[4];
    u128 init;
    int i, j;

    entropy[0] = (uint32_t)seed;
    entropy[1] = (uint32_t)(seed >> 32);
    for (i = 0; i < 4; ++i)
        pool[i] = ss_hashmix(i < 2 ? entropy[i] : 0u, &hash_const);
    for (i = 0; i < 4; ++i)
        for (j = 0; j < 4; ++j)
            if (i != j)
                pool[j] = ss_mix(pool[j], ss_hashmix(pool[i], &hash_const));
    hash_const = 0x8B51F9DDu;
    for (i = 0; i < 8; ++i) {
        uint32_t v = pool[i & 3] ^ hash_const;

        hash_const = (uint32_t)(hash_const * 0x58F38DEDu);
        v = (uint32_t)(v * hash_const);
        words[i] = v ^ (v >> 16);
    }
    for (i = 0; i < 4; ++i)
        s[i] = (uint64_t)words[2 * i] | ((uint64_t)words[2 * i + 1] << 32);
    init.hi = s[0];
    init.lo = s[1];
    g->inc.hi = (s[2] << 1) | (s[3] >> 63);
    g->inc.lo = (s[3] << 1) | 1u;
    g->state.hi = g->state.lo = 0;
    pcg64_step(g);
    g->state = add_128(g->state, init);
    pcg64_step(g);
}

/* The first k draws of default_rng(seed).uniform(low, high). */
static void uniform_row(uint64_t seed, double low, double high, double *row,
                        long k)
{
    double range = high - low;
    pcg64 g;
    long j;

    seed_pcg64(&g, seed);
    for (j = 0; j < k; ++j)
        row[j] = low + range *
                 ((double)(pcg64_next(&g) >> 11) * (1.0 / 9007199254740992.0));
}

/* One C row, for the load-time self-check against numpy. */
void repro_uniform_row(unsigned long long seed, double low, double high,
                       double *out, long k)
{
    uniform_row((uint64_t)seed, low, high, out, k);
}

/* Where trial i of a kernel call reads its alpha-hat row: row i of a
 * caller's matrix (draws != NULL), or else seeded trial start + i of the
 * cell with root seed `root`, drawn U[low, high].  The metrics entries
 * take these six values as their leading arguments; repro_seeded_ratios
 * takes the last four. */
typedef struct {
    const double *draws;
    long stride;
    uint64_t root;
    long start;
    double low, high;
} row_source;

/* One worker's view of a row_source: seeded rows of k draws are sampled
 * into `buf`, which a point mass (low == high) fills once -- it reads no
 * generator. */
typedef struct {
    const row_source *src;
    double *buf;
    long k;
} row_reader;

static int row_reader_open(row_reader *r, const row_source *src, long k)
{
    long j;

    r->src = src;
    r->k = k;
    r->buf = NULL;
    if (src->draws != NULL)
        return 0;
    r->buf = (double *)malloc((size_t)(k > 0 ? k : 1) * sizeof(double));
    if (r->buf == NULL)
        return -1;
    if (src->low == src->high)
        for (j = 0; j < k; ++j)
            r->buf[j] = src->low;
    return 0;
}

static const double *row_at(row_reader *r, long i)
{
    const row_source *src = r->src;

    if (src->draws != NULL)
        return src->draws + i * src->stride;
    if (src->low != src->high)
        uniform_row(split_seed(src->root, (uint64_t)(src->start + i)),
                    src->low, src->high, r->buf, r->k);
    return r->buf;
}

static void row_reader_close(row_reader *r)
{
    free(r->buf);
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
    /* eta >= 0 is finite, so truncation is floor and one compare gives
     * ceil -- no libm call per node. */
    double eta = (double)n * w1 / (w1 + w2);
    long lo = (long)eta;
    long hi = lo + ((double)lo < eta);
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
    row_source rows;
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
    row_reader rows;
    ba_clock clk;
    long i;

    if (sw == NULL || sn == NULL || row_reader_open(&rows, &ctx->rows, n - 1)) {
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
        const double *row = row_at(&rows, i);

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
    row_reader_close(&rows);
    free(sw);
    free(sn);
}

int repro_bahf_batch(const double *draws, long draws_stride,
                     const double *w0, double *out, long n_trials, long n,
                     double threshold, long n_threads)
{
    ba_ctx ctx = {.rows = {.draws = draws, .stride = draws_stride},
                  .w0 = w0, .out = out, .n = n, .threshold = threshold};

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
 * makespan and max final weight per trial, no weights matrix.  Rows
 * come from `draws` (row stride draws_stride), or from the seeded
 * trials start .. start + n_trials - 1 of root seed `root` when draws
 * is NULL. */
int repro_ba_metrics(const double *draws, long draws_stride,
                     unsigned long long root, long start, double low,
                     double high, long n_trials, long n, double w0,
                     double threshold, double t_bisect, double t_send,
                     double *makespan, double *maxw, long n_threads)
{
    ba_ctx ctx = {.rows = {.draws = draws, .stride = draws_stride,
                           .root = (uint64_t)root, .start = start,
                           .low = low, .high = high},
                  .w0 = &w0, .n = n, .threshold = threshold,
                  .t_bisect = t_bisect, .t_send = t_send,
                  .makespan = makespan, .maxw = maxw};

    return for_each_trial_block(ba_trial_block, &ctx, n_trials, n_threads);
}

/* ------------------------------------------------------------------ */
/* PHF machine metrics (central phase 1, complete network)             */
/* ------------------------------------------------------------------ */

/* A phase-2 band entry: its piece's column and the sort key ~bits(w).
 * Weights are positive, and positive doubles order like their IEEE-754
 * bit patterns, so ascending keys are descending weights. */
typedef struct {
    uint64_t key;
    long col;
} band_entry;

/* Stable ascending sort of band[0..h) by key: LSD radix on 8-bit digits
 * through the scratch `tmp` (h entries), skipping every byte that is
 * equal across the band -- within one band every weight is within a
 * factor (1 - alpha) of the maximum, so most high bytes are.  Returns
 * whichever of band / tmp holds the sorted entries. */
static band_entry *band_sort(band_entry *band, band_entry *tmp, long h)
{
    uint64_t diff = 0;
    long j;
    int shift;

    for (j = 1; j < h; ++j)
        diff |= band[j].key ^ band[0].key;
    for (shift = 0; shift < 64; shift += 8) {
        long start[256] = {0};
        long pos = 0, d;
        band_entry *swap;

        if (((diff >> shift) & 0xFF) == 0)
            continue;
        for (j = 0; j < h; ++j)
            ++start[(band[j].key >> shift) & 0xFF];
        for (d = 0; d < 256; ++d) {
            long c = start[d];

            start[d] = pos;
            pos += c;
        }
        for (j = 0; j < h; ++j)
            tmp[start[(band[j].key >> shift) & 0xFF]++] = band[j];
        swap = band;
        band = tmp;
        tmp = swap;
    }
    return band;
}

typedef struct {
    row_source rows;
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
 * status is 0 on success, -1 on scratch allocation failure.
 *
 * Processor p's piece lives in column p - 1 of `weights`.  A central
 * phase 1 leaves processors 1..count busy, and phase 2 hands its k-th
 * shipped piece to processor count0 + 1 + k, appended at column
 * count0 + k, so column order is processor order throughout.  The band
 * is gathered in column order and sorted stably by descending weight,
 * which is the DES's (-weight, processor) order. */
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
    double *fw_a = (double *)malloc((size_t)n * sizeof(double));
    double *fw_b = (double *)malloc((size_t)n * sizeof(double));
    long *fp_a = (long *)malloc((size_t)n * sizeof(long));
    long *fp_b = (long *)malloc((size_t)n * sizeof(long));
    band_entry *band_a =
        (band_entry *)malloc((size_t)n * sizeof(band_entry));
    band_entry *band_b =
        (band_entry *)malloc((size_t)n * sizeof(band_entry));
    row_reader rows;
    long i;

    if (weights == NULL || fw_a == NULL || fw_b == NULL || fp_a == NULL ||
        fp_b == NULL || band_a == NULL || band_b == NULL ||
        row_reader_open(&rows, &p->rows, n - 1)) {
        free(weights);
        free(fw_a);
        free(fw_b);
        free(fp_a);
        free(fp_b);
        free(band_a);
        free(band_b);
        *rc = -1;
        return;
    }

    for (i = lo; i < hi; ++i) {
        const double *row = row_at(&rows, i);
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
                    weights[proc - 1] = w;
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
            band_entry *band;

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
                    uint64_t bits;

                    memcpy(&bits, &weights[j], sizeof bits);
                    band_a[h].key = ~bits;
                    band_a[h].col = j;
                    ++h;
                }
            }
            if (h > f) {
                t_at = t_at + c; /* selection collective */
                ct = ct + c;
                ++ncoll;
            }
            b = (h < f) ? h : f;
            band = band_sort(band_a, band_b, h);
            count0 = count;
            for (k = 0; k < b; ++k) {
                double a = row[acq + k];
                double pw = weights[band[k].col];
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
                weights[count0 + k] = ship_w;
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

    row_reader_close(&rows);
    free(weights);
    free(fw_a);
    free(fw_b);
    free(fp_a);
    free(fp_b);
    free(band_a);
    free(band_b);
}

/* Rows come from `draws` or, when it is NULL, from the seeded trials
 * start .. start + n_trials - 1 of root seed `root` (see row_source). */
int repro_phf_metrics(const double *draws, long draws_stride,
                      unsigned long long root, long start, double low,
                      double high, long n_trials, long n, double w0,
                      double threshold, double band_factor, int keep_heavy,
                      double t_b, double t_a, double t_s, double c,
                      double *makespan, double *coll_time, long *coll_n,
                      long *ctrl, double *maxw, long *status, long n_threads)
{
    phf_ctx ctx = {.rows = {.draws = draws, .stride = draws_stride,
                            .root = (uint64_t)root, .start = start,
                            .low = low, .high = high},
                   .n = n, .w0 = w0, .threshold = threshold,
                   .band_factor = band_factor, .keep_heavy = keep_heavy,
                   .t_b = t_b, .t_a = t_a, .t_s = t_s, .c = c,
                   .makespan = makespan, .coll_time = coll_time,
                   .coll_n = coll_n, .ctrl = ctrl, .maxw = maxw,
                   .status = status};

    return for_each_trial_block(phf_trial_block, &ctx, n_trials, n_threads);
}

/* ------------------------------------------------------------------ */
/* Seeded max weights: HF / BA / BA-HF straight from each trial's seed */
/* ------------------------------------------------------------------ */

typedef struct {
    int kind;
    row_source rows;
    long n;
    double w0;
    double threshold;
    double *out;
} seeded_ctx;

/* Trials [lo, hi) of a seeded call: sample the row into per-thread
 * scratch, run HF (kind 0) or the BA walk (kind 1, BA-HF when
 * threshold >= 0), write the max final weight. */
static void seeded_trial_block(void *vctx, long lo, long hi, int *rc)
{
    seeded_ctx *ctx = (seeded_ctx *)vctx;
    long n = ctx->n;
    double *leaves = (double *)malloc((size_t)(2 * n + 1) * sizeof(double));
    long *sn = (long *)malloc((size_t)(n + 1) * sizeof(long));
    double *sw;
    row_reader rows;
    long i, j;

    if (leaves == NULL || sn == NULL ||
        row_reader_open(&rows, &ctx->rows, n - 1)) {
        free(leaves);
        free(sn);
        *rc = -1;
        return;
    }
    sw = leaves + n;
    for (i = lo; i < hi; ++i) {
        const double *row = row_at(&rows, i);
        double mx;

        if (ctx->kind == 0) {
            hf_one(row, leaves, ctx->w0, n);
            mx = leaves[n - 1]; /* the held-back maximum */
        } else {
            ba_one(row, leaves, ctx->w0, n, ctx->threshold, sw, sn, NULL);
            mx = leaves[0];
            for (j = 1; j < n; ++j)
                if (leaves[j] > mx)
                    mx = leaves[j];
        }
        ctx->out[i] = mx;
    }
    row_reader_close(&rows);
    free(leaves);
    free(sn);
}

/* Max final weight of trials start .. start + n_trials - 1 of one cell,
 * initial weight w0, draws U[low, high] from each trial's own seeded
 * stream (a constant row when low == high).  kind 0 is HF; kind 1 is BA
 * (threshold < 0) or BA-HF.  No draw or weight matrix is built: each
 * thread reuses one row and one leaf buffer.  The callers form the
 * ratio: max * n at unit weight for the sweeps, max / (w0 / n) on the
 * fastpath. */
int repro_seeded_ratios(int kind, unsigned long long root, long start,
                        long n_trials, long n, double low, double high,
                        double w0, double threshold, double *maxw_out,
                        long n_threads)
{
    seeded_ctx ctx = {.kind = kind,
                      .rows = {.root = (uint64_t)root, .start = start,
                               .low = low, .high = high},
                      .n = n, .w0 = w0, .threshold = threshold,
                      .out = maxw_out};

    return for_each_trial_block(seeded_trial_block, &ctx, n_trials,
                                n_threads);
}
