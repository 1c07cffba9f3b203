/* Compiled kernels for simnet: Louvain local moves and Nilsimsa digests.
 *
 * Each entry point computes what a Python function computes, and that
 * function stays in the package as the fallback and the reference:
 * simnet_local_moves gives the partitions and move logs of
 * community._local_moves, simnet_digest_rows the digests of
 * similarity._digest_bits over many buffers.  The two kernels of each
 * pair run one algorithm: a local move rescans the node's edges on every
 * visit, and a digest counts its buckets into one table of 256 (one
 * bincount in Python).  Results must be bit-identical, so the build uses
 * -ffp-contract=off (no fused multiply-add) and no -ffast-math, and every
 * float expression keeps the Python evaluation order.  A level that fills
 * simnet_local_moves' move log runs in Python, which finishes any level.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Sweep nodes in `order` until a full pass moves nothing.
 *
 * The plain local move of Blondel et al. (2008) over a symmetric CSR
 * adjacency (indptr, indices, weights) of n nodes with weighted degrees k
 * and total weight m: every visit of node x rescans its edges, summing
 * their weights per neighbouring community into `comm_w` (zeros) and
 * listing those communities in `touched` in order of first appearance.  x
 * joins the one with the largest gain k_x_in(C) - tot(C)·k_x/2m, evaluated
 * with x removed, and stays put on ties.  community._local_moves is the
 * same loop in Python, statement for statement.  Edgeless nodes are
 * skipped: no node can join their community.
 *
 * Writes each node's community to `comm` and the accepted moves to `moves`
 * as (node, from, to) rows.  Returns the number of moves; max_moves + 1,
 * with `comm` unfinished, as soon as a move would not fit in the log; -1
 * when working memory could not be allocated; and -2 when indptr does not
 * rise from 0 to its last entry, an index lies outside 0..n-1 or `order`
 * is not a permutation of 0..n-1.
 */
int64_t simnet_local_moves(int64_t n, const int64_t *indptr,
                           const int64_t *indices, const double *weights,
                           const double *k, double m, const int64_t *order,
                           int64_t *comm, int64_t *moves, int64_t max_moves)
{
    /* a row lists at most one community per edge: n without parallel edges */
    int64_t width = n;
    if (indptr[0] != 0)
        return -2;
    for (int64_t x = 0; x < n; x++) {
        if (indptr[x] > indptr[x + 1])
            return -2;
        if (indptr[x + 1] - indptr[x] > width)
            width = indptr[x + 1] - indptr[x];
    }
    for (int64_t e = 0; e < indptr[n]; e++)
        if (indices[e] < 0 || indices[e] >= n)
            return -2;

    /* one spare slot each, so that no size is zero */
    double *comm_tot = malloc((size_t)(n + 1) * sizeof *comm_tot);
    double *comm_w = calloc((size_t)(n + 1), sizeof *comm_w);
    int64_t *touched = calloc((size_t)(width + 1), sizeof *touched);
    int64_t n_moves = -1;
    if (!comm_tot || !comm_w || !touched)
        goto done;

    /* touched (zeros) doubles as the "seen" mark of the permutation check */
    n_moves = -2;
    for (int64_t i = 0; i < n; i++) {
        const int64_t x = order[i];
        if (x < 0 || x >= n || touched[x])
            goto done;
        touched[x] = 1;
    }

    for (int64_t x = 0; x < n; x++) {
        comm[x] = x;
        comm_tot[x] = k[x];
    }
    const double two_m = 2.0 * m;
    int moved = 1;
    n_moves = 0;
    while (moved) {
        moved = 0;
        for (int64_t i = 0; i < n; i++) {
            const int64_t x = order[i];
            const int64_t lo = indptr[x];
            const int64_t hi = indptr[x + 1];
            if (lo == hi)
                continue;
            const int64_t cx = comm[x];
            const double kx = k[x];
            int64_t n_touched = 0;
            for (int64_t e = lo; e < hi; e++) {
                const int64_t cy = comm[indices[e]];
                if (comm_w[cy] == 0.0)
                    touched[n_touched++] = cy;
                comm_w[cy] += weights[e];
            }
            comm_tot[cx] -= kx;
            int64_t best_c = cx;
            double best_gain = comm_w[cx] - comm_tot[cx] * kx / two_m;
            for (int64_t t = 0; t < n_touched; t++) {
                const int64_t c = touched[t];
                if (c == cx)
                    continue;
                const double gain = comm_w[c] - comm_tot[c] * kx / two_m;
                if (gain > best_gain) {
                    best_gain = gain;
                    best_c = c;
                }
            }
            comm_tot[best_c] += kx;
            for (int64_t t = 0; t < n_touched; t++)
                comm_w[touched[t]] = 0.0;
            if (best_c != cx) {
                if (n_moves == max_moves) {
                    n_moves = max_moves + 1;
                    goto done;
                }
                comm[x] = best_c;
                moves[3 * n_moves] = x;
                moves[3 * n_moves + 1] = cx;
                moves[3 * n_moves + 2] = best_c;
                n_moves++;
                moved = 1;
            }
        }
    }

done:
    free(comm_tot);
    free(comm_w);
    free(touched);
    return n_moves;
}

/* The 32 Nilsimsa digest bytes of each of n buffers.
 *
 * Buffer i is data[offsets[i]:offsets[i + 1]]; its digest goes to
 * out[32 i .. 32 i + 31].  `lookup` is similarity._LOOKUP as (256, 32)
 * bytes: row x holds the three per-byte terms of combination c at columns
 * 3c, 3c + 1 and 3c + 2, so a bucket is (a ^ b) + c in wrapping uint8
 * arithmetic.  The byte at position j ends a window of up to five bytes,
 * p0 = data[j], p1 = data[j - 1], ..., p4 = data[j - 4], and adds one
 * bucket per combination whose window fits, as _COMBOS lists them, to one
 * table of 256 counts.
 */
void simnet_digest_rows(int64_t n, const uint8_t *data, const int64_t *offsets,
                        const uint8_t *lookup, uint8_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *buf = data + offsets[i];
        const int64_t len = offsets[i + 1] - offsets[i];
        uint8_t *code = out + 32 * i;
        int64_t acc[256];
        memset(acc, 0, sizeof acc);
        memset(code, 0, 32);
        for (int64_t j = 2; j < len; j++) {
            const uint8_t *p0 = lookup + 32 * buf[j];
            const uint8_t *p1 = lookup + 32 * buf[j - 1];
            const uint8_t *p2 = lookup + 32 * buf[j - 2];
            acc[(uint8_t)((p0[0] ^ p1[1]) + p2[2])]++;
            if (j < 3)
                continue;
            const uint8_t *p3 = lookup + 32 * buf[j - 3];
            acc[(uint8_t)((p0[3] ^ p1[4]) + p3[5])]++;
            acc[(uint8_t)((p0[6] ^ p2[7]) + p3[8])]++;
            if (j < 4)
                continue;
            const uint8_t *p4 = lookup + 32 * buf[j - 4];
            acc[(uint8_t)((p0[9] ^ p1[10]) + p4[11])]++;
            acc[(uint8_t)((p0[12] ^ p2[13]) + p4[14])]++;
            acc[(uint8_t)((p0[15] ^ p3[16]) + p4[17])]++;
            acc[(uint8_t)((p4[18] ^ p1[19]) + p0[20])]++;
            acc[(uint8_t)((p4[21] ^ p3[22]) + p0[23])]++;
        }
        /* buckets per length: 1 at 3 bytes, 4 at 4, 8 len - 28 from 5 */
        const int64_t total = len < 3 ? 0 : len == 3 ? 1 : len == 4 ? 4 : 8 * len - 28;
        if (total == 0)
            continue;
        const int64_t threshold = total / 256;
        for (int b = 0; b < 256; b++)
            if (acc[b] > threshold)
                code[31 - (b >> 3)] |= (uint8_t)(1u << (b & 7));
    }
}
