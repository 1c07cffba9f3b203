/* Compiled kernels for simnet: Louvain local moves and Nilsimsa digests.
 *
 * Each entry point is a port of a Python function that stays in the
 * package as the fallback and the reference: simnet_local_moves of
 * community._local_moves, simnet_digest_rows of similarity._digest_bits
 * over many buffers.  Both must give bit-identical results, so the build
 * uses -ffp-contract=off (no fused multiply-add) and no -ffast-math, and
 * every float expression keeps the Python evaluation order.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Sweep nodes in `order` until a full pass moves nothing.
 *
 * Line for line the algorithm of community._local_moves, over a symmetric
 * CSR adjacency (indptr, indices, weights) of n nodes with weighted
 * degrees k and total weight m.  Writes each node's community to `comm`
 * and the first `max_moves` accepted moves to `moves` as (node, from, to)
 * rows.  Returns the number of accepted moves, which exceeds `max_moves`
 * when the log was too short (call again with a longer one), -1 when
 * working memory could not be allocated, and -2 when `order` is not a
 * permutation of 0..n-1, indptr does not rise from 0 to its last entry, or
 * an index lies outside 0..n-1.
 */
int64_t simnet_local_moves(int64_t n, const int64_t *indptr,
                           const int64_t *indices, const double *weights,
                           const double *k, double m, const int64_t *order,
                           int64_t *comm, int64_t *moves, int64_t max_moves)
{
    int64_t nnz = indptr[n];
    /* one spare slot each, so that no size is zero */
    double *comm_tot = malloc((size_t)(n + 1) * sizeof *comm_tot);
    double *comm_w = calloc((size_t)(n + 1), sizeof *comm_w);
    int64_t *n_row = malloc((size_t)(n + 1) * sizeof *n_row);
    int64_t *row_c = malloc((size_t)(nnz + 1) * sizeof *row_c);
    double *row_w = malloc((size_t)(nnz + 1) * sizeof *row_w);
    int64_t n_moves = -1;
    if (!comm_tot || !comm_w || !n_row || !row_c || !row_w)
        goto done;

    /* n_row doubles as the "seen" mark of the permutation check */
    n_moves = -2;
    for (int64_t x = 0; x < n; x++)
        n_row[x] = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t x = order[i];
        if (x < 0 || x >= n || n_row[x])
            goto done;
        n_row[x] = 1;
    }
    if (indptr[0] != 0)
        goto done;
    for (int64_t x = 0; x < n; x++)
        if (indptr[x] > indptr[x + 1])
            goto done;
    for (int64_t e = 0; e < nnz; e++)
        if (indices[e] < 0 || indices[e] >= n)
            goto done;

    for (int64_t x = 0; x < n; x++) {
        comm[x] = x;
        comm_tot[x] = k[x];
        n_row[x] = -1;
    }
    const double two_m = 2.0 * m;
    int first_sweep = 1;
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
            const int64_t n_c = n_row[x];
            int64_t end;
            double own_w;
            if (n_c < 0) {
                end = lo;
                for (int64_t e = lo; e < hi; e++) {
                    const int64_t cy = comm[indices[e]];
                    if (comm_w[cy] == 0.0)
                        row_c[end++] = cy;
                    comm_w[cy] += weights[e];
                }
                own_w = comm_w[cx];
                for (int64_t t = lo; t < end; t++) {
                    const int64_t c = row_c[t];
                    row_w[t] = comm_w[c];
                    comm_w[c] = 0.0;
                }
                if (!first_sweep)
                    n_row[x] = end - lo;
            } else {
                end = lo + n_c;
                own_w = 0.0;
                for (int64_t t = lo; t < end; t++) {
                    if (row_c[t] == cx) {
                        own_w = row_w[t];
                        break;
                    }
                }
            }
            comm_tot[cx] -= kx;
            int64_t best_c = cx;
            double best_gain = own_w - comm_tot[cx] * kx / two_m;
            for (int64_t t = lo; t < end; t++) {
                const int64_t c = row_c[t];
                if (c == cx)
                    continue;
                const double gain = row_w[t] - comm_tot[c] * kx / two_m;
                if (gain > best_gain) {
                    best_gain = gain;
                    best_c = c;
                }
            }
            comm_tot[best_c] += kx;
            if (best_c != cx) {
                comm[x] = best_c;
                if (n_moves < max_moves) {
                    moves[3 * n_moves] = x;
                    moves[3 * n_moves + 1] = cx;
                    moves[3 * n_moves + 2] = best_c;
                }
                n_moves++;
                moved = 1;
                if (!first_sweep)
                    for (int64_t e = lo; e < hi; e++)
                        n_row[indices[e]] = -1;
            }
        }
        first_sweep = 0;
    }

done:
    free(comm_tot);
    free(comm_w);
    free(n_row);
    free(row_c);
    free(row_w);
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
 * bucket per combination whose window fits, as _COMBOS lists them.  Four
 * count tables, summed at the end, keep consecutive increments of one
 * bucket off a single counter.
 */
void simnet_digest_rows(int64_t n, const uint8_t *data, const int64_t *offsets,
                        const uint8_t *lookup, uint8_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const uint8_t *buf = data + offsets[i];
        const int64_t len = offsets[i + 1] - offsets[i];
        uint8_t *code = out + 32 * i;
        int64_t acc[4][256];
        memset(acc, 0, sizeof acc);
        memset(code, 0, 32);
        for (int64_t j = 2; j < len; j++) {
            const uint8_t *p0 = lookup + 32 * buf[j];
            const uint8_t *p1 = lookup + 32 * buf[j - 1];
            const uint8_t *p2 = lookup + 32 * buf[j - 2];
            acc[0][(uint8_t)((p0[0] ^ p1[1]) + p2[2])]++;
            if (j < 3)
                continue;
            const uint8_t *p3 = lookup + 32 * buf[j - 3];
            acc[1][(uint8_t)((p0[3] ^ p1[4]) + p3[5])]++;
            acc[2][(uint8_t)((p0[6] ^ p2[7]) + p3[8])]++;
            if (j < 4)
                continue;
            const uint8_t *p4 = lookup + 32 * buf[j - 4];
            acc[3][(uint8_t)((p0[9] ^ p1[10]) + p4[11])]++;
            acc[0][(uint8_t)((p0[12] ^ p2[13]) + p4[14])]++;
            acc[1][(uint8_t)((p0[15] ^ p3[16]) + p4[17])]++;
            acc[2][(uint8_t)((p4[18] ^ p1[19]) + p0[20])]++;
            acc[3][(uint8_t)((p4[21] ^ p3[22]) + p0[23])]++;
        }
        /* buckets per length: 1 at 3 bytes, 4 at 4, 8 len - 28 from 5 */
        const int64_t total = len < 3 ? 0 : len == 3 ? 1 : len == 4 ? 4 : 8 * len - 28;
        if (total == 0)
            continue;
        const int64_t threshold = total / 256;
        for (int b = 0; b < 256; b++)
            if (acc[0][b] + acc[1][b] + acc[2][b] + acc[3][b] > threshold)
                code[31 - (b >> 3)] |= (uint8_t)(1u << (b & 7));
    }
}
