"""Full-rescan Louvain local moves, used only as a test oracle.

Every visit rescans the node's whole CSR row to rebuild its neighbouring
communities' weight sums, as the kernel did before it reused those sums.
The production kernel must give the same partitions and move logs on
every level.
"""

import numpy as np

from simnet.community import _build_csr, _weighted_degrees


def full_rescan_moves(indptr, indices, weights, k, m, order, comm, comm_tot,
                      comm_w, touched, moves, max_moves):
    """Sweep nodes in `order` until a full pass moves nothing.

    Returns the move count, or -1 once more than `max_moves` moves are
    needed; accepted moves go to the flat `moves` as (node, from, to).
    """
    n = len(comm)
    two_m = 2.0 * m
    n_moves = 0
    moved = True
    while moved:
        moved = False
        for oi in range(n):
            x = order[oi]
            cx = comm[x]
            kx = k[x]
            n_touched = 0
            for e in range(indptr[x], indptr[x + 1]):
                y = indices[e]
                if y == x:
                    continue
                cy = comm[y]
                if comm_w[cy] == 0.0:
                    touched[n_touched] = cy
                    n_touched += 1
                comm_w[cy] += weights[e]
            comm_tot[cx] -= kx
            best_c = cx
            best_gain = comm_w[cx] - comm_tot[cx] * kx / two_m
            for t in range(n_touched):
                c = touched[t]
                if c == cx:
                    continue
                gain = comm_w[c] - comm_tot[c] * kx / two_m
                if gain > best_gain:
                    best_gain = gain
                    best_c = c
            comm_tot[best_c] += kx
            if best_c != cx:
                if n_moves >= max_moves:
                    return -1
                comm[x] = best_c
                moves[3 * n_moves] = x
                moves[3 * n_moves + 1] = cx
                moves[3 * n_moves + 2] = best_c
                n_moves += 1
                moved = True
            for t in range(n_touched):
                comm_w[touched[t]] = 0.0
    return n_moves


def full_rescan_level(n, src, dst, w, self_w, order, max_moves):
    """One level's (comm, moves, n_moves) from the oracle, on Python lists.

    `moves` is the flat log; `n_moves` is -1 when `max_moves` overflowed.
    """
    indptr, indices, weights = (a.tolist() for a in _build_csr(n, src, dst, w))
    k = _weighted_degrees(n, src, dst, w, self_w).tolist()
    m = float(w.sum()) + float(self_w.sum())
    comm = list(range(n))
    moves = [0] * (3 * max_moves)
    n_moves = full_rescan_moves(indptr, indices, weights, k, m,
                                np.asarray(order).tolist(), comm, list(k),
                                [0.0] * n, [0] * n, moves, max_moves)
    return comm, moves[:3 * max(n_moves, 0)], n_moves
