"""All subspaces of F_q^n, for tests that sweep them or check a search
against a filter over every candidate."""

import itertools

from starlab.fq_linear import Subspace


def enumerate_subspaces(ambient, fld):
    """All subspaces of F_q^ambient, in a deterministic order.

    Subspaces are generated directly in canonical form: dimensions ascending,
    pivot columns in lexicographic order, free entries counted row-major.
    """
    q = fld.q
    out = []
    for d in range(ambient + 1):
        for pivots in itertools.combinations(range(ambient), d):
            pivot_set = set(pivots)
            free = [
                (i, j)
                for i in range(d)
                for j in range(pivots[i] + 1, ambient)
                if j not in pivot_set
            ]
            for values in itertools.product(range(q), repeat=len(free)):
                rows = [[0] * ambient for _ in range(d)]
                for i in range(d):
                    rows[i][pivots[i]] = 1
                for (i, j), v in zip(free, values):
                    rows[i][j] = v
                out.append(Subspace(fld, ambient, tuple(tuple(r) for r in rows), pivots))
    return out
