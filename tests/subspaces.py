"""All subspaces of F_q^n, for tests that sweep them or check a search
against a filter over every candidate; the tuple-row references the
packed kernel (packed.py) and the packed series are checked against:
Gauss–Jordan elimination, reduction, the Zassenhaus meet and truncated
series arithmetic on coefficient tuples, by the field's add/sub/mul
tables; and the orbit partition by whole orbits."""

import itertools
from bisect import bisect_left

from starlab.errors import InputError
from starlab.fq_linear import Subspace, unit_image_map


def enumerate_subspaces(ambient, fld):
    """All subspaces of F_q^ambient, in a deterministic order.

    Subspaces are generated directly in canonical form: dimensions ascending,
    pivot columns in lexicographic order, free entries counted row-major.
    """
    q = fld.q
    pack = fld.packing.pack
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
                out.append(Subspace(fld, ambient, tuple(map(pack, rows)), pivots))
    return out


def full(fld, ambient):
    """F_q^ambient itself."""
    kern = fld.packing
    rows = tuple(kern.shift(kern.one, i) for i in range(ambient))
    return Subspace(fld, ambient, rows, tuple(range(ambient)))


# ---------------------------------------------------------------------------
# tuple-row references


def rref(vectors, fld):
    """Reduced row echelon form; returns a tuple of nonzero rows, pivots
    strictly increasing, pivot entries 1, pivot columns elsewhere zero, and
    the tuple of their pivots."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return (), ()
    mul, sub, inv = fld.mul, fld.sub, fld.inv
    ncols = len(rows[0])
    out = []
    pivots = []
    col = 0
    while rows and col < ncols:
        pivot_row = None
        for r in rows:
            if r[col]:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        rows.remove(pivot_row)
        c = pivot_row[col]
        if c != 1:
            ci = inv[c]
            mi = mul[ci]
            pivot_row = [mi[x] for x in pivot_row]
        for r in rows:
            f = r[col]
            if f:
                mf = mul[f]
                for j in range(col, ncols):
                    pj = pivot_row[j]
                    if pj:
                        r[j] = sub[r[j]][mf[pj]]
        out.append(pivot_row)
        pivots.append(col)
        col += 1
        rows = [r for r in rows if any(r)]
    return _back_substitute(out, pivots, fld), tuple(pivots)


def _back_substitute(rows, pivots, fld):
    """Clear the entries above each pivot of echelon rows (lists, pivot
    entries 1), last pivot first; returns the rows as tuples."""
    sub, mul = fld.sub, fld.mul
    for i in range(len(rows) - 1, 0, -1):
        prow = rows[i]
        pcol = pivots[i]
        tail = [(j, x) for j, x in enumerate(prow[pcol:], pcol) if x]
        for row in rows[:i]:
            f = row[pcol]
            if f:
                mf = mul[f]
                for j, pj in tail:
                    row[j] = sub[row[j]][mf[pj]]
    return tuple(tuple(r) for r in rows)


def span(fld, ambient, vectors):
    """The subspace spanned by coefficient tuples, by the tuple rref."""
    return _subspace(fld, ambient, *rref([tuple(v) for v in vectors], fld))


def _subspace(fld, ambient, rows, pivots):
    """The subspace with these canonical tuple rows and their pivots."""
    return Subspace(fld, ambient, tuple(map(fld.packing.pack, rows)), pivots)


def reduce(rows, pivots, vec, fld):
    """Residual of vec after eliminating along canonical tuple rows."""
    v = list(vec)
    sub, mul = fld.sub, fld.mul
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            mc = mul[c]
            for j in range(p, len(v)):
                rj = row[j]
                if rj:
                    v[j] = sub[v[j]][mc[rj]]
    return tuple(v)


def intersect(a, b):
    """Lattice meet of two subspaces, by the Zassenhaus double-block
    reduction of their tuple rows."""
    n = a.ambient
    zero = (0,) * n
    block = [r + r for r in a.rows]
    block += [r + zero for r in b.rows]
    # Rows whose first half vanishes, those pivoting past column n, come
    # last in the echelon form, and their second halves are already
    # reduced against each other.
    reduced, pivots = rref(block, a.field)
    low = bisect_left(pivots, n)
    rows = tuple(r[n:] for r in reduced[low:])
    return _subspace(a.field, n, rows, tuple(p - n for p in pivots[low:]))


def unit_image(sub, unit):
    """u * sub, by the tuple rref of the products of its rows."""
    return span(sub.field, sub.ambient, [series_mul(unit, r, sub.field) for r in sub.rows])


def contains(sub, vec):
    """Whether vec lies in sub, by the tuple reduction."""
    return not any(reduce(sub.rows, sub.pivots, vec, sub.field))


# ---------------------------------------------------------------------------
# truncated power series K[t]/(t^N) on coefficient tuples


def series_mul(a, b, fld):
    """Product of coefficient tuples, truncated to len(a) terms."""
    n = len(a)
    out = [0] * n
    mul = fld.mul
    add = fld.add
    for i, ai in enumerate(a):
        if ai:
            mi = mul[ai]
            top = n - i
            for j in range(min(len(b), top)):
                bj = b[j]
                if bj:
                    k = i + j
                    out[k] = add[out[k]][mi[bj]]
    return tuple(out)


def series_shift(a, k):
    """Multiply by t^k (k >= 0), truncating at the original length."""
    n = len(a)
    return tuple(0 for _ in range(min(k, n))) + a[: max(n - k, 0)]


def series_inv(a, fld):
    """Inverse of a unit (valuation 0) in K[t]/(t^N).

    Coefficients come from the first-order recurrence
    b_k = -b_0 * sum_{i=1..k} a_i b_{k-i}.
    """
    if not a or a[0] == 0:
        raise InputError("series has positive valuation, not a unit")
    n = len(a)
    mul, add, neg = fld.mul, fld.add, fld.neg
    b = [0] * n
    b0 = fld.inv[a[0]]
    b[0] = b0
    for k in range(1, n):
        acc = 0
        for i in range(1, k + 1):
            ai = a[i]
            if ai:
                acc = add[acc][mul[ai][b[k - i]]]
        b[k] = mul[neg[b0]][acc] if acc else 0
    return tuple(b)


# ---------------------------------------------------------------------------
# orbit partition


def bfs_partition(family):
    """(orbit_ids, members, reps, image_maps) of distinct subspaces under
    the units, as `partition_subspaces` gives them, but with every orbit
    found by the whole orbit of its least member (`unit_image_map`), never
    by its images containing 1."""
    family = tuple(family)
    index = {s.packed: i for i, s in enumerate(family)}
    orbit_ids = [None] * len(family)
    members, image_maps = [], []
    for i in sorted(range(len(family)), key=lambda i: family[i].rows):
        if orbit_ids[i] is not None:
            continue
        images = unit_image_map(family[i])
        orbit = sorted((index[k] for k in images if k in index), key=lambda j: family[j].rows)
        for j in orbit:
            orbit_ids[j] = len(members)
        members.append(tuple(orbit))
        image_maps.append(images)
    reps = tuple(family[m[0]] for m in members)
    return tuple(orbit_ids), tuple(members), reps, tuple(image_maps)
