"""Finite fields, canonical subspaces, and truncated power-series arithmetic.

Fields are table driven: elements are integer codes 0..q-1 (base-p digits of
the residue polynomial for extension fields) and the add/mul tables are built
once on construction, by one builder for every field that fills each row
from rows already built, so everything downstream is pure table lookup.
Subspaces of K^n are kept in reduced row echelon form, which makes equality,
hashing and orbit bookkeeping structural. Their rows are stored packed into
Python ints by the field's `packing` (packed.py), and every elimination runs
on those; the rows as coefficient tuples are a view, unpacked on first read.

The same packed vectors double as the truncated algebra K[t]/(t^n): an
element c_0 + c_1*t + ... + c_{n-1}*t^(n-1) is the packed vector
(c_0, ..., c_{n-1}), and its valuation is its pivot. Series and units, the
witnesses of the unit orbits included, are packed; coefficient tuples
enter only as literal input to `Subspace.span` and `Subspace.reduce`, and
leave only as `Subspace.rows`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property

from .errors import InputError, InvariantError

MAX_FIELD_ORDER = 512


# ---------------------------------------------------------------------------
# polynomial helpers over the prime field (coefficient lists, index = degree)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(f, p):
    """Monic f of degree e >= 1 over F_p, coefficient sequence, index = degree:
    irreducible when no monic polynomial of degree 1..e//2 divides it."""
    return all(
        _poly_mod(f, list(tail) + [1], p)
        for d in range(1, (len(f) - 1) // 2 + 1)
        for tail in itertools.product(range(p), repeat=d)
    )


# ---------------------------------------------------------------------------
# fields


class Field:
    """Finite field F_{p^e} with precomputed operation tables.

    Elements are integer codes 0..q-1. For e > 1 the code's base-p digits,
    least significant first, are the coefficients of the residue polynomial
    modulo the (monic, irreducible) modulus.

    The tables read code c as c % p + x*(c // p). Row a of add is row a - 1
    mapped through c -> c + 1 if a % p, else b -> b % p + p*add[a // p][b // p].
    The digit multiples c*a, c < p, come by repeated addition, neg is the
    one by p - 1 and sub[a][b] = add[a][neg[b]]. On a prime field they are
    mul; otherwise b*a = b0*a + x*(B*a) for b = b0 + x*B, where x*a moves
    a's digits up one place and folds the top one back through the modulus.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise InputError(f"characteristic {p} is not prime")
        if e < 1:
            raise InputError(f"extension degree {e} must be >= 1")
        q = p**e
        if q > MAX_FIELD_ORDER:
            raise InputError(f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus is not None:
                raise InputError(f"a modulus needs q = p^e with e >= 2, not the prime {p}")
            self.modulus = None
        else:
            if modulus is None:
                modulus = self._smallest_irreducible(p, e)
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise InputError("modulus must be monic of degree e")
            if not _is_irreducible(list(modulus), p):
                raise InputError(f"modulus {modulus} is not irreducible over F_{p}")
            self.modulus = modulus
        self._build_tables()

    @staticmethod
    def _smallest_irreducible(p, e):
        # Smallest integer code, digits little-endian, constant term first.
        for digits in itertools.product(range(p), repeat=e):
            f = digits[::-1] + (1,)
            if _is_irreducible(f, p):
                return f
        raise InvariantError(f"no irreducible polynomial of degree {e} over F_{p}")

    def _build_tables(self):
        p, q = self.p, self.q
        succ = [c - c % p + (c + 1) % p for c in range(q)]
        add = [list(range(q))]
        for a in range(1, q):
            if a % p:
                add.append([succ[c] for c in add[a - 1]])
            else:
                high = add[a // p]
                add.append([b % p + p * high[b // p] for b in range(q)])
        scaled = [[0] * q]
        for _ in range(1, p):
            scaled.append([add[c][a] for a, c in enumerate(scaled[-1])])
        neg = scaled[p - 1]
        mul = scaled[:]
        if self.e > 1:
            top = q // p
            # x^e = -(modulus without its leading term)
            xe = neg[sum(c * p**i for i, c in enumerate(self.modulus[:-1]))]
            xtimes = [add[a % top * p][scaled[a // top][xe]] for a in range(q)]
            for b in range(p, q):
                low, high = scaled[b % p], mul[b // p]
                mul.append([add[low[a]][xtimes[high[a]]] for a in range(q)])
        inv = [0]
        for a in range(1, q):
            if 1 not in mul[a]:
                raise InvariantError(f"no inverse for code {a}; modulus not irreducible?")
            inv.append(mul[a].index(1))
        self.add, self.mul, self.neg, self.inv = add, mul, neg, inv

    @cached_property
    def packing(self):
        """The one packed layout of vectors over this field (packed.py)."""
        # imported on first use: the unit orbits, the closure table and the
        # colon pack rows, and a run that needs none of them never loads
        # packed.py
        from .packed import packing_for

        return packing_for(self)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.q}(mod={self.modulus})"


_FIELD_CACHE: dict = {}


def field(p: int, e: int = 1, modulus=None) -> Field:
    """Return the finite field F_{p^e}; instances are cached and shared."""
    key = (p, e, tuple(modulus) if modulus is not None else None)
    f = _FIELD_CACHE.get(key)
    if f is None:
        f = Field(p, e, modulus)
        _FIELD_CACHE[key] = f
    return f


def field_from_order(q: int, modulus=None) -> Field:
    """Return the field of order q, factoring q as a prime power; its prime
    is at most MAX_FIELD_ORDER, where the search stops."""
    if q < 2:
        raise InputError(f"field order {q} must be >= 2")
    for p in range(2, min(q, MAX_FIELD_ORDER) + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise InputError(f"{q} is not a prime power")
            return field(p, e, modulus)
    raise InputError(f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}")


# ---------------------------------------------------------------------------
# truncated power series K[t]/(t^n) over a Field, packed by the field


def _multiplier(kern, a, n):
    """The map v -> a*v mod t^n, for a packed series a: one scaled shift
    of v per nonzero coefficient of a below t^n. Only the slots from a's
    lowest to its highest nonzero one are read."""
    add, scale, shift, coef = kern.add, kern.scale, kern.shift, kern.coef
    s = kern.support(a)
    low = kern.pivot(a) if s else n
    high = min(n, -(-s.bit_length() // kern.width))
    terms = [(j, c) for j in range(low, high) if (c := coef(a, j))]
    zero = kern.zero

    def times(v):
        out = zero
        for j, c in terms:
            out = add(out, shift(v if c == 1 else scale(c, v), j))
        return kern.truncate(out, n)

    return times


def series_mul(a, b, fld, n):
    """Product of packed series, truncated at t^n."""
    return _multiplier(fld.packing, a, n)(b)


def series_inv(a, fld, n):
    """Inverse of a packed unit (valuation 0) of K[t]/(t^n).

    Long division of 1/a_0 by a/a_0, whose pivot entry is 1: the quotient's
    coefficient at t^k is the remainder's, and reducing the remainder by
    t^k*a/a_0 clears it.
    """
    kern = fld.packing
    c = kern.coef(a, 0)
    if not c:
        raise InputError("series has positive valuation, not a unit")
    monic = kern.scale(fld.inv[c], a)
    rem, coefs = kern.scale(fld.inv[c], kern.one), []
    for k in range(n):
        coefs.append(kern.coef(rem, k))
        if coefs[k]:
            rem = kern.reduce(rem, (kern.entry(k, kern.shift(monic, k)),))
    return kern.pack(coefs)


# ---------------------------------------------------------------------------
# canonical subspaces


def rref(vectors, fld):
    """The reduced row echelon form of the span of coefficient tuples: its
    rows packed by the field (packed.py) and their pivots, as tuples."""
    kern = fld.packing
    return kern.echelon(map(kern.pack, vectors))


class Subspace:
    """A subspace of K^ambient in canonical (reduced row echelon) form,
    stored as its rows packed by the field (packed.py), `packed`, and their
    `pivots`. `rows`, the same rows as coefficient tuples, and `entries`,
    them as `Packing.entry` tuples, are built on first use."""

    __slots__ = ("field", "ambient", "packed", "pivots", "_rows", "_entries")

    def __init__(self, fld, ambient, packed, pivots):
        self.field = fld
        self.ambient = ambient
        self.packed = packed
        self.pivots = pivots
        self._rows = None
        self._entries = None

    @classmethod
    def span(cls, fld, ambient, vectors):
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient:
                raise InputError(f"vector length {len(v)} != ambient {ambient}")
        return cls(fld, ambient, *rref(vectors, fld))

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def rows(self):
        if self._rows is None:
            unpack, n = self.field.packing.unpack, self.ambient
            self._rows = tuple(unpack(r, n) for r in self.packed)
        return self._rows

    @property
    def entries(self):
        # held with the rows: an entry scales the negated multiples of its
        # row on first use, so each is scaled once
        if self._entries is None:
            self._entries = tuple(map(self.field.packing.entry, self.pivots, self.packed))
        return self._entries

    def reduce(self, vec):
        """Residual of vec, a coefficient tuple, after eliminating along this
        subspace's rows."""
        kern = self.field.packing
        return kern.unpack(kern.reduce(kern.pack(vec), self.entries), len(vec))

    def contains(self, vec):
        """Whether vec, a packed vector, lies in this subspace."""
        kern = self.field.packing
        return not kern.support(kern.reduce(vec, self.entries))

    def intersect(self, other):
        """Lattice meet (`packed_meet` at the full width)."""
        if self.ambient != other.ambient:
            raise InputError("ambient dimension mismatch")
        meet = packed_meet(self.entries, self.ambient, other, 0)
        return other if meet is None else Subspace(self.field, self.ambient, *meet)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.ambient, self.packed))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, pivots={self.pivots})"


def packed_meet(entries, cut, sub: Subspace, k):
    """The packed rows and pivots, as tuples, of the subspace of the w in
    sub with t^k*w in A + t^cut*K^n, where A is a subspace of K^cut in
    reduced echelon form given by its `Packing.entry` tuples; None when
    every w qualifies. At k = 0 it is the meet of sub with A + t^cut*K^n.

    t^k*w qualifies exactly when its coefficients below cut lie in A. Rows
    of sub with pivot >= cut - k therefore qualify as they are, and so do
    the rows r whose t^k*r, cut, reduces to zero against A. Each other row
    r enters a Gauss–Jordan elimination as the block (that residual | r),
    residual in the low columns; the blocks whose residual cancels carry
    the rest of the result. A, sub and the result are in reduced echelon
    form, and each row kept from sub vanishes at the pivots of all others,
    so the union, ordered by pivot, is canonical.
    """
    kern = sub.field.packing
    rows, pivots = sub.packed, sub.pivots
    low = bisect_left(pivots, cut - k)
    kept = []
    block = []
    reduce, shift, truncate, support = kern.reduce, kern.shift, kern.truncate, kern.support
    for p, r in zip(pivots[:low], rows[:low]):
        residual = reduce(truncate(shift(r, k), cut), entries)
        if support(residual):
            block.append(kern.add(residual, shift(r, cut)))
        else:
            kept.append((p, r))
    if not block:
        return None
    kept.extend(zip(pivots[low:], rows[low:]))
    if len(block) > 1:  # a single block's residual cannot cancel
        for r, p in zip(*kern.echelon(block)):
            if p >= cut:
                kept.append((p - cut, kern.unshift(r, cut)))
        kept.sort()  # pivots are distinct, so rows are never compared
    if not kept:
        return (), ()
    pivots, rows = zip(*kept)
    return rows, pivots


def pivot_tail(sub: Subspace) -> int:
    """kappa(sub), the least k with every column k..n-1 a pivot of sub."""
    k = sub.ambient
    for p in reversed(sub.pivots):
        if p != k - 1:
            break
        k = p
    return k


def subspace_colon(a: Subspace, b: Subspace) -> Subspace:
    """(a : b), all x in K[t]/(t^n) with x*b inside a, products truncated
    at t^n.

    Each row r of b with pivot p contributes, for every shift t^i*r with
    p + i < kappa, the residual of t^i*r against a; x lies in the colon
    exactly when sum_i x_i * residual_i vanishes for every r. Here kappa is
    the least k with every column k..n-1 a pivot of a: a shift with
    p + i >= kappa lies in span(e_kappa, ..., e_(n-1)), inside a, so its
    residual is zero and it constrains nothing. On packed rows (`packed`),
    unknown i gets the block of the residuals of all rows side by side, n
    columns each, tagged with e_i in the columns above. Forward elimination,
    last unknown first, keeps the blocks whose residuals do not cancel. Each
    block that cancels, or has none, leaves its tag: e_i plus unknowns of
    kept blocks only, so the tags are the colon's rows in reduced echelon
    form.
    """
    if a.ambient != b.ambient:
        raise InputError("ambient dimension mismatch")
    kern = a.field.packing
    n, kappa = a.ambient, pivot_tail(a)
    entries = a.entries
    add, reduce, shift, truncate = kern.add, kern.reduce, kern.shift, kern.truncate
    support = kern.support
    blocks = [None] * n
    for k, (p, r) in enumerate(zip(b.pivots, b.packed)):
        for i in range(kappa - p):
            residual = reduce(truncate(shift(r, i), n), entries)
            if support(residual):
                residual = shift(residual, k * n)
                blocks[i] = residual if blocks[i] is None else add(blocks[i], residual)
    one = kern.one
    wide = n * b.dim
    # the forward elimination's entries and their pivots, by pivot, and the
    # colon's rows and pivots
    pivots, live = [], []
    rows, colon_pivots = [], []
    for i in range(n - 1, -1, -1):
        v = blocks[i]
        if v is None:
            v = shift(one, i)
        else:
            v = reduce(add(v, shift(one, wide + i)), live)
            if support(truncate(v, wide)):
                c = kern.pivot(v)
                x = kern.coef(v, c)
                if x != 1:
                    v = kern.scale(a.field.inv[x], v)
                j = bisect_left(pivots, c)
                pivots.insert(j, c)
                live.insert(j, kern.entry(c, v))
                continue
            v = kern.unshift(v, wide)
        rows.append(v)
        colon_pivots.append(i)
    return Subspace(a.field, n, tuple(rows[::-1]), tuple(colon_pivots[::-1]))


# ---------------------------------------------------------------------------
# counting


def count_subspaces(m, q):
    """Total number of subspaces of F_q^m (the Galois number), by the
    recurrence G(i+1) = 2*G(i) + (q^i - 1)*G(i-1) of Goldman and Rota."""
    prev, cur = 0, 1
    for i in range(m):
        prev, cur = cur, 2 * cur + (q**i - 1) * prev
    return cur


# ---------------------------------------------------------------------------
# orbits of subspaces under multiplication by valuation-zero units


def unit_representatives(fld, length):
    """All valuation-zero elements of K[t]/(t^length) with constant term 1,
    packed (scalar multiples act trivially on subspaces, so these represent
    the unit action)."""
    pack = fld.packing.pack
    return [pack((1,) + tail) for tail in itertools.product(range(fld.q), repeat=length - 1)]


def _image_rows(kern, rows, pivots, times, fixed):
    """The packed rows of u * S, for S in reduced echelon form with these
    packed rows and pivots and times(v) = u * v for a unit u of constant
    term 1, which fixes the rows from index `fixed` on. Such a unit keeps
    each row's pivot and pivot entry 1, so only back-substitution is left:
    each product is reduced against the products below it, last row first.
    The fixed rows are their own images and vanish at each other's pivots,
    so they enter as they are."""
    reduce, entry = kern.reduce, kern.entry
    # canonical rows vanish at each other's pivots: any order
    below = [entry(p, r) for p, r in zip(pivots[fixed:], rows[fixed:])]
    image = list(rows)
    for i in reversed(range(fixed)):
        image[i] = r = reduce(times(rows[i]), below)
        below.append(entry(pivots[i], r))
    return tuple(image)


def subspace_unit_image(sub: Subspace, unit) -> Subspace:
    """u * sub for a packed unit u of K[t]/(t^ambient).

    Scalars act trivially, so u is first scaled to constant term 1."""
    fld = sub.field
    kern = fld.packing
    n = sub.ambient
    if kern.truncate(unit, n) != unit:
        raise InputError(f"unit has terms past t^{n - 1}")
    c = kern.coef(unit, 0)
    if c == 0:
        raise InputError("series has positive valuation, not a unit")
    if c != 1:
        unit = kern.scale(fld.inv[c], unit)
    times = _multiplier(kern, unit, n)
    rows = _image_rows(kern, sub.packed, sub.pivots, times, sub.dim)
    return Subspace(fld, n, rows, sub.pivots)


def _stabilizer(sub: Subspace):
    """V, the positive valuations of (sub : sub): 1 + M, M the part of the
    colon in t*K[t], is the stabilizer of sub under the units."""
    return {p for p in subspace_colon(sub, sub).pivots if p}


def unit_image_map(sub: Subspace, fixed=None):
    """The orbit of sub under the units 1 + t*K[t] of K[t]/(t^ambient), on
    the rows packed by the field (packed.py). `fixed` is V, the valuations
    of the stabilizer (`_stabilizer`), where a caller has solved it.

    Returns {rows: witness}: rows is the tuple of the packed rows of an
    image in reduced echelon form, and witness the packed unit u, of
    constant term 1, with u * sub equal to that image.

    The stabilizer of sub is 1 + M with M = (sub : sub) meet t*K[t]; let V
    be the valuations of M. Two products of factors 1 + c_j*t^j, one per
    j >= 1 outside V, that first differ at j have a quotient 1 + c*t^j + ...
    with c != 0, which lies outside 1 + M. So these q^(ambient-1-|V|)
    products, the index of the stabilizer, meet each coset once: each orbit
    element is computed once, as the image of an earlier one under a single
    sparse factor (`_image_rows`), and the product is its witness. Finding
    any other number of images is an engine error.
    """
    kern = sub.field.packing
    n = sub.ambient
    pivots = sub.pivots
    if fixed is None:
        fixed = _stabilizer(sub)
    add, scale, shift, truncate = kern.add, kern.scale, kern.shift, kern.truncate

    images = {sub.packed: kern.one}
    for j in range(1, n):
        if j in fixed:
            continue
        layer = tuple(images.items())
        # rows with pivot >= n - j are fixed by 1 + c*t^j
        fixed_from = bisect_left(pivots, n - j)
        for c in range(1, sub.field.q):

            def times(v):  # (1 + c*t^j) * v
                return add(v, truncate(shift(scale(c, v), j), n))

            for rows, w in layer:
                images[_image_rows(kern, rows, pivots, times, fixed_from)] = times(w)
    _check_orbit_size(len(images), sub.field.q ** (n - 1 - len(fixed)))
    return images


def _check_orbit_size(found, expected):
    if found != expected:
        raise InvariantError(f"unit orbit has {found} images, not {expected}")


def _images_containing_one(sub: Subspace, fixed):
    """The packed rows of the unit images of sub that contain 1, for sub
    containing 1 with stabilizer valuations `fixed`; None when the orbit
    takes no more images to enumerate.

    1 lies in v * sub exactly when v^-1 does in sub, so these images are
    the s^-1 * sub for the s in sub with constant term 1: 1 + S', S' the
    span of the echelon rows after e_0. With 1 + M the stabilizer and V the
    valuations of M (`unit_image_map`), M lies in S', and two such s give
    one image exactly when they share a coset of 1 + M. Let C be the span
    of the rows of S' with pivots outside V. If (1 + x)(1 + m) =
    (1 + x')(1 + m') for x, x' in C and m, m' in M, then (x - x') +
    (m - m') = -x'(m - m') - (x - x')m; the two terms on the left have
    distinct valuations, and the right lies above the lower one, so both
    vanish. Counting, q^(dim-1-|V|) * q^|V| = q^(dim-1), so the s = 1 + x,
    x in C, meet each coset once, and their images are distinct. The route
    pays when dim - 1 is less than ambient - 1 - |V|, the exponent of the
    orbit's size; as every t^k with k >= kappa lies in M, that needs
    dim < kappa, which `partition_subspaces` tests before it solves the
    colon.
    """
    n, dim = sub.ambient, sub.dim
    if dim - 1 >= n - 1 - len(fixed):
        return None
    fld = sub.field
    kern = fld.packing
    rest, tail = sub.packed[1:], sub.pivots[1:]
    elements = [kern.one]
    for p, r in zip(tail, rest):
        if p not in fixed:
            multiples = [kern.scale(c, r) for c in range(fld.q)]
            elements = [kern.add(s, m) for s in elements for m in multiples]
    # each image holds 1, so its first row is e_0, and only the others are
    # multiplied
    images = set()
    for s in elements:
        times = _multiplier(kern, series_inv(s, fld, n), n)
        images.add((kern.one,) + _image_rows(kern, rest, tail, times, dim - 1))
    _check_orbit_size(len(images), fld.q ** (dim - 1 - len(fixed)))
    return images


class OrbitPartition:
    """Partition of a family under the valuation-zero unit action.

    `items` are the partitioned objects (subspaces, or ideals partitioned by
    their heads) and `members[k]` the item indices of orbit k, least
    canonical matrix first; that least member is the representative.
    `image_maps[k]` is the `unit_image_map` of the representative's
    subspace (the item, or the ideal's head): it maps the packed rows of
    every image (inside the family or not) to a packed witness unit. An
    orbit whose members were found among the images containing 1 has its
    image map built on the first read of `image_maps` (or of `witness`),
    from the stabilizer valuations solved while partitioning.
    """

    def __init__(self, items, orbit_ids, members, image_maps, pending):
        self.items = items
        self.orbit_ids = orbit_ids
        self.reps = tuple(items[m[0]] for m in members)
        self.members = members
        # the image maps found while partitioning, None where unbuilt, and
        # there the representative's subspace and stabilizer valuations
        self._maps = image_maps
        self._pending = pending

    @cached_property
    def image_maps(self):
        return tuple(
            unit_image_map(*wait) if images is None else images
            for images, wait in zip(self._maps, self._pending)
        )

    def relabel(self, items):
        """The same partition with items[i] in place of its i-th item."""
        return OrbitPartition(items, self.orbit_ids, self.members, self._maps, self._pending)

    @property
    def orbit_count(self):
        return len(self.reps)

    def orbit_sizes(self):
        return tuple(len(m) for m in self.members)

    def witness(self, orbit_id, member: Subspace):
        """The packed unit u with u * rep == member (member must lie in the
        orbit)."""
        return self.image_maps[orbit_id][member.packed]


def partition_subspaces(subspaces) -> OrbitPartition:
    """Orbit partition of distinct subspaces under multiplication by units
    of K[t]/(t^ambient).

    Subspaces are visited in canonical order, so each orbit is found from its
    least member: orbit ids ascend with the representatives, and every
    witness already maps the representative. An orbit's members are looked
    up among its images by packed rows. When every subspace contains 1, so
    does every member, and the images containing 1 suffice: they are taken
    instead of the orbit's image map wherever they are fewer
    (`_images_containing_one`), and that map waits for its first read. Each
    representative's stabilizer colon is solved once, and kept for the
    map that waits.
    """
    subspaces = tuple(subspaces)
    index = {s.packed: i for i, s in enumerate(subspaces)}
    # an echelon form holds 1 exactly when its first row is e_0
    unital = all(s.packed[:1] == (s.field.packing.one,) for s in subspaces)
    orbit_ids = [None] * len(subspaces)
    members = []
    image_maps, pending = [], []
    for i in sorted(range(len(subspaces)), key=lambda i: subspaces[i].rows):
        if orbit_ids[i] is not None:
            continue
        sub, fixed, images = subspaces[i], None, None
        # the member route needs dim < kappa (`_images_containing_one`)
        if unital and sub.dim < pivot_tail(sub):
            fixed = _stabilizer(sub)
            images = _images_containing_one(sub, fixed)
        if images is None:
            images = unit_image_map(sub, fixed)
            image_maps.append(images)
            pending.append(None)
        else:
            image_maps.append(None)
            pending.append((sub, fixed))
        orbit = sorted(
            (index[key] for key in images if key in index), key=lambda j: subspaces[j].rows
        )
        for j in orbit:
            orbit_ids[j] = len(members)
        members.append(tuple(orbit))
    return OrbitPartition(
        subspaces, tuple(orbit_ids), tuple(members), tuple(image_maps), tuple(pending)
    )
