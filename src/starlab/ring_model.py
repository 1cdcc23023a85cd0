"""Finite models of semigroup rings and their fractional-ideal lattices.

The ring R = K[[S]] (or any residually rational subalgebra with value
semigroup S) contains the conductor t^(g+1)*V, g the Frobenius number of S
and V = K[[t]] the integral closure, and so does every fractional ideal
between the conductor and V. Such an ideal, R included, is determined by its
head, its image mod t^(g+1) in K^(g+1) (coefficients 0..g), and the head is
all a RingModel and a RingIdeal store.

F_0(R) is the set of ideals I with R <= I <= V; it is enumerated by a
depth-first search that extends the stable tails of reduced echelon forms
in the gap coordinates, one gap column at a time from g down, so no
unstable candidate is lifted and filtered.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product

from .errors import InputError, InvariantError, check_budget
from .fq_linear import (
    OrbitPartition,
    Subspace,
    count_subspaces,
    packed_meet,
    partition_subspaces,
    pivot_tail,
    series_inv,
    series_mul,
    subspace_colon,
    subspace_unit_image,
)
from .numsgp import NumericalSemigroup


class RingModel:
    """R (or an overring) with value semigroup sgp, stored as its head: the
    subalgebra R mod t^(g+1) of K[t]/(t^(g+1)), a subspace of K^(g+1)."""

    def __init__(self, field, sgp: NumericalSemigroup, head: Subspace):
        self.field = field
        self.sgp = sgp
        self.head_dim = sgp.frobenius + 1
        self._cache = {}
        # the model's one RingIdeal per head, by its packed rows; kept out of
        # _cache, whose memos may be dropped while the ideals stay shared
        self._ideals = {}
        self._ring = RingIdeal(self, head)

    # -- basic objects -----------------------------------------------------

    def monomial(self, k):
        """t^k, packed."""
        kern = self.field.packing
        return kern.shift(kern.one, k)

    def ring_ideal(self) -> "RingIdeal":
        return self._ring

    def maximal_ideal(self) -> "RingIdeal":
        """M, the elements of R of positive valuation."""
        head = self._ring.head  # its first row has pivot 0, as R contains 1
        rows, pivots = head.packed[1:], head.pivots[1:]
        return RingIdeal(self, Subspace(self.field, self.head_dim, rows, pivots))

    def span_ideal(self, vectors) -> "RingIdeal":
        """Smallest conductor-containing R-submodule spanning the vectors,
        packed elements of K[t] read mod t^(g+1): the head is closed under
        products with the ring's head rows, products taken mod t^(g+1)."""
        h = self.head_dim
        field = self.field
        kern = field.packing
        ring_rows = self._ring.head.packed
        rows = [kern.truncate(v, h) for v in vectors]
        while True:
            sub = Subspace(field, h, *kern.echelon(rows))
            rows = list(sub.packed)
            for b in ring_rows:
                for r in sub.packed:
                    prod = series_mul(b, r, field, h)
                    if not sub.contains(prod):
                        rows.append(prod)
            if len(rows) == sub.dim:
                return RingIdeal(self, sub)

    def __repr__(self):
        return f"RingModel(S={self.sgp.generators}, q={self.field.q}, head_dim={self.head_dim})"


# one model per ring: the factories below return the process's first model
# of an equal field and ring head, with its memos and workspace, whatever
# path leads to it
_MODELS: dict = {}


def _shared(model: RingModel) -> RingModel:
    return _MODELS.setdefault((model.field, model.ring_ideal().head), model)


def _monomials(kern, values):
    """The packed monomials t^v for v in values, as a tuple."""
    return tuple(kern.shift(kern.one, v) for v in values)


def semigroup_ring_model(sgp: NumericalSemigroup, field) -> RingModel:
    if sgp.frobenius < 1:
        raise InputError("value semigroup must have at least one gap")
    values = sgp.small_members()
    head = Subspace(field, sgp.frobenius + 1, _monomials(field.packing, values), values)
    return _shared(RingModel(field, sgp, head))


def subalgebra_model(head: Subspace) -> RingModel:
    """Generic subalgebra input: the model whose ring has this head, a
    subspace of K^(g+1). Validates that the head contains 1, that its last
    column is a gap, so that g is the Frobenius number of the value
    semigroup read off the pivots, and that it is closed under products mod
    t^(g+1). That check is exact: the ring is the head plus the conductor
    t^(g+1)*V, and a product with an element of the conductor stays in it."""
    field, h = head.field, head.ambient
    if not head.contains(field.packing.one):
        raise InputError("subalgebra must contain 1")
    if h - 1 in head.pivots:
        raise InputError(f"the head's last column t^{h - 1} must be a gap")
    for i, u in enumerate(head.packed):
        for v in head.packed[i:]:
            if not head.contains(series_mul(u, v, field, h)):
                raise InputError("head is not closed under products mod t^(g+1)")
    sgp = NumericalSemigroup.from_gaps([x for x in range(h) if x not in head.pivots])
    return _shared(RingModel(field, sgp, head))


class RingIdeal:
    """A fractional ideal of the model between the conductor and V, stored
    as its head: a canonical subspace of K^(g+1), coefficients 0..g. Its
    methods read elements of K[t] mod t^(g+1).

    A model has one RingIdeal per head: RingIdeal(model, head) returns the
    object made first for equal packed rows, so ideals compare and hash by
    identity, and memos key on them."""

    __slots__ = ("model", "head", "_generators")

    def __new__(cls, model: RingModel, head: Subspace):
        if head.ambient != model.head_dim:
            raise InputError(f"an ideal head has width {model.head_dim}, not {head.ambient}")
        ideal = model._ideals.get(head.packed)
        if ideal is None:
            ideal = model._ideals[head.packed] = super().__new__(cls)
            ideal.model = model
            ideal.head = head
            ideal._generators = None
        return ideal

    @property
    def sub(self) -> Subspace:
        """The ideal mod t^N, N = 2(g+1), as a subspace of K^N: its head
        rows, then the monomials t^(g+1), ..., t^(N-1), already in reduced
        echelon form. Built on each read; the engine reads heads only, and
        the perfbench tracer's closure-table hook reads this."""
        model = self.model
        h, head = model.head_dim, self.head
        values = tuple(range(h, 2 * h))
        packed = head.packed + _monomials(model.field.packing, values)
        return Subspace(model.field, 2 * h, packed, head.pivots + values)

    @property
    def dim(self):
        """The dimension of the ideal mod t^(2(g+1)): g+1 conductor
        monomials beside the head."""
        return self.head.dim + self.model.head_dim

    @property
    def generators(self) -> Subspace:
        """The head's echelon rows at the values v <= g of the ideal that
        are not v' + s for a value v' and a nonzero s of S, as a subspace of
        K^(g+1); built on first use. Two such values differ by no multiple
        of the multiplicity m, so there are at most m rows. With the
        conductor they generate the ideal as an R-module: every value of the
        ideal is a generator's value plus an element of S, so their
        products with R realize its whole value set inside it."""
        if self._generators is None:
            head, contains = self.head, self.model.sgp.contains
            pivots = head.pivots
            keep = [
                i for i, p in enumerate(pivots) if not any(contains(p - w) for w in pivots[:i])
            ]
            # some rows of a reduced echelon form are the one of their span
            rows = tuple(head.packed[i] for i in keep)
            pivots = tuple(pivots[i] for i in keep)
            self._generators = Subspace(head.field, head.ambient, rows, pivots)
        return self._generators

    @property
    def value_set(self):
        """The ideal's valuations below 2(g+1): the head's pivot columns,
        then g+1, ..., 2g+1."""
        h = self.model.head_dim
        return self.head.pivots + tuple(range(h, 2 * h))

    def contains(self, other: "RingIdeal") -> bool:
        head, other_head = self.head, other.head
        if other_head.dim > head.dim:
            return False
        if not set(other_head.pivots) <= set(head.pivots):
            return False
        return self.contains_packed(other_head.packed)

    def contains_packed(self, rows) -> bool:
        """Whether vectors of K^(g+1), packed by the field (packed.py), all
        lie in the head: each reduces to zero against the head's entries."""
        entries = self.head.entries
        kern = self.model.field.packing
        reduce, support = kern.reduce, kern.support
        return not any(support(reduce(r, entries)) for r in rows)

    def in_f0(self) -> bool:
        """R <= I <= V, i.e. the ideal contains 1 (stability is built in)."""
        return self.contains_packed((self.model.monomial(0),))

    # -- arithmetic --------------------------------------------------------

    def intersect(self, other: "RingIdeal") -> "RingIdeal":
        """The meet of two ideals: both contain the conductor, so it is the
        meet of their heads. Memoized per model on the two ideals."""
        self._same_model(other)
        memo = self.model._cache.setdefault("intersect", {})
        cached = memo.get((self, other))
        if cached is None:
            cached = memo[self, other] = RingIdeal(self.model, self.head.intersect(other.head))
        return cached

    def product(self, other: "RingIdeal") -> "RingIdeal":
        """I * J, for factors of which one has an element of valuation 0.

        Such a product contains the conductor, so it is determined by the
        products of the head rows mod t^(g+1). Without a valuation-0 element
        the product need not contain the conductor, and is refused.
        """
        self._same_model(other)
        if self.value_set[0] and other.value_set[0]:
            raise InputError("neither factor has an element of valuation 0")
        field, h = self.model.field, self.model.head_dim
        rows = [series_mul(u, v, field, h) for u in self.head.packed for v in other.head.packed]
        return RingIdeal(self.model, Subspace(field, h, *field.packing.echelon(rows)))

    def colon(self, other: "RingIdeal") -> "RingIdeal":
        """(self : other) computed inside V: all a in V with a*other <= self.

        For the ideals this engine manipulates (operands containing the
        conductor, quotients landing between the conductor and V) this is the
        exact fractional colon. Only the head coefficients a_0..a_g of the
        unknown are constrained (the tail multiplies everything into the
        conductor), and the conductor rows of the divisor impose nothing. As
        self contains the conductor, t^i*b lies in it exactly when the head
        of t^i*b, the shift of head(b) cut to g+1 terms, lies in the head of
        self. So the colon is that of the heads in K^(g+1).

        Only the divisor's `generators` enter it. Their R-module with the
        conductor is the divisor: an element of value w times one of R of
        value s has value w + s, so that module has the divisor's value set
        inside it, and hence its dimension. And x*b in self for every
        generator b puts x*r*b in self for every r in R, as self is an
        R-module. Results are memoized per model on the two ideals.
        """
        self._same_model(other)
        memo = self.model._cache.setdefault("colon", {})
        cached = memo.get((self, other))
        if cached is None:
            colon = subspace_colon(self.head, other.generators)
            cached = memo[self, other] = RingIdeal(self.model, colon)
        return cached

    def v_closure(self) -> "RingIdeal":
        R = self.model.ring_ideal()
        return R.colon(R.colon(self))

    def is_divisorial(self) -> bool:
        return self.v_closure() == self

    def unit_image(self, unit) -> "RingIdeal":
        """u * I, for a packed unit u of V read mod t^(g+1)."""
        model = self.model
        unit = model.field.packing.truncate(unit, model.head_dim)
        return RingIdeal(model, subspace_unit_image(self.head, unit))

    def __repr__(self):
        return f"RingIdeal(values<=g:{list(self.head.pivots)}, dim={self.dim})"

    def _same_model(self, other):
        if self.model is not other.model:
            raise InputError("ideals belong to different models")


def _normalize(model: RingModel, rows, pivots) -> RingIdeal:
    """normalize(Y + t^(g+1)*V): the ideal divided by a minimal-valuation
    element, landing in F_0, for the subspace Y of K^(g+1) with these packed
    rows, a tuple in reduced echelon form, and their pivots. Y = 0 gives V.

    The divisor is Y's canonical row alpha with the least pivot m <= g, so
    the result is deterministic; any other minimal-valuation divisor gives
    a unit-equivalent ideal. The quotient is the image under the unit
    t^m/alpha of Y/t^m + t^(g+1-m)*V, whose head is spanned by the rows of
    Y moved m columns left and the monomials t^(g+1-m), ..., t^g: a reduced
    echelon form, as those rows end before t^(g+1-m). At Y = 0 take m = g+1
    and alpha = t^(g+1). Results are memoized per model on the rows.
    """
    memo = model._cache.setdefault("normalize", {})
    cached = memo.get(rows)
    if cached is None:
        h = model.head_dim
        m = pivots[0] if pivots else h
        field = model.field
        kern = field.packing
        windows = tuple(kern.unshift(r, m) for r in rows) + _monomials(kern, range(h - m, h))
        span = Subspace(field, h, windows, tuple(p - m for p in pivots) + tuple(range(h - m, h)))
        inv = series_inv(windows[0], field, h)
        cached = memo[rows] = RingIdeal(model, subspace_unit_image(span, inv))
    return cached


def normalized_translate_intersection(ideal: RingIdeal, head: Subspace, k: int) -> RingIdeal:
    """normalize(ideal meet t^k*J) for the ideal J with this head and
    0 <= k <= g+1, at head width.

    Both ideals contain the conductor C = t^(g+1)*V, and t^k*C lies in C,
    so the meet is t^k*(Y + C), where Y holds the y in J's head with
    t^k*y mod t^(g+1) in the ideal's head. The ideal holds every column
    from kappa = `pivot_tail` on, and its head rows with pivot below kappa
    vanish there, so Y is `packed_meet` of J's head at shift k against
    those rows, cut at kappa; None means Y is the whole head. Normalizing
    divides out t^k with the rest, so the result is normalize(Y + C),
    memoized on Y's rows (`_normalize`). The ideal need only contain the
    conductor, so it may be a unit image of a member of F_0.
    """
    own = ideal.head
    kappa = pivot_tail(own)
    low = own.dim - (ideal.model.head_dim - kappa)
    meet = packed_meet(own.entries[:low], kappa, head, k)
    rows, pivots = (head.packed, head.pivots) if meet is None else meet
    return _normalize(ideal.model, rows, pivots)


# ---------------------------------------------------------------------------
# the ideal lattice F_0


DEFAULT_MAX_IDEALS = 100000


def check_ideal_budget(sgp: NumericalSemigroup, q: int, max_count: int | None):
    """Raise BudgetError when F_0 of a ring with value semigroup sgp over
    F_q has more candidates than max_count: one per subspace of the gap
    coordinates, the space the search for F_0 runs in. Needs no model, so
    a caller may check it before building one.

    The subspaces of dimension floor(genus/2) alone number at least q^E,
    E = floor(genus^2/4), so a cap of at most E*floor(log2 q) bits is
    exceeded. Past 2^20 such bits the exact count, an integer of millions
    of bits, takes minutes to hours, and the bound is reported instead."""
    bits = sgp.genus**2 // 4 * (q.bit_length() - 1)
    if bits > 1 << 20 and max_count is not None and max_count.bit_length() <= bits:
        # max_count + 1 stands for the count: it is a lower bound on it
        message = f"2^{bits} or more candidate ideals exceed budget {{1}}"
        check_budget(max_count + 1, max_count, message)
    total = count_subspaces(sgp.genus, q)
    check_budget(total, max_count, "{} candidate ideals exceed budget {}")


def enumerate_ideals(model: RingModel):
    """All of F_0: subspaces between the ring and V, stable under the ring.

    An ideal's head is the ring's head plus the lift of a subspace U of the
    gap coordinates, and U has one reduced echelon form: a row per pivot,
    with entry 1 there and free entries at the gap columns above it that
    are not pivots. A depth-first search takes the gap columns from g down
    and at each either skips it or adds the row with that pivot, for every
    choice of its free entries. A row w is kept when t^a * w lies in the
    span of the ring's head rows and the rows chosen before it, for every
    generator a <= g. That span holds every element of the final head of
    valuation above w's pivot, as t^a * w does, so the test is exact. And
    the tail of a stable U, its rows with pivot >= c, spans the head of
    R + (I meet t^c V), an ideal too: each ideal is reached once, through
    its own echelon form, and an unstable tail cuts off its whole subtree.
    Rows are tested on packed rows, the ring's and the chosen ones sorted by
    pivot: they are in echelon form, though not reduced against each other
    when the ring's head rows have entries in gap columns.

    The lifted rows and the ring's head rows have distinct pivots with
    entry 1, and each is zero left of its pivot, so merged by pivot they
    are already in echelon form, which `Packing.echelon` makes reduced.
    Returned sorted by (dimension, canonical matrix). Callers check the
    ideal budget first (`check_ideal_budget`).
    """
    field = model.field
    kern = field.packing
    reduce, shift, truncate, support = kern.reduce, kern.shift, kern.truncate, kern.support
    h = model.head_dim
    ring = model.ring_ideal().head
    base = list(zip(ring.pivots, ring.packed))
    gaps = model.sgp.gaps[::-1]
    gens = [a for a in model.sgp.generators if a < h]
    # the rows chosen so far as (pivot, row), and, with the ring's head
    # rows, the entries they reduce by, sorted by pivot
    chosen = []
    pivots, entries = list(ring.pivots), list(ring.entries)
    out = []

    def visit(start):
        merged = sorted(base + chosen)  # pivots are distinct
        out.append(RingIdeal(model, Subspace(field, h, *kern.echelon(w for _, w in merged))))
        taken = {p for p, _ in chosen}
        for i in range(start, len(gaps)):
            c = gaps[i]
            free = [j for j in gaps[:i] if j not in taken]
            moves = [a for a in gens if c + a < h]
            k = bisect_left(pivots, c)
            for values in product(range(field.q), repeat=len(free)):
                row = [0] * h
                row[c] = 1
                for j, x in zip(free, values):
                    row[j] = x
                w = kern.pack(row)
                if any(support(reduce(truncate(shift(w, a), h), entries)) for a in moves):
                    continue
                pivots.insert(k, c)
                entries.insert(k, kern.entry(c, w))
                chosen.append((c, w))
                visit(i + 1)
                chosen.pop()
                del pivots[k], entries[k]

    visit(0)
    out.sort(key=lambda ideal: (ideal.dim, ideal.head.rows))
    return tuple(out)


def module_length(J: RingIdeal, I: RingIdeal) -> int:
    """Length of J/I for I <= J, computed two ways: dimension difference and
    value-set difference. The two must agree; disagreement is an engine bug."""
    if not J.contains(I):
        raise InputError("length requires I <= J")
    by_dim = J.dim - I.dim
    by_values = len(set(J.value_set) - set(I.value_set))
    if by_dim != by_values:
        raise InvariantError(
            f"length mismatch: dim difference {by_dim}, value difference {by_values}"
        )
    return by_dim


# ---------------------------------------------------------------------------
# the distinguished overring T (adjoin one element of valuation g)


def frobenius_overring_ideal(model: RingModel) -> RingIdeal:
    """T = R + y*R for any y of valuation g, as an ideal inside the model.

    T is independent of the chosen y: y = t^g * u with u(0) = 1 agrees with
    t^g mod t^(g+1), and membership in ideals that contain the conductor
    reads elements mod t^(g+1). So y = t^g is tested, and length(T/R) = 1 is
    checked.
    """
    cached = model._cache.get("overring_ideal")
    if cached is not None:
        return cached
    sgp = model.sgp
    g = sgp.frobenius
    if sgp.contains(g):
        raise InputError("Frobenius number already belongs to the value semigroup")
    R = model.ring_ideal()
    t_ideal = model.span_ideal(list(R.head.packed) + [model.monomial(g)])
    if module_length(t_ideal, R) != 1:
        raise InvariantError("length of T/R is not 1")
    # R[y] = R + K*y here: y*R lands in R beyond the constant term because
    # v(y*r) > g for v(r) > 0. As R < T with length 1, R + K*y = T exactly
    # when y lies in T but not in R.
    y = model.monomial(g)
    if not t_ideal.contains_packed((y,)) or R.contains_packed((y,)):
        raise InvariantError("the valuation-g element t^g does not lie in T outside R")
    model._cache["overring_ideal"] = t_ideal
    return t_ideal


def frobenius_overring_model(model: RingModel) -> RingModel:
    """T as a ring model in its own right, with its own (narrower) head: the
    process's one model of T, shared with semigroup_ring_model of S with g
    adjoined."""
    t_ideal = frobenius_overring_ideal(model)
    sgp_t = model.sgp.adjoin_frobenius()
    if sgp_t.frobenius < 1:
        raise InputError("overring has no gaps; nothing to model")
    t_model = subalgebra_model(_cut_head(t_ideal, sgp_t.frobenius + 1))
    if t_model.sgp != sgp_t:
        raise InvariantError("overring value semigroup mismatch")
    return t_model


def _cut_head(ideal: RingIdeal, width: int) -> Subspace:
    """The ideal's head rows cut to the first `width` columns, echelonned:
    its head in a model of head width `width` whose conductor it contains."""
    kern = ideal.model.field.packing
    rows = (kern.truncate(r, width) for r in ideal.head.packed)
    return Subspace(ideal.model.field, width, *kern.echelon(rows))


def convert_to_overring(ideal: RingIdeal, t_model: RingModel) -> RingIdeal:
    """Reinterpret a T-stable ideal of the base model inside the T model.

    T-stable ideals contain every element of valuation above T's Frobenius
    number, so cutting the head rows to T's head width is lossless.
    """
    converted = RingIdeal(t_model, _cut_head(ideal, t_model.head_dim))
    if converted.product(t_model.ring_ideal()) != converted:
        raise InvariantError("converted ideal is not stable over the overring")
    return converted


def is_overring_stable(ideal: RingIdeal) -> bool:
    """Whether I * T = I inside the base model.

    T = R + R*t^g, and I is R-stable and contains the conductor, so
    I * T = I + t^g * I: the test is whether t^g * r lies in I for every
    row r of I. Conductor rows pass, and membership reads t^g * r mod t^(g+1).
    """
    model = ideal.model
    h, g = model.head_dim, model.sgp.frobenius
    kern = model.field.packing
    return ideal.contains_packed(kern.truncate(kern.shift(r, g), h) for r in ideal.head.packed)


# ---------------------------------------------------------------------------
# unit orbits


def unit_orbits(ideals) -> OrbitPartition:
    """Exact orbits of the given ideals under multiplication by units.

    The ideals contain the conductor block, so u * I is determined by the
    head of I and by u mod t^(g+1): the heads are partitioned in K^(g+1), and
    the image maps hold the packed rows of heads with packed witnesses of
    g+1 coefficients (`unit_image_map`).
    """
    ideals = tuple(ideals)
    return partition_subspaces([I.head for I in ideals]).relabel(ideals)
