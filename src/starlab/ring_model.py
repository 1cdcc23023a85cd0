"""Finite models of semigroup rings and their fractional-ideal lattices.

The ring R = K[[S]] (or any residually rational subalgebra with value
semigroup S) is modelled inside the truncated algebra A_N = K[t]/(t^N) with
working truncation N = 2*(g+1), g the Frobenius number of S. Every fractional
ideal between the conductor and the integral closure contains the conductor
block span{t^{g+1}, ..., t^{N-1}}, so it is a subspace of A_N determined by
its head (coefficients 0..g), and the chosen truncation keeps translation by
t^k (k <= g+1) followed by division by a minimal-valuation element exact.

F_0(R) is the set of ideals I with R <= I <= V; it is enumerated by lifting
subspaces of the gap-coordinate quotient and filtering for stability under
the semigroup generators.
"""

from __future__ import annotations

from .errors import BudgetError, InputError, InvariantError
from .fq_linear import (
    OrbitPartition,
    Subspace,
    _back_substitute,
    count_subspaces,
    partition_subspaces,
    rref,
    series_inv,
    series_mul,
    series_shift,
    subspace_colon,
    subspace_unit_image,
)
from .numsgp import NumericalSemigroup


class RingModel:
    """A subalgebra of A_N = K[t]/(t^N) standing in for R (or an overring)."""

    def __init__(self, field, sgp: NumericalSemigroup, trunc: int, basis: Subspace):
        self.field = field
        self.sgp = sgp
        self.trunc = trunc
        self.basis = basis
        self.head_dim = sgp.frobenius + 1
        self._cache = {}
        # one shared copy: every lifted image subspace ends in these rows
        self._conductor_rows = tuple(self.monomial(k) for k in range(self.head_dim, trunc))

    # -- construction ------------------------------------------------------

    @classmethod
    def semigroup_ring(cls, sgp: NumericalSemigroup, field) -> "RingModel":
        if sgp.frobenius < 1:
            raise InputError("value semigroup must have at least one gap")
        g = sgp.frobenius
        n = 2 * (g + 1)
        rows = []
        for s in range(n):
            if sgp.contains(s):
                row = [0] * n
                row[s] = 1
                rows.append(tuple(row))
        basis = Subspace(field, n, tuple(rows))
        return cls(field, sgp, n, basis)

    @classmethod
    def from_basis(cls, field, vectors, trunc: int | None = None) -> "RingModel":
        """Generic subalgebra input: explicit basis vectors of a subalgebra
        of A_N. Validates multiplicative closure, the presence of 1 and of
        the full conductor block, and that the truncation is 2*(g+1) for the
        value semigroup read off the pivots."""
        vectors = [tuple(v) for v in vectors]
        if not vectors:
            raise InputError("empty basis")
        n = trunc if trunc is not None else len(vectors[0])
        sub = Subspace.span(field, n, vectors)
        pivots = set(sub.pivots)
        one = (1,) + (0,) * (n - 1)
        if not sub.contains(one):
            raise InputError("subalgebra must contain 1")
        gap_candidates = [x for x in range(n) if x not in pivots]
        if not gap_candidates:
            raise InputError("subalgebra equals the full algebra; no gaps")
        g = max(gap_candidates)
        if n != 2 * (g + 1):
            raise InputError(
                f"truncation {n} must equal 2*(Frobenius+1) = {2 * (g + 1)}"
            )
        sgp = NumericalSemigroup.from_gaps(gap_candidates)
        for i, u in enumerate(sub.rows):
            for v in sub.rows[i:]:
                if not sub.contains(series_mul(u, v, field)):
                    raise InputError("basis does not span a multiplicatively closed space")
        return cls(field, sgp, n, sub)

    # -- basic objects -----------------------------------------------------

    def one(self):
        return (1,) + (0,) * (self.trunc - 1)

    def monomial(self, k, c=1):
        row = [0] * self.trunc
        row[k] = c
        return tuple(row)

    def ring_ideal(self) -> "RingIdeal":
        return RingIdeal(self, self.basis)

    def full_ideal(self) -> "RingIdeal":
        return RingIdeal(self, Subspace.full(self.field, self.trunc))

    def maximal_ideal_subspace(self) -> Subspace:
        rows = tuple(r for r, p in zip(self.basis.rows, self.basis.pivots) if p > 0)
        return Subspace(self.field, self.trunc, rows)

    def conductor_rows(self):
        return self._conductor_rows

    def lift_head(self, head: Subspace) -> Subspace:
        """The conductor-containing subspace of A_N whose head, coefficients
        0..g, is the given subspace of K^(g+1): its rows padded with zeros,
        then the conductor rows. The result is already canonical."""
        pad = (0,) * (self.trunc - self.head_dim)
        rows = tuple(r + pad for r in head.rows) + self.conductor_rows()
        pivots = head.pivots + tuple(range(self.head_dim, self.trunc))
        return Subspace(self.field, self.trunc, rows, pivots)

    def span_ideal(self, vectors) -> "RingIdeal":
        """Smallest conductor-containing R-submodule spanning the vectors."""
        rows = list(vectors) + list(self.conductor_rows())
        sub = Subspace.span(self.field, self.trunc, rows)
        while True:
            extra = []
            for b in self.basis.rows:
                for r in sub.rows:
                    prod = series_mul(b, r, self.field)
                    if not sub.contains(prod):
                        extra.append(prod)
            if not extra:
                break
            sub = Subspace.span(self.field, self.trunc, sub.rows + tuple(extra))
        return RingIdeal(self, sub)

    def __repr__(self):
        return f"RingModel(S={self.sgp.generators}, q={self.field.q}, N={self.trunc})"


def semigroup_ring_model(sgp, field) -> RingModel:
    return RingModel.semigroup_ring(sgp, field)


def subalgebra_model(field, vectors, trunc=None) -> RingModel:
    return RingModel.from_basis(field, vectors, trunc)


class RingIdeal:
    """A fractional ideal of the model, as a canonical subspace of A_N that
    contains the conductor block and is stable under the ring basis."""

    __slots__ = ("model", "sub")

    def __init__(self, model: RingModel, sub: Subspace):
        self.model = model
        self.sub = sub

    @property
    def rows(self):
        return self.sub.rows

    @property
    def dim(self):
        return self.sub.dim

    @property
    def value_set(self):
        """Valuations realized below the truncation (the pivot columns)."""
        return self.sub.pivots

    def contains(self, other: "RingIdeal") -> bool:
        if other.dim > self.dim:
            return False
        if not set(other.value_set) <= set(self.value_set):
            return False
        return self.contains_subspace(other.sub)

    def contains_subspace(self, sub: Subspace) -> bool:
        """Whether sub lies inside the ideal. Rows of sub with pivot above g
        lie in the conductor block, so only the others are reduced."""
        h = self.model.head_dim
        return all(self.sub.contains(r) for r, p in zip(sub.rows, sub.pivots) if p < h)

    def contains_vector(self, vec) -> bool:
        return self.sub.contains(vec)

    def in_f0(self) -> bool:
        """R <= I <= V, i.e. the subspace contains 1 (stability is built in)."""
        return self.sub.contains(self.model.one())

    # -- arithmetic --------------------------------------------------------

    def intersect(self, other: "RingIdeal") -> "RingIdeal":
        """The meet of two ideals, memoized per model on their rows."""
        self._same_model(other)
        memo = self.model._cache.setdefault("intersect", {})
        key = (self.sub.rows, other.sub.rows)
        cached = memo.get(key)
        if cached is None:
            cached = memo[key] = _shared_ideal(self.model, self.meet(other.sub))
        return cached

    def meet(self, sub: Subspace) -> Subspace:
        """The intersection of this ideal with any subspace of A_N.

        The ideal contains the conductor block, so w lies in it exactly when
        head(w), its coefficients 0..g, lies in the head of the ideal. Rows
        of sub with pivot above g are therefore in the meet as they are; the
        others go through a Zassenhaus reduction of width (g+1)+N against
        the ideal's head rows. The rows it yields have pivots <= g and vanish
        at the pivots of the kept rows, so the union is already canonical.
        """
        model = self.model
        field = model.field
        h = model.head_dim
        n = model.trunc
        block = [r[:h] + r for r, p in zip(sub.rows, sub.pivots) if p < h]
        if not block:
            return sub
        high = sub.rows[len(block):]
        zero = (0,) * n
        block += [r[:h] + zero for r, p in zip(self.sub.rows, self.sub.pivots) if p < h]
        low = tuple(r[h:] for r in rref(block, field) if not any(r[:h]))
        return Subspace(field, n, low + high)

    def product(self, other: "RingIdeal") -> "RingIdeal":
        self._same_model(other)
        field = self.model.field
        rows = [
            series_mul(u, v, field) for u in self.sub.rows for v in other.sub.rows
        ]
        return RingIdeal(self.model, Subspace.span(field, self.model.trunc, rows))

    def colon(self, other: "RingIdeal") -> "RingIdeal":
        """(self : other) computed inside V: all a in A_N with a*other <= self.

        For the ideals this engine manipulates (operands containing the
        conductor, quotients landing between the conductor and V) this is the
        exact fractional colon. Only the head coefficients a_0..a_g of the
        unknown are constrained (the tail multiplies everything into the
        conductor), and the pure conductor rows of the divisor impose
        nothing. As self contains the conductor, t^i*b lies in it exactly
        when the head of t^i*b, the shift of head(b) cut to g+1 terms, lies
        in the head of self. So the colon is that of the heads in K^(g+1),
        lifted back. Results are memoized per model on the operands' rows.
        """
        self._same_model(other)
        model = self.model
        memo = model._cache.setdefault("colon", {})
        key = (self.sub.rows, other.sub.rows)
        cached = memo.get(key)
        if cached is None:
            head = subspace_colon(self.head(), other.head())
            cached = memo[key] = _shared_ideal(model, model.lift_head(head))
        return cached

    def head(self) -> Subspace:
        """The head of the ideal, coefficients 0..g, as a subspace of
        K^(g+1): its rows with pivot <= g cut to g+1 columns, already in
        canonical form."""
        h = self.model.head_dim
        pivots = tuple(p for p in self.sub.pivots if p < h)
        rows = tuple(r[:h] for r in self.sub.rows[: len(pivots)])
        return Subspace(self.model.field, h, rows, pivots)

    def v_closure(self) -> "RingIdeal":
        R = self.model.ring_ideal()
        return R.colon(R.colon(self))

    def is_divisorial(self) -> bool:
        return self.v_closure() == self

    def translate(self, k: int, unit=None) -> Subspace:
        """The subspace of u * t^k * I; exact for 0 <= k <= g+1.

        The result is generally not a RingIdeal (its conductor block starts
        at t^(k+g+1)), so it is returned as a raw subspace.
        """
        g = self.model.sgp.frobenius
        if not 0 <= k <= g + 1:
            raise InputError(f"shift {k} outside [0, {g + 1}]")
        sub = self.sub if unit is None else subspace_unit_image(self.sub, unit)
        # Shifting keeps the rows in reduced echelon form, pivots moved by k;
        # rows pushed past t^N vanish.
        n = self.model.trunc
        pivots = tuple(p + k for p in sub.pivots if p + k < n)
        rows = tuple(series_shift(r, k) for r in sub.rows[: len(pivots)])
        return Subspace(sub.field, n, rows, pivots)

    def unit_image(self, unit) -> "RingIdeal":
        return RingIdeal(self.model, subspace_unit_image(self.sub, unit))

    def normalize(self) -> "RingIdeal":
        return normalize_subspace(self.model, self.sub)

    def __eq__(self, other):
        return (
            isinstance(other, RingIdeal)
            and self.model is other.model
            and self.sub == other.sub
        )

    def __hash__(self):
        return hash(self.sub)

    def __repr__(self):
        vs = [p for p in self.value_set if p <= self.model.sgp.frobenius]
        return f"RingIdeal(values<=g:{vs}, dim={self.dim})"

    def _same_model(self, other):
        if self.model is not other.model:
            raise InputError("ideals belong to different models")


def _shared_ideal(model: RingModel, sub: Subspace) -> RingIdeal:
    """The model's one RingIdeal on sub. The colon and meet memos hold many
    more entries than distinct results, so their entries share ideals."""
    shared = model._cache.setdefault("shared_ideals", {})
    ideal = shared.get(sub.rows)
    if ideal is None:
        ideal = shared[sub.rows] = RingIdeal(model, sub)
    return ideal


def normalize_subspace(model: RingModel, sub: Subspace) -> RingIdeal:
    """Divide by a minimal-valuation element, landing in F_0.

    The divisor is the canonical echelon row with the least pivot, so the
    result is deterministic; any other minimal-valuation divisor gives a
    unit-equivalent ideal. Results are memoized per model on the rows of sub.
    """
    memo = model._cache.setdefault("normalize", {})
    cached = memo.get(sub.rows)
    if cached is None:
        cached = memo[sub.rows] = _normalize(model, sub)
    return cached


def _normalize(model: RingModel, sub: Subspace) -> RingIdeal:
    if not sub.rows:
        raise InputError("cannot normalize the zero ideal")
    h = model.head_dim
    m = sub.pivots[0]
    if m > h:
        raise InvariantError(f"minimal valuation {m} exceeds g+1; precision lost")
    field = model.field
    # The result contains the conductor block, so only the heads of the
    # quotients matter: head(r / alpha) needs r and 1/alpha to h terms past
    # t^m, and rows with pivot >= m+h have zero heads.
    inv = series_inv(sub.rows[0][m : m + h], field)
    heads = [
        series_mul(inv, r[m : m + h], field)
        for r, p in zip(sub.rows, sub.pivots)
        if p < m + h
    ]
    return RingIdeal(model, model.lift_head(Subspace(field, h, rref(heads, field))))


def normalized_translate_intersection(
    ideal: RingIdeal, shifted: Subspace, k: int, base: Subspace
) -> RingIdeal:
    """normalize(ideal meet (t^k * base)) where shifted = t^k * base.

    When the ideal contains the translate, the meet is t^k * base itself,
    and dividing it by its least-pivot row is dividing base by its own: the
    result is normalize(base). Otherwise, when the intersection has minimal
    valuation m <= g+1 the division is exact in A_N directly. When m > g+1
    every element of the intersection lies inside the conductor, the
    intersection equals t^k * (base cut at m-k), and normalizing that cut of
    base stays exact. The ideal need only contain the conductor block, so it
    may be a unit image of a member of F_0.
    """
    model = ideal.model
    if ideal.contains_subspace(shifted):
        return normalize_subspace(model, base)
    g = model.sgp.frobenius
    meet = ideal.meet(shifted)
    if not meet.rows:
        raise InvariantError("ideal intersection collapsed to zero")
    m = meet.pivots[0]
    if m <= g + 1:
        return normalize_subspace(model, meet)
    return normalize_subspace(model, base.cut(m - k))


# ---------------------------------------------------------------------------
# the ideal lattice F_0


DEFAULT_MAX_IDEALS = 100000


def check_ideal_budget(model: RingModel, max_count: int | None):
    """Raise BudgetError when enumerating F_0 would lift more candidate
    subspaces (one per subspace of the gap coordinates) than max_count."""
    total = count_subspaces(model.sgp.genus, model.field.q)
    if max_count is not None and total > max_count:
        raise BudgetError(f"{total} candidate ideals exceed budget {max_count}")


def enumerate_ideals(model: RingModel, max_count: int | None = DEFAULT_MAX_IDEALS):
    """All of F_0: subspaces between the ring and V, stable under the ring.

    Ideals correspond to subspaces of the gap-coordinate quotient; each
    candidate is lifted and kept when stable under every minimal generator.
    The lifted rows and the ring's basis rows have distinct pivots with
    entry 1, and each is zero left of its pivot, so merged by pivot they are
    already in echelon form: back-substitution alone makes the candidate
    canonical. Returned sorted by (dimension, canonical matrix).
    """
    from .fq_linear import enumerate_subspaces

    check_ideal_budget(model, max_count)
    sgp = model.sgp
    field = model.field
    g = sgp.frobenius
    gaps = sgp.gaps
    n = model.trunc
    base = list(zip(model.basis.pivots, model.basis.rows))
    low_gens = [a for a in sgp.generators if a <= g]
    out = []
    for u_sub in enumerate_subspaces(len(gaps), field):
        lifted = []
        for urow in u_sub.rows:
            vec = [0] * n
            for coord, val in zip(gaps, urow):
                vec[coord] = val
            lifted.append(tuple(vec))
        merged = sorted(base + [(gaps[p], w) for p, w in zip(u_sub.pivots, lifted)])
        pivots = tuple(p for p, _ in merged)
        rows = _back_substitute([list(w) for _, w in merged], pivots, field)
        sub = Subspace(field, n, rows, pivots)
        ok = True
        for a in low_gens:
            for w in lifted:
                if not sub.contains(series_shift(w, a)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(RingIdeal(model, sub))
    out.sort(key=lambda ideal: (ideal.dim, ideal.rows))
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

    T is independent of the chosen y; this is verified across every unit
    representative, and length(T/R) = 1 is checked.
    """
    cached = model._cache.get("overring_ideal")
    if cached is not None:
        return cached
    sgp = model.sgp
    g = sgp.frobenius
    if sgp.contains(g):
        raise InputError("Frobenius number already belongs to the value semigroup")
    field = model.field
    R = model.ring_ideal()
    t_ideal = model.span_ideal(list(model.basis.rows) + [model.monomial(g)])
    if module_length(t_ideal, R) != 1:
        raise InvariantError("length of T/R is not 1")
    from .fq_linear import unit_representatives

    # R[y] = R + K*y here: y*R lands in R beyond the constant term because
    # v(y*r) > g for v(r) > 0. As R < T with length 1, R + K*y = T exactly
    # when y lies in T but not in R.
    for u in unit_representatives(field, g + 1):
        y = series_mul(model.monomial(g), u, field)
        if not t_ideal.contains_vector(y) or R.contains_vector(y):
            raise InvariantError("overring depends on the valuation-g element chosen")
    model._cache["overring_ideal"] = t_ideal
    return t_ideal


def frobenius_overring_model(model: RingModel) -> RingModel:
    """T as a ring model in its own right, with its own (smaller) truncation."""
    cached = model._cache.get("overring_model")
    if cached is not None:
        return cached
    t_ideal = frobenius_overring_ideal(model)
    sgp_t = model.sgp.adjoin_frobenius()
    if sgp_t.frobenius < 1:
        raise InputError("overring has no gaps; nothing to model")
    n_t = 2 * (sgp_t.frobenius + 1)
    rows = [r[:n_t] for r in t_ideal.rows if any(r[:n_t])]
    t_model = RingModel.from_basis(model.field, rows, n_t)
    if t_model.sgp != sgp_t:
        raise InvariantError("overring value semigroup mismatch")
    model._cache["overring_model"] = t_model
    return t_model


def convert_to_overring(ideal: RingIdeal, t_model: RingModel) -> RingIdeal:
    """Reinterpret a T-stable ideal of the base model inside the T model.

    T-stable ideals contain every element of valuation above T's Frobenius
    number, so truncating the canonical rows to T's working precision is
    lossless.
    """
    n_t = t_model.trunc
    rows = [r[:n_t] for r in ideal.rows if any(r[:n_t])]
    rows += list(t_model.conductor_rows())
    sub = Subspace.span(t_model.field, n_t, rows)
    converted = RingIdeal(t_model, sub)
    if converted.product(t_model.ring_ideal()) != converted:
        raise InvariantError("converted ideal is not stable over the overring")
    return converted


def is_overring_stable(ideal: RingIdeal) -> bool:
    """Whether I * T = I inside the base model.

    T = R + R*t^g, and I is R-stable and contains the conductor, so
    I * T = I + t^g * I: the test is whether t^g * r lies in I for every
    row r of I.
    """
    return ideal.contains_subspace(ideal.translate(ideal.model.sgp.frobenius))


def canonical_ideals(model: RingModel, ideals=None, verify: bool = True):
    """All I in F_0 other than R that T does not stabilize.

    Each returned ideal is checked to carry the canonical-ideal signature:
    value set S with g/2 adjoined, no element of valuation g, and biduality
    (I:(I:J)) = J across all of F_0.
    """
    from .numsgp import is_pseudo_symmetric

    if not is_pseudo_symmetric(model.sgp):
        raise InputError("canonical-ideal detection requires a pseudo-symmetric value semigroup")
    if ideals is None:
        ideals = enumerate_ideals(model)
    R = model.ring_ideal()
    found = tuple(I for I in ideals if I != R and not is_overring_stable(I))
    if verify:
        g = model.sgp.frobenius
        tau = model.sgp.tau
        expected_low = tuple(
            sorted(set(x for x in model.sgp.small_members()) | {tau})
        )
        for I in found:
            low = tuple(p for p in I.value_set if p <= g)
            if low != expected_low:
                raise InvariantError(f"canonical candidate has value set {low}")
            if g in I.value_set:
                raise InvariantError("canonical candidate contains a valuation-g element")
            for J in ideals:
                if I.colon(I.colon(J)) != J:
                    raise InvariantError("biduality failed for a canonical candidate")
    return found


# ---------------------------------------------------------------------------
# unit orbits


def unit_orbits(ideals) -> OrbitPartition:
    """Exact orbits of the given ideals under multiplication by units.

    The ideals contain the conductor block, so u * I is determined by the
    head of I, its rows with pivot <= g cut to g+1 columns, and by u mod
    t^(g+1). The heads are partitioned in K^(g+1); ordering heads orders the
    full canonical matrices the same way, so orbit ids are those of a
    full-width partition. Each image is lifted back to A_N and each witness
    padded to N coefficients.
    """
    ideals = tuple(ideals)
    if not ideals:
        return OrbitPartition((), (), (), ())
    model = ideals[0].model
    part = partition_subspaces([I.head() for I in ideals])
    pad = (0,) * (model.trunc - model.head_dim)
    image_maps = tuple(
        {model.lift_head(head): w + pad for head, w in images.items()}
        for images in part.image_maps
    )
    return OrbitPartition(ideals, part.orbit_ids, part.members, image_maps)
