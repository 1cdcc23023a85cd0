"""Star operations on a ring model, represented by their closed families.

A star operation on the finite lattice F_0 is determined by the set of its
closed ideals, and the sets that arise this way are exactly the families that
contain every divisorial ideal, are saturated under unit equivalence, and are
stable under normalized translate-intersections: for closed I, J, every
normalize(I meet u*t^k*J) is closed again. Enumerating star operations
therefore means enumerating the elements of a closure system over orbit ids,
which is done by Ganter's NextClosure on orbit-id bitmasks (never by
iterating all subsets).

The closure data is tabulated once per model: for each ordered pair of orbit
representatives (I, J), the orbit ids of normalize(I meet t^k*u*J) over the
units u (from the precomputed orbit image maps) and the shifts k = 0..g+1.
With h = g+1 and kappa(I) the least k with t^k*V inside I, three lemmas
leave few of those meets to evaluate:

(A) For k >= kappa(I), t^k*u*J lies in t^k*V, inside I, so the meet is
    t^k*u*J and normalizes into J's orbit.
(B) The orbit depends on u only mod t^m, m = min(kappa(I) - k,
    kappa(J) + k): for e = 1 mod t^(kappa(I)-k), (e-1)*t^k*u*J lies in
    t^kappa(I)*V, inside I, so I meet t^k*e*u*J is e*(I meet t^k*u*J);
    for e = 1 mod t^(kappa(J)+k), (e^-1 - 1)*z lies in t^k*u*J for every
    z in I, so the meet is unchanged. As kappa(I) <= h, m <= h - k.
(C) At k = 0, I meet u*J = u*(J meet u^-1*I), so the k = 0 orbits of
    (I, J) and (J, I) are one set, met once per unordered pair.

So each shift meets one unit image per class mod t^m, taken on the side
with fewer classes: translates of images of J with I, or images u*I with
t^k*J, which give the same orbits as the unit group is abelian.
"""

from __future__ import annotations

from functools import cached_property

from .errors import InputError, InvariantError, check_budget
from .fq_linear import OrbitPartition, Subspace, pivot_tail, unit_representatives
from .ring_model import (
    DEFAULT_MAX_IDEALS,
    RingIdeal,
    RingModel,
    check_ideal_budget,
    enumerate_ideals,
    frobenius_overring_ideal,
    frobenius_overring_model,
    convert_to_overring,
    is_overring_stable,
    normalized_translate_intersection,
    unit_orbits,
)

DEFAULT_MAX_ORBITS = 512


class RingWorkspace:
    """Shared per-model state: the ideal lattice, with `index` mapping each
    ideal to its position, and, on first use, its orbit partition, the
    divisorial base family, the containment order, the closure table, the
    family classes and the unit action. Callers check the ideal budget
    first (`workspace`)."""

    def __init__(self, model: RingModel):
        self.model = model
        self.ideals = enumerate_ideals(model)
        self.index = {I: i for i, I in enumerate(self.ideals)}
        self._stars = None

    @cached_property
    def partition(self) -> OrbitPartition:
        """The unit orbits of F_0, on first use: the certificate reads only
        the orbits of its representatives."""
        return unit_orbits(self.ideals)

    @cached_property
    def divisorial_ids(self) -> int:
        """Bitmask of the orbits of divisorial ideals, on first use: the
        certificate and the lemma suite never read it."""
        return sum(
            1 << oid for oid, rep in enumerate(self.partition.reps) if rep.is_divisorial()
        )

    def ideal_id(self, ideal: RingIdeal) -> int:
        idx = self.index.get(ideal)
        if idx is None:
            raise InvariantError("ideal escaped the enumerated lattice")
        return idx

    def orbit_id(self, ideal: RingIdeal) -> int:
        return self.partition.orbit_ids[self.ideal_id(ideal)]

    @cached_property
    def above(self):
        """The containment order of F_0: above[a] is the bitmask of the
        ideal indices b with ideals[b] containing ideals[a]."""
        ideals = self.ideals
        return tuple(sum(1 << b for b, J in enumerate(ideals) if J.contains(I)) for I in ideals)

    # -- closure table ------------------------------------------------------

    @cached_property
    def table(self) -> "ClosureTable":
        return ClosureTable.build(self)

    def family(self, ideals) -> int:
        """Bitmask of the orbit ids of the given ideals."""
        mask = 0
        for ideal in ideals:
            mask |= 1 << self.orbit_id(ideal)
        return mask

    def close(self, mask: int) -> int:
        """Smallest valid closed family containing the orbit-id bitmask. Each
        orbit x joins once and ORs in the rules of x against every member so
        far, x included, so each pair of members fires once (LinClosure)."""
        rules = self.table.rules
        todo = mask | self.divisorial_ids
        fam = 0
        members = []
        while todo:
            x = todo.bit_length() - 1
            fam |= 1 << x
            members.append(x)
            row = rules[x]
            for y in members:
                todo |= row[y]
            todo &= ~fam
        return fam

    @cached_property
    def family_classes(self):
        """(canonical-class orbit ids, T's orbit id, orbit ids of the
        non-divisorial T-stable ideals one dimension above T), the two sets
        as bitmasks: the orbit classes that classify_family compares
        families against."""
        model = self.model
        reps = self.partition.reps
        R = model.ring_ideal()
        t_ideal = frobenius_overring_ideal(model)
        stable = [is_overring_stable(rep) for rep in reps]
        canonical_ids = sum(
            1 << oid for oid, rep in enumerate(reps) if rep != R and not stable[oid]
        )
        dim2 = ~self.divisorial_ids & sum(
            1 << oid for oid, rep in enumerate(reps) if rep.dim == t_ideal.dim + 1 and stable[oid]
        )
        return canonical_ids, self.orbit_id(t_ideal), dim2

    # -- unit action --------------------------------------------------------

    @cached_property
    def unit_action(self):
        """unit_action[u][a] is the ideal index of u*I for the u-th unit
        representative and I = ideals[a] when u*I stays in F_0, else None;
        used by the exhaustive equivariance check."""
        model = self.model
        index = self.index
        # u * I depends on u mod t^(g+1) only
        units = unit_representatives(model.field, model.head_dim)
        return tuple(tuple(index.get(I.unit_image(u)) for I in self.ideals) for u in units)


def workspace(model: RingModel, max_ideals=DEFAULT_MAX_IDEALS) -> RingWorkspace:
    """The model's shared workspace, built on first use. The ideal budget is
    checked on every call, so a cached workspace never bypasses it."""
    check_ideal_budget(model.sgp, model.field.q, max_ideals)
    ws = model._cache.get("workspace")
    if ws is None:
        ws = RingWorkspace(model)
        model._cache["workspace"] = ws
    return ws


class ClosureTable:
    """pair (orbit i, orbit j) -> bitmask of the orbit ids hit by normalized
    translate-intersections normalize(rep_i meet u*t^k*rep_j); rules[i][j]
    is the union of the (i, j) and (j, i) masks."""

    __slots__ = ("pair_classes", "rules", "entry_count")

    def __init__(self, pair, entry_count):
        self.pair_classes = pair
        n = max(pair)[0] + 1  # the keys are all pairs of 0..n-1
        self.rules = [[pair[(i, j)] | pair[(j, i)] for j in range(n)] for i in range(n)]
        self.entry_count = entry_count

    @classmethod
    def build(cls, ws: RingWorkspace) -> "ClosureTable":
        """Entry (i, j) is the set of orbits of normalize(rep_i meet
        t^k*u*rep_j) over the units u and the shifts k = 0..g+1, h = g+1
        the head width. Three lemmas leave few of those meets to evaluate.

        (A) Let kappa(I) be the least k with every column k..g a pivot of
        I's head, so that t^kappa(I)*V lies in I. For k >= kappa(rep_i)
        the translate lies in t^k*V, inside rep_i, so it normalizes into
        orbit j. The entry therefore starts as orbit j (k = g+1 always
        qualifies), and only the shifts k < kappa(rep_i) are evaluated.

        (B) The orbit depends on u only mod t^m, m = min(kappa(rep_i) - k,
        kappa(rep_j) + k). For e = 1 mod t^(kappa(rep_i)-k),
        (e-1)*t^k*u*rep_j lies in t^kappa(rep_i)*V, inside rep_i, so
        rep_i meet t^k*e*u*rep_j = e*(rep_i meet t^k*u*rep_j). For
        e = 1 mod t^(kappa(rep_j)+k) and z in rep_i, inside V,
        (e^-1 - 1)*z lies in t^(kappa(rep_j)+k)*V, inside t^k*u*rep_j, so
        the meet does not change at all. Per shift, each orbit keeps one
        unit image per class of witnesses mod t^m; as kappa(rep_i) <= h,
        m <= h - k, the conductor's bound.

        U is abelian, so rep_i meet t^k*u*rep_j = u*(u^-1*rep_i meet
        t^k*rep_j): the images u*rep_i met with t^k*rep_j give the same
        orbits, and (A) and (B) hold for them too, as unit images keep the
        pivots and so kappa. Each (i, j, k) loops over the side with fewer
        classes.

        (C) At k = 0, rep_i meet u*rep_j = u*(rep_j meet u^-1*rep_i), so
        when both kappas are positive the k = 0 orbits of (i, j) and (j, i)
        are the same set: it is met once per unordered pair and joins both
        entries, beside their own orbit j and orbit i.
        """
        model = ws.model
        h = model.head_dim
        kern = model.field.packing
        part = ws.partition
        kappa = [pivot_tail(rep.head) for rep in part.reps]
        # per orbit and modulus m = 0..h, one unit image per class of
        # witnesses mod t^m; the representative, whose witness is 1, comes
        # first in its image map and stands for its class. The image maps
        # hold packed heads, which keep the representative's pivots; mod
        # t^h each image is a class of its own, so every image becomes an
        # ideal
        classes = []
        for rep, images in zip(part.reps, part.image_maps):
            ideals, pivots = {}, rep.head.pivots
            for rows in images:
                ideals[rows] = RingIdeal(model, Subspace(model.field, h, rows, pivots))
            by_modulus = []
            for m in range(h + 1):
                picked = {}
                for rows, w in images.items():
                    picked.setdefault(kern.truncate(w, m), ideals[rows])
                by_modulus.append(tuple(picked.values()))
            classes.append(by_modulus)

        pair, shift_zero = {}, {}
        entries = 0
        for j, rep_j in enumerate(part.reps):
            # per unit image, its N-wide view, and per image and shift,
            # t^k * image; held for one column at a time
            views, column = {}, {}

            def translate(image, k):
                args = column.get((image, k))
                if args is None:
                    if image not in views:
                        views[image] = image.sub
                    args = column[image, k] = (image.translate(k), views[image])
                return args

            def orbits(i, k):
                nonlocal entries
                m = min(kappa[i] - k, kappa[j] + k)
                mine, theirs = classes[i][m], classes[j][m]
                if len(mine) < len(theirs):
                    calls = [(image, translate(rep_j, k)) for image in mine]
                else:
                    calls = [(part.reps[i], translate(image, k)) for image in theirs]
                hits = 0
                for ideal, (shifted, base) in calls:
                    found = normalized_translate_intersection(ideal, shifted, k, base)
                    hits |= 1 << ws.orbit_id(found)
                entries += len(calls)
                return hits

            for i in range(len(part.reps)):
                mask = 1 << j
                for k in range(kappa[i]):
                    if k or not kappa[j]:
                        mask |= orbits(i, k)
                        continue
                    # (C): met for the first of (i, j) and (j, i) to come
                    hits = shift_zero.pop((j, i), None)
                    if hits is None:
                        hits = shift_zero[i, j] = orbits(i, 0)
                    mask |= hits
                pair[(i, j)] = mask
        return cls(pair, entries)


class StarOperation:
    """A star operation on the model, canonically the bitmask of the orbit
    ids of its closed ideals. Equality is family equality over the same
    model."""

    __slots__ = ("ws", "closed", "_mask")

    def __init__(self, ws: RingWorkspace, closed: int):
        self.ws = ws
        self.closed = closed
        self._mask = None

    @property
    def mask(self) -> int:
        """Bitmask of the indices of the closed ideals of F_0."""
        if self._mask is None:
            oids = self.ws.partition.orbit_ids
            self._mask = sum(1 << b for b, oid in enumerate(oids) if self.closed >> oid & 1)
        return self._mask

    def key(self):
        return tuple(oid for oid in range(self.closed.bit_length()) if self.closed >> oid & 1)

    def is_closed(self, ideal: RingIdeal) -> bool:
        return bool(self.closed >> self.ws.orbit_id(ideal) & 1)

    def closed_ideals(self):
        mask = self.mask
        return [ideal for b, ideal in enumerate(self.ws.ideals) if mask >> b & 1]

    def apply(self, ideal: RingIdeal) -> RingIdeal:
        """Closure map: the least closed member of F_0 containing the ideal.
        Closed ideals are intersection-stable and F_0 is sorted by dimension,
        so it is the lowest closed index above the ideal, below every other."""
        above = self.ws.above
        hits = above[self.ws.ideal_id(ideal)] & self.mask
        if not hits:
            raise InvariantError("no closed ideal contains the argument")
        low = (hits & -hits).bit_length() - 1
        if hits & ~above[low]:
            raise InvariantError("closure map left the closed family")
        return self.ws.ideals[low]

    def __eq__(self, other):
        return (
            isinstance(other, StarOperation)
            and self.ws is other.ws
            and self.closed == other.closed
        )

    def __hash__(self):
        return hash((id(self.ws), self.closed))

    def __repr__(self):
        return f"StarOperation(closed_orbits={list(self.key())})"


def divisorial_star(model: RingModel) -> StarOperation:
    """v: exactly the divisorial ideals are closed."""
    ws = workspace(model)
    return StarOperation(ws, ws.divisorial_ids)


def closed_families(
    model: RingModel,
    max_orbits: int | None = DEFAULT_MAX_ORBITS,
    max_ideals: int | None = DEFAULT_MAX_IDEALS,
):
    """The model's workspace, once both caps hold, and an iterator over its
    closed families as orbit-id bitmasks, by Ganter's NextClosure.

    The closed families are walked in lectic order: the next one after A is
    close(A below i, plus i) for the largest orbit i outside A whose closure
    adds no orbit below i.
    """
    ws = workspace(model, max_ideals)
    n = ws.partition.orbit_count
    check_budget(n, max_orbits, "{} orbits exceed the cap {}")

    def walk():
        fam = ws.close(0)
        if fam != ws.divisorial_ids:
            raise InvariantError("closure of the empty family is not the divisorial family")
        while True:
            yield fam
            for i in reversed(range(n)):
                below = (1 << i) - 1
                if not fam >> i & 1:
                    nxt = ws.close(fam & below | 1 << i)
                    if nxt & below == fam & below:
                        fam = nxt
                        break
            else:
                return

    return ws, walk()


def enumerate_stars(
    model: RingModel,
    max_orbits: int | None = DEFAULT_MAX_ORBITS,
    max_ideals: int | None = DEFAULT_MAX_IDEALS,
):
    """Every star operation on the model, one per closed family, sorted by
    (size, ids) and kept in the workspace."""
    ws, families = closed_families(model, max_orbits, max_ideals)
    if ws._stars is None:
        stars = [StarOperation(ws, fam) for fam in families]
        stars.sort(key=lambda star: (star.closed.bit_count(), star.key()))
        ws._stars = tuple(stars)
    return ws._stars


def restrict_star(star: StarOperation) -> StarOperation:
    """Restriction of a star operation to the distinguished overring T.

    Defined away from the identity and the divisorial closure (those two are
    exactly the operations that may fail to close T). The closed family of
    the restriction consists of the closed ideals that are T-stable,
    re-normalized over T's unit orbits.
    """
    ws = star.ws
    if star.closed in ((1 << ws.partition.orbit_count) - 1, ws.divisorial_ids):
        raise InputError("restriction is defined away from d and v")
    t_model = frobenius_overring_model(ws.model)
    t_ws = workspace(t_model)
    family = t_ws.family(
        convert_to_overring(ideal, t_model)
        for ideal in star.closed_ideals()
        if is_overring_stable(ideal)
    )
    if t_ws.close(family) != family:
        raise InvariantError("restricted family is not a valid star operation on T")
    return StarOperation(t_ws, family)


# ---------------------------------------------------------------------------
# verification


def verify_star_axioms(star: StarOperation, full_unit_sweep: bool = False):
    """Exhaustively checks, on F_0: extensivity, monotonicity, idempotence,
    fixedness of R, the closed-family consistency, domination by the
    divisorial closure, and unit-translate equivariance (via orbit witnesses,
    or across every unit representative when full_unit_sweep is set).
    Raises InvariantError on the first violation."""
    ws = star.ws
    model = ws.model
    above = ws.above
    R = model.ring_ideal()
    if star.apply(R) != R:
        raise InvariantError("star does not fix the ring")
    images = [ws.ideal_id(star.apply(J)) for J in ws.ideals]
    for a, (J, c) in enumerate(zip(ws.ideals, images)):
        if not above[a] >> c & 1:
            raise InvariantError("star is not extensive")
        if images[c] != c:
            raise InvariantError("star is not idempotent")
        if star.is_closed(J) != (c == a):
            raise InvariantError("closed family disagrees with the closure map")
        if not above[c] >> ws.ideal_id(J.v_closure()) & 1:
            raise InvariantError("star is not dominated by the divisorial closure")
    for a, c in enumerate(images):
        for b, d in enumerate(images):
            if above[a] >> b & 1 and not above[c] >> d & 1:
                raise InvariantError("star is not monotone")
    part = ws.partition
    if full_unit_sweep:
        for row in ws.unit_action:
            for j in range(len(ws.ideals)):
                tj = row[j]
                if tj is None:
                    continue
                lhs = images[tj]
                rhs = row[images[j]]
                if rhs is None or lhs != rhs:
                    raise InvariantError("star is not unit-translate equivariant")
    else:
        for oid in range(part.orbit_count):
            rep = part.reps[oid]
            rep_image = star.apply(rep)
            for member_idx in part.members[oid]:
                member = part.items[member_idx]
                w = part.witness(oid, member.head)
                if star.apply(member) != rep_image.unit_image(w):
                    raise InvariantError("star is not equivariant on orbit witnesses")


# ---------------------------------------------------------------------------
# classification of closed families for the n = 4 shape


def classify_family(ws: RingWorkspace, family: int) -> str:
    """Human-readable tag for a closed family: the identity, the divisorial
    closure, everything-but-the-canonical-class, or a union of unit classes
    of 1-dim-over-T ideals together with T."""
    all_ids = (1 << ws.partition.orbit_count) - 1
    if family == all_ids:
        return "identity"
    if family == ws.divisorial_ids:
        return "divisorial"
    canonical_ids, t_oid, dim2 = ws.family_classes
    if family == all_ids & ~canonical_ids:
        return "all_but_canonical_class"
    extra = family & ~ws.divisorial_ids
    if extra >> t_oid & 1 and not extra & ~dim2 & ~(1 << t_oid):
        return "unit_class_union_with_overring"
    return "other"
