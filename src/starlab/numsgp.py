"""Numerical semigroups, their ideals, and semigroup-level star operations.

A numerical semigroup S is a submonoid of N with finite complement. Ideals
are stored in a shifted normal form: every ideal E (a set with E + S within E,
bounded below) is shift + E0 where E0 has minimum 0, and a minimum-0 ideal
automatically contains every integer above the Frobenius number. That makes
equality structural and keeps all colon computations inside a finite table.
"""

from __future__ import annotations

import math

from .errors import InputError, InvariantError, check_budget


def _gcd_all(values):
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return g


class NumericalSemigroup:
    """Numerical semigroup with membership table, gaps and basic invariants."""

    __slots__ = ("generators", "frobenius", "gaps", "multiplicity", "_members")

    def __init__(self, generators, frobenius, gaps, multiplicity, members):
        self.generators = generators
        self.frobenius = frobenius
        self.gaps = gaps
        self.multiplicity = multiplicity
        self._members = members  # bool table on [0, 2*frobenius + 2]

    @classmethod
    def from_generators(cls, gens) -> "NumericalSemigroup":
        gens = sorted(set(int(g) for g in gens))
        if not gens or gens[0] < 1:
            raise InputError("generators must be positive integers")
        if _gcd_all(gens) != 1:
            raise InputError(f"generators {gens} have gcd {_gcd_all(gens)} != 1")
        if gens[0] == 1:
            # S = N, Frobenius number -1
            members = [True] * 4
            return cls((1,), -1, (), 1, members)
        bound = (gens[0] - 1) * (gens[-1] - 1) + 1
        sieve = [False] * (bound + 1)
        sieve[0] = True
        for x in range(bound + 1):
            if sieve[x]:
                for g in gens:
                    if x + g <= bound:
                        sieve[x + g] = True
        frobenius = max(x for x in range(bound + 1) if not sieve[x])
        return cls._from_sieve(sieve, frobenius)

    @classmethod
    def _from_sieve(cls, sieve, frobenius):
        limit = 2 * frobenius + 2
        members = [(x > frobenius) or (x < len(sieve) and sieve[x]) for x in range(limit + 1)]
        gaps = tuple(x for x in range(1, frobenius + 1) if not members[x])
        m = next(x for x in range(1, limit + 1) if members[x])
        # A minimal generator x != m has x - m outside S, so x <= F + m: it
        # lies in the Apery set of m. When such an x is a + b, a and b
        # nonzero members, both lie in that set too, as a - m in S would
        # put x - m in S.
        apery = [x for x in range(m + 1, frobenius + m + 1) if members[x] and not members[x - m]]
        inside = set(apery)
        minimal = [m] + [x for x in apery if not any(x - a in inside for a in apery if 2 * a <= x)]
        return cls(tuple(minimal), frobenius, gaps, m, members)

    @classmethod
    def from_gaps(cls, gapset) -> "NumericalSemigroup":
        gapset = set(gapset)
        if not gapset:
            return cls.from_generators([1])
        frobenius = max(gapset)
        if 0 in gapset or min(gapset) < 1:
            raise InputError("gaps must be positive integers")
        sieve = [x not in gapset for x in range(frobenius + 1)]
        # closure check
        for a in range(1, frobenius + 1):
            if sieve[a]:
                for b in range(a, frobenius + 1 - a):
                    if sieve[b] and not sieve[a + b]:
                        raise InputError(f"gap set {sorted(gapset)} is not co-semigroup")
        return cls._from_sieve(sieve, frobenius)

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return self._members[x]

    @property
    def genus(self):
        return len(self.gaps)

    @property
    def tau(self):
        """Half the Frobenius number (defined when it is even)."""
        if self.frobenius < 0 or self.frobenius % 2:
            raise InputError(f"Frobenius number {self.frobenius} is odd; tau undefined")
        return self.frobenius // 2

    def small_members(self):
        """Members in [0, frobenius]."""
        return tuple(x for x in range(self.frobenius + 1) if self.contains(x))

    def adjoin_frobenius(self) -> "NumericalSemigroup":
        """The semigroup S with its Frobenius number adjoined."""
        if self.frobenius < 1:
            raise InputError("semigroup has no positive Frobenius number to adjoin")
        return NumericalSemigroup.from_gaps(set(self.gaps) - {self.frobenius})

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gaps == other.gaps

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"


def semigroup(gens) -> NumericalSemigroup:
    return NumericalSemigroup.from_generators(gens)


def is_pseudo_symmetric(S: NumericalSemigroup) -> bool:
    """g even and every gap a != g/2 has g - a in S."""
    g = S.frobenius
    if g < 0 or g % 2:
        return False
    half = g // 2
    return all(a == half or S.contains(g - a) for a in S.gaps)


def is_symmetric(S: NumericalSemigroup) -> bool:
    g = S.frobenius
    if g < 0:
        return True
    return all(S.contains(g - a) for a in S.gaps)


class SemigroupIdeal:
    """Relative ideal of S in shifted normal form.

    Represents shift + (small | (g, infinity)) where small is a subset of
    [0, g] with minimum 0 that is stable under adding S.
    """

    __slots__ = ("sgp", "shift", "small")

    def __init__(self, sgp: NumericalSemigroup, shift: int, small):
        self.sgp = sgp
        self.shift = shift
        self.small = frozenset(small)

    @classmethod
    def from_members(cls, sgp, members):
        """Build from an explicit member iterable; everything above
        max(members considered) + g is implied. Members must already be an
        ideal: the constructor validates stability under adding S."""
        members = sorted(set(members))
        if not members:
            raise InputError("an ideal must be nonempty")
        shift = members[0]
        g = sgp.frobenius
        small = frozenset(x - shift for x in members if x - shift <= g)
        ideal = cls(sgp, shift, small)
        ideal._validate()
        return ideal

    def _validate(self):
        g = self.sgp.frobenius
        if 0 not in self.small:
            raise InvariantError("normal form must contain 0")
        for x in self.small:
            for s in self.sgp.generators:
                if x + s <= g and not (x + s in self.small):
                    raise InvariantError(f"not an ideal: {x}+{s} missing")

    @classmethod
    def of_semigroup(cls, sgp):
        if sgp.frobenius < 1:
            raise InputError("ideal arithmetic needs a semigroup with gaps")
        return cls(sgp, 0, frozenset(sgp.small_members()))

    def contains(self, x: int) -> bool:
        y = x - self.shift
        if y < 0:
            return False
        if y > self.sgp.frobenius:
            return True
        return y in self.small

    def members_upto(self, bound: int):
        return tuple(x for x in range(self.shift, bound + 1) if self.contains(x))

    def normalize(self) -> "SemigroupIdeal":
        m = min(self.small)
        if self.shift == 0 and m == 0:
            return self
        if m == 0:
            return SemigroupIdeal(self.sgp, 0, self.small)
        # re-anchor: members shift down by m, high part fills in
        g = self.sgp.frobenius
        members = [x - m for x in self.small] + list(range(g + 1 - m, g + 1))
        return SemigroupIdeal(self.sgp, 0, frozenset(x for x in members if 0 <= x <= g))

    def translate(self, k: int) -> "SemigroupIdeal":
        return SemigroupIdeal(self.sgp, self.shift + k, self.small)

    def intersect(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        if self.sgp != other.sgp:
            raise InputError("ideals over different semigroups")
        g = self.sgp.frobenius
        top = max(self.shift, other.shift) + g
        members = [
            x
            for x in range(max(self.shift, other.shift), top + 1)
            if self.contains(x) and other.contains(x)
        ]
        # above top both ideals contain everything
        shift = members[0] if members else top + 1
        small = set(x - shift for x in members if x - shift <= g)
        small.update(range(max(top + 1 - shift, 0), g + 1))
        return SemigroupIdeal(self.sgp, shift, frozenset(small))

    def colon(self, other: "SemigroupIdeal") -> "SemigroupIdeal":
        """(self : other) = {z : z + other within self}."""
        if self.sgp != other.sgp:
            raise InputError("ideals over different semigroups")
        g = self.sgp.frobenius
        base = self.shift - other.shift
        # relative to normalized operands, candidates live in [0, g+1]
        members = []
        o_small = sorted(other.small)
        for z in range(0, g + 2):
            ok = True
            for f in o_small:
                target = z + f
                if target <= g and target not in self.small:
                    ok = False
                    break
            if ok:
                members.append(z)
        m0 = members[0]
        small = set(z - m0 for z in members if z - m0 <= g)
        # everything beyond the scan window [0, g+1] satisfies the colon
        small.update(range(max(g + 2 - m0, 0), g + 1))
        return SemigroupIdeal(self.sgp, base + m0, frozenset(small))

    def v_closure(self) -> "SemigroupIdeal":
        S = SemigroupIdeal.of_semigroup(self.sgp)
        return S.colon(S.colon(self))

    def is_divisorial(self) -> bool:
        return self.v_closure() == self

    def __eq__(self, other):
        return (
            isinstance(other, SemigroupIdeal)
            and self.sgp == other.sgp
            and self.shift == other.shift
            and self.small == other.small
        )

    def __hash__(self):
        return hash((self.sgp, self.shift, self.small))

    def __repr__(self):
        g = self.sgp.frobenius
        return f"SemigroupIdeal({sorted(self.shift + x for x in self.small)}+>{self.shift + g})"


def canonical_ideal(S: NumericalSemigroup) -> SemigroupIdeal:
    """S together with every x in N whose reflection g - x misses S."""
    g = S.frobenius
    members = [x for x in range(g + 1) if S.contains(x) or not S.contains(g - x)]
    return SemigroupIdeal(S, 0, frozenset(members))


def maximal_ideal(S: NumericalSemigroup) -> SemigroupIdeal:
    members = [x for x in range(1, 2 * S.frobenius + 3) if S.contains(x)]
    return SemigroupIdeal.from_members(S, members)


def pseudo_frobenius_pair(S: NumericalSemigroup):
    """The pair (g/2, g - multiplicity) for a pseudo-symmetric S with at
    least 4 gaps; both land in (S' - M_{S'}) outside S' = S with g adjoined,
    and their doubled sums fall back into S'. Each of those facts is checked,
    and a violation raises InvariantError since it would contradict the
    construction this pair supports."""
    if not is_pseudo_symmetric(S):
        raise InputError("semigroup is not pseudo-symmetric")
    if S.genus < 4:
        raise InputError(
            f"need at least 4 gaps, found {S.genus} (the two small pseudo-symmetric"
            " semigroups are excluded)"
        )
    a = S.tau
    b = S.frobenius - S.multiplicity
    S_prime = S.adjoin_frobenius()
    sp_ideal = SemigroupIdeal.of_semigroup(S_prime)
    m_prime = maximal_ideal(S_prime)
    dual = sp_ideal.colon(m_prime)
    for w in (a, b):
        if not dual.contains(w) or S_prime.contains(w):
            raise InvariantError(f"witness {w} not in (S'-M') \\ S'")
    if a == b:
        raise InvariantError("witnesses coincide")
    for value in (2 * a, 2 * b, a + b):
        if not S_prime.contains(value):
            raise InvariantError(f"{value} escaped S'")
    return (a, b)


def enumerate_ideals(S: NumericalSemigroup, max_count: int | None = 4096):
    """All normalized ideals E with S within E within N, in a deterministic
    order (subsets of the gap set, binary counting over sorted gaps)."""
    gaps = S.gaps
    total = 2 ** len(gaps)
    check_budget(total, max_count, "{} candidate ideals exceed budget {}")
    small_s = frozenset(S.small_members())
    g = S.frobenius
    out = []
    for mask in range(total):
        extra = [gaps[i] for i in range(len(gaps)) if mask >> i & 1]
        members = small_s | set(extra)
        ok = True
        for x in extra:
            for s in S.generators:
                if x + s <= g and x + s not in members:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(SemigroupIdeal(S, 0, frozenset(members)))
    out.sort(key=lambda e: tuple(sorted(e.small)))
    return out


def _pair_results(ideals, index, g):
    """pair (i, j) -> frozenset of ideal indices reachable as
    normalize(E_i meet (E_j + k)) for shifts k in [0, g+1]."""
    table = {}
    for i, ei in enumerate(ideals):
        for j, ej in enumerate(ideals):
            hits = set()
            for k in range(0, g + 2):
                res = ei.intersect(ej.translate(k)).normalize()
                idx = index.get(res)
                if idx is None:
                    raise InvariantError("normalized intersection escaped the ideal list")
                hits.add(idx)
            table[(i, j)] = frozenset(hits)
    return table


def enumerate_stars(S: NumericalSemigroup, max_count: int | None = 4096):
    """All star operations on S, as translate-intersection-closed families of
    normalized ideals containing the divisorial ones.

    Returns (count, families, ideals) where each family is a sorted tuple of
    indices into the ideals list.
    """
    ideals = enumerate_ideals(S, max_count)
    index = {e: i for i, e in enumerate(ideals)}
    g = max(S.frobenius, 0)
    table = _pair_results(ideals, index, g)
    base = frozenset(i for i, e in enumerate(ideals) if e.is_divisorial())

    # the pairs of x and y in either order, as tuples, so that a member
    # joining fires each of its pairs once
    rules = [
        [tuple(table[(x, y)] | table[(y, x)]) for y in range(len(ideals))]
        for x in range(len(ideals))
    ]

    def close(fam, new):
        """The closed family fam with the indices in new joined: each index
        joins once and fires its pairs with every member so far, itself
        included, so no pair inside fam is scanned again."""
        fam = set(fam)
        todo = list(new)
        while todo:
            x = todo.pop()
            if x in fam:
                continue
            fam.add(x)
            row = rules[x]
            for y in fam:
                todo.extend(row[y])
        return frozenset(fam)

    base = close((), base)
    seen = {base}
    frontier = [base]
    while frontier:
        nxt = []
        for fam in frontier:
            for i in range(len(ideals)):
                if i not in fam:
                    bigger = close(fam, (i,))
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    families = sorted(tuple(sorted(f)) for f in seen)
    families.sort(key=lambda f: (len(f), f))
    return len(families), families, ideals
