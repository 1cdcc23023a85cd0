"""Reference numerical semigroups and semigroup ideals on bool tables and
frozensets, written straight from the definitions. numsgp keeps its sets of
integers as bitmasks; the tests compare it with these member by member."""


class RefSemigroup:
    """S from its membership table on [0, g]; everything above g is in S."""

    def __init__(self, table):
        self.table = table
        self.frobenius = len(table) - 1

    @classmethod
    def from_generators(cls, gens):
        gens = sorted(gens)
        if gens[0] == 1:
            return cls([])
        bound = (gens[0] - 1) * (gens[-1] - 1) + 1
        sieve = [False] * (bound + 1)
        sieve[0] = True
        for x in range(bound + 1):
            if sieve[x]:
                for a in gens:
                    if x + a <= bound:
                        sieve[x + a] = True
        frobenius = max(x for x in range(bound + 1) if not sieve[x])
        return cls(sieve[: frobenius + 1])

    @classmethod
    def from_gaps(cls, gapset):
        """The semigroup with these gaps, or None if they are no gap set."""
        frobenius = max(gapset, default=-1)
        table = [x not in gapset for x in range(frobenius + 1)]
        for a in range(1, frobenius + 1):
            for b in range(a, frobenius + 1 - a):
                if table[a] and table[b] and not table[a + b]:
                    return None
        return cls(table)

    def contains(self, x):
        return x >= 0 and (x > self.frobenius or self.table[x])

    @property
    def gaps(self):
        return tuple(x for x in range(self.frobenius + 1) if not self.table[x])

    @property
    def multiplicity(self):
        return next(x for x in range(1, self.frobenius + 3) if self.contains(x))

    @property
    def generators(self):
        """The nonzero members that are no sum of two nonzero members; each
        is at most g + m."""
        members = [x for x in range(1, self.frobenius + self.multiplicity + 1) if self.contains(x)]
        return tuple(
            x for x in members if not any(self.contains(x - a) for a in members if a < x)
        )

    def is_symmetric(self):
        g = self.frobenius
        return all(self.contains(g - a) for a in self.gaps)

    def is_pseudo_symmetric(self):
        g = self.frobenius
        if g < 0 or g % 2:
            return False
        return all(a == g // 2 or self.contains(g - a) for a in self.gaps)

    def canonical_ideal(self):
        g = self.frobenius
        members = [x for x in range(g + 1) if self.contains(x) or not self.contains(g - x)]
        return RefIdeal(self, 0, members)

    def ideal(self):
        return RefIdeal(self, 0, [x for x in range(self.frobenius + 1) if self.table[x]])

    def maximal_ideal(self):
        m, g = self.multiplicity, self.frobenius
        return RefIdeal(self, m, [x - m for x in range(m, m + g + 1) if self.contains(x)])

    def witness_pair(self):
        """(g/2, g - m), each checked to lie in (S' - M') outside S' for S'
        the semigroup with g adjoined, with its doubled sums in S'."""
        g = self.frobenius
        pair = (g // 2, g - self.multiplicity)
        prime = RefSemigroup.from_gaps(set(self.gaps) - {g})
        dual = prime.ideal().colon(prime.maximal_ideal())
        assert all(dual.contains(w) and not prime.contains(w) for w in pair)
        a, b = pair
        assert a != b and all(prime.contains(v) for v in (2 * a, 2 * b, a + b))
        return pair


class RefIdeal:
    """shift + (small | (g, infinity)) for small a frozenset inside [0, g]."""

    def __init__(self, sgp, shift, small):
        self.sgp = sgp
        self.shift = shift
        self.small = frozenset(small)

    def contains(self, x):
        y = x - self.shift
        if y < 0:
            return False
        if y > self.sgp.frobenius:
            return True
        return y in self.small

    def members_upto(self, bound):
        return tuple(x for x in range(self.shift, bound + 1) if self.contains(x))

    def normalize(self):
        m = min(self.small)
        if m == 0:
            return RefIdeal(self.sgp, 0, self.small)
        # re-anchor: members shift down by m, high part fills in
        g = self.sgp.frobenius
        members = [x - m for x in self.small] + list(range(g + 1 - m, g + 1))
        return RefIdeal(self.sgp, 0, [x for x in members if 0 <= x <= g])

    def translate(self, k):
        return RefIdeal(self.sgp, self.shift + k, self.small)

    def intersect(self, other):
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
        return RefIdeal(self.sgp, shift, small)

    def colon(self, other):
        """(self : other) = {z : z + other within self}."""
        g = self.sgp.frobenius
        base = self.shift - other.shift
        # relative to the operands' shifts, candidates live in [0, g+1]
        members = [
            z
            for z in range(g + 2)
            if all(z + f > g or z + f in self.small for f in other.small)
        ]
        m0 = members[0]
        small = set(z - m0 for z in members if z - m0 <= g)
        # everything beyond the scan window [0, g+1] satisfies the colon
        small.update(range(max(g + 2 - m0, 0), g + 1))
        return RefIdeal(self.sgp, base + m0, small)
