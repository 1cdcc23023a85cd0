import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import starlab.fq_linear as fq_linear
from starlab import cli, packed
from starlab.errors import InputError, InvariantError
from starlab.fq_linear import (
    Subspace,
    count_subspaces,
    field,
    field_from_order,
    partition_subspaces,
    series_inv,
    series_mul,
    subspace_colon,
    subspace_unit_image,
    unit_image_map,
    unit_representatives,
)
from starlab.kunz_lab import ring_model_for
from starlab.ring_model import enumerate_ideals

import subspaces
from field_reference import reference_tables
from subspaces import enumerate_subspaces

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]


def test_prime_field_construction():
    f = field(2)
    assert f.q == 2 and f.modulus is None


def test_f4_modulus_is_x2_x_1():
    f = field(2, 2)
    # the unique monic irreducible quadratic over F_2
    assert f.modulus == (1, 1, 1)


def test_nonprime_characteristic_rejected():
    with pytest.raises(InputError):
        field(4, 1)


def test_field_from_order():
    assert field_from_order(9).q == 9
    assert field_from_order(8).q == 8
    with pytest.raises(InputError, match="not a prime power"):
        field_from_order(6)
    # no prime factor up to the largest supported order: 521*523 and a
    # prime, refused without trial division up to q
    for q in (272483, 1000000007):
        with pytest.raises(InputError, match=f"field order {q} exceeds supported maximum 512"):
            field_from_order(q)


# the largest prime and the largest prime power supported; the reference
# tables of F_512 take seconds to build, so only the axioms check them
LARGE_FIELDS = [(509, 1), (2, 9)]


@pytest.mark.parametrize("p,e", SMALL_FIELDS + LARGE_FIELDS)
def test_field_axioms_exhaustive(p, e):
    f = fq_linear.Field(p, e)
    q = f.q
    c = q - 1
    for a in range(q):
        assert f.add[a][0] == a
        assert f.mul[a][1] == a
        assert f.add[a][f.neg[a]] == 0
        if a:
            assert f.mul[a][f.inv[a]] == 1
    for a in range(q):
        add_a, mul_a = f.add[a], f.mul[a]
        for b in range(q):
            assert add_a[b] == f.add[b][a]
            assert mul_a[b] == f.mul[b][a]
            assert f.add[f.add[a][f.neg[b]]][b] == a
            assert mul_a[f.add[b][c]] == f.add[mul_a[b]][mul_a[c]]
            assert f.mul[mul_a[b]][c] == mul_a[f.mul[b][c]]


PRIMES = [p for p in range(2, 512) if all(p % d for d in range(2, p))]
# every prime power up to 256, and larger primes up to 509
REFERENCE_FIELDS = sorted((p, e) for p in PRIMES for e in range(1, 9) if p**e <= 256) + [
    (257, 1), (331, 1), (509, 1)
]


@pytest.mark.parametrize("p,e", REFERENCE_FIELDS, ids=[f"q{p**e}" for p, e in REFERENCE_FIELDS])
def test_tables_match_reference(p, e):
    f = fq_linear.Field(p, e)
    assert (f.add, f.mul, f.neg, f.inv) == reference_tables(f)


# the number of monic irreducible polynomials of degree e over F_p
IRREDUCIBLE_COUNTS = {(2, 2): 1, (2, 3): 2, (2, 4): 3, (2, 5): 6, (3, 2): 3, (3, 3): 8,
                      (5, 2): 10, (7, 2): 21}


@pytest.mark.parametrize("p,e", sorted(IRREDUCIBLE_COUNTS))
def test_tables_match_reference_on_every_modulus(p, e):
    moduli = [
        tail + (1,)
        for tail in itertools.product(range(p), repeat=e)
        if fq_linear._is_irreducible(list(tail) + [1], p)
    ]
    assert len(moduli) == IRREDUCIBLE_COUNTS[(p, e)]
    for modulus in moduli:
        f = fq_linear.Field(p, e, modulus)
        assert (f.add, f.mul, f.neg, f.inv) == reference_tables(f), modulus


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_field_associativity_distributivity(a, b, c):
    f = field(3, 2)
    assert f.mul[f.mul[a][b]][c] == f.mul[a][f.mul[b][c]]
    assert f.add[f.add[a][b]][c] == f.add[a][f.add[b][c]]
    assert f.mul[a][f.add[b][c]] == f.add[f.mul[a][b]][f.mul[a][c]]


# ---------------------------------------------------------------------------
# truncated series


def packed_series(fld, n):
    """The packed series functions of K[t]/(t^n) on coefficient tuples:
    inputs packed, results unpacked."""
    kern = fld.packing

    def mul(a, b, f):
        return kern.unpack(series_mul(kern.pack(a), kern.pack(b), f, n), n)

    def inv(a, f):
        return kern.unpack(series_inv(kern.pack(a), f, n), n)

    return mul, inv


def test_geometric_series_inverse():
    f = field(2)
    series_mul, series_inv = packed_series(f, 4)
    one_plus_t = (1, 1, 0, 0)
    inv = series_inv(one_plus_t, f)
    assert inv == (1, 1, 1, 1)
    assert series_mul(one_plus_t, inv, f) == (1, 0, 0, 0)


def test_inverse_of_one():
    f = field(2)
    _, series_inv = packed_series(f, 4)
    assert series_inv((1, 0, 0, 0), f) == (1, 0, 0, 0)


def test_inverse_recursion_matches_formula():
    # invert e_0 + theta*f with f = e_1 (lambda = (1,0,0)), theta = 1, over F_2
    f2 = field(2)
    _, series_inv = packed_series(f2, 4)
    theta, l1, l2, l3 = 1, 1, 0, 0
    a = (1, l1, l2, l3)
    inv = series_inv(a, f2)
    assert inv == (1, 1, 1, 1)
    neg, mul, add = f2.neg, f2.mul, f2.add
    a1 = mul[neg[theta]][l1]
    a2 = mul[neg[theta]][add[mul[l1][a1]][l2]]
    a3 = mul[neg[theta]][add[add[mul[l1][a2]][mul[l2][a1]]][l3]]
    assert inv == (1, a1, a2, a3)


def test_non_unit_rejected():
    f = field(3)
    _, series_inv = packed_series(f, 3)
    with pytest.raises(InputError):
        series_inv((0, 1, 0), f)


@given(st.lists(st.integers(0, 2), min_size=5, max_size=5), st.integers(1, 2))
@settings(max_examples=50, deadline=None)
def test_units_invert_back(tail, c0):
    f = field(3)
    series_mul, series_inv = packed_series(f, 5)
    a = tuple([c0] + tail[1:])
    inv = series_inv(a, f)
    prod = series_mul(a, inv, f)
    assert prod == (1, 0, 0, 0, 0)


@given(
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_series_mul_assoc_comm(a, b, c):
    f = field(2, 2)
    series_mul, _ = packed_series(f, 4)
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert series_mul(a, b, f) == series_mul(b, a, f)
    assert series_mul(series_mul(a, b, f), c, f) == series_mul(a, series_mul(b, c, f), f)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9], ids=["q2", "q3", "q4", "q5", "q9"])
def test_packed_series_match_tuple_references(q):
    # the packed product, inverse, unit image and orbit witnesses against
    # the tuple series of tests/subspaces.py, on random series of random
    # lengths; the units' constant terms run over every nonzero scalar
    fld = field_from_order(q)
    kern = fld.packing
    pack, unpack = kern.pack, kern.unpack
    rng = random.Random(q)
    for trial in range(60):
        n = rng.randint(1, 9)
        a, b = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(2))
        product = series_mul(pack(a), pack(b), fld, n)
        assert unpack(product, n) == subspaces.series_mul(a, b, fld)
        assert kern.truncate(product, n) == product
        unit = (1 + trial % (q - 1),) + a[1:]
        inverse = series_inv(pack(unit), fld, n)
        assert unpack(inverse, n) == subspaces.series_inv(unit, fld)
        assert kern.truncate(inverse, n) == inverse
        with pytest.raises(InputError):
            series_inv(pack((0,) + a[1:]), fld, n)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, n))]
        sub = Subspace.span(fld, n, rows)
        assert subspace_unit_image(sub, pack(unit)) == subspaces.unit_image(sub, unit)
        # the zero series and monomials c*t^k, k < n, also past the top
        # coefficient of the other factor
        zero = (0,) * n
        assert series_mul(pack(zero), pack(b), fld, n) == kern.zero
        assert series_mul(pack(a), pack(zero), fld, n) == kern.zero
        for k in range(n):
            mono = tuple(1 + trial % (q - 1) if j == k else 0 for j in range(n))
            for x, y in ((mono, b), (b, mono)):
                assert unpack(series_mul(pack(x), pack(y), fld, n), n) == subspaces.series_mul(
                    x, y, fld
                )
        # a factor longer than n is read only below t^n
        assert series_mul(kern.shift(pack(a), n), pack(b), fld, n) == kern.zero
    # the witnesses of one orbit, made by the tuple unit images of a random
    # subspace under every unit with constant term 1
    for n in (2, 3, 4) if q <= 4 else (2, 3):
        seed = Subspace.span(fld, n, [tuple(rng.randrange(q) for _ in range(n)) for _ in range(2)])
        tails = itertools.product(range(q), repeat=n - 1)
        orbit = {subspaces.unit_image(seed, (1,) + tail) for tail in tails}
        part = partition_subspaces(orbit)
        assert part.orbit_count == 1
        for member in part.items:
            w = part.witness(0, member)
            assert subspaces.unit_image(part.reps[0], unpack(w, n)) == member


# ---------------------------------------------------------------------------
# subspaces


def test_canon_full_space():
    f = field(2)
    s = Subspace.span(f, 2, [(1, 1), (0, 1)])
    assert s.rows == ((1, 0), (0, 1))


def test_intersection_example():
    f = field(2)
    a = Subspace.span(f, 3, [(1, 0, 0), (0, 1, 0)])
    b = Subspace.span(f, 3, [(0, 1, 0), (0, 0, 1)])
    assert a.intersect(b).rows == ((0, 1, 0),)


def _vectors(s):
    """Every vector of the subspace, by brute force over coefficients."""
    f = s.field
    out = set()
    for coeffs in itertools.product(range(f.q), repeat=s.dim):
        v = [0] * s.ambient
        for c, row in zip(coeffs, s.rows):
            v = [f.add[x][f.mul[c][y]] for x, y in zip(v, row)]
        out.add(tuple(v))
    return out


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_intersect_exhaustive(p, n):
    f = field(p)
    subs = enumerate_subspaces(n, f)
    vectors = {s: _vectors(s) for s in subs}
    for a in subs:
        for b in subs:
            meet = a.intersect(b)
            assert vectors[meet] == vectors[a] & vectors[b]
            fresh = tuple(next(j for j, x in enumerate(r) if x) for r in meet.rows)
            assert subspaces.rref(meet.rows, f) == (meet.rows, fresh)
            assert meet.pivots == fresh


def test_subspace_count_f2_cubed():
    f = field(2)
    subs = enumerate_subspaces(3, f)
    assert len(subs) == 16
    assert count_subspaces(3, 2) == 16
    # the Gaussian binomials [3 choose k]_2
    assert [sum(s.dim == k for s in subs) for k in range(4)] == [1, 7, 7, 1]


def test_enumeration_no_duplicates_and_canonical():
    f = field(3)
    subs = enumerate_subspaces(3, f)
    assert len(set(subs)) == len(subs) == count_subspaces(3, 3)
    for s in subs:
        respanned = Subspace.span(f, 3, s.rows)
        assert respanned == s


@pytest.mark.parametrize("m,q", [(m, q) for m in range(1, 5) for q in (2, 3, 4, 5)])
def test_galois_numbers(m, q):
    f = field_from_order(q)
    assert len(enumerate_subspaces(m, f)) == count_subspaces(m, q)


def test_enumerate_with_predicate_contains_e0_excludes_elast():
    # planes through e_0 avoiding the last basis line in K^4:
    # (q^3 - q)/(q - 1) of them
    for q, expected in [(2, 6), (3, 12)]:
        f = field_from_order(q)
        e0 = f.packing.pack((1, 0, 0, 0))
        e3 = f.packing.pack((0, 0, 0, 1))

        subs = [
            s
            for s in enumerate_subspaces(4, f)
            if s.dim == 2 and s.contains(e0) and not s.contains(e3)
        ]
        assert len(subs) == expected == (q**3 - q) // (q - 1)


def test_enumerate_dimension_one_line():
    f = field(5)
    subs = enumerate_subspaces(1, f)
    assert len(subs) == 2  # zero and the full line


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_canon_representation_independent(data):
    f = field(2)
    n = 5
    vecs = data.draw(
        st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=4)
    )
    s = Subspace.span(f, n, vecs)
    # a different spanning set: all pairwise sums plus originals, shuffled
    alt = list(vecs)
    for u, v in itertools.combinations(vecs, 2):
        alt.append(tuple(f.add[a][b] for a, b in zip(u, v)))
    alt.reverse()
    assert Subspace.span(f, n, alt) == s
    assert Subspace.span(f, n, s.rows) == s


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9], ids=["q2", "q3", "q4", "q5", "q9"])
def test_subspace_matches_tuple_references(q):
    # span, reduce, contains, intersect and unit images against the tuple
    # Gauss-Jordan, reduction and Zassenhaus meet of tests/subspaces.py, on
    # random spans of random widths, low ranks and full ones included
    fld = field_from_order(q)
    rng = random.Random(q)
    for _ in range(60):
        n = rng.randint(1, 9)

        def vector():
            return tuple(rng.randrange(q) for _ in range(n))

        a_rows, b_rows = ([vector() for _ in range(rng.randint(0, n + 1))] for _ in range(2))
        a, b = Subspace.span(fld, n, a_rows), Subspace.span(fld, n, b_rows)
        ref_rows, ref_pivots = subspaces.rref(a_rows, fld)
        assert (a.rows, a.pivots) == (ref_rows, ref_pivots)
        assert a == subspaces.span(fld, n, a_rows) and a.dim == len(ref_rows)
        for v in [vector() for _ in range(4)] + list(b.rows):
            residual = subspaces.reduce(ref_rows, ref_pivots, v, fld)
            assert a.reduce(v) == residual
            assert a.contains(fld.packing.pack(v)) == (not any(residual))
        meet = a.intersect(b)
        assert meet == subspaces.intersect(a, b)
        assert (meet.rows, meet.pivots) == subspaces.rref(meet.rows, fld)
        unit = (rng.randrange(1, q),) + vector()[1:]
        assert subspace_unit_image(a, fld.packing.pack(unit)) == subspaces.unit_image(a, unit)


# ---------------------------------------------------------------------------
# packed rows


PACKED_FIELDS = [field(2), field(3), field(2, 2), field(5), field(3, 2), field(2, 3, (1, 1, 0, 1))]


@pytest.mark.parametrize("fld", PACKED_FIELDS, ids=["q2", "q3", "q4", "q5", "q9", "f8"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_rows_agree_with_tuple_rows(fld, data):
    kern = fld.packing
    n = data.draw(st.integers(1, 10))
    vec = st.tuples(*[st.integers(0, fld.q - 1)] * n)
    a, b = data.draw(vec), data.draw(vec)
    c = data.draw(st.integers(0, fld.q - 1))
    k = data.draw(st.integers(0, n))
    pa, pb = kern.pack(a), kern.pack(b)
    assert kern.unpack(pa, n) == a
    assert bool(kern.support(pa)) == any(a)
    if any(a):
        assert kern.pivot(pa) == next(j for j, x in enumerate(a) if x)
        assert all(kern.coef(pa, j) == x for j, x in enumerate(a))
    assert kern.unpack(kern.add(pa, pb), n) == tuple(fld.add[x][y] for x, y in zip(a, b))
    assert kern.unpack(kern.scale(c, pa), n) == tuple(fld.mul[c][x] for x in a)
    shifted = kern.shift(pa, k)
    assert kern.unpack(kern.truncate(shifted, n), n) == subspaces.series_shift(a, k)
    assert kern.unshift(shifted, k) == pa
    # Gauss-Jordan against the tuple rref, and reduction against the rows
    # of a span
    rows = data.draw(st.lists(vec, max_size=6))
    packed_rows, pivots = kern.echelon([kern.pack(r) for r in rows])
    reference = subspaces.rref(rows, fld)
    assert (tuple(kern.unpack(r, n) for r in packed_rows), pivots) == reference
    entries = [kern.entry(p, r) for p, r in zip(pivots, packed_rows)]
    assert kern.unpack(kern.reduce(pa, entries), n) == subspaces.reduce(*reference, a, fld)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_one_layout_per_field(q):
    # the XOR mask serves F_2 only: F_4 and F_8 keep the digit slots
    kern = field_from_order(q).packing
    layout = {2: packed.Gf2Packing, 3: packed.Gf3Packing}.get(q, packed.SwarPacking)
    assert type(kern) is layout


@pytest.mark.parametrize("p", [5, 7])
def test_swar_scale_past_the_initial_masks(p):
    # the add chains of a prime field's scale grow the masks on demand
    fld = field(p)
    kern = fld.packing
    n = 300
    a = tuple((3 * j + 1) % p for j in range(n))
    for c in range(p):
        assert kern.unpack(kern.scale(c, kern.pack(a)), n) == tuple(fld.mul[c][x] for x in a)


def test_packed_sums_past_the_initial_masks():
    # the digit slots of odd characteristic grow their masks on demand
    fld = field(5)
    kern = fld.packing
    n = 300
    a = tuple((3 * j + 1) % 5 for j in range(n))
    b = tuple((j * j + 4) % 5 for j in range(n))
    total = kern.add(kern.pack(a), kern.pack(b))
    assert kern.unpack(total, n) == tuple(fld.add[x][y] for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# colon


def _elements(sub):
    """Every vector of a subspace, as a set."""
    fld, n = sub.field, sub.ambient
    out = set()
    for coeffs in itertools.product(range(fld.q), repeat=sub.dim):
        v = (0,) * n
        for c, r in zip(coeffs, sub.rows):
            v = tuple(fld.add[x][fld.mul[c][y]] for x, y in zip(v, r))
        out.add(v)
    return out


def _colon_cases(fld, n):
    """Pairs (a, b): the zero and the full space against each other and
    against random spans, which are mostly not closed under t, and pairs of
    random spans."""
    rng = random.Random(fld.q * 100 + n)
    spans = [
        Subspace.span(fld, n, [tuple(rng.randrange(fld.q) for _ in range(n)) for _ in range(d)])
        for d in (1, n // 2, n - 1)
    ]
    zero, full = Subspace.span(fld, n, []), subspaces.full(fld, n)
    cases = [(zero, zero), (zero, full), (full, zero), (full, full)]
    cases += [(s, t) for s in spans for t in (zero, full)] + [(zero, spans[1]), (full, spans[1])]
    cases += [(s, t) for s in spans for t in spans]
    return cases


@pytest.mark.parametrize("fld", PACKED_FIELDS, ids=["q2", "q3", "q4", "q5", "q9", "f8"])
def test_colon_matches_brute_force(fld):
    # every x in K^n with x * r mod t^n in a for each row r of b, against
    # the colon's span, for every n with q^n <= 1000; the colon's rows are
    # in reduced echelon form
    n, unstable = 1, 0
    while fld.q**n <= 1000:
        space = list(itertools.product(range(fld.q), repeat=n))
        t = (0, 1) + (0,) * (n - 2) if n > 1 else (0,)
        for a, b in _colon_cases(fld, n):
            inside = _elements(a)
            want = {
                x for x in space if all(subspaces.series_mul(x, r, fld) in inside for r in b.rows)
            }
            colon = subspace_colon(a, b)
            assert _elements(colon) == want, (fld, a, b)
            assert (colon.rows, colon.pivots) == subspaces.rref(colon.rows, fld)
            unstable += not all(subspaces.series_mul(t, r, fld) in inside for r in a.rows)
        n += 1
    assert unstable


def test_colon_rejects_mismatched_ambients():
    f = field(3)
    wide = Subspace.span(f, 4, [(1, 0, 2, 0), (0, 1, 1, 1)])
    narrow = Subspace.span(f, 3, [(0, 1, 2)])
    for a, b in ((wide, narrow), (narrow, wide)):
        with pytest.raises(InputError, match="ambient dimension mismatch"):
            subspace_colon(a, b)


# ---------------------------------------------------------------------------
# unit orbits


def unpacked_images(images, fld, n):
    """A unit image map with its packed keys made subspaces:
    {Subspace: packed witness}."""
    kern = fld.packing
    out = {
        Subspace(fld, n, rows, tuple(map(kern.pivot, rows))): w
        for rows, w in images.items()
    }
    assert len(out) == len(images)
    return out


@pytest.mark.parametrize(
    "p,e,n", [(2, 1, 4), (3, 1, 3), (2, 2, 3), (3, 2, 3), (5, 1, 3), (3, 1, 4), (2, 1, 5)]
)
def test_unit_generators_reach_every_unit_image(p, e, n):
    # The orbit enumeration reaches the image of each subspace under every
    # unit with constant term 1, and each witness maps the subspace there.
    # A factor 1 + c*t^j fixes the rows with pivot >= n - j, which the
    # enumeration takes as they are.
    # The multiplier ring (sub : sub) contains 1; with V its positive
    # valuations, 1 + (sub : sub) meet t*K[t] is the stabilizer, of order
    # q^|V|, and the orbit has q^(n-1-|V|) elements.
    f = field(p, e)
    reps = unit_representatives(f, n)
    assert len(reps) == f.q ** (n - 1)
    unpack = f.packing.unpack
    one = f.packing.pack((1,) + (0,) * (n - 1))
    for sub in enumerate_subspaces(n, f):
        images = unpacked_images(unit_image_map(sub), f, n)
        all_images = [subspace_unit_image(sub, u) for u in reps]
        assert all_images == [subspaces.unit_image(sub, unpack(u, n)) for u in reps]
        assert set(images) == set(all_images)
        for img, w in images.items():
            assert subspace_unit_image(sub, w) == img
        multipliers = subspace_colon(sub, sub)
        assert multipliers.contains(one)
        fixed = [v for v in multipliers.pivots if v]
        assert all_images.count(sub) == f.q ** len(fixed)
        assert len(images) == f.q ** (n - 1 - len(fixed))


def test_understated_stabilizer_is_an_engine_error(capsys, monkeypatch):
    # a multiplier ring that loses its positive valuations makes the orbit
    # count exceed what the units reach
    def scalars_only(a, b):
        return Subspace.span(a.field, a.ambient, [(1,) + (0,) * (a.ambient - 1)])

    monkeypatch.setattr(fq_linear, "subspace_colon", scalars_only)
    f = field(2)
    with pytest.raises(InvariantError, match="unit orbit has 1 images, not 8"):
        unit_image_map(subspaces.full(f, 4))
    assert cli.main(["kunz", "subspace-orbits", "--n", "4", "--q", "2"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("engine error: unit orbit has ")


def test_member_route_count_mismatch_is_an_engine_error(capsys, monkeypatch):
    # with the stabilizer understated, <1, t^3> of F_3[t]/(t^5) takes the
    # member route and finds its one image where three are expected; the
    # orbit search is never reached
    def scalars_only(a, b):
        return Subspace.span(a.field, a.ambient, [(1,) + (0,) * (a.ambient - 1)])

    searched = []
    monkeypatch.setattr(fq_linear, "subspace_colon", scalars_only)
    monkeypatch.setattr(fq_linear, "unit_image_map", searched.append)
    sub = Subspace.span(field(3), 5, [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0)])
    with pytest.raises(InvariantError, match="unit orbit has 1 images, not 3"):
        partition_subspaces([sub])
    assert cli.main(["kunz", "subspace-orbits", "--n", "5", "--q", "3"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("engine error: unit orbit has 1 images, not 3")
    assert searched == []


def _lab_family(q, n):
    """X: the 2-dim subspaces of K^n containing e_0 but not e_(n-1)."""
    f = field_from_order(q)
    e0 = (1,) + (0,) * (n - 1)
    return [
        Subspace.span(f, n, [e0, (0,) * p + (1,) + tail])
        for p in range(1, n - 1)
        for tail in itertools.product(range(q), repeat=n - 1 - p)
    ]


def _three_dim_family(q):
    """W: the 3-dim subspaces of K^4 containing e_0 but not e_3."""
    f = field_from_order(q)
    return [
        Subspace.span(f, 4, [(1, 0, 0, 0), (0, 1, 0, a), (0, 0, 1, b)])
        for a, b in itertools.product(range(q), repeat=2)
    ]


def _f0_heads(gens, q):
    """The heads of F_0 of the ring over <gens>."""
    return [I.head for I in enumerate_ideals(ring_model_for(gens, q))]


def _unital_family(q, n):
    """Every subspace of K^n containing 1, ties dim - 1 = n - 1 - |V| such
    as <1, t^2, t^4> of K^5 included."""
    f = field_from_order(q)
    return [s for s in enumerate_subspaces(n, f) if s.contains(f.packing.one)]


def _with_non_unital_member():
    """X at n = 4, q = 3 and (1 + t^2) * <1, t>, which does not contain 1
    but lies in the orbit of <1, t>."""
    family = _lab_family(3, 4)
    f = family[0].field
    line = Subspace.span(f, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    image = subspace_unit_image(line, f.packing.pack((1, 0, 1, 0)))
    assert not image.contains(f.packing.one)
    return family + [image]


PARTITION_FAMILIES = {
    **{
        f"X-n{n}-q{q}": functools.partial(_lab_family, q, n)
        for n, q in [(4, 2), (4, 3), (5, 3), (5, 4), (6, 2), (6, 3)]
    },
    "W-q2": functools.partial(_three_dim_family, 2),
    "W-q3": functools.partial(_three_dim_family, 3),
    "F0-457-q2": functools.partial(_f0_heads, (4, 5, 7), 2),
    "F0-457-q3": functools.partial(_f0_heads, (4, 5, 7), 3),
    "F0-5679-q2": functools.partial(_f0_heads, (5, 6, 7, 9), 2),
    "unital-n5-q2": functools.partial(_unital_family, 2, 5),
    "unital-n4-q3": functools.partial(_unital_family, 3, 4),
    "non-unital": _with_non_unital_member,
}


@pytest.mark.parametrize("name", sorted(PARTITION_FAMILIES))
def test_partition_matches_bfs_reference(name, monkeypatch):
    # partition_subspaces against whole orbits: the same orbit ids, members
    # and representatives, and, once read, the same image maps. The member
    # route runs exactly on the orbits of a family containing 1 throughout
    # whose least member S has dim S - 1 < n - 1 - |V|; their image maps are
    # searched on the first read of image_maps, after the others
    family = PARTITION_FAMILIES[name]()
    orbit_ids, members, reps, image_maps = subspaces.bfs_partition(family)
    one = family[0].field.packing.one
    unital = all(s.contains(one) for s in family)
    assert unital == (name != "non-unital")

    def member_route(rep):
        fixed = sum(1 for p in subspace_colon(rep, rep).pivots if p)
        return unital and rep.dim - 1 < rep.ambient - 1 - fixed

    routed = [rep for rep in reps if member_route(rep)]
    assert bool(routed) == unital
    searched = []
    search = fq_linear.unit_image_map
    monkeypatch.setattr(
        fq_linear, "unit_image_map", lambda sub, *fixed: searched.append(sub) or search(sub, *fixed)
    )
    part = partition_subspaces(family)
    assert (part.orbit_ids, part.members, part.reps) == (orbit_ids, members, reps)
    assert searched == [rep for rep in reps if rep not in routed]
    assert part.image_maps == image_maps
    assert part.image_maps is part.image_maps
    assert searched == [rep for rep in reps if rep not in routed] + routed
    for k, orbit in enumerate(part.members):
        for i in orbit:
            w = part.witness(k, family[i])
            assert subspace_unit_image(part.reps[k], w) == family[i]


def test_subspace_unit_image_matches_span():
    f = field(3, 2)
    pack = f.packing.pack
    units = [(1, 4, 0, 7), (5, 1, 2, 0), (8, 0, 0, 3)]
    for sub in [s for s in enumerate_subspaces(4, f) if s.dim == 2][::7]:
        for u in units:
            img = subspace_unit_image(sub, pack(u))
            assert img == subspaces.unit_image(sub, u)
            assert img.pivots == tuple(next(j for j, x in enumerate(r) if x) for r in img.rows)
    with pytest.raises(InputError):
        subspace_unit_image(sub, pack((0, 1, 0, 0)))
    # a packed unit has no length: one with a term past t^3 does not fit
    with pytest.raises(InputError):
        subspace_unit_image(sub, pack((1, 1, 0, 0, 1)))


def test_partition_lines_of_a3():
    # 2-dim subspaces of F_2[t]/(t^3) containing e_0: orbit structure worked
    # out by hand: <1,t> ~ <1,t+t^2> via 1+t+t^2, while <1,t^2> is fixed.
    f = field(2)
    e0 = (1, 0, 0)
    subs = [
        Subspace.span(f, 3, [e0, (0, 1, 0)]),
        Subspace.span(f, 3, [e0, (0, 1, 1)]),
        Subspace.span(f, 3, [e0, (0, 0, 1)]),
    ]
    part = partition_subspaces(subs)
    assert part.orbit_count == 2
    assert sorted(part.orbit_sizes()) == [1, 2]


def test_partition_witnesses():
    f = field(2)
    e0 = (1, 0, 0)
    subs = [
        Subspace.span(f, 3, [e0, (0, 1, 0)]),
        Subspace.span(f, 3, [e0, (0, 1, 1)]),
    ]
    part = partition_subspaces(subs)
    assert part.orbit_count == 1
    rep = part.reps[0]
    for member_idx in part.members[0]:
        member = part.items[member_idx]
        w = part.witness(0, member)
        assert subspaces.unit_image(rep, f.packing.unpack(w, 3)) == member
