import functools
import itertools
from types import SimpleNamespace

import pytest

from starlab import cli
from starlab.errors import BudgetError, InputError, InvariantError
from starlab.fq_linear import (
    Subspace,
    field,
    field_from_order,
    packed_meet,
    pivot_tail,
    unit_representatives,
)
from starlab.numsgp import semigroup
from starlab.ring_model import (
    RingIdeal,
    _normalize,
    frobenius_overring_ideal,
    frobenius_overring_model,
    is_overring_stable,
    normalized_translate_intersection,
    semigroup_ring_model,
)
from starlab.star_engine import (
    ClosureTable,
    RingWorkspace,
    StarOperation,
    classify_family,
    divisorial_star,
    enumerate_stars,
    restrict_star,
    verify_star_axioms,
    workspace,
)

import subspaces
from ring_helpers import (
    canonical_ideals,
    conductor,
    full_ideal,
    generated_star,
    identity_star,
    induced_star,
    translate,
)
from subspaces import series_inv, series_mul
from test_ring_model import ideal_from_full

F2 = field(2)


def series_shift_down(coeffs, m):
    """Divide by t^m: drop the first m coefficients, pad with zeros."""
    return coeffs[m:] + (0,) * m


def image_head(model, rows):
    """The head with these packed rows, a key of an orbit's image map."""
    pivots = tuple(map(model.field.packing.pivot, rows))
    return Subspace(model.field, model.head_dim, rows, pivots)


@pytest.fixture(scope="module")
def m457():
    return semigroup_ring_model(semigroup([4, 5, 7]), F2)


@pytest.fixture(scope="module")
def ws457(m457):
    return workspace(m457)


@pytest.fixture(scope="module")
def stars457(m457):
    return enumerate_stars(m457)


def test_orbit_cap_applies_to_cached_stars(m457, stars457):
    assert len(stars457) == 19
    with pytest.raises(BudgetError):
        enumerate_stars(m457, max_orbits=1)
    assert enumerate_stars(m457) is stars457


def test_identity_closes_everything(m457, ws457):
    d = identity_star(m457)
    for J in ws457.ideals:
        assert d.apply(J) == J


def test_divisorial_star_examples(m457, ws457):
    v = divisorial_star(m457)
    R = m457.ring_ideal()
    M = m457.maximal_ideal()
    L = R.colon(M)
    for I in canonical_ideals(m457, ws457.ideals):
        assert v.apply(I) == L
    # no nondivisorial ideal is v-closed
    for J in ws457.ideals:
        assert v.is_closed(J) == J.is_divisorial()


def test_generated_star_of_ring_is_v(m457):
    assert generated_star(m457.ring_ideal()) == divisorial_star(m457)


def test_generated_star_of_canonical_is_identity(m457, ws457):
    for I in canonical_ideals(m457, ws457.ideals):
        assert generated_star(I) == identity_star(m457)


def test_generated_star_closure_criterion(m457, ws457):
    # for overring-stable nondivisorial I, J: J is closed under the star
    # generated by I iff some valuation-0 unit sends J inside I (the image
    # set of J coincides with the image set of its orbit representative)
    part = ws457.partition
    pool = [
        J for J in ws457.ideals if not J.is_divisorial() and is_overring_stable(J)
    ]
    for I in pool:
        star_i = generated_star(I)
        for J in pool:
            oid = ws457.orbit_id(J)
            unit_containment = any(I.contains_packed(rows) for rows in part.image_maps[oid])
            assert star_i.is_closed(J) == unit_containment, (I, J)


def test_induced_star_of_full_ideal_is_v(m457):
    V = full_ideal(m457)
    assert induced_star(m457, [V]) == divisorial_star(m457)
    assert induced_star(m457, []) == divisorial_star(m457)


def test_induced_star_distinct_on_unit_classes(m457, ws457):
    # distinct unions of unit classes of 1-dim-over-T nondivisorial ideals
    # give distinct operations
    t_ideal = frobenius_overring_ideal(m457)
    part = ws457.partition
    dim2_reps = [
        rep
        for rep in part.reps
        if rep.dim == t_ideal.dim + 1
        and is_overring_stable(rep)
        and not rep.is_divisorial()
    ]
    assert len(dim2_reps) == 4
    seen = set()
    for r in range(len(dim2_reps) + 1):
        for combo in itertools.combinations(dim2_reps, r):
            star = induced_star(m457, list(combo))
            seen.add(star.key())
    assert len(seen) == 2 ** len(dim2_reps)


def test_induced_star_closed_family_shape(m457, ws457):
    t_ideal = frobenius_overring_ideal(m457)
    part = ws457.partition
    dim2_reps = [
        rep
        for rep in part.reps
        if rep.dim == t_ideal.dim + 1
        and is_overring_stable(rep)
        and not rep.is_divisorial()
    ]
    star = induced_star(m457, [dim2_reps[0]])
    extra = star.closed & ~ws457.divisorial_ids
    expected = 1 << ws457.orbit_id(dim2_reps[0]) | 1 << ws457.orbit_id(t_ideal)
    assert extra == expected


def test_enumerate_stars_345_is_3():
    # the engine gives 3 for the ring over <3,4,5>: v, d, and the operation
    # closing exactly the overring T; the canonical class cannot be closed
    # alone since biduality recovers every ideal from it
    m = semigroup_ring_model(semigroup([3, 4, 5]), F2)
    stars = enumerate_stars(m)
    assert len(stars) == 3
    ws = workspace(m)
    t_oid = ws.orbit_id(frobenius_overring_ideal(m))
    keys = {s.closed for s in stars}
    assert ws.divisorial_ids in keys
    assert (1 << ws.partition.orbit_count) - 1 in keys
    assert (ws.divisorial_ids | 1 << t_oid) in keys


def test_enumerate_stars_357_is_4():
    m = semigroup_ring_model(semigroup([3, 5, 7]), F2)
    assert len(enumerate_stars(m)) == 4


def test_enumerate_stars_457_q2(stars457):
    assert len(stars457) == 19


def test_enumerate_stars_overring_q2():
    m = semigroup_ring_model(semigroup([4, 5, 6, 7]), F2)
    assert len(enumerate_stars(m)) == 42


def ids_of(mask):
    return {oid for oid in range(mask.bit_length()) if mask >> oid & 1}


def brute_force_families(ws):
    """Independent oracle: filter all divisorial-containing orbit-id subsets
    through the closure table instead of expanding closures."""
    pair = ws.table.pair_classes
    div = ids_of(ws.divisorial_ids)
    nondiv = [o for o in range(ws.partition.orbit_count) if o not in div]
    families = set()
    for r in range(len(nondiv) + 1):
        for combo in itertools.combinations(nondiv, r):
            fam = div | set(combo)
            if all(ids_of(pair[(i, j)]) <= fam for i in fam for j in fam):
                families.add(sum(1 << oid for oid in fam))
    return families


def test_star_count_against_subset_oracle(ws457, stars457):
    assert sorted(s.closed for s in stars457) == sorted(brute_force_families(ws457))


def test_star_count_subset_oracle_overring():
    m = semigroup_ring_model(semigroup([4, 5, 6, 7]), F2)
    stars = enumerate_stars(m)
    assert sorted(s.closed for s in stars) == sorted(brute_force_families(workspace(m)))
    # the output order: by size, then by the ascending id tuples
    keys = [s.key() for s in stars]
    assert keys == sorted(keys, key=lambda key: (len(key), key))


def test_star_families_subset_oracle_357_q3():
    m = semigroup_ring_model(semigroup([3, 5, 7]), field_from_order(3))
    stars = enumerate_stars(m)
    assert sorted(s.closed for s in stars) == sorted(brute_force_families(workspace(m)))


def reference_close(ws, ids):
    """The set fixpoint: rescan every pair of members until nothing joins."""
    pair = ws.table.pair_classes
    fam = set(ids) | ids_of(ws.divisorial_ids)
    changed = True
    while changed:
        changed = False
        for i in list(fam):
            for j in list(fam):
                extra = ids_of(pair[(i, j)]) - fam
                if extra:
                    fam |= extra
                    changed = True
    return fam


def test_close_fires_both_orders_and_self_pairs():
    # a made-up table on 9 orbits, none divisorial, where each rule sits in
    # one ordered pair only; close joins the higher orbit of a seed first
    pair = {(i, j): 0 for i in range(9) for j in range(9)}
    pair[(0, 0)] = 1 << 1
    pair[(3, 2)] = 1 << 4
    pair[(5, 6)] = 1 << 7 | 1 << 8
    ws = SimpleNamespace(table=ClosureTable(pair, 0), divisorial_ids=0)
    close = functools.partial(RingWorkspace.close, ws)
    assert close(1 << 0) == 0b11
    assert close(1 << 2 | 1 << 3) == 0b11100
    assert close(1 << 5 | 1 << 6) == 0b111100000
    assert close(1 << 5) == 1 << 5


@pytest.mark.parametrize(
    "gens,q",
    [((4, 5, 7), 2), ((4, 5, 6, 7), 2), ((3, 5, 7), 3)],
    ids=["457-q2", "4567-q2", "357-q3"],
)
def test_close_matches_set_fixpoint(gens, q):
    # every seed of at most two orbits
    ws = workspace(semigroup_ring_model(semigroup(list(gens)), field_from_order(q)))
    n = ws.partition.orbit_count
    for r in range(3):
        for seed in itertools.combinations(range(n), r):
            mask = ws.close(sum(1 << oid for oid in seed))
            assert ids_of(mask) == reference_close(ws, seed)


def _reference_normalize(model, sub):
    """Full-width normalization: divide every row by the least-pivot row and
    re-span with the conductor block."""
    m = sub.pivots[0]
    inv = series_inv(series_shift_down(sub.rows[0], m), model.field)
    rows = [series_shift_down(series_mul(inv, r, model.field), m) for r in sub.rows]
    block = conductor(model)
    rows += list(block.rows)
    return ideal_from_full(model, subspaces.span(model.field, block.ambient, rows))


def test_normalize_memo_is_per_model():
    # the two F_8 models of test_colon_memo_is_per_model: heads Y of the
    # unit images of one model's orbit representatives, with their first
    # row and without it, and Y = 0, each normalized with the conductor in
    # both models. Dividing often takes a series whose inverse depends on
    # the modulus
    models = [
        semigroup_ring_model(semigroup([3, 5, 7]), field(2, 3, poly))
        for poly in ((1, 1, 0, 1), (1, 0, 1, 1))
    ]
    image_maps = workspace(models[0]).partition.image_maps
    inputs = [()] + [
        rows[cut:]
        for images in image_maps
        for rows in (image_head(models[0], key).rows for key in images)
        for cut in (0, 1)
    ]
    results = []
    for model in models:
        h, block = model.head_dim, conductor(model)
        heads = [subspaces.span(model.field, h, rows) for rows in inputs]
        ideals = [_normalize(model, Y.packed, Y.pivots) for Y in heads]
        assert ideals[0] is full_ideal(model)
        for Y, ideal in zip(heads[1:], ideals[1:]):
            assert ideal.model is model
            rows = [r + (0,) * h for r in Y.rows] + list(block.rows)
            full = subspaces.span(model.field, block.ambient, rows)
            assert ideal == _reference_normalize(model, full)
            again = subspaces.span(model.field, h, Y.rows)
            assert _normalize(model, again.packed, again.pivots) is ideal
        results.append([ideal.head.rows for ideal in ideals])
    assert results[0] != results[1]


def kappa(ideal):
    """The least k with every column k..g a pivot of the ideal's head."""
    h = ideal.model.head_dim
    return min(k for k in range(h + 1) if set(range(k, h)) <= set(ideal.head.pivots))


def least_common_value(reps, i, j, k):
    """mu, the least value of both reps[i] and t^k * reps[j]."""
    return min(set(reps[i].value_set) & {k + v for v in reps[j].value_set})


@pytest.mark.parametrize(
    "gens,q,sides",
    [
        ((4, 5, 7), 2, {True, False}),
        ((4, 5, 6, 7), 2, {True, False}),
        ((3, 5, 7), 3, {False}),
        ((3, 5, 7), 4, {False}),
        ((4, 5, 6, 7), 4, {True, False}),
        ((3, 5, 7), 5, {False}),
        ((3, 4, 5), 9, {False}),
        ((4, 5, 6, 7), 3, {True, False}),
        # its reference takes about 16 s, on a tuple Zassenhaus meet per translate
        pytest.param((4, 5, 7), 3, {True, False}, marks=pytest.mark.slow),
    ],
    ids=[
        "457-q2", "4567-q2", "357-q3", "357-q4", "4567-q4", "357-q5", "345-q9", "4567-q3", "457-q3"
    ],
)
def test_closure_table_matches_reference(gens, q, sides):
    # the containment skip, the head-width meet and its normalization
    # against a Zassenhaus meet and full normalization of every translate,
    # both per translate and in the table. The reference loops over every
    # image of rep_j at every shift k = 0..g+1; the table skips
    # k >= kappa(rep_i), meets each k = 0 pair once for (i, j) and (j, i),
    # and per shift k loops over one image per class of units mod t^m,
    # m = max(0, min(kappa(rep_i), kappa(rep_j) + k) - mu), mu the least
    # common value of rep_i and t^k*rep_j, on whichever side, rep_i's
    # (True) or rep_j's (False), has fewer classes. Where a model takes
    # both sides, both are checked; with that modulus the 357 and 345
    # models only ever take rep_j's
    model = semigroup_ring_model(semigroup(list(gens)), field_from_order(q))
    ws = workspace(model)
    g = model.sgp.frobenius
    h = g + 1
    part = ws.partition
    unpack = model.field.packing.unpack
    classes = [
        [len({unpack(w, h)[:m] for w in images.values()}) for m in range(h + 1)]
        for images in part.image_maps
    ]
    n = part.orbit_count
    kappas = [kappa(rep) for rep in part.reps]
    assert [pivot_tail(rep.head) for rep in part.reps] == kappas
    kinds = set()
    for i in range(n):
        for j in range(n):
            for k in range(kappas[i]):
                m = max(0, min(kappas[i], kappas[j] + k) - least_common_value(part.reps, i, j, k))
                kinds.add(classes[i][m] < classes[j][m])
    assert kinds == sides
    pack, shift = model.field.packing.pack, model.field.packing.shift
    block = conductor(model)
    n = block.ambient
    expected = {}
    for i, rep in enumerate(part.reps):
        rep_sub = rep.sub
        for j in range(part.orbit_count):
            hits = set()
            for rows in part.image_maps[j]:
                image = RingIdeal(model, image_head(model, rows))
                image_sub = image.sub
                for k in range(g + 2):
                    shifted = translate(image, k)
                    if not shifted.rows:
                        continue
                    meet = subspaces.intersect(rep_sub, shifted)
                    # the meet is t^k * (Y + C), C the conductor
                    found = packed_meet(rep.head.entries, h, image.head, k)
                    rows, pivots = found or (image.head.packed, image.head.pivots)
                    full = tuple(unpack(shift(r, k), n) for r in rows)
                    assert full + block.rows[k:] == meet.rows
                    assert tuple(p + k for p in pivots) + block.pivots[k:] == meet.pivots
                    m = meet.pivots[0]
                    if m > g + 1:
                        # the elements of t^k*u*rep_j of valuation >= m
                        keep = [r for r, p in zip(image_sub.rows, image_sub.pivots) if p >= m - k]
                        meet = subspaces.span(model.field, n, keep)
                    ref = _reference_normalize(model, meet)
                    assert normalized_translate_intersection(rep, image.head, k) == ref
                    hits.add(ws.orbit_id(ref))
            expected[(i, j)] = sum(1 << oid for oid in hits)
    assert ws.table.pair_classes == expected
    # the table's normalize-memo keys are packed rows of K^(g+1)
    keys = model._cache["normalize"]
    assert all(pack(unpack(r, h)) == r for key in keys for r in key)


@pytest.fixture(
    scope="module",
    params=[((4, 5, 7), 2), ((4, 5, 7), 3), ((3, 5, 7), 4)],
    ids=["457-q2", "457-q3", "357-q4"],
)
def unit_sweep(request):
    """A workspace, its unit representatives mod t^(g+1), and per orbit
    the image u * rep of every one of them."""
    gens, q = request.param
    ws = workspace(semigroup_ring_model(semigroup(list(gens)), field_from_order(q)))
    units = unit_representatives(ws.model.field, ws.model.head_dim)
    images = [{u: rep.unit_image(u) for u in units} for rep in ws.partition.reps]
    return ws, units, images


def test_translates_from_kappa_lie_inside(unit_sweep):
    # lemma (A) of ClosureTable.build: for k >= kappa(I), every t^k*u*J
    # lies in I, and normalizes into J's orbit
    ws, _, images = unit_sweep
    h = ws.model.head_dim
    for I in ws.partition.reps:
        for j, by_unit in enumerate(images):
            for image in set(by_unit.values()):
                for k in range(kappa(I), h + 1):
                    shifted = translate(image, k)
                    assert all(subspaces.contains(I.sub, r) for r in shifted.rows)
                    found = normalized_translate_intersection(I, image.head, k)
                    assert ws.orbit_id(found) == j


def _meet_orbit(ws):
    """orbit(I, J, k): the orbit id of normalize(I meet t^k*J), memoized."""
    return functools.lru_cache(maxsize=None)(
        lambda I, J, k: ws.orbit_id(normalized_translate_intersection(I, J.head, k))
    )


def test_meet_orbit_depends_on_unit_mod_t_h_minus_k(unit_sweep):
    # lemma (B) of ClosureTable.build: units u, u' equal mod t^(h-k) give
    # the same orbit, both for I meet t^k*u*J and for u*I meet t^k*J; for
    # k >= kappa(I) both translates lie inside, which the test above covers
    ws, units, images = unit_sweep
    h = ws.model.head_dim
    truncate = ws.model.field.packing.truncate
    reps = ws.partition.reps
    orbit = _meet_orbit(ws)
    for i, I in enumerate(reps):
        for j, J in enumerate(reps):
            for k in range(kappa(I)):
                on_j, on_i = {}, {}
                for u in units:
                    a = orbit(I, images[j][u], k)
                    b = orbit(images[i][u], J, k)
                    assert on_j.setdefault(truncate(u, h - k), a) == a
                    assert on_i.setdefault(truncate(u, h - k), b) == b


def test_meet_orbit_depends_on_unit_mod_kappa_bound(unit_sweep):
    # lemma (B) of ClosureTable.build with the modulus the table uses: every
    # element of the meet has valuation at least mu, the least common value
    # of I and t^k*J, so units u, u' equal mod t^m, m = max(0, min(kappa(I),
    # kappa(J) + k) - mu), give the same orbit, both for I meet t^k*u*J and
    # for u*I meet t^k*J. This m is at most min(kappa(I) - k, kappa(J) + k),
    # and below it at some shifts. One ring per packed layout: F_2,
    # bitsliced F_3 and digit slots at q = 4
    ws, units, images = unit_sweep
    truncate = ws.model.field.packing.truncate
    reps = ws.partition.reps
    orbit = _meet_orbit(ws)
    sharper = 0
    for i, I in enumerate(reps):
        for j, J in enumerate(reps):
            for k in range(kappa(I)):
                mu = least_common_value(reps, i, j, k)
                m = max(0, min(kappa(I), kappa(J) + k) - mu)
                assert m <= min(kappa(I) - k, kappa(J) + k)
                sharper += m < min(kappa(I) - k, kappa(J) + k)
                on_j, on_i = {}, {}
                for u in units:
                    a = orbit(I, images[j][u], k)
                    b = orbit(images[i][u], J, k)
                    assert on_j.setdefault(truncate(u, m), a) == a
                    assert on_i.setdefault(truncate(u, m), b) == b
    assert sharper


def test_shift_zero_orbits_are_symmetric(unit_sweep):
    # lemma (C) of ClosureTable.build: I meet u*J = u*(J meet u^-1*I), so
    # over all units the k = 0 orbits of (I, J) and of (J, I) are one set
    ws, units, images = unit_sweep
    reps = ws.partition.reps
    orbit = _meet_orbit(ws)
    for i, I in enumerate(reps):
        for j, J in enumerate(reps[: i + 1]):
            forward = {orbit(I, images[j][u], 0) for u in units}
            backward = {orbit(J, images[i][u], 0) for u in units}
            assert forward == backward


@pytest.mark.parametrize(
    "gens,entries", [((4, 5, 7), 2994), ((4, 5, 6, 7), 1517)], ids=["457", "4567"]
)
def test_closure_table_entry_count_q3(gens, entries):
    # the meets the table evaluates, the benchmark's
    # star_engine.ClosureTable.entries counter on the stars workload
    ws = workspace(semigroup_ring_model(semigroup(list(gens)), field_from_order(3)))
    assert ws.table.entry_count == entries


def test_axiom_suite_full_sweep_q2(m457, stars457):
    for star in stars457:
        verify_star_axioms(star, full_unit_sweep=True)


def test_trichotomy_q2(ws457, stars457):
    tags = {}
    for star in stars457:
        tag = classify_family(ws457, star.closed)
        tags[tag] = tags.get(tag, 0) + 1
    assert tags == {
        "identity": 1,
        "divisorial": 1,
        "all_but_canonical_class": 1,
        "unit_class_union_with_overring": 16,
    }


def test_every_star_regenerates_from_its_family(ws457, stars457):
    for star in stars457:
        regenerated = induced_star(ws457.model, star.closed_ideals())
        assert regenerated == star


def test_star_below_v(ws457, stars457):
    for star in stars457:
        for J in ws457.ideals:
            assert J.v_closure().contains(star.apply(J))


def test_overring_closed_or_v(ws457, stars457):
    T = frobenius_overring_ideal(ws457.model)
    v = divisorial_star(ws457.model)
    for star in stars457:
        assert star.is_closed(T) or star == v


def test_restriction_injective_and_bounded(m457, stars457):
    t_model = frobenius_overring_model(m457)
    t_stars = enumerate_stars(t_model)
    d = identity_star(m457)
    v = divisorial_star(m457)
    images = set()
    for star in stars457:
        if star in (d, v):
            continue
        restricted = restrict_star(star)
        images.add(restricted.key())
    assert len(images) == len(stars457) - 2
    t_keys = {s.key() for s in t_stars}
    assert images <= t_keys
    assert len(stars457) <= len(t_stars) + 2


def test_restriction_rejects_d_and_v(m457):
    with pytest.raises(InputError):
        restrict_star(identity_star(m457))
    with pytest.raises(InputError):
        restrict_star(divisorial_star(m457))


@pytest.mark.parametrize("q,expected", [(2, 19), (3, 67)])
def test_formula_counts_small(q, expected):
    m = semigroup_ring_model(semigroup([4, 5, 7]), field_from_order(q))
    assert len(enumerate_stars(m)) == expected == 2 ** (2 * q) + 3


@pytest.mark.parametrize("gens", [(4, 5, 7), (4, 5, 6, 7)], ids=["457", "4567"])
def test_containment_order_and_closure_map(gens):
    # the order is RingIdeal.contains on every pair, and on every star the
    # closure map is the meet, by the tuple Zassenhaus meet, of the closed
    # ideals above the argument
    model = semigroup_ring_model(semigroup(list(gens)), F2)
    ws = workspace(model)
    above = ws.above
    for a, I in enumerate(ws.ideals):
        for b, J in enumerate(ws.ideals):
            assert bool(above[a] >> b & 1) == J.contains(I)
    for star in enumerate_stars(model):
        closed = star.closed_ideals()
        assert [bool(star.closed >> ws.orbit_id(J) & 1) for J in ws.ideals] == [
            J in closed for J in ws.ideals
        ]
        for J in ws.ideals:
            meet = None
            for C in closed:
                if C.contains(J):
                    meet = C.sub if meet is None else subspaces.intersect(meet, C.sub)
            assert star.apply(J).sub == meet


def _unstable_family(ws):
    """An ideal M = A meet B strictly below A and B, and the family of every
    orbit but M's: A and B keep their orbits (they have larger dimension),
    so they are closed and their meet is not."""
    for A, B in itertools.combinations(ws.ideals, 2):
        M = A.intersect(B)
        if M not in (A, B):
            return M, (1 << ws.partition.orbit_count) - 1 & ~(1 << ws.orbit_id(M))
    raise AssertionError("the lattice is a chain")


def test_apply_rejects_a_family_that_is_not_intersection_stable(ws457, capsys, monkeypatch):
    M, family = _unstable_family(ws457)
    star = StarOperation(ws457, family)
    with pytest.raises(InvariantError, match="closure map left the closed family"):
        star.apply(M)
    with pytest.raises(InvariantError, match="no closed ideal contains the argument"):
        StarOperation(ws457, 0).apply(M)

    # the CLI reports the fault as an engine error
    def broken(args):
        star.apply(M)

    flags, _ = cli.COMMANDS["sgp", "info"]
    monkeypatch.setitem(cli.COMMANDS, ("sgp", "info"), (flags, broken))
    assert cli.main(["sgp", "info", "--gens", "4,5,7"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "engine error: closure map left the closed family\n"
