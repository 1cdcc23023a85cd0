import itertools

import pytest

from starlab import kunz_lab
from starlab.errors import BudgetError, GateError, InputError
from starlab.fq_linear import field_from_order, unit_representatives
from starlab.kunz_lab import (
    _least_element_of_valuation,
    family_index,
    family_semigroup,
    formula_check,
    lower_bound_certificate,
    require_gate,
    residue_star_family,
    ring_model_for,
    star_count,
    structure_report,
    subspace_lab,
    unit_translate_criterion,
    verify_counterexample,
)
from starlab.numsgp import semigroup
from starlab.ring_model import (
    convert_to_overring,
    frobenius_overring_model,
    is_overring_stable,
)
from starlab.star_engine import divisorial_star, enumerate_stars, workspace

from ring_helpers import small_case_report
from subspaces import enumerate_subspaces


def test_family_semigroup_members():
    assert family_semigroup(3).generators == (3, 5, 7)
    assert family_semigroup(4).generators == (4, 5, 7)
    assert family_semigroup(5).generators == (5, 6, 7, 9)
    S = family_semigroup(6)
    assert S.frobenius == 10 and S.multiplicity == 6
    assert [family_index(family_semigroup(n)) for n in range(3, 60)] == list(range(3, 60))
    # <6,..,10> has the gaps 1..5 and 11, the member n = 6 the gaps 1..5 and 10
    for gens in [(2, 3), (3, 4, 5), (4, 5, 6, 7), (5, 6, 7, 8, 9), (6, 7, 8, 9, 10)]:
        assert family_index(semigroup(gens)) is None


def test_gate_pass_and_fail():
    require_gate([4, 5, 7], 2)
    with pytest.raises(GateError, match=r"\(3, 4, 5\): pseudo_symmetric=True, gaps=2$"):
        require_gate([3, 4, 5], 2)
    with pytest.raises(GateError, match=r"\(2, 3\): pseudo_symmetric=False, gaps=1$"):
        require_gate([2, 3], 2)


@pytest.mark.parametrize(
    "gens,count,t_gens,t_count",
    [
        ((4, 5, 7), 19, [4, 5, 6, 7], 42),
        ((5, 6, 7, 9), 711, [5, 6, 7, 8, 9], 15956),
        ((3, 7, 11), 9, [3, 7, 8], 16),
        ((4, 7, 9), 565, [4, 7, 9, 10], 7541),
        ((3, 8, 13), 15, [3, 8, 10], 33),
    ],
    ids=["457", "5679", "3-7-11", "479", "3-8-13"],
)
def test_counterexample_census_q2(gens, count, t_gens, t_count):
    # five of the six pseudo-symmetric semigroups with at least 4 gaps and
    # g <= 10, each with its overring T = R + R*t^g; the sixth,
    # <6,7,8,9,11>, has over 98 million closed families
    report = verify_counterexample(list(gens), 2)
    assert report.results["star_count"] == count
    assert report.results["overring_generators"] == t_gens
    assert report.results["overring_star_count"] == t_count
    assert report.all_verified()


@pytest.mark.parametrize(
    "gens,count,t_gens,t_count",
    [
        ((3, 7, 11), 15, [3, 7, 8], 28),
        ((3, 8, 13), 43, [3, 8, 10], 93),
        pytest.param((4, 7, 9), 7821, [4, 7, 9, 10], 225548, marks=pytest.mark.slow),
    ],
    ids=["3-7-11", "3-8-13", "479"],
)
def test_counterexample_census_q3(gens, count, t_gens, t_count):
    # the census at q = 3 beside <4,5,7>, whose counts test_formula_check_q3
    # pins; <5,6,7,9>, with 6,711,562 closed families on T, is left out
    report = verify_counterexample(list(gens), 3)
    assert report.results["star_count"] == count
    assert report.results["overring_generators"] == t_gens
    assert report.results["overring_star_count"] == t_count
    assert report.all_verified()


def test_counterexample_gate_error():
    with pytest.raises(GateError):
        verify_counterexample([3, 4, 5], 2)


def test_residue_family_q2():
    r_model = ring_model_for((4, 5, 7), 2)
    ops = residue_star_family(r_model)
    assert len(ops) == 3
    assert len({op.key() for op in ops}) == 3
    assert ops[-1] == divisorial_star(frobenius_overring_model(r_model))


def test_residue_family_q3():
    ops = residue_star_family(ring_model_for((4, 5, 7), 3))
    assert len(ops) == 4


@pytest.mark.parametrize("q", [4, 5])
def test_residue_family_on_digit_slots(q):
    # the generators u + alpha*z and the witness check on the digit-slot
    # layouts: q + 1 distinct operations, none closing (R:M_R), as in
    # criterion 7 of the acceptance suite
    r_model = ring_model_for((4, 5, 7), q)
    t_model = frobenius_overring_model(r_model)
    ops = residue_star_family(r_model)
    R = r_model.ring_ideal()
    L = convert_to_overring(R.colon(r_model.maximal_ideal()), t_model)
    assert len(ops) == q + 1
    assert len({op.key() for op in ops}) == q + 1
    assert not any(op.is_closed(L) for op in ops)


def test_residue_family_members_are_enumerated_stars():
    r_model = ring_model_for((4, 5, 7), 2)
    t_model = frobenius_overring_model(r_model)
    all_keys = {s.key() for s in enumerate_stars(t_model)}
    for op in residue_star_family(r_model):
        assert op.key() in all_keys


def test_star_counts_check_every_budget_before_forking(monkeypatch):
    # over budget on either ring, _star_counts raises before it opens a
    # worker pool, and for the first ring over budget, in order
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool opened over budget")

    monkeypatch.setattr("multiprocessing.Pool", refuse)
    with pytest.raises(BudgetError, match="^67 candidate ideals exceed budget 1$"):
        kunz_lab.formula_check(2, max_ideals=1, jobs=2)
    # <3,4,5> has 5 candidates and <4,5,7> 67: over a budget of 10, the
    # second ring stops the run before the first is counted
    with pytest.raises(BudgetError, match="^67 candidate ideals exceed budget 10$"):
        kunz_lab._star_counts([(3, 4, 5), (4, 5, 7)], 2, 10, None, None, 2)


@pytest.mark.parametrize(
    "q,n,cases",
    [(2, 5, 1870), (3, 4, 848), (4, 3, 132), (5, 3, 192)],
    ids=["q2", "q3", "q4", "q5"],
)
def test_least_element_of_valuation_matches_brute_force(q, n, cases):
    # every (subspace, valuation) pair of F_q^n: the least of all q^dim
    # elements with that valuation and leading coefficient 1, or None
    fld = field_from_order(q)
    seen = 0
    for sub in enumerate_subspaces(n, fld):
        elements = set()
        for coeffs in itertools.product(range(q), repeat=len(sub.rows)):
            vec = (0,) * n
            for c, row in zip(coeffs, sub.rows):
                vec = tuple(fld.add[a][fld.mul[c][b]] for a, b in zip(vec, row))
            elements.add(vec)
        for val in range(n):
            hits = [v for v in elements if v[val] == 1 and not any(v[:val])]
            expected = fld.packing.pack(min(hits)) if hits else None
            assert _least_element_of_valuation(sub, val) == expected
            seen += 1
    assert seen == cases


def test_residue_family_avoids_dual_of_maximal_ideal():
    r_model = ring_model_for((4, 5, 7), 2)
    t_model = frobenius_overring_model(r_model)
    R = r_model.ring_ideal()
    M = r_model.maximal_ideal()
    L = convert_to_overring(R.colon(M), t_model)
    for op in residue_star_family(r_model):
        assert not op.is_closed(L)


def test_subspace_lab_42():
    lab, part = subspace_lab(4, 2)
    assert lab.results["x_size"] == 6
    assert part.orbit_count == 4
    assert set(lab.verdicts.values()) == {"verified"}
    assert lab.results["three_dim_classes"] == 1


def test_subspace_lab_43():
    lab, part = subspace_lab(4, 3)
    assert lab.results["x_size"] == 12
    assert part.orbit_count == 6
    assert set(lab.verdicts.values()) == {"verified"}


def test_subspace_lab_52():
    lab, part = subspace_lab(5, 2)
    assert lab.results["x_size"] == 14
    assert part.orbit_count >= 7
    assert set(lab.verdicts.values()) == {"verified"}


def test_subspace_lab_prime_power():
    lab, part = subspace_lab(4, 4)
    assert lab.results["x_size"] == (4**3 - 4) // 3 == 20
    assert part.orbit_count == 8
    assert set(lab.verdicts.values()) == {"verified"}


def test_lab_partition_matches_ring_orbits_n4():
    # same partition through the ideal-lattice lift, for q = 2 and 3
    for q in (2, 3):
        cert = lower_bound_certificate(4, q)
        assert cert.verdicts["lab_partition_matches_ring_partition"] == "verified"


def test_lower_bound_certificate_52():
    cert = lower_bound_certificate(5, 2)
    assert cert.results["certified_lower_bound"] == 256
    assert cert.results["formula_floor"] == 128
    assert cert.results["certified_lower_bound"] >= 128
    assert cert.all_verified()
    assert cert.results["overring_stable_ideals"] == 67


def test_lower_bound_certificate_42_consistent_with_exact():
    cert = lower_bound_certificate(4, 2)
    assert cert.all_verified()
    bound = cert.results["certified_lower_bound"]
    assert bound == 16 and bound >= cert.results["formula_floor"] == 8
    assert bound <= star_count((4, 5, 7), 2) == 19


def _absorption_scan(n, q):
    """The certificate's non-absorption check as a scan of every unit image
    of each lifted representative against each other lift: whether some
    image lies inside, and the number of images scanned."""
    lab = subspace_lab(n, q)[1]
    model = ring_model_for(tuple(family_semigroup(n).generators), q)
    ws = workspace(model)
    lifts = [kunz_lab._lift_lab_subspace(model, rep) for rep in lab.reps]
    absorbed, checks = False, 0
    for a, b in itertools.permutations(lifts, 2):
        for rows in ws.partition.image_maps[ws.orbit_id(a)]:
            checks += 1
            absorbed |= b.contains_packed(rows)
    return absorbed, checks


@pytest.mark.parametrize("n,q", [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3)])
def test_non_absorption_matches_image_scan(n, q):
    cert = lower_bound_certificate(n, q)
    absorbed, checks = _absorption_scan(n, q)
    assert not absorbed
    assert cert.verdicts["mutual_non_absorption"] == "verified"
    assert cert.results["non_absorption_pairs_checked"] == checks


@pytest.mark.parametrize("into", ["V", "first"])
def test_non_absorption_catches_a_lift_inside_another(monkeypatch, into):
    # the last representative lifted to V, which holds every image of the
    # other lifts and has a larger dimension, or to the first lift, which
    # has the same
    lift = kunz_lab._lift_lab_subspace
    lab = subspace_lab(5, 2)[1]

    def patched(model, sub):
        if sub == lab.reps[-1]:
            if into == "V":
                return model.span_ideal(model.monomial(k) for k in range(model.head_dim))
            sub = lab.reps[0]
        return lift(model, sub)

    monkeypatch.setattr(kunz_lab, "_lift_lab_subspace", patched)
    cert = lower_bound_certificate(5, 2)
    absorbed, checks = _absorption_scan(5, 2)
    assert absorbed
    assert cert.verdicts["mutual_non_absorption"] == "failed"
    assert cert.results["non_absorption_pairs_checked"] == checks


def test_structure_report_457_q2():
    report = structure_report([4, 5, 7], 2)
    assert report.results["family_member"]
    assert report.all_verified()


def test_structure_report_5679_q2():
    report = structure_report([5, 6, 7, 9], 2)
    assert report.results["family_member"]
    assert report.all_verified()


@pytest.mark.parametrize("q", [2, 3])
def test_unit_translate_criterion_matches_every_unit(q):
    # the per-orbit criterion against J containing u * I for each unit u
    # with constant term 1; the pool varies it along J for a fixed orbit and
    # along the orbits for a fixed J, so neither key alone reproduces it
    model = ring_model_for((4, 5, 7), q)
    ws = workspace(model)
    pool = [I for I in ws.ideals if is_overring_stable(I) and not I.is_divisorial()]
    criterion = unit_translate_criterion(ws, pool)
    units = unit_representatives(model.field, model.head_dim)
    expected = {}
    for ix, I in enumerate(pool):
        images = {I.unit_image(u) for u in units}
        for jx, J in enumerate(pool):
            expected[(jx, ix)] = any(J.contains(image) for image in images)
    assert criterion == expected
    orbit = [ws.orbit_id(I) for I in pool]
    by_orbit, by_j = {}, {}
    for (jx, ix), hit in expected.items():
        by_orbit.setdefault(orbit[ix], set()).add(hit)
        by_j.setdefault(jx, set()).add(hit)
    assert any(len(hits) == 2 for hits in by_orbit.values())
    assert any(len(hits) == 2 for hits in by_j.values())


def test_formula_check_q2():
    report = formula_check(2)
    assert report.all_verified()
    assert report.results["star_count"] == 19
    assert report.results["overring_star_count"] == 42


def test_formula_check_dumps_families_on_a_mismatch(monkeypatch):
    # a count off the closed form makes the report list every closed family
    # by its ascending orbit ids, in enumeration order
    monkeypatch.setattr(kunz_lab, "star_count", lambda *args: 0)
    report = formula_check(2)
    assert report.verdicts["ring_count_matches_formula"] == "failed"
    ws = workspace(ring_model_for((4, 5, 7), 2))
    n = ws.partition.orbit_count
    families = report.results["closed_families"]
    assert len(families) == 19
    assert families[0] == [oid for oid in range(n) if ws.divisorial_ids >> oid & 1]
    assert families[-1] == list(range(n))


def test_formula_check_q3():
    report = formula_check(3)
    assert report.all_verified()
    assert report.results["star_count"] == 67  # 2^6 + 3
    assert report.results["overring_star_count"] == 146  # 2^7 + 2^4 + 2


def test_formula_check_q5():
    report = formula_check(5)
    assert report.all_verified()
    assert report.results["star_count"] == 1027  # 2^10 + 3
    assert report.results["overring_star_count"] == 2114  # 2^11 + 2^6 + 2


def test_formula_check_rejects_other_n():
    with pytest.raises(InputError):
        formula_check(2, n=5)


def test_small_case_reports_value():
    report = small_case_report(2)
    assert report.results["star_count"] == 3
    # the cited count 4 belongs to the n = 3 family member
    assert small_case_report(2, gens=(3, 5, 7)).results["star_count"] == 4


def test_counterexample_budget_skip_path():
    # the certified bound runs under the same ideal budget as the counts
    report = verify_counterexample([4, 5, 7], 2, max_ideals=3)
    assert report.verdicts["counterexample"] == "skipped(budget)"
    assert report.results["certified_lower_bound"] is None
    # a skip through the orbit cap leaves the ideal budget free to certify
    report = verify_counterexample([4, 5, 7], 2, max_orbits=1)
    assert report.verdicts["counterexample"] == "skipped(budget)"
    assert report.results["certified_lower_bound"] == 16


def test_restriction_image_misses_residue_family():
    from ring_helpers import identity_star as d_star
    from starlab.star_engine import (
        divisorial_star as v_star,
        restrict_star,
    )

    r_model = ring_model_for((4, 5, 7), 2)
    t_model = frobenius_overring_model(r_model)
    image_keys = {
        restrict_star(s).key()
        for s in enumerate_stars(r_model)
        if s not in (d_star(r_model), v_star(r_model))
    }
    family_keys = {op.key() for op in residue_star_family(r_model)}
    assert not (image_keys & family_keys)
    assert len(image_keys) + len(family_keys) <= len(enumerate_stars(t_model))


@pytest.mark.parametrize(
    "gens,q,count",
    [
        ((5, 6, 7, 9), 2, 711),
        ((5, 6, 7, 8, 9), 2, 15956),
        ((4, 5, 7), 2, 2**4 + 3),
        ((4, 5, 6, 7), 2, 2**5 + 2**3 + 2),
        ((4, 5, 7), 3, 2**6 + 3),
        ((4, 5, 6, 7), 3, 2**7 + 2**4 + 2),
    ],
)
def test_star_count_keeps_no_stars(monkeypatch, gens, q, count):
    # the count walks the closed families that enumerate_stars sorts, keeps
    # none of them, and honours the orbit cap like the enumeration
    ws = workspace(ring_model_for(gens, q))
    monkeypatch.setattr(ws, "_stars", None)
    assert star_count(gens, q) == count
    assert ws._stars is None
    assert len(enumerate_stars(ws.model)) == count
    cap = ws.partition.orbit_count - 1
    with pytest.raises(BudgetError):
        star_count(gens, q, max_orbits=cap)
    with pytest.raises(BudgetError):
        enumerate_stars(ws.model, cap)
