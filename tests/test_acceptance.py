"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. Heavy pipelines (q = 4) are shared across criteria through
the in-process model caches.

Known divergence: the small-case criterion pins the star-operation count of
the ring over <3,4,5> at q = 2 to 4. The engine computes 3, two independent
oracles agree (a subset-filter count over the closure table and the
semigroup-level count in tests/test_numsgp.py), and 4 is the count for
<3,5,7>, which this suite checks separately. The pinned assertion is kept as
stated, so that test fails by design; see notes/decisions ledger outside the
package for the full analysis.
"""

import itertools
import json

from starlab.cli import main as cli_main
from starlab.kunz_lab import (
    lower_bound_certificate,
    residue_star_family,
    ring_model_for,
    star_count,
    structure_report,
    subspace_lab,
)
from starlab.numsgp import NumericalSemigroup, is_pseudo_symmetric
from starlab.ring_model import (
    convert_to_overring,
    frobenius_overring_model,
)
from starlab.star_engine import (
    classify_family,
    divisorial_star,
    enumerate_stars,
    restrict_star,
    verify_star_axioms,
    workspace,
)

from ring_helpers import identity_star


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_count_main_result():
    counts = {q: star_count((4, 5, 7), q) for q in (2, 3, 4)}
    expected = {q: 2 ** (2 * q) + 3 for q in (2, 3, 4)}
    report(
        1,
        counts == expected,
        f"star counts for <4,5,7> {counts} vs closed form {expected}",
    )


def test_criterion_2_overring_count():
    counts = {q: star_count((4, 5, 6, 7), q) for q in (2, 3)}
    expected = {q: 2 ** (2 * q + 1) + 2 ** (q + 1) + 2 for q in (2, 3)}
    report(
        2,
        counts == expected,
        f"star counts for the overring {counts} vs closed form {expected}",
    )


def test_criterion_3_counterexample_theorem():
    ok = True
    details = []
    for q in (2, 3, 4):
        n_r = star_count((4, 5, 7), q)
        n_t = star_count((4, 5, 6, 7), q)
        good = (n_r < n_t) and (n_r <= n_t - q + 1)
        ok = ok and good
        details.append(f"q={q}: {n_r} < {n_t}, gap>={q - 1}")
    report(3, ok, "; ".join(details))


def test_criterion_4_small_case():
    computed = {q: star_count((3, 4, 5), q) for q in (2, 3)}
    # deviations at q != 2 are reported, not asserted
    print(
        f"criterion 4 report: computed star counts for <3,4,5>: {computed}"
        f" (for comparison, <3,5,7> at q=2 gives {star_count((3, 5, 7), 2)})"
    )
    report(
        4,
        computed[2] == 4,
        f"star count for <3,4,5> at q=2 is {computed[2]}, required 4",
    )


def test_criterion_5_lower_bound_certificate():
    cert = lower_bound_certificate(5, 2)
    ok = (
        cert.all_verified()
        and cert.results["certified_lower_bound"] >= 128
        and cert.results["formula_floor"] == 128
    )
    report(
        5,
        ok,
        f"certified {cert.results['certified_lower_bound']} >= 128 without"
        f" enumeration, verdicts {sorted(set(cert.verdicts.values()))}",
    )


def test_criterion_6_subspace_lab():
    lab42 = subspace_lab(4, 2)
    lab43 = subspace_lab(4, 3)
    ok = (
        lab42.results["x_size"] == 6
        and lab42.class_count == 4
        and lab43.results["x_size"] == 12
        and lab43.class_count == 6
        and lab42.results["three_dim_classes"] == 1
        and lab43.results["three_dim_classes"] == 1
        and set(lab42.verdicts.values()) == {"verified"}
        and set(lab43.verdicts.values()) == {"verified"}
    )
    report(
        6,
        ok,
        f"(4,2): |X|={lab42.results['x_size']}, {lab42.class_count} classes;"
        f" (4,3): |X|={lab43.results['x_size']}, {lab43.class_count} classes;"
        " 3-dim subspaces single class",
    )


def test_criterion_7_residue_star_family():
    ok = True
    details = []
    for q in (2, 3):
        r_model = ring_model_for((4, 5, 7), q)
        t_model = frobenius_overring_model(r_model)
        ops = residue_star_family(r_model)
        R = r_model.ring_ideal()
        M = r_model.maximal_ideal()
        L = convert_to_overring(R.colon(M), t_model)
        T = t_model.ring_ideal()
        M_T = t_model.maximal_ideal()
        good = (
            len(ops) == q + 1
            and len({op.key() for op in ops}) == q + 1
            and all(not op.is_closed(L) for op in ops)
            and L.v_closure() == T.colon(M_T)
        )
        ok = ok and good
        details.append(f"q={q}: {len(ops)} distinct, none closes (R:M_R)")
    report(7, ok, "; ".join(details))


def test_criterion_8_restriction_structure():
    model = ring_model_for((4, 5, 7), 2)
    t_model = frobenius_overring_model(model)
    stars = enumerate_stars(model)
    t_stars = enumerate_stars(t_model)
    d = identity_star(model)
    v = divisorial_star(model)
    images = [restrict_star(s).key() for s in stars if s not in (d, v)]
    injective = len(set(images)) == len(images)
    bounded = len(stars) <= len(t_stars) + 2
    valid = set(images) <= {s.key() for s in t_stars}
    report(
        8,
        injective and bounded and valid,
        f"restriction injective on {len(images)} operations,"
        f" {len(stars)} <= {len(t_stars)} + 2",
    )


def test_criterion_9_property_suites():
    ok = True
    details = []

    # star axioms with exhaustive unit sweep, n = 4, q <= 3
    for q in (2, 3):
        model = ring_model_for((4, 5, 7), q)
        for star in enumerate_stars(model):
            verify_star_axioms(star, full_unit_sweep=True)
    details.append("axioms+equivariance exhaustive (n=4, q=2,3)")

    # structural suites (length identity, four-way detection, closure
    # criteria) for n = 4, 5 and q = 2, 3
    for gens in ((4, 5, 7), (5, 6, 7, 9)):
        for q in (2, 3):
            rep = structure_report(list(gens), q)
            if not rep.all_verified():
                ok = False
                details.append(f"structure {gens} q={q}: {rep.verdicts}")
    details.append("structure suites verified (n=4,5; q=2,3)")

    # closed-family trichotomy at n = 4, q = 2, 3
    for q in (2, 3):
        model = ring_model_for((4, 5, 7), q)
        ws = workspace(model)
        tags = {}
        for star in enumerate_stars(model):
            tag = classify_family(ws, star.closed)
            tags[tag] = tags.get(tag, 0) + 1
        expected = {
            "identity": 1,
            "divisorial": 1,
            "all_but_canonical_class": 1,
            "unit_class_union_with_overring": 2 ** (2 * q),
        }
        if tags != expected:
            ok = False
            details.append(f"trichotomy q={q}: {tags}")
    details.append("trichotomy verified (q=2,3)")

    # the only pseudo-symmetric semigroups with <= 3 gaps, scanning g <= 6
    found = []
    for r in range(7):
        for gapset in itertools.combinations(range(1, 7), r):
            try:
                S = NumericalSemigroup.from_gaps(gapset)
            except Exception:
                continue
            if S.frobenius >= 1 and is_pseudo_symmetric(S) and S.genus <= 3:
                found.append(S.generators)
    if sorted(found) != [(3, 4, 5), (3, 5, 7)]:
        ok = False
        details.append(f"small pseudo-symmetric scan found {found}")
    details.append("small pseudo-symmetric scan verified")

    report(9, ok, "; ".join(details))


def test_criterion_10_determinism_across_jobs(capsys):
    commands = [
        ["ring", "enum-stars", "--gens", "3,4,5", "--q", "2"],
        ["ring", "enum-stars", "--gens", "4,5,7", "--q", "2"],
        ["ring", "enum-stars", "--gens", "4,5,7", "--q", "3"],
        ["ring", "enum-stars", "--gens", "4,5,7", "--q", "4"],
        ["ring", "enum-stars", "--gens", "4,5,6,7", "--q", "2"],
        ["ring", "enum-stars", "--gens", "4,5,6,7", "--q", "3"],
        ["kunz", "counterexample", "--gens", "4,5,7", "--q", "2"],
        ["kunz", "counterexample", "--gens", "4,5,7", "--q", "3"],
        ["kunz", "counterexample", "--gens", "4,5,7", "--q", "4"],
        ["kunz", "lower-bound", "--n", "5", "--q", "2"],
        ["kunz", "subspace-orbits", "--n", "4", "--q", "2"],
        ["kunz", "subspace-orbits", "--n", "4", "--q", "3"],
        ["kunz", "lemmas", "--gens", "4,5,7", "--q", "2"],
    ]
    ok = True
    for argv in commands:
        outputs = set()
        for jobs in ("1", "2", "4"):
            code = cli_main(argv + ["--jobs", jobs])
            out = capsys.readouterr().out
            assert code == 0, argv
            json.loads(out)  # must be well-formed JSON
            outputs.add(out)
        if len(outputs) != 1:
            ok = False
            print(f"criterion 10: divergent output for {argv}")
    with capsys.disabled():
        report(10, ok, f"{len(commands)} commands byte-identical across --jobs 1,2,4")
