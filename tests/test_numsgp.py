import itertools

import pytest

from starlab.errors import InputError
from starlab.numsgp import (
    NumericalSemigroup,
    SemigroupIdeal,
    canonical_ideal,
    enumerate_ideals,
    enumerate_stars,
    is_pseudo_symmetric,
    is_symmetric,
    maximal_ideal,
    pseudo_frobenius_pair,
    semigroup,
)

from numsgp_reference import RefIdeal, RefSemigroup


def all_semigroups_with_frobenius_upto(bound):
    """Every numerical semigroup whose Frobenius number is <= bound, by
    scanning candidate gap sets."""
    out = []
    universe = list(range(1, bound + 1))
    for r in range(len(universe) + 1):
        for gapset in itertools.combinations(universe, r):
            try:
                out.append(NumericalSemigroup.from_gaps(gapset))
            except InputError:
                continue
    return out


def assert_semigroup_matches(S, ref):
    g = ref.frobenius
    assert S.frobenius == g and S.gaps == ref.gaps and S.genus == len(ref.gaps)
    assert S.multiplicity == ref.multiplicity and S.generators == ref.generators
    assert all(S.contains(x) == ref.contains(x) for x in range(-2, 2 * g + 4))
    assert is_symmetric(S) == ref.is_symmetric()
    assert is_pseudo_symmetric(S) == ref.is_pseudo_symmetric()
    assert canonical_ideal(S).members_upto(2 * g + 2) == ref.canonical_ideal().members_upto(
        2 * g + 2
    )
    if ref.is_pseudo_symmetric() and len(ref.gaps) >= 4:
        assert pseudo_frobenius_pair(S) == ref.witness_pair()


def test_semigroups_match_reference():
    # every gap set inside [1, 10], through from_gaps and through the
    # minimal generators, against the bool-table semigroup
    checked = 0
    for r in range(1, 11):
        for gapset in itertools.combinations(range(1, 11), r):
            ref = RefSemigroup.from_gaps(set(gapset))
            if ref is None:
                with pytest.raises(InputError):
                    NumericalSemigroup.from_gaps(gapset)
                continue
            assert_semigroup_matches(NumericalSemigroup.from_gaps(gapset), ref)
            assert_semigroup_matches(semigroup(ref.generators), ref)
            checked += 1
    assert checked == 79
    for gens in ((60, 61), (100, 101, 103)):
        assert_semigroup_matches(semigroup(gens), RefSemigroup.from_generators(gens))


def test_ideal_arithmetic_matches_reference():
    # every ordered pair of ideals of every semigroup with g <= 7, the
    # second translated by 0, 1 and 3, against the frozenset arithmetic
    def same(E, ref):
        low = E.members_upto(E.shift + E.sgp.frobenius)
        return E.shift == ref.shift and low == tuple(sorted(ref.shift + x for x in ref.small))

    for S in all_semigroups_with_frobenius_upto(7):
        g = S.frobenius
        if g < 1:
            continue
        ref_S = RefSemigroup.from_gaps(set(S.gaps))
        ideals = enumerate_ideals(S)
        # the ideals by definition: S with a set of gaps that adding a
        # generator keeps inside
        expected = []
        for r in range(len(S.gaps) + 1):
            for extra in itertools.combinations(S.gaps, r):
                members = set(ref_S.ideal().small) | set(extra)
                if all(x + s > g or x + s in members for x in members for s in S.generators):
                    expected.append(tuple(sorted(members)))
        assert [E.members_upto(g) for E in ideals] == sorted(expected)
        refs = [RefIdeal(ref_S, 0, E.members_upto(g)) for E in ideals]
        for (E, ref_E), (F, ref_F) in itertools.product(zip(ideals, refs), repeat=2):
            for k in (0, 1, 3):
                Fk, ref_Fk = F.translate(k), ref_F.translate(k)
                assert same(Fk, ref_Fk) and same(Fk.normalize(), ref_Fk.normalize())
                meet, ref_meet = E.intersect(Fk), ref_E.intersect(ref_Fk)
                assert same(meet, ref_meet) and same(meet.normalize(), ref_meet.normalize())
                assert same(E.colon(Fk), ref_E.colon(ref_Fk))


def test_from_generators_457():
    S = semigroup([4, 5, 7])
    assert S.gaps == (1, 2, 3, 6)
    assert S.frobenius == 6
    assert S.multiplicity == 4
    assert S.generators == (4, 5, 7)


def test_from_generators_23():
    S = semigroup([2, 3])
    assert S.gaps == (1,)
    assert S.frobenius == 1


def test_minimal_generators_match_definition():
    # the nonzero members that are no sum of two nonzero members; past
    # F + m every member x is m + (x - m), and m <= F + 1
    for S in all_semigroups_with_frobenius_upto(10):
        members = [x for x in range(1, 2 * S.frobenius + 4) if S.contains(x)]
        expected = tuple(
            x for x in members if not any(S.contains(x - a) for a in members if a < x)
        )
        assert S.generators == expected
        assert semigroup(S.generators) == S


def test_two_generators_far_apart():
    S = semigroup([60, 61])
    assert S.generators == (60, 61)
    assert S.frobenius == 3539


def test_gcd_rejected():
    with pytest.raises(InputError):
        semigroup([4, 6])


def test_membership_and_genus():
    S = semigroup([3, 5, 7])
    assert S.gaps == (1, 2, 4)
    assert [S.contains(x) for x in range(8)] == [True, False, False, True, False, True, True, True]


def test_pseudo_symmetric_examples():
    assert is_pseudo_symmetric(semigroup([3, 4, 5]))
    assert not is_pseudo_symmetric(semigroup([2, 3]))  # odd Frobenius number
    assert is_pseudo_symmetric(semigroup([4, 5, 7]))
    assert is_pseudo_symmetric(semigroup([3, 5, 7]))
    assert is_pseudo_symmetric(semigroup([5, 6, 7, 9]))


def brute_pseudo_symmetric(S):
    g = S.frobenius
    if g < 0 or g % 2:
        return False
    return all(
        S.contains(a) or S.contains(g - a)
        for a in range(g + 1)
        if a != g // 2
    )


def test_pseudo_symmetric_agrees_with_definition():
    for S in all_semigroups_with_frobenius_upto(10):
        if S.frobenius >= 1:
            assert is_pseudo_symmetric(S) == brute_pseudo_symmetric(S), S


def test_only_two_small_pseudo_symmetric_semigroups():
    found = [
        S
        for S in all_semigroups_with_frobenius_upto(6)
        if S.frobenius >= 1 and is_pseudo_symmetric(S) and S.genus <= 3
    ]
    assert sorted(s.generators for s in found) == [(3, 4, 5), (3, 5, 7)]


def test_canonical_ideal_examples():
    S = semigroup([4, 5, 7])
    K = canonical_ideal(S)
    assert K.members_upto(7) == (0, 3, 4, 5, 7)  # S with tau adjoined
    S2 = semigroup([2, 3])
    assert canonical_ideal(S2) == SemigroupIdeal.of_semigroup(S2)
    S3 = semigroup([3, 5, 7])
    assert canonical_ideal(S3).members_upto(5) == (0, 2, 3, 5)


def test_colon_maximal_ideal():
    S = semigroup([4, 5, 7])
    SS = SemigroupIdeal.of_semigroup(S)
    L = SS.colon(maximal_ideal(S))
    assert L.members_upto(8) == (0, 3, 4, 5, 6, 7, 8)  # S + {tau, g}


def test_colon_by_semigroup_is_identity():
    S = semigroup([4, 5, 7])
    SS = SemigroupIdeal.of_semigroup(S)
    for E in enumerate_ideals(S):
        assert E.colon(SS) == E


def test_translate_zero_identity():
    S = semigroup([4, 5, 7])
    for E in enumerate_ideals(S):
        assert E.translate(0) == E
        assert E.translate(3).normalize() == E


def test_v_closure_examples():
    S = semigroup([4, 5, 7])
    SS = SemigroupIdeal.of_semigroup(S)
    assert SS.v_closure() == SS
    K = canonical_ideal(S)
    assert K.v_closure().members_upto(8) == (0, 3, 4, 5, 6, 7, 8)


def test_v_closure_is_closure_operator():
    for gens in ([4, 5, 7], [3, 5, 7], [5, 6, 7, 9]):
        S = semigroup(gens)
        ideals = enumerate_ideals(S)
        closures = {E: E.v_closure() for E in ideals}
        for E in ideals:
            Ev = closures[E]
            assert all(Ev.contains(x) for x in E.members_upto(2 * S.frobenius))
            assert Ev.v_closure() == Ev
        for E, F in itertools.product(ideals, repeat=2):
            if all(F.contains(x) for x in E.members_upto(2 * S.frobenius)):
                assert all(
                    closures[F].contains(x)
                    for x in closures[E].members_upto(2 * S.frobenius)
                )


def test_divisorial_iff_no_member_missing_tau_shift():
    # for pseudo-symmetric S and E strictly between S and N: E is divisorial
    # iff no n in E has n + tau outside E. (S itself is divisorial trivially
    # although 0 + tau misses S, so it sits outside the criterion.)
    for gens in ([4, 5, 7], [3, 5, 7], [5, 6, 7, 9]):
        S = semigroup(gens)
        tau = S.tau
        SS = SemigroupIdeal.of_semigroup(S)
        assert SS.is_divisorial()
        for E in enumerate_ideals(S):
            if E == SS:
                continue
            criterion = all(
                E.contains(n + tau)
                for n in E.members_upto(2 * S.frobenius + 2)
            )
            assert criterion == E.is_divisorial(), (gens, E)


def test_witness_pair_457():
    S = semigroup([4, 5, 7])
    assert pseudo_frobenius_pair(S) == (3, 2)


def test_witness_pair_5679():
    S = semigroup([5, 6, 7, 9])
    assert pseudo_frobenius_pair(S) == (4, 3)


def test_witness_pair_rejects_small():
    with pytest.raises(InputError):
        pseudo_frobenius_pair(semigroup([3, 4, 5]))


def test_witness_pair_all_small_pseudo_symmetric():
    for S in all_semigroups_with_frobenius_upto(14):
        if S.frobenius >= 1 and is_pseudo_symmetric(S) and S.genus >= 4:
            a, b = pseudo_frobenius_pair(S)
            assert a == S.frobenius // 2 and b == S.frobenius - S.multiplicity


def test_enumerate_ideals_23():
    S = semigroup([2, 3])
    ideals = enumerate_ideals(S)
    assert len(ideals) == 2  # S and N


def test_enumerate_ideals_457():
    S = semigroup([4, 5, 7])
    ideals = enumerate_ideals(S)
    assert len(set(ideals)) == len(ideals)
    for E in ideals:
        assert E.contains(0) and E.shift == 0


def brute_force_star_count(S):
    """Independent oracle: filter every subset of the ideal list for the
    closure-family conditions instead of searching by closure expansion."""
    ideals = enumerate_ideals(S)
    index = {E: i for i, E in enumerate(ideals)}
    g = S.frobenius
    div = frozenset(i for i, E in enumerate(ideals) if E.is_divisorial())
    count = 0
    for r in range(len(ideals) + 1):
        for combo in itertools.combinations(range(len(ideals)), r):
            fam = frozenset(combo)
            if not div <= fam:
                continue
            ok = True
            for i in fam:
                for j in fam:
                    for k in range(0, g + 2):
                        res = ideals[i].intersect(ideals[j].translate(k)).normalize()
                        if index[res] not in fam:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


def test_stars_23_gorenstein():
    S = semigroup([2, 3])
    count, families, _ = enumerate_stars(S)
    assert count == 1 == brute_force_star_count(S)
    assert len(families) == 1


def test_stars_345():
    S = semigroup([3, 4, 5])
    count, families, ideals = enumerate_stars(S)
    assert count > 1
    assert count == brute_force_star_count(S) == 3


def test_stars_357():
    S = semigroup([3, 5, 7])
    count, _, _ = enumerate_stars(S)
    assert count == brute_force_star_count(S) == 4


def test_star_count_one_iff_symmetric():
    for S in all_semigroups_with_frobenius_upto(5):
        if S.frobenius < 1:
            continue
        count, _, _ = enumerate_stars(S)
        assert (count == 1) == is_symmetric(S), S.generators
