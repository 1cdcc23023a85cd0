"""Executable reproductions of the named results: the star-regularity
counterexample, the residue-indexed star family on the overring, the
subspace laboratory, exact count checks and certified lower bounds.

Each command returns a KunzReport: its input, its results, and verdicts
whose values are "verified", "failed" or "skipped(budget)"; a failed
verdict is recorded, not silently repaired.
"""

from __future__ import annotations

import itertools

from .errors import BudgetError, DeadlineError, GateError, InputError, InvariantError, check_budget
from .fq_linear import (
    Subspace,
    count_subspaces,
    field_from_order,
    partition_subspaces,
    series_inv,
    series_mul,
    subspace_unit_image,
    unit_image_map,
)
from .numsgp import (
    NumericalSemigroup,
    is_pseudo_symmetric,
    pseudo_frobenius_pair,
    semigroup,
)
from .ring_model import (
    RingIdeal,
    check_ideal_budget,
    convert_to_overring,
    frobenius_overring_model,
    is_overring_stable,
    semigroup_ring_model,
)
from .star_engine import (
    DEFAULT_MAX_IDEALS,
    DEFAULT_MAX_ORBITS,
    StarOperation,
    closed_families,
    divisorial_star,
    enumerate_stars,
    verify_star_axioms,
    workspace,
)


class KunzReport:
    """Aggregated, JSON-ready run report."""

    def __init__(self, input: dict):
        self.input = input
        self.results = {}
        self.verdicts = {}

    def verdict(self, name: str, ok: bool):
        self.verdicts[name] = "verified" if ok else "failed"

    def all_verified(self) -> bool:
        return all(v == "verified" for v in self.verdicts.values())


# ---------------------------------------------------------------------------
# model pipeline


def ring_model_for(gens, q, modulus=None):
    """The process's one model of K[[<gens>]] over F_q."""
    return semigroup_ring_model(semigroup(gens), field_from_order(q, modulus))


def star_count(
    gens, q, max_ideals=DEFAULT_MAX_IDEALS, max_orbits=DEFAULT_MAX_ORBITS, modulus=None
) -> int:
    """Number of star operations on the model of K[[<gens>]] over F_q:
    the closed families counted as they are walked, none of them kept."""
    model = ring_model_for(gens, q, modulus)
    return sum(1 for _ in closed_families(model, max_orbits, max_ideals)[1])


def family_semigroup(n: int) -> NumericalSemigroup:
    """The pseudo-symmetric semigroup {0} + [n, 2n-3] + [2n-1, inf), n >= 3."""
    if n < 3:
        raise InputError("the family needs n >= 3")
    gaps = list(range(1, n)) + [2 * n - 2]
    return NumericalSemigroup.from_gaps(gaps)


def family_index(S: NumericalSemigroup) -> int | None:
    """The n with S = family_semigroup(n), or None: a member's Frobenius
    number is 2n - 2."""
    n = (S.frobenius + 2) // 2
    return n if n >= 3 and S == family_semigroup(n) else None


# ---------------------------------------------------------------------------
# hypothesis gate


def require_gate(gens, q, modulus=None):
    """Raise GateError unless both counterexample hypotheses hold: a
    pseudo-symmetric value semigroup and at least 4 gaps (equivalently
    length(V/R) >= 4). q and the modulus are validated first."""
    S = semigroup(gens)
    field_from_order(q, modulus)
    ps = is_pseudo_symmetric(S)
    if not (ps and S.genus >= 4):
        raise GateError(
            f"hypotheses not met for {tuple(gens)}: pseudo_symmetric={ps}, gaps={S.genus}"
        )


# ---------------------------------------------------------------------------
# the residue-indexed star family on T


def _least_element_of_valuation(sub: Subspace, val: int):
    """The lexicographically least element of the subspace with the given
    valuation and leading coefficient 1, packed, or None: the reduced
    echelon row with pivot val. Any other such element adds c times rows of
    later pivots to it; at the first pivot p with c nonzero the two differ
    first, and there the echelon row is 0."""
    for r, p in zip(sub.packed, sub.pivots):
        if p == val:
            return r
    return None


def residue_star_family(r_model):
    """q + 1 pairwise distinct star operations on T, none closing (R:M_R).

    The two witness valuations a, b come from the pseudo-Frobenius pair of
    S. The adjoined generators are u + alpha*z over the residue
    representatives alpha, where u is the lexicographically least
    valuation-b element of (T:M_T) (it lies outside (R:M_R) because b is
    not a valuation of that ideal) and z is the lexicographically least
    valuation-a element of (R:M_R). Keeping the unscaled generator outside
    (R:M_R) and the scaled one inside makes every member u + alpha*z a
    witness that T_alpha = T + (u + alpha*z)T moves (R:M_R); scaling the
    outside element instead would let the zero representative collapse into
    an (R:M_R)-stable adjoint. The operations are J -> J^{v_T} meet
    J*T_alpha, together with v_T; the full axiom suite, the pairwise
    separation of the T_alpha, and (R:M_R)^{v_T} = (T:M_T) are all checked.
    Elements are packed heads, mod t^(g+1) for the g of T: both ideals
    contain T's conductor, so the least element is the least head.
    """
    S = r_model.sgp
    if not is_pseudo_symmetric(S) or S.genus < 4:
        raise GateError("residue star family needs the counterexample hypotheses")
    t_model = frobenius_overring_model(r_model)
    t_ws = workspace(t_model)
    q = t_model.field.q
    a, b = pseudo_frobenius_pair(S)

    T = t_model.ring_ideal()
    M_T = t_model.maximal_ideal()
    L_T = T.colon(M_T)

    R = r_model.ring_ideal()
    M_R = r_model.maximal_ideal()
    L_R = R.colon(M_R)
    if not is_overring_stable(L_R):
        raise InvariantError("(R:M_R) is not an overring module")
    L_R_in_t = convert_to_overring(L_R, t_model)
    if L_R_in_t.v_closure() != L_T:
        raise InvariantError("(R:M_R)^v over T is not (T:M_T)")

    u = _least_element_of_valuation(L_T.head, b)
    if u is None:
        raise InvariantError(f"no element of valuation {b} in (T:M_T)")
    if L_R_in_t.contains_packed((u,)):
        raise InvariantError(f"valuation-{b} element unexpectedly inside (R:M_R)")
    z = _least_element_of_valuation(L_R_in_t.head, a)
    if z is None:
        raise InvariantError(f"no element of valuation {a} in (R:M_R)")
    if not L_T.contains_packed((z,)):
        raise InvariantError("(R:M_R) escaped (T:M_T)")

    fld = t_model.field
    kern = fld.packing
    adjoined = []
    stars = []
    for alpha in range(q):
        gen = kern.add(u, kern.scale(alpha, z))
        if L_R_in_t.contains_packed((gen,)):
            raise InvariantError("adjoined generator fell into (R:M_R)")
        T_i = t_model.span_ideal(list(T.head.packed) + [gen])
        if not T_i.in_f0():
            raise InvariantError("adjoined overring left F_0(T)")
        if not T_i.contains_packed((series_mul(gen, gen, fld, t_model.head_dim),)):
            raise InvariantError("adjoined module is not multiplicatively closed")
        adjoined.append(T_i)
        family = t_ws.family(
            J for J in t_ws.ideals if J.v_closure().intersect(J.product(T_i)) == J
        )
        if t_ws.close(family) != family:
            raise InvariantError("residue star family member is not closure stable")
        stars.append(StarOperation(t_ws, family))

    for star in stars:
        verify_star_axioms(star)
    for i, star in enumerate(stars):
        if not star.is_closed(adjoined[i]):
            raise InvariantError("star_i does not close its own T_i")
        for j in range(q):
            if j != i and star.is_closed(adjoined[j]):
                raise InvariantError("star_i closes a foreign T_j")
        if star.is_closed(L_R_in_t):
            raise InvariantError("a residue star closes (R:M_R)")
        for j in range(q):
            # the difference of the generators of T_i and T_j is a unit
            # multiple of z, so z witnesses the separation
            if j != i and not star.apply(adjoined[j]).contains_packed((z,)):
                raise InvariantError("witness missing from the closure of a foreign adjoint")
    v_t = divisorial_star(t_model)
    if v_t.is_closed(L_R_in_t):
        raise InvariantError("v_T closes (R:M_R)")
    all_ops = stars + [v_t]
    if len({s.key() for s in all_ops}) != q + 1:
        raise InvariantError("residue star family is not pairwise distinct")
    return all_ops


# ---------------------------------------------------------------------------
# the counterexample verdict


def _star_counts(gens_list, q, max_ideals, max_orbits, modulus, jobs):
    """star_count of each generator list, in order; on up to `jobs` worker
    processes when jobs > 1. The inputs and ideal budgets are checked
    first, ring by ring as star_count checks them, so a run over budget
    stops the same way on any number of jobs, and forks no worker."""
    for gens in gens_list:
        S = semigroup(gens)
        field_from_order(q, modulus)
        check_ideal_budget(S, q, max_ideals)
    calls = [(gens, q, max_ideals, max_orbits, modulus) for gens in gens_list]
    if jobs <= 1:
        return [star_count(*call) for call in calls]
    import multiprocessing

    # leaving the block terminates the workers, so a deadline raised in the
    # parent does not wait for them (forked workers hold no alarm)
    with multiprocessing.Pool(min(jobs, len(calls))) as pool:
        pending = [pool.apply_async(star_count, call) for call in calls]
        return [p.get() for p in pending]


def verify_counterexample(
    gens, q, max_ideals=DEFAULT_MAX_IDEALS, max_orbits=DEFAULT_MAX_ORBITS, jobs=1, modulus=None
) -> KunzReport:
    """1 < |Star(R)| < |Star(T)|, with the gap |Star(T)| - |Star(R)| >= q - 1.

    The two enumerations are independent and run on up to `jobs` processes.
    A cap that skips them still certifies the bound of a family member; a
    deadline skips that too.
    """
    require_gate(gens, q, modulus)
    S = semigroup(gens)
    report = KunzReport(
        input={"generators": list(S.generators), "q": q, "command": "kunz counterexample"}
    )
    t_gens = list(S.adjoin_frobenius().generators)
    try:
        counts = _star_counts(
            [list(S.generators), t_gens], q, max_ideals, max_orbits, modulus, jobs
        )
    except BudgetError as exc:
        report.results["budget_error"] = str(exc)
        report.verdicts["counterexample"] = "skipped(budget)"
        report.results["certified_lower_bound"] = None
        if not isinstance(exc, DeadlineError):
            _attach_certified_bound(report, S, q, max_ideals, modulus)
        return report
    n_r, n_t = counts
    report.results["star_count"] = n_r
    report.results["overring_star_count"] = n_t
    report.results["overring_generators"] = t_gens
    report.verdict("finitely_many_but_more_than_one", 1 < n_r)
    report.verdict("strict_inequality", n_r < n_t)
    report.verdict("gap_bound", n_r <= n_t - q + 1)
    return report


def _attach_certified_bound(report, S, q, max_ideals, modulus):
    """The family member's certified bound, under the run's own ideal budget
    and modulus; left None when S is no family member or the budget is
    exceeded."""
    n = family_index(S)
    if n is None:
        return
    try:
        cert = lower_bound_certificate(n, q, max_ideals, modulus)
    except BudgetError:
        return
    report.results["certified_lower_bound"] = cert.results["certified_lower_bound"]


# ---------------------------------------------------------------------------
# the subspace laboratory


def subspace_lab(n: int, q: int, max_ideals=DEFAULT_MAX_IDEALS, modulus=None):
    """The set X of 2-dimensional subspaces of K[x]/(x^n) containing e_0 but
    not e_{n-1}, partitioned by the valuation-zero unit action.

    Returns the `kunz subspace-orbits` report and the partition, whose
    items are X, whose reps are the class representatives and whose
    orbit_count is the class count.
    """
    if n < 3:
        raise InputError("lab needs n >= 3")
    fld = field_from_order(q, modulus)
    check_budget(q ** (n - 1), max_ideals, "q^(n-1) = {} exceeds budget {}")
    pack = fld.packing.pack
    e0 = fld.packing.one
    X = []
    for p in range(1, n - 1):
        for tail in itertools.product(range(q), repeat=n - 1 - p):
            X.append(Subspace(fld, n, (e0, pack((0,) * p + (1,) + tail)), (0, p)))
    part = partition_subspaces(X)
    sizes = part.orbit_sizes()
    expected = (q ** (n - 1) - q) // (q - 1)
    floor = (q ** (n - 2) - 1) // (q - 1)
    report = KunzReport(input={"n": n, "q": q, "command": "kunz subspace-orbits"})
    report.results.update(
        n=n, q=q, x_size=len(X), x_size_formula=expected, class_count=part.orbit_count,
        class_sizes=sorted(sizes), class_count_floor=floor,
    )
    report.verdict("x_size_formula", len(X) == expected)
    report.verdict("class_size_at_most_q", max(sizes) <= q)
    report.verdict("class_count_floor", part.orbit_count >= floor)
    if n == 4:
        _verify_lab_n4(report, fld, part)
        _verify_three_dim_single_orbit(report, fld)
    return report, part


def _verify_lab_n4(report, fld, part):
    """At n = 4: exactly q singleton classes, namely <e0, e2 + c*e3>, and
    exactly q classes of size q covering the pivot-1 subspaces; the inversion
    recursion behind the class computation is checked against series_inv."""
    q = fld.q
    singleton_ids = [i for i, m in enumerate(part.members) if len(m) == 1]
    singletons = {part.reps[i] for i in singleton_ids}
    expected_singletons = {
        Subspace.span(fld, 4, ((1, 0, 0, 0), (0, 0, 1, c))) for c in range(q)
    }
    report.verdict(
        "n4_singleton_classes", singletons == expected_singletons and len(singleton_ids) == q
    )
    size_q_ids = [i for i, m in enumerate(part.members) if len(m) == q]
    report.verdict(
        "n4_two_q_classes", len(size_q_ids) == q and len(singleton_ids) + len(size_q_ids) == 2 * q
    )
    report.results["n4_singletons"] = len(singleton_ids)
    report.results["n4_size_q_classes"] = len(size_q_ids)
    # inversion recursion: (e0 + theta*f)^{-1} = e0 + a1 e1 + a2 e2 + a3 e3
    ok_rec = True
    add, mul, neg = fld.add, fld.mul, fld.neg
    pack = fld.packing.pack
    for theta in range(1, q):
        for l1, l2, l3 in itertools.product(range(q), repeat=3):
            if l1 == 0 and l2 == 0:
                continue
            elem = (1, mul[theta][l1], mul[theta][l2], mul[theta][l3])
            inv = series_inv(pack(elem), fld, 4)
            a1 = mul[neg[theta]][l1]
            a2 = mul[neg[theta]][add[mul[l1][a1]][l2]]
            a3 = mul[neg[theta]][add[add[mul[l1][a2]][mul[l2][a1]]][l3]]
            if inv != pack((1, a1, a2, a3)):
                ok_rec = False
    report.verdict("n4_inversion_recursion", ok_rec)


def _verify_three_dim_single_orbit(report, fld):
    """All 3-dim subspaces of K[x]/(x^4) containing e_0 but not e_3 form one
    orbit, with the explicit unit e0 - th2*e1 - th1*e2 sending each to the
    base member."""
    q = fld.q
    neg = fld.neg
    W = {}
    for th1, th2 in itertools.product(range(q), repeat=2):
        rows = ((1, 0, 0, 0), (0, 1, 0, th1), (0, 0, 1, th2))
        W[(th1, th2)] = Subspace.span(fld, 4, rows)
    base = W[(0, 0)]
    ok_explicit = True
    for (th1, th2), sub in W.items():
        gamma = fld.packing.pack((1, neg[th2], neg[th1], 0))
        if subspace_unit_image(sub, gamma) != base:
            ok_explicit = False
    part = partition_subspaces(W.values())
    report.results["three_dim_subspaces"] = len(W)
    report.results["three_dim_classes"] = part.orbit_count
    report.verdict("three_dim_single_class", ok_explicit and part.orbit_count == 1)


# ---------------------------------------------------------------------------
# certified lower bound


def lower_bound_certificate(
    n: int, q: int, max_ideals=DEFAULT_MAX_IDEALS, modulus=None
) -> KunzReport:
    """Certifies 2^(number of unit classes of X) distinct star operations on
    the family member for n, without enumerating any star operation.

    The certificate lifts one representative ideal per class, checks that all
    lifts are nondivisorial, pairwise unit-inequivalent and mutually
    non-absorbing (no unit image of one inside another), counts the
    overring-stable part of F_0 against the subspace count of K^(n-1), and
    re-derives the class partition at ring level from the representatives'
    orbits, without partitioning F_0.
    """
    if n < 4:
        raise InputError("the certificate construction needs n >= 4")
    S = family_semigroup(n)
    # the lab's budget check comes first: a large member's ring is slow to build
    lab = subspace_lab(n, q, max_ideals, modulus)[1]
    model = ring_model_for(tuple(S.generators), q, modulus)
    report = KunzReport(
        input={"n": n, "q": q, "generators": list(S.generators), "command": "kunz lower-bound"}
    )
    report.results["class_count"] = lab.orbit_count
    ws = workspace(model, max_ideals)
    stable = [I for I in ws.ideals if is_overring_stable(I)]
    expected_stable = count_subspaces(n - 1, q)
    report.results["overring_stable_ideals"] = len(stable)
    report.results["subspace_count_formula"] = expected_stable
    report.verdict("overring_stable_count", len(stable) == expected_stable)

    lifts = [_lift_lab_subspace(model, sub) for sub in lab.items]
    for L in lifts:
        ws.ideal_id(L)  # raises InvariantError for a lift that escapes F_0
    # the lifts of the lab's representatives, the least member of each
    # class, with their unit orbits on heads
    reps = [(lifts[m[0]], unit_image_map(lifts[m[0]].head)) for m in lab.members]
    # the lab partition coincides with the ring partition under lifting
    # when each lift lies in its representative's orbit and no
    # representative lies in another's
    own = all(
        lifts[i].head.packed in images for m, (_, images) in zip(lab.members, reps) for i in m
    )
    distinct = not any(
        b.head.packed in images for (_, images), (b, _) in itertools.permutations(reps, 2)
    )
    report.verdict("lab_partition_matches_ring_partition", own and distinct)

    nondiv = all(not L.is_divisorial() for L, _ in reps)
    report.verdict("representatives_nondivisorial", nondiv)
    report.verdict("representatives_pairwise_inequivalent", distinct)
    # unit images keep a's values, so none lies inside b unless they lie in
    # b's; and with equal dimensions, an image inside b is b
    absorbed = False
    pair_checks = 0
    for (a, images), (b, _) in itertools.permutations(reps, 2):
        pair_checks += len(images)
        if not set(a.head.pivots) <= set(b.head.pivots):
            continue
        if a.dim == b.dim:
            absorbed |= b.head.packed in images
        else:
            absorbed |= any(b.contains_packed(rows) for rows in images)
    report.results["non_absorption_pairs_checked"] = pair_checks
    report.verdict("mutual_non_absorption", not absorbed)

    bound = 2**lab.orbit_count
    floor = 2 ** ((q ** (n - 2) - 1) // (q - 1))
    report.results["certified_lower_bound"] = bound
    report.results["formula_floor"] = floor
    report.verdict("bound_at_least_formula_floor", bound >= floor)
    report.results["witnesses"] = [[list(row) for row in rep.rows] for rep in lab.reps]
    return report


def _lift_lab_subspace(model, sub: Subspace) -> RingIdeal:
    """Preimage in the model of a subspace of V/{v >= n} containing e_0: its
    packed rows, read as heads, and the monomials t^n, ..., t^g."""
    vectors = list(sub.packed)
    vectors += [model.monomial(k) for k in range(sub.ambient, model.head_dim)]
    return model.span_ideal(vectors)


# ---------------------------------------------------------------------------
# structural lemma suite


def unit_translate_criterion(ws, pool) -> dict:
    """{(jx, ix): whether some unit sends pool[ix] inside pool[jx]}, for
    ideals of the workspace's F_0. The unit images of I are the keys of its
    orbit's image map, and they keep its values, so only a J whose values
    hold I's is scanned. The answer for uJ is that for J, as wI <= uJ
    exactly when u^-1 wI <= J."""
    image_maps, out = ws.partition.image_maps, {}
    for ix, I in enumerate(pool):
        images, values = image_maps[ws.orbit_id(I)], set(I.head.pivots)
        for jx, J in enumerate(pool):
            out[jx, ix] = values <= set(J.head.pivots) and any(
                J.contains_packed(rows) for rows in images
            )
    return out


def structure_report(gens, q, max_ideals=DEFAULT_MAX_IDEALS, modulus=None) -> KunzReport:
    """Exhaustive verification of the structural facts the lab leans on:
    the length identity, the four-way detection of ideals moved by T, colon
    laws, and (for members of the distinguished family) the valuation
    criteria for divisoriality, the one-step divisorial closure, and the
    unit-translate closure criteria for generated and induced operations.

    All but the length identity are decided on one ideal per unit orbit of
    F_0. For a valuation-0 unit u of V, (uI : J) = u(I : J) and
    (I : uJ) = u^-1 (I : J), so uJ : (uJ : I) = J : (J : I) and
    I : (I : uJ) = u(I : (I : J)); (uI)^v = u I^v, uI + t^tau V =
    u(I + t^tau V), and u keeps values and overring stability. So biduality
    needs one J per orbit, and J:(J:I) meet I^v is the same for every J of
    an orbit and moves with I. Containment is not unit-invariant."""
    require_gate(gens, q, modulus)
    S = semigroup(gens)
    model = ring_model_for(tuple(S.generators), q, modulus)
    report = KunzReport(
        input={"generators": list(S.generators), "q": q, "command": "kunz lemmas"}
    )
    ws = workspace(model, max_ideals)
    ideals, reps = ws.ideals, ws.partition.reps
    R = model.ring_ideal()
    g, tau = S.frobenius, S.tau

    ok = True
    pairs = 0
    for I, mask in zip(ideals, ws.above):
        values = set(I.value_set)
        while mask:
            J = ideals[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
            pairs += 1
            ok &= J.dim - I.dim == len(set(J.value_set) - values)
    report.results["comparable_pairs"] = pairs
    report.verdict("length_identity", ok)

    expected_low = tuple(sorted(set(S.small_members()) | {tau}))
    ok = True
    for I in reps:
        if I == R:
            continue
        p1 = tuple(p for p in I.value_set if p <= g) == expected_low
        p2 = g not in I.value_set
        p3 = not is_overring_stable(I)
        # biduality: (I:I) = R is necessary (take J = R), and it already
        # fails for every overring-stable ideal; the full quantifier runs
        # only on the survivors
        p4 = I.colon(I.colon(R)) == R and all(I.colon(I.colon(J)) == J for J in reps)
        if not (p1 == p2 == p3 == p4):
            ok = False
    report.verdict("overring_detection_four_way", ok)

    ok = all(I.colon(R) == I and I.colon(I.colon(I)).contains(I) for I in reps)
    report.verdict("colon_laws", ok)

    is_family = family_index(S) is not None
    report.results["family_member"] = is_family
    if is_family:
        stable = [I for I in reps if is_overring_stable(I)]
        ok = all((tau in I.value_set) == I.is_divisorial() for I in stable)
        report.verdict("divisorial_iff_tau_value", ok)
        ok = True
        for I in stable:
            padded = model.span_ideal(
                list(I.head.packed) + [model.monomial(k) for k in range(tau, model.head_dim)]
            )
            if I.v_closure() != padded:
                ok = False
        report.verdict("v_closure_is_tau_padding", ok)

        # pairwise closure criterion: I^{star_J} = (J:(J:I)) meet I^v equals
        # I exactly when some valuation-0 unit sends I inside J
        pool = [I for I in stable if not I.is_divisorial()]
        unit_criterion = unit_translate_criterion(ws, pool)
        images = {}
        ok_pair = True
        ok_step = True
        for jx, J in enumerate(pool):
            for ix, I in enumerate(pool):
                image = J.colon(J.colon(I)).intersect(I.v_closure())
                images[jx, ix] = image
                if image != I and image != I.v_closure():
                    ok_step = False
                if (image == I) != unit_criterion[jx, ix]:
                    ok_pair = False
        report.verdict("closure_by_unit_translate", ok_pair)
        report.verdict("closure_one_step_below_v", ok_step)

        # induced operations: the meet of the pairwise closures fixes I iff
        # a single member does (checked on every set of one or two orbits,
        # and on the full pool)
        ok = True
        orbits = tuple(range(len(pool)))
        for delta in [(j,) for j in orbits] + [*itertools.combinations(orbits, 2), orbits]:
            for ix, I in enumerate(pool):
                meet = images[delta[0], ix]
                for jx in delta[1:]:
                    meet = meet.intersect(images[jx, ix])
                set_closed = meet == I
                member_criterion = any(unit_criterion[jx, ix] for jx in delta)
                if set_closed != member_criterion:
                    ok = False
        report.verdict("set_closure_by_unit_translate", ok)
    return report


# ---------------------------------------------------------------------------
# closed-form count check (available for the n = 4 member only)


def formula_check(
    q, n: int = 4, max_ideals=DEFAULT_MAX_IDEALS, max_orbits=DEFAULT_MAX_ORBITS, modulus=None,
    jobs=1,
) -> KunzReport:
    """Exact enumeration against the closed forms 2^(2q) + 3 for the n = 4
    family member and 2^(2q+1) + 2^(q+1) + 2 for its overring, the two on up
    to `jobs` processes."""
    if n != 4:
        raise InputError("closed-form counts are only available for n = 4")
    S = family_semigroup(4)
    report = KunzReport(
        input={"n": n, "q": q, "generators": list(S.generators), "command": "kunz formula-check"}
    )
    t_gens = S.adjoin_frobenius().generators
    n_r, n_t = _star_counts(
        [S.generators, t_gens], q, max_ideals, max_orbits, modulus, jobs
    )
    report.results["star_count"] = n_r
    report.results["ring_formula"] = 2 ** (2 * q) + 3
    report.results["overring_star_count"] = n_t
    report.results["overring_formula"] = 2 ** (2 * q + 1) + 2 ** (q + 1) + 2
    report.verdict("ring_count_matches_formula", n_r == 2 ** (2 * q) + 3)
    report.verdict(
        "overring_count_matches_formula", n_t == 2 ** (2 * q + 1) + 2 ** (q + 1) + 2
    )
    if not report.all_verified():
        # dump the closed families so a mismatch can be audited directly
        model = ring_model_for(tuple(S.generators), q, modulus)
        report.results["closed_families"] = [
            list(star.key()) for star in enumerate_stars(model, max_orbits, max_ideals)
        ]
    return report
