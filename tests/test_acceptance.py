"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable: exact
rational equality where the contract is exact, 1e-4 where the LP path is
involved, and the stated statistical windows for the generator.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from matchlot import (
    ConstraintStructure,
    GenParams,
    ProbabilisticAssignment,
    binary_search_z,
    decompose_md,
    decompose_robust,
    extreme_pe_cardinality,
    generate,
    is_pareto_efficient,
    md_upper_bound,
    mu,
    probabilistic_serial,
    recompose,
    rsd_exact,
    rsd_sampled,
    solve_rmp,
    unpopularity_margin,
)
from matchlot import colgen
from matchlot.colgen import (
    generate_columns,
    initial_columns,
    price_pe_matching,
    solve_alpha_master,
)
from matchlot.datagen import family_lb, family_ub, generate_with_scores
from matchlot.prng import SplitMix64

from oracles import (
    brute_force_margin,
    brute_force_pe_set,
    random_feasible_assignment,
    random_instance,
    sd_pe_set,
)

TOL = 1e-4


def _generate(instance, assignment, k, pool, framework):
    """Column generation at floor ``k`` with the master and rule of ``framework``."""
    if framework == "rmp":
        master, admits = solve_rmp, lambda t: pool.cardinalities[t] >= k
    else:
        inside = colgen._support_mask(assignment)
        master, admits = solve_alpha_master, lambda t: colgen._inside(inside, pool.rows[t])
    return generate_columns(
        instance, assignment, pool, k,
        master=master, admits=admits,
    )


def _report(number: int, label: str, started: float) -> None:
    print(f"[criterion {number:2d}] PASS  {label}  ({time.time() - started:.1f}s)")


def _family_ub_exact_rsd(size: int) -> ProbabilisticAssignment:
    """Closed-form RSD matrix of the two-object family.

    Every agent heads the queue for the first object with probability
    ``1/size``; the low-index agents are otherwise absorbed by the second
    object.
    """
    share = Fraction(1, size)
    rows = [
        [share, (1 - share) if i < size else Fraction(0)]
        for i in range(size * size)
    ]
    return ProbabilisticAssignment(rows)


@pytest.fixture(scope="module")
def family_searches():
    """Maximin searches for the adversarial families, shared across criteria."""
    results = {}
    for k in (2, 3):
        inst = family_lb(k)
        est = rsd_exact(inst)
        res = binary_search_z(
            inst, est.assignment, "rmp", samples=5000, seed=37,
            known_decomposable=True,
        )
        results["lb", k] = (inst, est.assignment, res)
    for size in (2, 3, 4, 5):
        inst = family_ub(size)
        assignment = _family_ub_exact_rsd(size)
        if size == 2:
            assert rsd_exact(inst).assignment.probs == assignment.probs
        res = binary_search_z(
            inst, assignment, "rmp", samples=5000, seed=37,
            known_decomposable=True,
        )
        results["ub", size] = (inst, assignment, res)
    return results


def test_criterion_01_exact_rsd_reproduces_example(ex1, x1):
    started = time.time()
    estimate = rsd_exact(ex1)
    assert estimate.exact and estimate.sample_count == 24
    assert estimate.assignment.probs == x1.probs
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report(1, "exact RSD equals the worked-example matrix (24 orderings)", started)


def test_criterion_02_maximin_decomposition(ex1, x1, ex3, x2):
    started = time.time()
    d1 = decompose_md(ex1, x1)
    assert all(m.cardinality() == 3 for m in d1.matchings())
    assert recompose(ex1, d1).probs == x1.probs

    d2 = decompose_md(ex3, x2)
    assert all(m.cardinality() == 3 for m in d2.matchings())
    assert recompose(ex3, d2).probs == x2.probs

    rng = SplitMix64(20240)
    sizes = {}
    for _ in range(1000):
        inst = random_instance(rng, max_agents=6, max_objects=4)
        x = random_feasible_assignment(rng, inst)
        d = decompose_md(inst, x)
        assert recompose(inst, d).probs == x.probs
        lo = md_upper_bound(x)
        hi = lo if mu(x).denominator == 1 else lo + 1
        assert all(lo <= m.cardinality() <= hi for m in d.matchings())
        key = (inst.n_agents, inst.n_objects)
        if key not in sizes:
            sizes[key] = ConstraintStructure(inst).size
        assert len(d.terms) <= sizes[key]
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(2, "exact recomposition and near-expected cardinalities x1000", started)


def test_criterion_03_lower_family(family_searches):
    started = time.time()
    for k in (2, 3):
        inst, assignment, res = family_searches["lb", k]
        assert res.status == "optimal"
        assert res.z == k
        assert res.floor_mu == 2 * k - 1
    _, _, res2 = family_searches["lb", 2]
    assert Fraction(res2.z, res2.floor_mu) == Fraction(2, 3)
    _report(3, "adversarial lower family: z = k against ceiling 2k-1", started)


def test_criterion_04_upper_family(family_searches):
    started = time.time()
    for size in (2, 3, 4, 5):
        inst, assignment, res = family_searches["ub", size]
        assert res.status == "optimal"
        assert res.z == 2 * size - 1
        assert res.lower_bound == size  # p- certified by the IP
        assert extreme_pe_cardinality(inst, "min") == size
    _, _, res5 = family_searches["ub", 5]
    assert res5.z / res5.lower_bound == pytest.approx(1.8)
    _report(4, "adversarial upper family: z = 2l-1 with baseline p- = l", started)


def test_criterion_05_coverage_dual_witness():
    started = time.time()
    inst = family_lb(2)
    est = rsd_exact(inst)
    bank = initial_columns(inst, 5000, 37)
    trace, decomposition, proven = _generate(inst, est.assignment, 3, bank, "alpha")
    assert proven
    assert decomposition is None
    assert abs(trace.objective - 5.0 / 6.0) <= TOL
    _report(5, "coverage master converges to 1 - 1/C(4,2) = 5/6", started)


def test_criterion_06_eating_decomposes_robustly():
    started = time.time()
    rng_seed = 60_000
    count = 0
    for index in range(100):
        n = (12, 21, 30)[index % 3]
        ratio = (2.0, 3.0, 4.0)[index % 3]
        inst = generate(GenParams(n_agents=n, ratio=ratio, seed=rng_seed + index))
        ps = probabilistic_serial(inst)
        decomposition = decompose_robust(inst, ps)  # raises on any failure
        lo = md_upper_bound(ps)
        hi = lo if mu(ps).denominator == 1 else lo + 1
        for m in decomposition.matchings():
            assert lo <= m.cardinality() <= hi
            assert is_pareto_efficient(inst, m)
        count += 1
    assert count == 100
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(6, "eating-mechanism output decomposes over efficient matchings x100", started)


def test_criterion_07_sampled_rsd_reaches_ceiling():
    started = time.time()
    optimal_rows = []
    for index in range(25):
        seed = 70_000 + 7919 * index
        inst = generate(GenParams(n_agents=50, ratio=10.0, seed=seed))
        estimate = rsd_sampled(inst, 10_000, seed=seed)
        res = binary_search_z(
            inst,
            estimate.assignment,
            "rmp",
            samples=10_000,
            seed=seed,
            known_decomposable=True,
            time_limit=120.0,
        )
        if res.status == "optimal":
            optimal_rows.append((res.z, res.floor_mu, res.lower_bound))
    assert optimal_rows, "no instance solved within budget"
    for z, floor_mu, p_minus in optimal_rows:
        assert z == floor_mu
        assert z - p_minus >= 0
    strict = sum(1 for z, _, p_minus in optimal_rows if z > p_minus)
    assert strict * 2 > len(optimal_rows)
    elapsed = time.time() - started
    assert elapsed < 3600.0
    _report(
        7,
        f"sampled-RSD maximin hits floor(mu) on {len(optimal_rows)}/25 solved, "
        f"{strict} strictly above the baseline",
        started,
    )


def test_criterion_08_oracle_equivalences():
    started = time.time()
    rng = SplitMix64(88_000)
    margin_checks = 0
    pricing_checks = 0
    framework_checks = 0
    for _ in range(500):
        inst = random_instance(rng, max_agents=5, max_objects=4)

        # (a) certificate == domination oracle == dictatorship reachability
        expected = brute_force_pe_set(inst)
        assert sd_pe_set(inst) == expected
        from oracles import enumerate_feasible_matchings

        for m in enumerate_feasible_matchings(inst):
            assert is_pareto_efficient(inst, m) == (m in expected)

        if inst.n_agents < 2 or not expected:
            continue

        est = rsd_exact(inst)
        support = est.assignment.support()

        # (b) pricing optimum equals the enumeration optimum
        k = min(m.cardinality() for m in expected)
        # Sorted: a set of matchings iterates in an order that changes from
        # process to process (hash(None) is an address), and so would the
        # half of it handed to the master below.
        eligible = sorted(
            (
                m
                for m in expected
                if m.cardinality() >= k
                and all(
                    j is None or (i, j) in support
                    for i, j in enumerate(m.assignment)
                )
            ),
            key=lambda m: tuple(-1 if j is None else j for j in m.assignment),
        )
        if eligible:
            partial = eligible[: max(1, len(eligible) // 2)]
            rows = np.array(
                [[-1 if j is None else j for j in m.assignment] for m in partial],
                dtype=np.int32,
            )
            solution = solve_rmp(est.assignment, rows, k)
            outcome = price_pe_matching(
                inst, est.assignment, solution.prices, solution.w, k
            )
            best = min(
                -sum(
                    solution.prices[i, j]
                    for i, j in enumerate(m.assignment)
                    if j is not None
                )
                - solution.w
                for m in eligible
            )
            if outcome.matching is None:
                assert outcome.proven and best >= -TOL
            else:
                assert best < -TOL
                if outcome.proven:
                    assert abs(outcome.reduced_cost - best) <= 1e-6
            pricing_checks += 1

        # (c) the margin kernel equals the brute-force margin
        sample = min(
            expected,
            key=lambda m: tuple(-1 if j is None else j for j in m.assignment),
        )
        assert unpopularity_margin(inst, sample) == brute_force_margin(inst, sample)
        margin_checks += 1

        # (d) deviation-feasibility at k iff coverage alpha reaches one
        cards = sorted({m.cardinality() for m in expected})
        floor_mu = md_upper_bound(est.assignment)
        bank_r = initial_columns(inst, 600, 88)
        bank_a = initial_columns(inst, 600, 88)
        for k_test in range(max(cards[0], 1), floor_mu + 1):
            _, dec_r, proven_r = _generate(inst, est.assignment, k_test, bank_r, "rmp")
            trace_a, dec_a, proven_a = _generate(
                inst, est.assignment, k_test, bank_a, "alpha"
            )
            assert proven_r and proven_a
            assert (dec_r is not None) == (dec_a is not None)
            if dec_a is not None:
                assert trace_a.objective >= 1.0 - TOL
            framework_checks += 1

    assert margin_checks >= 300
    assert pricing_checks >= 200
    assert framework_checks >= 200
    elapsed = time.time() - started
    assert elapsed < 900.0
    _report(
        8,
        f"oracle equivalences over 500 markets "
        f"({pricing_checks} pricing, {margin_checks} margin, "
        f"{framework_checks} framework checks)",
        started,
    )


def test_criterion_09_sandwich_bounds(family_searches):
    started = time.time()
    for key, (inst, assignment, res) in family_searches.items():
        assert res.status == "optimal"
        p_minus = extreme_pe_cardinality(inst, "min")
        assert res.floor_mu / 2.0 < res.z < 2 * p_minus, key
    _report(9, "maximin value strictly inside (floor(mu)/2, 2 p-)", started)


def test_criterion_10_generator_statistics():
    started = time.time()
    corrs = []
    lengths = []
    for index in range(200):
        inst, scores = generate_with_scores(
            GenParams(n_agents=100, ratio=10.0, seed=100_000 + index)
        )
        q = scores.capacities
        eta = scores.eta
        mq = sum(q) / len(q)
        me = sum(eta) / len(eta)
        cov = sum((a - mq) * (b - me) for a, b in zip(q, eta))
        vq = sum((a - mq) ** 2 for a in q)
        ve = sum((b - me) ** 2 for b in eta)
        if vq > 0 and ve > 0:
            corrs.append(cov / math.sqrt(vq * ve))
        lengths.extend(len(p) for p in inst.preferences)
    mean_corr = sum(corrs) / len(corrs)
    mean_len = sum(lengths) / len(lengths)
    assert abs(mean_corr - 0.21) <= 0.10
    assert abs(mean_len - 2.42) <= 0.20
    _report(
        10,
        f"generator statistics: corr={mean_corr:.3f}, mean length={mean_len:.3f}",
        started,
    )
