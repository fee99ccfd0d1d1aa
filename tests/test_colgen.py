import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matchlot import (
    Instance,
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    binary_search_margin,
    binary_search_z,
    enumerate_pe_matchings,
    initial_columns,
    is_pareto_efficient,
    mu,
    recompose,
    rsd_exact,
    serial_dictatorship,
    solve_rmp,
    worst_case_cardinality,
)
from matchlot import colgen
from matchlot.colgen import (
    ColumnPool,
    PricingInconsistencyError,
    PricingOutcome,
    generate_columns,
    price_pe_matching,
    solve_alpha_master,
)
from matchlot import pe_program
from matchlot.datagen import GenParams, family_lb, family_ub, generate
from matchlot.mechanisms import _sd_outcomes, rsd_sampled
from matchlot.pe_program import extreme_pe_cardinality
from matchlot.popularity import unpopularity_margin
from matchlot.prng import SplitMix64, batch_permutations

from oracles import random_instance, small_markets


def _columns(pool):
    return [pool.matching(t) for t in range(len(pool))]


def _empty_pool(n_agents):
    return ColumnPool(np.empty((0, n_agents), dtype=np.int32))


def _rows(matchings, n_agents):
    """Pool rows of the given matchings, -1 for an unassigned agent."""
    return np.array(
        [[-1 if j is None else j for j in m.assignment] for m in matchings],
        dtype=np.int32,
    ).reshape(-1, n_agents)


def _generate(instance, assignment, k, pool, framework="rmp"):
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


class TestInitialColumns:
    def test_example_pool_membership(self, ex1, x1_decomposition):
        pool = initial_columns(ex1, samples=5000, seed=1)
        m1, m2, m3, m4 = x1_decomposition.matchings()
        assert pool.position(m1) is not None and pool.position(m2) is not None
        assert pool.position(m3) is None and pool.position(m4) is None
        # Every efficient matching with at least three assignments is
        # sampled: exactly six qualify in this market.
        efficient = {
            m for m in enumerate_pe_matchings(ex1) if m.cardinality() >= 3
        }
        assert {m.assignment for m in _columns(pool) if m.cardinality() >= 3} == {
            m.assignment for m in efficient
        }

    def test_unfiltered_pool(self, ex1):
        pool = initial_columns(ex1, samples=5000, seed=1)
        assert {m.assignment for m in _columns(pool)} == {
            m.assignment for m in enumerate_pe_matchings(ex1)
        }

    def test_default_sample_size(self, ex1):
        pool = initial_columns(ex1, seed=2)
        assert len(pool) >= 1

    def test_deduplication(self, ex1):
        pool = initial_columns(ex1, samples=200, seed=3)
        keys = [m.assignment for m in _columns(pool)]
        assert len(keys) == len(set(keys))

    @settings(max_examples=150, deadline=None)
    @given(
        inst=small_markets(),
        samples=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(inst=Instance((), ("a",), (1,), ()), samples=5, seed=1)
    @example(inst=Instance(("1", "2"), ("a",), (1,), (("a",), ("a",))), samples=1, seed=7)
    @example(  # no contention: every ordering gives the same matching
        inst=Instance(("1", "2", "3"), ("a", "b"), (2, 1), (("a",), ("b", "a"), ("a",))),
        samples=20,
        seed=3,
    )
    def test_one_pass_pool_matches_adding_each_sample(self, inst, samples, seed):
        n, o = inst.n_agents, inst.n_objects
        sampled = _sd_outcomes(inst, batch_permutations(seed, samples, n)).tolist()
        first = list(dict.fromkeys(map(tuple, sampled)))
        pool = initial_columns(inst, samples, seed)
        assert pool.rows.dtype == np.int32
        assert list(map(tuple, pool.rows.tolist())) == first
        columns = _columns(pool)
        assert pool.cardinalities.tolist() == [m.cardinality() for m in columns]
        values = np.sin(np.arange(n * o) + 1.0).reshape(n, o)
        assert pool.cell_sums(values).tolist() == [
            sum(values[i, j] for i, j in enumerate(m.assignment) if j is not None)
            for m in columns
        ]
        # Adding each sample to an empty pool rebuilds it; re-adding a
        # pooled matching returns its old position.
        added = _empty_pool(n)
        for row in sampled:
            m = Matching(tuple(None if j < 0 else j for j in row))
            t = added.add(m)
            assert added.position(m) == t == first.index(tuple(row))
            assert pool.add(m) == t
        assert np.array_equal(added.rows, pool.rows)
        assert len(pool) == len(first)


class TestSolveRmp:
    def test_super_column_only(self, ex1, x1):
        solution = solve_rmp(x1, _rows([], 4), k=3)
        assert solution.objective == pytest.approx(1.0)
        assert solution.weights == []  # all the weight sits on the super-column
        assert not solution.certified

    def test_two_columns_cannot_decompose(self, ex1, x1, x1_decomposition):
        m1, m2 = x1_decomposition.matchings()[:2]
        solution = solve_rmp(x1, _rows([m1, m2], 4), k=3)
        assert solution.objective > 1e-4

    def test_exact_pool_reaches_zero(self, ex1, x1):
        pool = initial_columns(ex1, samples=5000, seed=4)
        solution = solve_rmp(x1, pool.rows, k=0)
        assert solution.objective == pytest.approx(0.0, abs=1e-9)
        # No weight is left on the super-column.
        assert sum(solution.weights) == pytest.approx(1.0, abs=1e-9)
        assert solution.certified

    def test_cardinality_precondition(self, ex1, x1):
        small = Matching((0, None, None, None))
        with pytest.raises(ValueError):
            solve_rmp(x1, _rows([small], 4), k=3)


class TestSolveAlphaMaster:
    def test_row_outside_support(self, ex1):
        m = Matching((1, 0, 0, None))
        x = ProbabilisticAssignment.from_matching(m, 3)
        assert solve_alpha_master(x, _rows([m], 4), 3).certified
        outside = Matching((0, None, None, None))  # x has agent 0 on object 1 only
        with pytest.raises(ValueError, match="support"):
            solve_alpha_master(x, _rows([m, outside], 4), 3)


class TestPricing:
    def test_zero_duals_price_out(self, ex1, x1):
        outcome = price_pe_matching(ex1, x1, np.zeros((4, 3)), 0.0, k=3)
        assert outcome.matching is None
        assert outcome.proven

    def test_above_maximum_cardinality(self, ex1, x1):
        k = extreme_pe_cardinality(ex1, "max") + 1
        outcome = price_pe_matching(ex1, x1, np.zeros((4, 3)), 0.0, k=k)
        assert outcome.matching is None

    def test_matches_enumeration_optimum(self):
        rng = SplitMix64(3131)
        checked = 0
        while checked < 25:
            inst = random_instance(rng, max_agents=5, max_objects=3)
            if inst.n_agents < 2:
                continue
            est = rsd_exact(inst)
            efficient = enumerate_pe_matchings(inst)
            k = min(m.cardinality() for m in efficient)
            eligible = [m for m in efficient if m.cardinality() >= k]
            support = est.assignment.support()
            eligible = [
                m
                for m in eligible
                if all(
                    j is None or (i, j) in support
                    for i, j in enumerate(m.assignment)
                )
            ]
            if not eligible:
                continue
            # Duals from a deliberately incomplete master.
            partial = eligible[: max(1, len(eligible) // 2)]
            solution = solve_rmp(est.assignment, _rows(partial, inst.n_agents), k)
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
            checked += 1
            if outcome.matching is None:
                assert best >= -1e-4
            else:
                assert outcome.reduced_cost < -1e-4
                assert best < -1e-4
                if outcome.proven:
                    assert outcome.reduced_cost == pytest.approx(best, abs=1e-6)


class TestMdSdSolvers:
    def test_upper_family_feasible_at_target(self):
        inst = family_ub(2)
        est = rsd_exact(inst)
        bank = initial_columns(inst, 3000, 7)
        trace, decomposition, proven = _generate(inst, est.assignment, 3, bank)
        assert decomposition is not None and proven
        assert trace.objective <= 1e-4
        assert all(m.cardinality() >= 3 for m in decomposition.matchings())

    def test_lower_family_infeasible_above_k(self):
        inst = family_lb(2)
        est = rsd_exact(inst)
        bank = initial_columns(inst, 3000, 7)
        trace, decomposition, proven = _generate(inst, est.assignment, 3, bank)
        assert decomposition is None and proven
        assert trace.objective > 1e-4

    def test_unconstrained_sampled_matrix_is_exact(self, ex1):
        # The sampled matrix is by construction the average of its own
        # sample, so the unfiltered master reaches zero deviation.
        from matchlot.mechanisms import rsd_sampled

        est = rsd_sampled(ex1, samples=500, seed=99)
        bank = initial_columns(ex1, 500, 99)
        trace, decomposition, _ = _generate(ex1, est.assignment, 0, bank)
        assert decomposition is not None
        assert trace.objective <= 1e-9
        rebuilt = recompose(ex1, decomposition)
        worst = max(
            abs(float(rebuilt.probs[i][j] - est.assignment.probs[i][j]))
            for i in range(4)
            for j in range(3)
        )
        assert worst <= 1e-6

    def test_alpha_witness_value(self):
        # Weight on cardinality-3 matchings in any exact decomposition of
        # the lower family's RSD matrix is 1 - 1/C(4,2) = 5/6.
        inst = family_lb(2)
        est = rsd_exact(inst)
        bank = initial_columns(inst, 3000, 7)
        trace, decomposition, proven = _generate(inst, est.assignment, 3, bank, "alpha")
        assert proven
        assert decomposition is None
        assert trace.objective == pytest.approx(5.0 / 6.0, abs=1e-4)

    def test_alpha_upper_family_reaches_one(self):
        inst = family_ub(2)
        est = rsd_exact(inst)
        bank = initial_columns(inst, 3000, 7)
        trace, decomposition, proven = _generate(inst, est.assignment, 3, bank, "alpha")
        assert proven
        assert trace.objective == pytest.approx(1.0, abs=1e-4)
        assert decomposition is not None
        assert all(m.cardinality() >= 3 for m in decomposition.matchings())

    def test_alpha_single_matching(self, ex1):
        m = Matching((1, 0, 0, None))
        x = ProbabilisticAssignment.from_matching(m, 3)
        bank = _empty_pool(ex1.n_agents)
        trace, decomposition, _ = _generate(ex1, x, 3, bank, "alpha")
        assert trace.objective == pytest.approx(1.0, abs=1e-6)
        assert decomposition is not None
        assert decomposition.matchings() == [m]


class TestDriverGuards:
    """The column-generation loop rejects a priced column it cannot use."""

    @staticmethod
    def _pricing_returns(monkeypatch, matching):
        monkeypatch.setattr(
            colgen,
            "price_pe_matching",
            lambda *args, **kwargs: PricingOutcome(matching, -1.0, True),
        )

    def test_active_column_is_inconsistent(self, monkeypatch, ex1, x1, x1_decomposition):
        m1 = x1_decomposition.matchings()[0]
        bank = _empty_pool(ex1.n_agents)
        bank.add(m1)
        self._pricing_returns(monkeypatch, m1)
        with pytest.raises(PricingInconsistencyError):
            _generate(ex1, x1, 3, bank)

    def test_column_below_cardinality_floor(self, monkeypatch, ex1, x1):
        small = Matching((0, 1, None, None))
        self._pricing_returns(monkeypatch, small)
        with pytest.raises(MatchlotError, match="eligible") as info:
            _generate(ex1, x1, 3, _empty_pool(ex1.n_agents))
        assert not isinstance(info.value, PricingInconsistencyError)

    def test_column_above_margin_bound(self, monkeypatch, ex1, x1):
        wasteful = Matching((0, 2, 0, None))
        assert unpopularity_margin(ex1, wasteful) > 0
        self._pricing_returns(monkeypatch, wasteful)
        bank = _empty_pool(ex1.n_agents)
        with pytest.raises(MatchlotError, match="eligible") as info:
            generate_columns(
                ex1,
                x1,
                bank,
                0,
                master=solve_rmp,
                admits=lambda t: np.array(
                    [unpopularity_margin(ex1, bank.matching(s)) for s in t.tolist()]
                )
                <= 0,
                margin_limit=0,
            )
        assert not isinstance(info.value, PricingInconsistencyError)


class TestBinarySearch:
    def test_lower_family(self):
        inst = family_lb(2)
        est = rsd_exact(inst)
        result = binary_search_z(
            inst, est.assignment, "rmp", samples=3000, seed=5,
            known_decomposable=True,
        )
        assert result.status == "optimal"
        assert result.z == 2
        assert result.floor_mu == 3

    def test_upper_family(self):
        inst = family_ub(2)
        est = rsd_exact(inst)
        result = binary_search_z(
            inst, est.assignment, "rmp", samples=3000, seed=5,
            known_decomposable=True,
        )
        assert result.status == "optimal"
        assert result.z == 3

    def test_single_matching_reaches_its_cardinality(self, ex1):
        m = Matching((1, 0, 0, None))
        x = ProbabilisticAssignment.from_matching(m, 3)
        result = binary_search_z(ex1, x, "rmp", samples=200, seed=6)
        assert result.status == "optimal"
        assert result.z == m.cardinality()

    def test_exact_rsd_unconstrained_is_exactly_decomposable(self, ex1, x1):
        # The enumeration average itself witnesses a zero-deviation
        # decomposition once the cardinality filter is off.
        bank = initial_columns(ex1, 4000, 12)
        trace, decomposition, proven = _generate(ex1, x1, 0, bank)
        assert decomposition is not None and proven
        assert trace.objective <= 1e-4

    def test_result_invariants(self, ex1, x1):
        result = binary_search_z(
            ex1, x1, "rmp", samples=3000, seed=8, known_decomposable=True
        )
        assert result.status == "optimal"
        assert result.lower_bound <= result.z <= result.floor_mu
        decomposition = result.decomposition
        assert worst_case_cardinality(decomposition) >= result.z
        assert all(
            is_pareto_efficient(ex1, m) for m in decomposition.matchings()
        )
        total = sum(decomposition.weights(), Fraction(0))
        assert total == 1

    def test_framework_agreement(self):
        rng = SplitMix64(2718)
        agreements = 0
        while agreements < 10:
            inst = random_instance(rng, max_agents=5, max_objects=3)
            if inst.n_agents < 2:
                continue
            est = rsd_exact(inst)
            a = binary_search_z(
                inst, est.assignment, "rmp", samples=1500, seed=13,
                known_decomposable=True,
            )
            b = binary_search_z(
                inst, est.assignment, "alpha", samples=1500, seed=13,
                known_decomposable=True,
            )
            assert a.status == b.status == "optimal"
            assert a.z == b.z
            agreements += 1

    def test_pricing_completeness_on_convergence(self):
        # When pricing reports no column, brute force over every efficient
        # matching of eligible cardinality confirms none is negative.
        rng = SplitMix64(1618)
        done = 0
        while done < 15:
            inst = random_instance(rng, max_agents=5, max_objects=3)
            if inst.n_agents < 2:
                continue
            est = rsd_exact(inst)
            efficient = enumerate_pe_matchings(inst)
            floor_mu = mu(est.assignment).numerator // mu(
                est.assignment
            ).denominator
            k = floor_mu
            eligible = [m for m in efficient if m.cardinality() >= k]
            support = est.assignment.support()
            pool = [
                m
                for m in eligible
                if all(
                    j is None or (i, j) in support
                    for i, j in enumerate(m.assignment)
                )
            ][:2]
            solution = solve_rmp(est.assignment, _rows(pool, inst.n_agents), k)
            outcome = price_pe_matching(
                inst, est.assignment, solution.prices, solution.w, k
            )
            if outcome.matching is None and outcome.proven:
                worst = min(
                    (
                        -sum(
                            solution.prices[i, j]
                            for i, j in enumerate(m.assignment)
                            if j is not None
                        )
                        - solution.w
                        for m in eligible
                        if all(
                            j is None or (i, j) in support
                            for i, j in enumerate(m.assignment)
                        )
                    ),
                    default=0.0,
                )
                assert worst >= -1e-4
            done += 1

    def test_sandwich_bounds(self):
        for inst in (family_lb(2), family_ub(2), family_ub(3)):
            est = rsd_exact(inst)
            result = binary_search_z(
                inst, est.assignment, "rmp", samples=3000, seed=5,
                known_decomposable=True,
            )
            p_minus = extreme_pe_cardinality(inst, "min")
            assert result.status == "optimal"
            assert result.floor_mu / 2.0 < result.z < 2 * p_minus


class TestBudgetDeadline:
    def test_zero_budget_stops_at_p_minus(self):
        inst = generate(GenParams(n_agents=12, ratio=4.0, seed=0))
        est = rsd_sampled(inst, 400, 1)
        result = binary_search_z(
            inst, est.assignment, "rmp", samples=400, seed=1,
            time_limit=0.0, known_decomposable=True,
        )
        assert result.status == "budget-exhausted"
        assert result.z is None
        assert result.decomposition is None
        assert result.trace == []
        assert result.lower_bound is None

    @pytest.mark.parametrize("time_limit", [60.0, None])
    def test_deadline_reaches_every_mip(self, monkeypatch, time_limit):
        calls = []

        def recording(stage, solve):
            def wrapper(program, **kwargs):
                calls.append((stage, kwargs.get("time_limit")))
                return solve(program, **kwargs)

            return wrapper

        # colgen solves only pricing MIPs; pe_program only the p- search.
        monkeypatch.setattr(
            colgen, "backend_solve_mip", recording("pricing", colgen.backend_solve_mip)
        )
        monkeypatch.setattr(
            pe_program,
            "backend_solve_mip",
            recording("extreme_min", pe_program.backend_solve_mip),
        )
        inst = family_lb(2)
        result = binary_search_z(
            inst, rsd_exact(inst).assignment, "rmp", samples=200, seed=1,
            time_limit=time_limit, known_decomposable=True,
        )
        assert result.status == "optimal"
        assert {name for name, _ in calls} == {"extreme_min", "pricing"}
        for _, limit in calls:
            if time_limit is None:
                assert limit is None
            else:
                assert isinstance(limit, float) and 0.0 < limit <= time_limit


_DEGENERATE_MARKETS = {
    "zero-agents": (Instance((), ("a",), (1,), ()), 0),
    "one-empty-list": (Instance(("1", "2"), ("a",), (1,), (("a",), ())), 1),
    "all-lists-empty": (Instance(("1", "2"), ("a",), (1,), ((), ())), 0),
    "all-ones": (Instance(("1", "2"), ("a", "b"), (1, 1), (("a",), ("b",))), 2),
}


@pytest.mark.parametrize("market", list(_DEGENERATE_MARKETS))
def test_degenerate_markets_through_every_search(market):
    # Every ordering gives the same matching, so each search returns it alone.
    inst, z = _DEGENERATE_MARKETS[market]
    x = rsd_sampled(inst, 50, 1).assignment
    only = ((Fraction(1), serial_dictatorship(inst, range(inst.n_agents))),)
    for framework in ("rmp", "alpha"):
        result = binary_search_z(
            inst, x, framework, samples=50, seed=1, known_decomposable=True
        )
        assert (result.status, result.z) == ("optimal", z)
        assert result.decomposition.terms == only
    omega, decomposition = binary_search_margin(inst, x, samples=50, seed=1)
    assert omega == 0
    assert decomposition.terms == only


@pytest.mark.parametrize(
    "initial_active, batch, seeds, expected",
    [
        (
            None,
            None,
            (1, 2),
            "50183dda913756b9102ca1fd3c564a7381af6e4932f9cca3b0a6d5ce918c3bfb",
        ),
        (
            8,
            4,
            (3,),
            "e58f039e0a6eda19142c9f3e3aac6da889ac5a3e58db84b0a0775e12c4de5502",
        ),
    ],
    ids=["default-activation", "small-activation"],
)
def test_lotteries_are_pinned(monkeypatch, initial_active, batch, seeds, expected):
    # Lotteries, z and per-k traces of both frameworks, and omega and the
    # lottery of the margin search, as a digest of their reprs.  The target
    # averages a sample other than the pool's, so pricing finds columns; a
    # small initial active set also makes the pool activate by reduced cost.
    if initial_active is not None:
        monkeypatch.setattr(colgen, "_INITIAL_ACTIVE", initial_active)
        monkeypatch.setattr(colgen, "_ACTIVATION_BATCH", batch)
    digest = hashlib.sha256()
    for inst, samples in (
        (family_lb(3), 30),
        (generate(GenParams(12, 2.0, seed=501)), 60),
        (generate(GenParams(11, 2.0, seed=500)), 300),
    ):
        for seed in seeds:
            x = rsd_sampled(inst, 400, seed + 7).assignment
            for framework in ("rmp", "alpha"):
                result = binary_search_z(
                    inst, x, framework, samples=samples, seed=seed,
                    known_decomposable=True,
                )
                trace = [(t.k, t.iterations, t.columns_added) for t in result.trace]
                digest.update(repr((result.z, result.decomposition.terms, trace)).encode())
            omega, decomposition = binary_search_margin(inst, x, samples=samples, seed=seed)
            digest.update(repr((omega, decomposition.terms)).encode())
    assert digest.hexdigest() == expected


def _master_pools():
    """``(assignment, rows, k)`` master inputs that reach every branch of both masters."""
    inst = generate(GenParams(11, 2.0, seed=500))
    pool = initial_columns(inst, 300, 3)
    x = rsd_sampled(inst, 400, 10).assignment
    own = rsd_sampled(inst, 300, 3).assignment  # the average of the pool's samples
    inside = pool.rows[colgen._inside(colgen._support_mask(x), pool.rows)]
    k = int(np.median(pool.cardinalities))
    third = ProbabilisticAssignment.from_rows([[Fraction(1, 3), Fraction(1, 3)]])
    return {
        "generated": [(x, pool.rows[:size], 0) for size in (3, 12, len(pool))]
        + [(x, pool.rows[pool.cardinalities >= k], k)],
        "generated-inside": [(x, inside[:size], k) for size in (4, len(inside))]
        + [(own, pool.rows, 0), (own, pool.rows[:40], 0)],
        # The target has no zero cell, so weight can park on the super-column.
        "super-resolved": [(third, np.array([[-1], [0], [1]], dtype=np.int32), 0)],
        "super-infeasible": [(third, np.array([[-1]], dtype=np.int32), 0)],
        "empty": [(x, pool.rows[:0], k), (third, np.empty((0, 1), dtype=np.int32), 0)],
    }


def test_master_rounds_are_pinned():
    # Prices, duals, objectives and weights of both masters, bit for bit.
    pools = _master_pools()
    third, resolved, _ = pools["super-resolved"][0]
    assert colgen._deviation_lp(third, resolved, with_super=True)[1] > colgen.TOLERANCE
    assert solve_rmp(third, resolved, 0).certified
    assert solve_rmp(*pools["super-infeasible"][0]).degenerate
    digest = hashlib.sha256()
    for name, cases in pools.items():
        # Some "generated" rows leave the target's support: no coverage master.
        masters = [solve_rmp] if name == "generated" else [solve_rmp, solve_alpha_master]
        for x, rows, k in cases:
            for master in masters:
                round_ = master(x, rows, k)
                digest.update(round_.prices.tobytes())
                fields = (
                    round_.w,
                    round_.objective,
                    round_.weights,
                    round_.certified,
                    round_.degenerate,
                    round_.floor_dual,
                )
                digest.update(repr(fields).encode())
    assert digest.hexdigest() == (
        "07b5c74bc01aefa03f164a55cdfba9163730ad8cc9166d8ff80a3d4a4fcd2f4b"
    )
