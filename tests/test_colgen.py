from fractions import Fraction

import pytest

from matchlot import (
    Matching,
    MatchlotError,
    ProbabilisticAssignment,
    binary_search_z,
    enumerate_pe_matchings,
    initial_columns,
    is_pareto_efficient,
    mu,
    recompose,
    rsd_exact,
    solve_rmp,
    worst_case_cardinality,
)
from matchlot import colgen
from matchlot.colgen import (
    Budget,
    ColumnPool,
    PricingInconsistencyError,
    PricingOutcome,
    price_pe_matching,
    solve_margin_rmp,
    solve_mdsd_alpha,
    solve_mdsd_rmp,
)
from matchlot.datagen import family_lb, family_ub
from matchlot.mechanisms import sample_sd_matchings
from matchlot.pe_program import extreme_pe_cardinality
from matchlot.popularity import unpopularity_margin
from matchlot.prng import SplitMix64

from oracles import random_instance


def _bank_from_sample(instance, samples, seed):
    bank = ColumnPool(instance.n_objects)
    for m in sample_sd_matchings(instance, samples, seed):
        bank.add(m)
    return bank


class TestInitialColumns:
    def test_example_pool_membership(self, ex1, x1_decomposition):
        pool = initial_columns(ex1, k=3, samples=5000, seed=1)
        m1, m2, m3, m4 = x1_decomposition.matchings()
        assert m1 in pool and m2 in pool
        assert m3 not in pool and m4 not in pool
        # Everything sampled is efficient with at least three assignments:
        # exactly six matchings qualify in this market.
        efficient = {
            m for m in enumerate_pe_matchings(ex1) if m.cardinality() >= 3
        }
        assert set(m.assignment for m in pool.columns) == {
            m.assignment for m in efficient
        }

    def test_unfiltered_pool(self, ex1):
        pool = initial_columns(ex1, k=0, samples=5000, seed=1)
        assert {m.assignment for m in pool.columns} == {
            m.assignment for m in enumerate_pe_matchings(ex1)
        }

    def test_default_sample_size(self, ex1):
        pool = initial_columns(ex1, k=0, seed=2)
        assert len(pool) >= 1

    def test_deduplication(self, ex1):
        pool = initial_columns(ex1, k=0, samples=200, seed=3)
        keys = [m.assignment for m in pool.columns]
        assert len(keys) == len(set(keys))


class TestSolveRmp:
    def test_super_column_only(self, ex1, x1):
        solution = solve_rmp(x1, [], k=3)
        assert solution.super_weight == pytest.approx(1.0)
        assert solution.s == pytest.approx(1.0)

    def test_two_columns_cannot_decompose(self, ex1, x1, x1_decomposition):
        m1, m2 = x1_decomposition.matchings()[:2]
        solution = solve_rmp(x1, [m1, m2], k=3)
        assert solution.s > 1e-4

    def test_exact_pool_reaches_zero(self, ex1, x1):
        pool = initial_columns(ex1, k=0, samples=5000, seed=4)
        solution = solve_rmp(x1, pool.columns, k=0)
        assert solution.s == pytest.approx(0.0, abs=1e-9)
        assert solution.super_weight == pytest.approx(0.0, abs=1e-9)

    def test_cardinality_precondition(self, ex1, x1):
        small = Matching((0, None, None, None))
        with pytest.raises(ValueError):
            solve_rmp(x1, [small], k=3)


class TestPricing:
    def test_zero_duals_price_out(self, ex1, x1):
        from matchlot.colgen import RmpSolution

        duals = RmpSolution(s=0.0, weights=[], super_weight=0.0, u={}, v={}, w=0.0)
        outcome = price_pe_matching(ex1, x1, duals, k=3)
        assert outcome.matching is None
        assert outcome.proven

    def test_above_maximum_cardinality(self, ex1, x1):
        from matchlot.colgen import RmpSolution

        duals = RmpSolution(s=0.0, weights=[], super_weight=0.0, u={}, v={}, w=0.0)
        k = extreme_pe_cardinality(ex1, "max") + 1
        outcome = price_pe_matching(ex1, x1, duals, k=k)
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
            solution = solve_rmp(est.assignment, partial, k)
            outcome = price_pe_matching(inst, est.assignment, solution, k)
            best = min(
                -sum(
                    solution.u.get((i, j), 0.0) + solution.v.get((i, j), 0.0)
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
        bank = _bank_from_sample(inst, 3000, 7)
        feasible, s_star, decomposition, trace, proven = solve_mdsd_rmp(
            inst, est.assignment, 3, bank=bank, budget=Budget(), deadline=None
        )
        assert feasible and proven
        assert s_star <= 1e-4
        assert all(m.cardinality() >= 3 for m in decomposition.matchings())

    def test_lower_family_infeasible_above_k(self):
        inst = family_lb(2)
        est = rsd_exact(inst)
        bank = _bank_from_sample(inst, 3000, 7)
        feasible, s_star, _, _, proven = solve_mdsd_rmp(
            inst, est.assignment, 3, bank=bank, budget=Budget(), deadline=None
        )
        assert not feasible and proven
        assert s_star > 1e-4

    def test_unconstrained_sampled_matrix_is_exact(self, ex1):
        # The sampled matrix is by construction the average of its own
        # sample, so the unfiltered master reaches zero deviation.
        from matchlot.mechanisms import rsd_sampled

        est = rsd_sampled(ex1, samples=500, seed=99)
        bank = _bank_from_sample(ex1, 500, 99)
        feasible, s_star, decomposition, _, _ = solve_mdsd_rmp(
            ex1, est.assignment, 0, bank=bank, budget=Budget(), deadline=None
        )
        assert feasible
        assert s_star <= 1e-9
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
        bank = _bank_from_sample(inst, 3000, 7)
        alpha, decomposition, _, proven = solve_mdsd_alpha(
            inst, est.assignment, 3, bank=bank, budget=Budget(), deadline=None
        )
        assert proven
        assert decomposition is None
        assert alpha == pytest.approx(5.0 / 6.0, abs=1e-4)

    def test_alpha_upper_family_reaches_one(self):
        inst = family_ub(2)
        est = rsd_exact(inst)
        bank = _bank_from_sample(inst, 3000, 7)
        alpha, decomposition, _, proven = solve_mdsd_alpha(
            inst, est.assignment, 3, bank=bank, budget=Budget(), deadline=None
        )
        assert proven
        assert alpha == pytest.approx(1.0, abs=1e-4)
        assert decomposition is not None
        assert all(m.cardinality() >= 3 for m in decomposition.matchings())

    def test_alpha_single_matching(self, ex1):
        m = Matching((1, 0, 0, None))
        x = ProbabilisticAssignment.from_matching(m, 3)
        bank = ColumnPool(3)
        alpha, decomposition, _, _ = solve_mdsd_alpha(
            ex1, x, 3, bank=bank, budget=Budget(), deadline=None
        )
        assert alpha == pytest.approx(1.0, abs=1e-6)
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
        bank = ColumnPool(ex1.n_objects)
        bank.add(m1)
        self._pricing_returns(monkeypatch, m1)
        with pytest.raises(PricingInconsistencyError):
            solve_mdsd_rmp(ex1, x1, 3, bank=bank, budget=Budget(), deadline=None)

    def test_column_below_cardinality_floor(self, monkeypatch, ex1, x1):
        small = Matching((0, 1, None, None))
        self._pricing_returns(monkeypatch, small)
        with pytest.raises(MatchlotError, match="eligible") as info:
            solve_mdsd_rmp(
                ex1, x1, 3, bank=ColumnPool(ex1.n_objects), budget=Budget(), deadline=None
            )
        assert not isinstance(info.value, PricingInconsistencyError)

    def test_column_above_margin_bound(self, monkeypatch, ex1, x1):
        wasteful = Matching((0, 2, 0, None))
        assert unpopularity_margin(ex1, wasteful) > 0
        self._pricing_returns(monkeypatch, wasteful)
        with pytest.raises(MatchlotError, match="eligible") as info:
            solve_margin_rmp(
                ex1,
                x1,
                0,
                bank=ColumnPool(ex1.n_objects),
                margin=lambda m: unpopularity_margin(ex1, m),
                budget=Budget(),
                deadline=None,
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
        bank = _bank_from_sample(ex1, 4000, 12)
        feasible, s_star, decomposition, _, proven = solve_mdsd_rmp(
            ex1, x1, 0, bank=bank, budget=Budget(), deadline=None
        )
        assert feasible and proven
        assert s_star <= 1e-4
        assert decomposition is not None

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
            solution = solve_rmp(est.assignment, pool, k)
            outcome = price_pe_matching(inst, est.assignment, solution, k)
            if outcome.matching is None and outcome.proven:
                worst = min(
                    (
                        -sum(
                            solution.u.get((i, j), 0.0)
                            + solution.v.get((i, j), 0.0)
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
