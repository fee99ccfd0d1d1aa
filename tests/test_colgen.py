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
    initial_columns,
    is_pareto_efficient,
    mu,
    recompose,
    rsd_exact,
    serial_dictatorship,
    solve_rmp,
    worst_case_cardinality,
)
from matchlot import colgen, lp
from matchlot.bvn import md_upper_bound
from matchlot.colgen import (
    ColumnPool,
    KTrace,
    MdsdResult,
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

from oracles import (
    enumerate_feasible_matchings,
    full_deviation_master,
    lp_vertex_oracle,
    matching_matrix,
    random_feasible_assignment,
    random_instance,
    sd_pe_set,
    small_markets,
)


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


def _floor(rows, k):
    """The eligibility mask of the cardinality floor ``k`` over outcome rows."""
    return (rows >= 0).sum(axis=1) >= k


def _generate(instance, assignment, k, pool, framework="rmp"):
    """Column generation at floor ``k`` with the master and rules of ``framework``."""
    eligible = lambda t: pool.cardinalities[t] >= k
    if framework == "rmp":
        master, admits = solve_rmp, eligible
    else:
        master, admits = solve_alpha_master, lambda t: t >= 0
    return generate_columns(
        instance, assignment, pool, k,
        master=master, admits=admits, eligible=eligible, block="k",
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
            m for m in sd_pe_set(ex1) if m.cardinality() >= 3
        }
        assert {m.assignment for m in _columns(pool) if m.cardinality() >= 3} == {
            m.assignment for m in efficient
        }

    def test_unfiltered_pool(self, ex1):
        pool = initial_columns(ex1, samples=5000, seed=1)
        assert {m.assignment for m in _columns(pool)} == {
            m.assignment for m in sd_pe_set(ex1)
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


@st.composite
def _master_inputs(draw):
    """A random target and a random subset of its market's feasible matchings."""
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    inst = random_instance(rng, max_agents=3, max_objects=3)
    x = random_feasible_assignment(rng, inst, 6)
    matchings = enumerate_feasible_matchings(inst)
    chosen = draw(st.sets(st.integers(0, len(matchings) - 1)))
    return x, _rows([matchings[t] for t in sorted(chosen)], inst.n_agents)


class TestSolveRmp:
    @settings(max_examples=200, deadline=None)
    @given(inputs=_master_inputs())
    @example(  # no zero cell, and the one row cannot cover the target
        inputs=(
            ProbabilisticAssignment([[Fraction(1, 3), Fraction(1, 3)]]),
            np.array([[-1]], dtype=np.int32),
        )
    )
    def test_super_column_weight_never_exceeds_the_deviation(self, inputs):
        x, rows = inputs
        solution = solve_rmp(x, rows, _floor(rows, 0))
        assert 1 - sum(solution.weights) <= solution.objective + 1e-7

    @settings(max_examples=200, deadline=None)
    @given(inputs=_master_inputs())
    @example(  # a row on the zero cell keeps that cell's overshoot row
        inputs=(
            ProbabilisticAssignment([[Fraction(1, 2), Fraction(0)]]),
            np.array([[1], [-1]], dtype=np.int32),
        )
    )
    def test_writes_each_constraint_once(self, inputs):
        # One cover row per positive cell, one overshoot row per cell below
        # one that is positive or used by a row, the super-column's bound and
        # convexity.  The overshoot row of any other zero cell would repeat
        # the bound row, so the optimum is that of the master writing them all.
        x, rows = inputs
        programs = []

        def recording(program):
            programs.append(program)
            return lp.solve_lp(program)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(colgen, "solve_lp", recording)
            round_ = solve_rmp(x, rows, _floor(rows, 0))
        [program] = programs
        used = {(i, j) for row in rows.tolist() for i, j in enumerate(row) if j >= 0}
        cells = [(i, j, p) for i, row in enumerate(x.probs) for j, p in enumerate(row)]
        cover = sum(p > 0 for _, _, p in cells)
        over = sum(p < 1 and (p > 0 or (i, j) in used) for i, j, p in cells)
        assert program.A.shape[0] == cover + over + 2
        assert round_.objective == pytest.approx(full_deviation_master(x, rows), abs=1e-9)

    def test_super_column_only(self, ex1, x1):
        rows = _rows([], 4)
        solution = solve_rmp(x1, rows, _floor(rows, 3))
        assert solution.objective == pytest.approx(1.0)
        assert solution.weights == []  # all the weight sits on the super-column
        assert not solution.certified

    def test_two_columns_cannot_decompose(self, ex1, x1, x1_decomposition):
        m1, m2 = x1_decomposition.matchings()[:2]
        rows = _rows([m1, m2], 4)
        solution = solve_rmp(x1, rows, _floor(rows, 3))
        assert solution.objective > 1e-4

    def test_exact_pool_reaches_zero(self, ex1, x1):
        pool = initial_columns(ex1, samples=5000, seed=4)
        solution = solve_rmp(x1, pool.rows, _floor(pool.rows, 0))
        assert solution.objective == pytest.approx(0.0, abs=1e-9)
        # No weight is left on the super-column.
        assert sum(solution.weights) == pytest.approx(1.0, abs=1e-9)
        assert solution.certified

    def test_cardinality_precondition(self, ex1, x1):
        rows = _rows([Matching((0, None, None, None))], 4)
        with pytest.raises(ValueError, match="not eligible"):
            solve_rmp(x1, rows, _floor(rows, 3))


class TestSolveAlphaMaster:
    def test_row_outside_support(self, ex1):
        m = Matching((1, 0, 0, None))
        x = matching_matrix(m, 3)
        rows = _rows([m], 4)
        assert solve_alpha_master(x, rows, _floor(rows, 3)).certified
        outside = Matching((0, None, None, None))  # x has agent 0 on object 1 only
        rows = _rows([m, outside], 4)
        with pytest.raises(ValueError, match="support"):
            solve_alpha_master(x, rows, _floor(rows, 3))

    @settings(max_examples=100, deadline=None)
    @given(inputs=_master_inputs(), k=st.integers(0, 3))
    def test_matches_the_vertex_oracle_or_prices_on_a_ray(self, inputs, k):
        # The oracle maximises the weight on rows of cardinality >= k over
        # exact lotteries; it enumerates bases, so at most six rows.
        x, rows = inputs
        rows = rows[colgen._inside(colgen._support_mask(x), rows)][:6]
        target, positive, _ = x.flat_cells
        uses = colgen._incidence(rows, x.n_objects)[positive]
        large = _floor(rows, k)
        A = np.vstack([uses, -uses, np.ones(len(rows)), -np.ones(len(rows))])
        b = np.concatenate([target[positive], -target[positive], [1.0, -1.0]])
        best = lp_vertex_oracle(-large.astype(float), A, b) if len(rows) else None
        round_ = solve_alpha_master(x, rows, large)
        if best is not None:
            assert round_.objective == pytest.approx(-best, abs=1e-7)
            return
        # No lottery: the round reads a Farkas ray, under which no given row
        # prices in, so the driver never meets an active column in pricing.
        assert not round_.certified
        rc = -ColumnPool(rows).cell_sums(round_.prices) - round_.w
        rc += np.where(large, round_.floor_dual, 0.0)
        assert np.all(rc >= -colgen.TOLERANCE)

    def test_every_program_takes_the_dual_start(self, resolves_per_solve):
        # With alpha bounded by 1 the coverage master's slack basis is dual
        # feasible, like that of the deviation master and of the pricing and
        # p- programs: every solve is one resolve, and none runs phase one.
        inst = family_lb(3)
        x = rsd_sampled(inst, 400, 8).assignment
        rmp, alpha = (
            binary_search_z(inst, x, framework, samples=30, seed=1, known_decomposable=True)
            for framework in ("rmp", "alpha")
        )
        assert (rmp.status, rmp.z) == (alpha.status, alpha.z) == ("optimal", 3)
        for framework in ("rmp", "alpha"):
            margin = binary_search_z(inst, x, framework, measure="margin", samples=30, seed=1)
            assert (margin.status, margin.z) == ("optimal", 2)
        pool = initial_columns(inst, 30, 1)
        inside = pool.rows[colgen._inside(colgen._support_mask(x), pool.rows)]
        assert 0.0 <= solve_alpha_master(x, inside, _floor(inside, 3)).objective <= 1.0
        assert resolves_per_solve and set(resolves_per_solve) == {1}


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
            efficient = sd_pe_set(inst)
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
            rows = _rows(partial, inst.n_agents)
            solution = solve_rmp(est.assignment, rows, _floor(rows, k))
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
        x = matching_matrix(m, 3)
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
        within = lambda t: np.array(
            [unpopularity_margin(ex1, bank.matching(s)) for s in t.tolist()], dtype=int
        ) <= 0
        with pytest.raises(MatchlotError, match="eligible") as info:
            generate_columns(
                ex1, x1, bank, 0,
                master=solve_rmp, admits=within, eligible=within, block="margin_limit",
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
        x = matching_matrix(m, 3)
        result = binary_search_z(ex1, x, "rmp", samples=200, seed=6)
        assert result.status == "optimal"
        assert result.z == m.cardinality()

    # Agent 1 accepts only a, agent 2 ranks a over b: the efficient
    # matchings are (a, b) and (-, a).
    TWO = Instance(("1", "2"), ("a", "b"), (1, 1), (("a",), ("a", "b")))
    HALF = Fraction(1, 2)

    @pytest.mark.parametrize(
        "target, framework, deviation",
        [
            # Agent 1 never assigned rules out (a, b); the rmp master gets
            # within 1/2, the coverage master covers nothing.
            ([[0, 0], [HALF, HALF]], "rmp", 0.5),
            ([[0, 0], [HALF, HALF]], "alpha", 1.0),
            # Only (-, b) matches, and agent 1 would take the free a.
            ([[0, 0], [0, 1]], "rmp", 1.0),
            ([[0, 0], [0, 1]], "alpha", 1.0),
        ],
    )
    def test_best_deviation_of_a_target_with_no_efficient_lottery(
        self, target, framework, deviation
    ):
        result = binary_search_z(
            self.TWO, ProbabilisticAssignment(target), framework, samples=20, seed=1
        )
        assert result.status == "not-decomposable"
        assert result.z is None and result.decomposition is None
        assert result.best_deviation == deviation

    @pytest.mark.parametrize("framework", ["rmp", "alpha"])
    def test_an_optimal_search_reports_no_deviation(self, framework):
        # Half (a, b) and half (-, a).
        target = ProbabilisticAssignment([[self.HALF, 0], [self.HALF, self.HALF]])
        result = binary_search_z(self.TWO, target, framework, samples=20, seed=1)
        assert result.status == "optimal" and result.z == 1
        assert result.best_deviation is None

    @pytest.mark.parametrize("framework", ["rmp", "alpha"])
    def test_rejects_a_target_that_is_no_assignment_of_the_market(self, ex1, framework):
        # A target of another market's shape, and one that gives object b
        # (capacity one) to two agents for sure.
        other = rsd_sampled(family_lb(2), 100, 1).assignment
        with pytest.raises(ValueError, match="dimensions"):
            binary_search_z(family_lb(3), other, framework, samples=30, seed=1)
        overfull = ProbabilisticAssignment([[0, 1, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="not feasible"):
            binary_search_z(ex1, overfull, framework, samples=30, seed=1)

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
            efficient = sd_pe_set(inst)
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
            rows = _rows(pool, inst.n_agents)
            solution = solve_rmp(est.assignment, rows, _floor(rows, k))
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

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_pricing_cutoff_keeps_verdicts_in_fewer_nodes(self, monkeypatch, seed):
        # Every pricing MIP of this search proves that no column exists; the
        # cutoff at w - TOLERANCE ends each in a few nodes (22 and 23 in all
        # for these seeds without it, 10 and 10 with it) and changes no
        # verdict of the uncut solve of the same program.
        nodes = []
        price = colgen.price_pe_matching
        solve = colgen.backend_solve_mip

        def uncut(program, *, cutoff, **kwargs):
            return solve(program, **kwargs)

        def counted(program, **kwargs):
            result = solve(program, **kwargs)
            nodes.append(result.nodes)
            return result

        def checked(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(colgen, "backend_solve_mip", uncut)
                reference = price(*args, **kwargs)
            with monkeypatch.context() as patch:
                patch.setattr(colgen, "backend_solve_mip", counted)
                outcome = price(*args, **kwargs)
            assert (outcome.matching, outcome.proven) == (
                reference.matching,
                reference.proven,
            )
            return outcome

        monkeypatch.setattr(colgen, "price_pe_matching", checked)
        inst = family_lb(4)
        result = binary_search_z(
            inst, rsd_sampled(inst, 10_000, seed=seed).assignment, "rmp",
            samples=10_000, seed=seed, known_decomposable=True,
        )
        assert (result.status, result.z) == ("optimal", 4)
        assert nodes and sum(nodes) <= 14

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

    @pytest.mark.parametrize(
        "seed, expected",
        [(79_190, [(6, 1), (5, 1)]), (0, [(6, 1), (5, 1), (4, 2)])],
    )
    def test_deviation_master_is_solved_once_per_distinct_rows(
        self, monkeypatch, seed, expected
    ):
        # Adversarial benchmark markets 10 and 0.  In market 10 the bounds
        # hand the master two different sets of 400 rows; in market 0 two
        # of the four rounds repeat one set.  Each search solves one LP per
        # distinct set, and a second search solves its own again.
        inst = family_lb(4)
        target = rsd_sampled(inst, 10_000, seed).assignment
        rounds, solved = [], []
        memo, bare = colgen.master_memo, colgen.solve_rmp

        def counted(assignment, rows, eligible):
            solved.append(rows.tobytes())
            return bare(assignment, rows, eligible)

        def watched(master):
            solve = memo(master)

            def spy(assignment, rows, eligible):
                rounds.append(rows.tobytes())
                return solve(assignment, rows, eligible)

            return spy

        monkeypatch.setattr(colgen, "solve_rmp", counted)
        monkeypatch.setattr(colgen, "master_memo", watched)
        for _ in range(2):
            rounds.clear()
            solved.clear()
            result = binary_search_z(
                inst, target, "rmp", samples=10_000, seed=seed,
                known_decomposable=True,
            )
            assert [(t.k, t.iterations) for t in result.trace] == expected
            assert len(rounds) == sum(iterations for _, iterations in expected)
            assert solved == list(dict.fromkeys(rounds))

    def test_coverage_master_is_solved_every_round(self, monkeypatch):
        # The coverage master reads the rows' eligibility, and bounds 6 and
        # 5 open on the same rows with different masks: a round is never
        # served to another bound.
        inst = family_lb(4)
        target = rsd_sampled(inst, 10_000, 79_190).assignment
        calls = []
        bare = colgen.solve_alpha_master

        def counted(assignment, rows, eligible):
            calls.append((eligible.tobytes(), rows.tobytes()))
            return bare(assignment, rows, eligible)

        monkeypatch.setattr(colgen, "solve_alpha_master", counted)
        result = binary_search_z(
            inst, target, "alpha", samples=10_000, seed=79_190,
            known_decomposable=True,
        )
        assert [(t.k, t.iterations) for t in result.trace] == [(6, 2), (5, 2)]
        assert len(calls) == 4
        assert calls[0][1] == calls[2][1] and calls[0][0] != calls[2][0]

    @pytest.mark.parametrize("framework", ["rmp", "alpha"])
    @pytest.mark.parametrize(
        "known_decomposable, bounds", [(True, [6, 5]), (False, [6, 3, 5])]
    )
    def test_attempt_order_is_pinned(
        self, monkeypatch, framework, known_decomposable, bounds
    ):
        # Through the memo the attempt order is part of the output.  The
        # ceiling 6 fails; bisection then tries (lo + hi + 1) // 2 on
        # [p-, 5] = [4, 5], or on [0, 5] without p-, where 3 certifies and
        # moves the search up to 5.
        tried, real = [], colgen.generate_columns

        def spy(instance, assignment, pool, k, **kwargs):
            tried.append(k)
            return real(instance, assignment, pool, k, **kwargs)

        monkeypatch.setattr(colgen, "generate_columns", spy)
        inst = family_lb(4)
        target = rsd_sampled(inst, 10_000, 79_190).assignment
        result = binary_search_z(
            inst, target, framework, samples=10_000, seed=79_190,
            known_decomposable=known_decomposable,
        )
        assert (result.z, tried) == (5, bounds)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: float certificate")
    @pytest.mark.parametrize("framework", ["rmp", "alpha"])
    def test_sampled_lower_family_certifies_only_an_exact_lottery(self, framework):
        # Market 10 of the adversarial benchmark: both masters end k = 5 with
        # a deviation below TOLERANCE that is not zero, and report z = 5.
        inst = family_lb(4)
        target = rsd_sampled(inst, 10_000, seed=79190).assignment
        result = binary_search_z(
            inst, target, framework, samples=10_000, seed=79190,
            known_decomposable=True,
        )
        assert result.z == 4
        assert recompose(inst, result.decomposition).probs == target.probs


class TestBudgetDeadline:
    def test_zero_budget_stops_at_p_minus(self):
        # In both frameworks a cut p- search ends the search before any
        # bound is tried: every field of the result is pinned.
        inst = generate(GenParams(n_agents=12, ratio=4.0, seed=0))
        est = rsd_sampled(inst, 400, 1)
        for framework in ("rmp", "alpha"):
            result = binary_search_z(
                inst, est.assignment, framework, samples=400, seed=1,
                time_limit=0.0, known_decomposable=True,
            )
            assert result == MdsdResult(
                status="budget-exhausted",
                z=None,
                decomposition=None,
                trace=[],
                floor_mu=md_upper_bound(est.assignment),
                lower_bound=None,
                framework=framework,
                measure="cardinality",
                best_deviation=None,
            )

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


def _ceiling_first(lo, hi, feasible):
    """Attempt order of the cardinality search before the searches merged."""
    tried = [hi]
    if not feasible(hi):
        hi -= 1
        while lo <= hi:
            mid = (lo + hi + 1) // 2
            tried.append(mid)
            if feasible(mid):
                lo = mid + 1
            else:
                hi = mid - 1
    return tried


def _loose_end_first(lo, hi, feasible):
    """Attempt order of the margin search before the searches merged."""
    tried = [hi]
    if feasible(hi):
        while lo < hi:
            mid = (lo + hi) // 2
            tried.append(mid)
            if feasible(mid):
                hi = mid
            else:
                lo = mid + 1
    return tried


def test_bound_search_keeps_both_attempt_orders(monkeypatch):
    # Column generation stubbed by a threshold: k certifies at or below it,
    # omega at or above it.  On every range within [0, 20] and every
    # threshold, one loop tries the bounds each former loop tried, and
    # reports the tightest bound with a lottery.
    threshold = None

    def stub(instance, assignment, pool, bound, *, block, **kwargs):
        ok = bound <= threshold if block == "k" else bound >= threshold
        return KTrace(bound, 0.0, 1, 0, ok, 0.0), ("lottery" if ok else None), True

    monkeypatch.setattr(colgen, "generate_columns", stub)
    checks = 0
    for lo in range(21):
        for hi in range(lo, 21):
            for threshold in range(lo - 1, hi + 2):
                for measure, order, best in (
                    ("cardinality", _ceiling_first, min(threshold, hi)),
                    ("margin", _loose_end_first, max(threshold, lo)),
                ):
                    status, bound, attempts = colgen.bound_search(
                        None, None, None, lo, hi,
                        measure=measure, values=None,
                    )
                    feasible = lambda b: attempts[b][1] is not None
                    assert list(attempts) == order(lo, hi, feasible)
                    if lo <= best <= hi:
                        assert (status, bound) == ("optimal", best)
                    else:
                        assert (status, bound) == ("not-decomposable", None)
                    checks += 1
    assert checks == 2 * sum(hi - lo + 3 for lo in range(21) for hi in range(lo, 21))


@pytest.mark.parametrize("measure, feasible_top", [("cardinality", False), ("margin", True)])
def test_bound_search_checks_the_deadline_before_each_bisection_attempt(
    monkeypatch, measure, feasible_top
):
    # The top bound runs even past the deadline; a verdict there that
    # leaves a range to bisect ends the search budget-exhausted instead.
    monkeypatch.setattr(
        colgen, "generate_columns",
        lambda *args, **kwargs: (None, "lottery" if feasible_top else None, True),
    )
    status, bound, attempts = colgen.bound_search(
        None, None, None, 0, 9, measure=measure, values=None, deadline=0.0
    )
    assert list(attempts) == [9]
    assert (status, bound) == ("budget-exhausted", 9 if feasible_top else None)


def test_bound_search_rejects_an_unknown_measure():
    with pytest.raises(ValueError, match="measure"):
        colgen.bound_search(None, None, None, 0, 1, measure="cardinalty", values=None)


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
            {
                "deviation": "7373131954e8ef3d6d7ffaecd578ca4c17ca268a881ad364d15e138fca6a8413",
                "coverage": "ea2fb5c0727418b4d6cf62246ad965164038b1f37f9b7e7c0c8b0d9fdaa23cc6",
            },
        ),
        (
            8,
            4,
            (3,),
            {
                "deviation": "31b3a428d10c7dc0f36b931f0f65d1b8b13f52398ee441d6e76ca151fc8f7f6e",
                "coverage": "692f1e30cf90346e8068b751c03b8494df555005519c571016102082307fd384",
            },
        ),
    ],
    ids=["default-activation", "small-activation"],
)
def test_lotteries_are_pinned(monkeypatch, initial_active, batch, seeds, expected):
    # Lotteries, z and per-k traces of both frameworks, and omega and the
    # lottery of the margin search, as digests of their reprs: one over the
    # deviation master's searches (cardinality and margin), one over the
    # coverage master's.  The target averages a sample other than the
    # pool's, so pricing finds columns; a small initial active set also
    # makes the pool activate by reduced cost.
    if initial_active is not None:
        monkeypatch.setattr(colgen, "_INITIAL_ACTIVE", initial_active)
        monkeypatch.setattr(colgen, "_ACTIVATION_BATCH", batch)
    digests = {"deviation": hashlib.sha256(), "coverage": hashlib.sha256()}
    for inst, samples in (
        (family_lb(3), 30),
        (generate(GenParams(12, 2.0, seed=501)), 60),
        (generate(GenParams(11, 2.0, seed=500)), 300),
    ):
        for seed in seeds:
            x = rsd_sampled(inst, 400, seed + 7).assignment
            for framework, master in (("rmp", "deviation"), ("alpha", "coverage")):
                result = binary_search_z(
                    inst, x, framework, samples=samples, seed=seed,
                    known_decomposable=True,
                )
                trace = [(t.k, t.iterations, t.columns_added) for t in result.trace]
                digests[master].update(
                    repr((result.z, result.decomposition.terms, trace)).encode()
                )
            omega, decomposition = binary_search_margin(inst, x, samples=samples, seed=seed)
            digests["deviation"].update(repr((omega, decomposition.terms)).encode())
    assert {name: d.hexdigest() for name, d in digests.items()} == expected


def test_every_master_receives_only_rows_inside_the_support(monkeypatch):
    # A column outside the target's support can carry no weight in an exact
    # lottery, so no search hands one to either master, and the deviation
    # master never writes a zero-cell row.  Markets of the lottery pins.
    received = {"deviation": [], "coverage": []}

    def recording(name, master):
        def solve(assignment, rows, eligible):
            support = assignment.support()
            cells = {(i, j) for row in rows.tolist() for i, j in enumerate(row) if j >= 0}
            received[name].append(cells <= support)
            return master(assignment, rows, eligible)

        return solve

    monkeypatch.setattr(colgen, "solve_rmp", recording("deviation", colgen.solve_rmp))
    monkeypatch.setattr(
        colgen, "solve_alpha_master", recording("coverage", colgen.solve_alpha_master)
    )
    for inst, samples in (
        (family_lb(3), 30),
        (generate(GenParams(12, 2.0, seed=501)), 60),
        (generate(GenParams(11, 2.0, seed=500)), 300),
    ):
        for seed in (1, 2, 3):
            x = rsd_sampled(inst, 400, seed + 7).assignment
            for framework in ("rmp", "alpha"):
                binary_search_z(
                    inst, x, framework, samples=samples, seed=seed, known_decomposable=True
                )
                binary_search_z(
                    inst, x, framework, measure="margin", samples=samples, seed=seed
                )
    assert received["deviation"] and received["coverage"]
    assert all(received["deviation"]) and all(received["coverage"])


@pytest.mark.parametrize(
    "initial_active, batch, seeds",
    [(None, None, (1, 2)), (8, 4, (3,))],
    ids=["default-activation", "small-activation"],
)
def test_lottery_values_are_pinned(monkeypatch, initial_active, batch, seeds):
    # The plain values behind test_lotteries_are_pinned: per market and seed,
    # z and floor_mu of both frameworks, p-, and omega of both frameworks.  A
    # change that moves a tied pricing optimum moves that digest but must
    # keep these.
    expected = {
        ("lb3", 1): (3, 3, 4, 3, 2, 2),
        ("lb3", 2): (3, 3, 4, 3, 2, 2),
        ("lb3", 3): (3, 3, 5, 3, 2, 2),
        ("g501", 1): (11, 11, 11, 10, 2, 2),
        ("g501", 2): (11, 11, 11, 10, 2, 2),
        ("g501", 3): (11, 11, 11, 10, 2, 2),
        ("g500", 1): (9, 9, 9, 9, 3, 3),
        ("g500", 2): (9, 9, 9, 9, 3, 3),
        ("g500", 3): (9, 9, 9, 9, 3, 3),
    }
    if initial_active is not None:
        monkeypatch.setattr(colgen, "_INITIAL_ACTIVE", initial_active)
        monkeypatch.setattr(colgen, "_ACTIVATION_BATCH", batch)
    for name, inst, samples in (
        ("lb3", family_lb(3), 30),
        ("g501", generate(GenParams(12, 2.0, seed=501)), 60),
        ("g500", generate(GenParams(11, 2.0, seed=500)), 300),
    ):
        for seed in seeds:
            x = rsd_sampled(inst, 400, seed + 7).assignment
            rmp, alpha = (
                binary_search_z(
                    inst, x, framework, samples=samples, seed=seed,
                    known_decomposable=True,
                )
                for framework in ("rmp", "alpha")
            )
            assert rmp.status == alpha.status == "optimal"
            assert rmp.floor_mu == alpha.floor_mu
            assert rmp.lower_bound == alpha.lower_bound
            omega, _ = binary_search_margin(inst, x, samples=samples, seed=seed)
            coverage = binary_search_z(
                inst, x, "alpha", measure="margin", samples=samples, seed=seed
            )
            assert coverage.status == "optimal"
            values = (rmp.z, alpha.z, rmp.floor_mu, rmp.lower_bound, omega, coverage.z)
            assert values == expected[name, seed]


def _master_pools():
    """``(assignment, rows, eligible)`` master inputs that reach every branch of
    both masters; ``eligible`` is the mask of cardinality at least ``k``."""
    inst = generate(GenParams(11, 2.0, seed=500))
    pool = initial_columns(inst, 300, 3)
    x = rsd_sampled(inst, 400, 10).assignment
    own = rsd_sampled(inst, 300, 3).assignment  # the average of the pool's samples
    inside = pool.rows[colgen._inside(colgen._support_mask(x), pool.rows)]
    k = int(np.median(pool.cardinalities))
    third = ProbabilisticAssignment([[Fraction(1, 3), Fraction(1, 3)]])
    cases = {
        "generated": [(x, pool.rows[:size], 0) for size in (3, 12, len(pool))]
        + [(x, pool.rows[pool.cardinalities >= k], k)],
        "generated-inside": [(x, inside[:size], k) for size in (4, len(inside))]
        + [(own, pool.rows, 0), (own, pool.rows[:40], 0)],
        # The target has no zero cell, so only the bound row keeps the
        # super-column's weight at most s.
        "super-resolved": [(third, np.array([[-1], [0], [1]], dtype=np.int32), 0)],
        "super-infeasible": [(third, np.array([[-1]], dtype=np.int32), 0)],
        "empty": [(x, pool.rows[:0], k), (third, np.empty((0, 1), dtype=np.int32), 0)],
    }
    return {
        name: [(target, rows, _floor(rows, floor)) for target, rows, floor in inputs]
        for name, inputs in cases.items()
    }


def test_master_values_are_pinned():
    # The plain values behind test_master_rounds_are_pinned, per case and
    # master (deviation, then coverage): objective and certified.  A change
    # of pivot path may move weights and duals, but not these.
    expected = {
        "generated": [
            [(0.6475, False)],
            [(0.1545, False)],
            [(0.0025, False)],
            [(0.0025, False)],
        ],
        # A coverage master that cannot decompose the target is infeasible,
        # and its round reads 0.0.
        "generated-inside": [
            [(0.5075, False), (0.0, False)],
            [(0.0025, False), (0.0, False)],
            [(0.0, True), (1.0, True)],
            [(1 / 150, False), (0.0, False)],
        ],
        "super-resolved": [[(0.0, True), (1.0, True)]],
        "super-infeasible": [[(1 / 3, False), (0.0, False)]],
        "empty": [
            [(1.0, False), (0.0, False)],
            [(1.0, False), (0.0, False)],
        ],
    }
    for name, cases in _master_pools().items():
        masters = [solve_rmp] if name == "generated" else [solve_rmp, solve_alpha_master]
        for (x, rows, eligible), values in zip(cases, expected[name], strict=True):
            rounds = [master(x, rows, eligible) for master in masters]
            assert [r.certified for r in rounds] == [certified for _, certified in values]
            assert [r.objective for r in rounds] == pytest.approx(
                [objective for objective, _ in values], abs=1e-9
            )


def test_master_rounds_are_pinned():
    # Prices, duals, objectives and weights of both masters, bit for bit, as
    # one digest per master.
    pools = _master_pools()
    digests = {solve_rmp: hashlib.sha256(), solve_alpha_master: hashlib.sha256()}
    for name, cases in pools.items():
        # Some "generated" rows leave the target's support: no coverage master.
        masters = [solve_rmp] if name == "generated" else [solve_rmp, solve_alpha_master]
        for x, rows, eligible in cases:
            for master in masters:
                round_ = master(x, rows, eligible)
                digests[master].update(round_.prices.tobytes())
                fields = (
                    round_.w,
                    round_.objective,
                    round_.weights,
                    round_.certified,
                    round_.floor_dual,
                )
                digests[master].update(repr(fields).encode())
    assert [d.hexdigest() for d in digests.values()] == [
        "b705eb797e01f0f8182be3c687c27662f11b53b8b3c69b3e86151fae0384dc02",
        "d131339ece41706527363fb8794b1b06a19f36cc31f893678dff74e25ce3c2fa",
    ]
