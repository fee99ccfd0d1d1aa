import collections
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from matchlot import (
    Instance,
    Matching,
    ProbabilisticAssignment,
    binary_search_margin,
    initial_columns,
    is_pareto_efficient,
    unpopularity_margin,
)
from matchlot import colgen, lp, popularity
from matchlot.core import BudgetExhaustedError
from matchlot.datagen import GenParams, family_lb, family_ub, generate
from matchlot.lp import solve_mip
from matchlot.mechanisms import rsd_exact, rsd_sampled
from matchlot.pe_program import build_matching_program
from matchlot.prng import SplitMix64

from oracles import (
    brute_force_margin,
    enumerate_feasible_matchings,
    lp_margin,
    matching_matrix,
    random_instance,
)


class TestUnpopularityMargin:
    def test_top_choices_have_margin_zero(self):
        inst = Instance(
            ("1", "2"), ("a", "b"), (1, 1), (("a", "b"), ("b", "a"))
        )
        assert unpopularity_margin(inst, Matching((0, 1))) == 0

    def test_wasteful_matching_is_unpopular(self, ex1):
        m3 = Matching((0, 2, 0, None))
        margin = unpopularity_margin(ex1, m3)
        assert margin >= 1
        assert margin == brute_force_margin(ex1, m3)

    def test_never_negative_and_matches_brute_force(self):
        rng = SplitMix64(222)
        for _ in range(80):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            matchings = enumerate_feasible_matchings(inst)
            m = matchings[rng.randbelow(len(matchings))]
            margin = unpopularity_margin(inst, m)
            assert margin >= 0
            assert margin == brute_force_margin(inst, m)


def _arbitrary_matchings(inst):
    o = inst.n_objects
    outcome = st.none() | st.integers(0, o - 1) if o else st.none()
    return st.lists(outcome, min_size=inst.n_agents, max_size=inst.n_agents).map(
        lambda assignment: Matching(tuple(assignment))
    )


@st.composite
def markets_with_assignments(draw):
    """Markets of 0-7 agents (lists may be empty, capacities up to 3) with an
    arbitrary assignment, which may exceed capacities and hold unlisted
    objects, as ``matchlot unpopularity`` accepts it from a file."""
    n = draw(st.integers(0, 7))
    o = draw(st.integers(0, 4))
    objects = tuple(chr(97 + j) for j in range(o))
    capacities = tuple(draw(st.lists(st.integers(1, 3), min_size=o, max_size=o)))
    preferences = tuple(
        tuple(draw(st.permutations(objects))[: draw(st.integers(0, o))])
        for _ in range(n)
    )
    instance = Instance(
        tuple(str(i + 1) for i in range(n)), objects, capacities, preferences
    )
    return instance, draw(_arbitrary_matchings(instance))


@st.composite
def markets_with_row_stacks(draw):
    """A market with a stack of 0-10 assignments drawn, in any order and
    with repeats, from up to five distinct ones; the stack may be empty."""
    instance, first = draw(markets_with_assignments())
    distinct = [first] + draw(st.lists(_arbitrary_matchings(instance), max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=10))
    return instance, [distinct[k] for k in picks]


def _rows(inst, matchings) -> np.ndarray:
    rows = [[-1 if j is None else j for j in m.assignment] for m in matchings]
    return np.array(rows, dtype=np.int32).reshape(len(matchings), inst.n_agents)


def _profiles(inst, rows: np.ndarray) -> set:
    """Distinct multisets of (preference list, held listed object or None)
    per row; an agent holding an unlisted object has no vote type."""
    profiles = set()
    for row in rows.tolist():
        types = collections.Counter(
            (inst.pref_idx[i], None if j < 0 else j)
            for i, j in enumerate(row)
            if j < 0 or j in inst.pref_idx[i]
        )
        profiles.add(frozenset(types.items()))
    return profiles


def _enumerable(inst, m) -> bool:
    """Few enough rivals for the brute-force oracle to enumerate."""
    return math.prod(len(prefs) + 1 for prefs in inst.pref_idx) <= 5000


_CROSS_CHECK_MARKETS = {
    "lb3": family_lb(3),
    "lb4": family_lb(4),
    "ub3": family_ub(3),
    "ub4": family_ub(4),
    **{
        f"gen30-seed{9100 + s}-ratio{ratio:g}": generate(
            GenParams(30, ratio, seed=9100 + s)
        )
        for s in range(3)
        for ratio in (3.0, 10.0)
    },
}


class TestMarginKernel:
    @settings(max_examples=300, deadline=None)
    @given(case=markets_with_assignments())
    def test_equals_the_lp_and_brute_force(self, case):
        inst, m = case
        margin = unpopularity_margin(inst, m)
        assert margin == lp_margin(inst, m)
        if _enumerable(inst, m):
            assert margin == brute_force_margin(inst, m)

    @settings(max_examples=150, deadline=None)
    @given(case=markets_with_row_stacks())
    @example(case=(Instance((), ("a",), (1,), ()), [Matching(())] * 3))
    @example(case=(Instance(("1",), ("a",), (1,), (("a",),)), []))
    def test_stacked_rows_equal_the_lp_and_brute_force(self, case):
        inst, matchings = case
        margins = popularity.unpopularity_margins(inst, _rows(inst, matchings))
        assert margins.dtype == np.int64 and margins.shape == (len(matchings),)
        for m, margin in zip(matchings, margins.tolist()):
            assert margin == lp_margin(inst, m)
            if _enumerable(inst, m):
                assert margin == brute_force_margin(inst, m)

    def test_unlisted_holding_prefers_the_outside_option(self):
        # Agent 1 holds b, which it does not list, so it votes for staying
        # out (+1) and for a (+1); agent 2 holds a, its only choice.  Moving
        # agent 1 to a would cost agent 2's vote, so the best rival sends
        # agent 1 out: margin 1.
        inst = Instance(("1", "2"), ("a", "b"), (1, 1), (("a",), ("a",)))
        m = Matching((1, 0))
        assert unpopularity_margin(inst, m) == 1 == lp_margin(inst, m)

    def test_over_capacity_matching_can_be_negative(self):
        # Both agents hold their top choice a of capacity one; every rival
        # must move one of them out.
        inst = Instance(("1", "2"), ("a",), (1,), (("a",), ("a",)))
        m = Matching((0, 0))
        assert unpopularity_margin(inst, m) == -1 == lp_margin(inst, m)

    @pytest.mark.parametrize("market", list(_CROSS_CHECK_MARKETS))
    def test_sd_matchings_equal_the_lp(self, market):
        inst = _CROSS_CHECK_MARKETS[market]
        pool = initial_columns(inst, 40, 17)
        for m in map(pool.matching, range(len(pool))):
            assert unpopularity_margin(inst, m) == lp_margin(inst, m)

    def test_margins_solve_no_lp(self, monkeypatch):
        # The search's master rounds are LPs; the margins of its pool and of
        # its lottery's matchings are flows, computed with every binding of
        # solve_lp refused.
        def refuse(program):
            raise AssertionError("an LP was solved")

        inst = family_lb(3)
        x = rsd_exact(inst).assignment
        omega, decomposition = binary_search_margin(inst, x, samples=1000, seed=0)
        pool = initial_columns(inst, 1000, 0)
        matchings = [Matching((None,) * inst.n_agents), *decomposition.matchings()]
        with monkeypatch.context() as patch:
            for owner in (lp, colgen, popularity):
                patch.setattr(owner, "solve_lp", refuse)
            margins = [unpopularity_margin(inst, m) for m in matchings]
            pool_margins = popularity.unpopularity_margins(inst, pool.rows)
        assert margins == [lp_margin(inst, m) for m in matchings]
        assert len(matchings) > 1 and max(margins[1:]) <= omega
        assert pool_margins.tolist() == [
            lp_margin(inst, pool.matching(t)) for t in range(len(pool))
        ]

    def test_margin_search_solves_one_flow_per_profile(self, monkeypatch):
        # The pool's margins come from one flow per distinct vote-type
        # profile, and no Matching is built except for a lottery term.
        inst = family_lb(3)
        x = rsd_exact(inst).assignment

        def spy(owner, name):
            calls, real = [], getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls.append((args, real(*args, **kwargs)))
                return calls[-1][1]

            monkeypatch.setattr(owner, name, wrapped)
            return calls

        pools = spy(colgen, "initial_columns")
        batches = spy(popularity, "unpopularity_margins")
        flows = spy(popularity, "_max_gain")
        searches = spy(colgen, "generate_columns")
        built = spy(colgen.ColumnPool, "matching")
        binary_search_margin(inst, x, samples=1000, seed=0)
        (_, pool), = pools
        profiles = _profiles(inst, pool.rows)
        # A column that pricing appends may repeat a profile of the pool.
        appended = len(pool) - len(batches[0][0][1])
        assert len(flows) <= len(profiles) + appended
        assert len(profiles) < len(pool)
        # A bound served a memoised round shares its lottery, built once.
        lotteries = {id(d): d for _, (_, d, _) in searches if d is not None}
        terms = sum(len(d.terms) for d in lotteries.values())
        assert terms and len(built) == terms


class TestBoundedMarginBlock:
    def _price_with_block(self, inst, omega):
        support = {
            (i, j) for i in range(inst.n_agents) for j in inst.pref_idx[i]
        }
        built = build_matching_program(
            inst,
            objective={cell: -1.0 for cell in support},
            sense="min",
            margin_limit=omega,
        )
        result = solve_mip(built.program)
        if result.status != "optimal":
            return None
        return built.decode(result)

    def test_loose_bound_never_binds(self):
        rng = SplitMix64(333)
        for _ in range(20):
            inst = random_instance(rng, max_agents=4, max_objects=3)
            if inst.n_agents == 0:
                continue
            free = self._price_with_block(inst, inst.n_agents)
            built = build_matching_program(
                inst,
                objective={
                    (i, j): -1.0
                    for i in range(inst.n_agents)
                    for j in inst.pref_idx[i]
                },
                sense="min",
                )
            plain_result = solve_mip(built.program)
            plain = (
                built.decode(plain_result)
                if plain_result.status == "optimal"
                else None
            )
            if plain is None:
                assert free is None
            else:
                assert free is not None
                assert free.cardinality() == plain.cardinality()

    def test_zero_bound_yields_popular_matchings(self):
        rng = SplitMix64(444)
        found = 0
        for _ in range(40):
            inst = random_instance(rng, max_agents=4, max_objects=3)
            m = self._price_with_block(inst, 0)
            if m is None:
                continue
            assert unpopularity_margin(inst, m) == 0
            found += 1
        assert found >= 5

    def test_priced_matchings_respect_bound(self):
        rng = SplitMix64(555)
        for omega in (0, 1, 2):
            for _ in range(15):
                inst = random_instance(rng, max_agents=4, max_objects=3)
                m = self._price_with_block(inst, omega)
                if m is not None:
                    assert unpopularity_margin(inst, m) <= omega

    def test_block_admits_exactly_the_efficient_matchings_within_the_bound(self):
        # Pin the cells to each feasible matching: the rest of the program
        # is feasible exactly when the matching is efficient and no rival
        # beats it by more than omega.  A block that is too loose prices
        # unpopular columns; one that is too tight raises the searched omega.
        # Small random markets rarely hold an unpopular efficient matching,
        # so two markets that do are added.
        rng = SplitMix64(666)
        markets = [random_instance(rng, max_agents=4, max_objects=3) for _ in range(60)]
        markets += [family_lb(2), generate(GenParams(5, 1.0, seed=3))]
        seen = collections.Counter()
        for inst in markets:
            matchings = enumerate_feasible_matchings(inst)
            for omega in (0, 1, 2):
                built = build_matching_program(inst, objective={}, margin_limit=omega)
                program, k = built.program, len(built.cells)
                for m in matchings:
                    lb, ub = program.lb.copy(), program.ub.copy()
                    lb[:k] = ub[:k] = [float(m.assignment[i] == j) for i, j in built.cells]
                    result = solve_mip(
                        lp.DenseProgram(
                            program.c, program.A, program.senses, program.b, lb, ub,
                            integer=program.integer, priority=program.priority,
                        )
                    )
                    efficient = is_pareto_efficient(inst, m)
                    admitted = efficient and brute_force_margin(inst, m) <= omega
                    assert (result.status == "optimal") == admitted, (inst, m, omega)
                    seen[efficient, admitted] += 1
        # Inefficient matchings, and efficient ones within and beyond omega.
        assert len(seen) == 3 and seen[True, False] >= 5

    def test_block_shape(self, ex1):
        plain = build_matching_program(ex1, objective={}).program
        bounded = build_matching_program(ex1, objective={}, margin_limit=2).program
        n, o = ex1.n_agents, ex1.n_objects
        rows, columns = plain.A.shape
        # Columns: a dual per agent, per object and for the outside option.
        assert bounded.A.shape[1] - columns == n + o + 1
        # Rows: the margin bound, then a dual-feasibility row per agent and
        # option.  The votes are substituted into them, so none is an EQ row.
        assert bounded.A.shape[0] - rows == 1 + n * (o + 1)
        assert not (bounded.senses[rows:] == lp.EQ).any()
        assert (bounded.senses[rows], bounded.b[rows]) == (lp.LE, 2.0)
        assert bounded.A[rows, columns:].tolist() == [1.0] * n + [
            float(cap) for cap in ex1.capacities
        ] + [float(n)]
        # The block comes after every plain row and column.
        assert np.array_equal(bounded.A[:rows, :columns], plain.A)
        assert not bounded.A[:rows, columns:].any()
        for bounded_part, plain_part in (
            (bounded.senses[:rows], plain.senses),
            (bounded.b[:rows], plain.b),
            (bounded.c[:columns], plain.c),
            (bounded.lb[:columns], plain.lb),
            (bounded.ub[:columns], plain.ub),
            (bounded.integer[:columns], plain.integer),
            (bounded.priority[:columns], plain.priority),
        ):
            assert np.array_equal(bounded_part, plain_part)


class TestBinarySearchMargin:
    def test_single_matching(self, ex1):
        m = Matching((0, 2, 0, None))  # margin >= 1
        x = matching_matrix(m, 3)
        # The only efficient decompositions ignore m (it is inefficient),
        # so use an efficient matching instead.
        m_eff = Matching((1, 0, 0, None))
        x_eff = matching_matrix(m_eff, 3)
        omega, decomposition = binary_search_margin(
            ex1, x_eff, samples=500, seed=1
        )
        assert omega == unpopularity_margin(ex1, m_eff)
        assert decomposition.matchings() == [m_eff]

    def test_matches_exhaustive_over_fixed_columns(self, ex1, x1):
        omega, decomposition = binary_search_margin(ex1, x1, samples=4000, seed=2)
        # Verifies the reported bound is met by its own decomposition and
        # that no smaller bound admits one over all efficient matchings.
        assert all(
            unpopularity_margin(ex1, m) <= omega
            for m in decomposition.matchings()
        )
        assert all(
            is_pareto_efficient(ex1, m) for m in decomposition.matchings()
        )
        if omega > 0:
            from matchlot.popularity import MarginNotDecomposableError

            try:
                smaller, _ = binary_search_margin(
                    ex1, x1, samples=4000, seed=2
                )
                assert smaller == omega
            except MarginNotDecomposableError:
                pytest.fail("bisection is not reproducible")

    def test_rejects_a_target_that_is_no_assignment_of_the_market(self, ex1):
        # A target of another market's shape, and one that gives object b
        # (capacity one) to two agents for sure.
        other = rsd_sampled(family_lb(2), 100, 1).assignment
        with pytest.raises(ValueError, match="dimensions"):
            binary_search_margin(family_lb(3), other, samples=30, seed=1)
        overfull = ProbabilisticAssignment([[0, 1, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="not feasible"):
            binary_search_margin(ex1, overfull, samples=30, seed=1)

    def test_budget_hit_is_not_infeasibility(self):
        # An RSD matrix always decomposes over efficient matchings, so a
        # search cut short must say the budget ran out, not that no
        # decomposition exists.
        from matchlot import family_lb, rsd_exact
        from matchlot.popularity import BudgetExhaustedError

        inst = family_lb(2)
        x = rsd_exact(inst).assignment
        omega, _ = binary_search_margin(inst, x, samples=5, seed=1)
        assert omega == 1
        with pytest.raises(BudgetExhaustedError):
            binary_search_margin(inst, x, samples=5, seed=1, time_limit=0.0)

    LB3 = family_lb(3)
    LB3_TARGET = rsd_sampled(LB3, 1_000, 80_000).assignment

    def test_attempt_order_is_pinned(self):
        # Through the memo the attempt order is part of the output: n = 9
        # first, then bisection on [0, 8] at (lo + hi + 1) // 2.  Each
        # trace entry holds the bound it tried, under either master.
        for framework in ("rmp", "alpha"):
            result = colgen.binary_search_z(
                self.LB3, self.LB3_TARGET, framework, measure="margin",
                samples=1_000, seed=80_000,
            )
            assert (result.z, [t.k for t in result.trace]) == (2, [9, 4, 2, 1])

    def test_deadline_is_checked_before_each_bisection_attempt(self, monkeypatch):
        # Bound 9 certifies in its first round even past the deadline; the
        # search then stops instead of bisecting on.
        tried, real = [], colgen.generate_columns

        def spy(instance, assignment, pool, bound, **kwargs):
            tried.append(bound)
            return real(instance, assignment, pool, bound, **kwargs)

        monkeypatch.setattr(colgen, "generate_columns", spy)
        with pytest.raises(BudgetExhaustedError):
            binary_search_margin(
                self.LB3, self.LB3_TARGET, samples=1_000, seed=80_000, time_limit=0.0
            )
        assert tried == [9]

    def test_each_distinct_master_is_solved_once_per_search(self, monkeypatch):
        # The pool's largest margin is 2, so bounds 9, 4 and 2 hand the
        # master the same rows and share one LP; bound 1 needs a second.
        # A memo lives inside one call: a second search solves its own.
        inst = family_lb(3)
        x = rsd_sampled(inst, 1_000, 80_000).assignment
        solved = []
        bare = colgen.solve_rmp

        def counted(assignment, rows, eligible):
            solved.append(rows.tobytes())
            return bare(assignment, rows, eligible)

        monkeypatch.setattr(colgen, "solve_rmp", counted)
        results = []
        for _ in range(2):
            solved.clear()
            results.append(binary_search_margin(inst, x, samples=1_000, seed=80_000))
            assert len(solved) == len(set(solved)) == 2
        assert results[0] == results[1]
        omega, lottery = results[0]
        assert omega == 2
        pool = initial_columns(inst, 1_000, 80_000)
        margins = popularity.unpopularity_margins(inst, pool.rows)
        assert margins.max() == 2
        within = lambda t: margins[t] <= 2
        _, direct, _ = colgen.generate_columns(
            inst, x, pool, 2,
            master=bare, admits=within, eligible=within, block="margin_limit",
        )
        assert lottery == direct
