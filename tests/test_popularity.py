import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchlot import (
    Instance,
    Matching,
    ProbabilisticAssignment,
    binary_search_margin,
    initial_columns,
    is_pareto_efficient,
    unpopularity_margin,
)
from matchlot import lp, popularity
from matchlot.datagen import GenParams, family_lb, family_ub, generate
from matchlot.lp import solve_mip
from matchlot.mechanisms import rsd_exact
from matchlot.pe_program import build_matching_program
from matchlot.prng import SplitMix64

from oracles import (
    brute_force_margin,
    enumerate_feasible_matchings,
    lp_margin,
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
    outcome = st.none() | st.integers(0, o - 1) if o else st.none()
    assignment = tuple(draw(st.lists(outcome, min_size=n, max_size=n)))
    instance = Instance(
        tuple(str(i + 1) for i in range(n)), objects, capacities, preferences
    )
    return instance, Matching(assignment)


def _enumerable(inst, m) -> bool:
    """The brute-force oracle ranks held objects, so it needs listed ones."""
    held_listed = all(
        j is None or j in inst.rank[i] for i, j in enumerate(m.assignment)
    )
    rivals = math.prod(len(prefs) + 1 for prefs in inst.pref_idx)
    return held_listed and rivals <= 5000


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

    def test_unlisted_holding_prefers_the_outside_option(self):
        # Agent 1 holds b, which she does not list, so she votes for staying
        # out (+1) and for a (+1); agent 2 holds a, her only choice.  Moving
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

    def test_margin_search_solves_no_lp(self, monkeypatch):
        def refuse(program):
            raise AssertionError("an LP was solved")

        inst = family_lb(3)
        x = rsd_exact(inst).assignment
        with monkeypatch.context() as patch:
            patch.setattr(popularity, "solve_lp", refuse)
            patch.setattr(lp, "solve_lp", refuse)
            margin = unpopularity_margin(inst, Matching((None,) * inst.n_agents))
            omega, decomposition = binary_search_margin(inst, x, samples=1000, seed=0)
        assert margin == lp_margin(inst, Matching((None,) * inst.n_agents))
        assert decomposition.matchings()
        for m in decomposition.matchings():
            assert lp_margin(inst, m) <= omega


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

    def test_block_shape(self, ex1):
        plain = build_matching_program(ex1, objective={}).program
        bounded = build_matching_program(ex1, objective={}, margin_limit=2).program
        n, o = ex1.n_agents, ex1.n_objects
        listed = sum(len(prefs) for prefs in ex1.pref_idx)
        # Columns: mnull and dalpha per agent, dalpha per object and for the
        # outside option, and nu per listed object and outside option.
        added_columns = bounded.A.shape[1] - plain.A.shape[1]
        assert added_columns == 2 * n + o + 1 + listed + n
        # Rows: one row-completion per agent, the margin bound, and per agent
        # a link and a dual-feasibility row per nu plus a dual-feasibility
        # row per unlisted object.
        added_rows = bounded.A.shape[0] - plain.A.shape[0]
        assert added_rows == n + 1 + 2 * (listed + n) + (n * o - listed)
        assert bounded.b[plain.A.shape[0] + n] == 2.0  # the margin bound
        # The block comes after every plain row and column.
        rows, columns = plain.A.shape
        assert np.array_equal(bounded.A[:rows, :columns], plain.A)
        assert not bounded.A[:rows, columns:].any()


class TestBinarySearchMargin:
    def test_single_matching(self, ex1):
        m = Matching((0, 2, 0, None))  # margin >= 1
        x = ProbabilisticAssignment.from_matching(m, 3)
        # The only efficient decompositions ignore m (it is inefficient),
        # so use an efficient matching instead.
        m_eff = Matching((1, 0, 0, None))
        x_eff = ProbabilisticAssignment.from_matching(m_eff, 3)
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

    def test_budget_hit_is_not_infeasibility(self, monkeypatch):
        # An RSD matrix always decomposes over efficient matchings, so a
        # search cut short must say the budget ran out, not that no
        # decomposition exists.
        from matchlot import colgen, family_lb, rsd_exact
        from matchlot.popularity import BudgetExhaustedError

        inst = family_lb(2)
        x = rsd_exact(inst).assignment
        omega, _ = binary_search_margin(inst, x, samples=5, seed=1)
        assert omega == 1
        with pytest.raises(BudgetExhaustedError):
            binary_search_margin(inst, x, samples=5, seed=1, time_limit=0.0)
        monkeypatch.setattr(colgen, "_MAX_ROUNDS_PER_K", 1)
        with pytest.raises(BudgetExhaustedError):
            binary_search_margin(inst, x, samples=5, seed=1)
