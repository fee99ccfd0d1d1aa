import pytest

from matchlot import (
    Instance,
    Matching,
    ProbabilisticAssignment,
    bounded_margin_block,
    binary_search_margin,
    comparison_weights,
    is_pareto_efficient,
    phi,
    unpopularity_margin,
)
from matchlot.lp import solve_mip
from matchlot.pe_program import build_matching_program
from matchlot.prng import SplitMix64

from oracles import brute_force_margin, enumerate_feasible_matchings, random_instance


class TestPhi:
    def test_reflexive_zero(self, ex1):
        m = Matching((0, 1, None, 0))
        assert phi(ex1, m, m) == 0

    def test_wasteful_matching_loses_one_vote(self, ex1):
        # Moving agent 2 from c to b flips exactly her vote.
        m3 = Matching((0, 2, 0, None))
        improved = Matching((0, 1, 0, None))
        assert phi(ex1, improved, m3) == 1
        assert phi(ex1, m3, improved) == 0

    def test_matches_per_agent_scan(self):
        rng = SplitMix64(111)
        for _ in range(60):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            matchings = enumerate_feasible_matchings(inst)
            if len(matchings) < 2:
                continue
            a = matchings[rng.randbelow(len(matchings))]
            b = matchings[rng.randbelow(len(matchings))]
            manual = sum(
                1
                for i in range(inst.n_agents)
                if inst.prefers(i, a.assignment[i], b.assignment[i])
            )
            assert phi(inst, a, b) == manual


class TestComparisonWeights:
    def test_sign_structure(self, ex1):
        m = Matching((1, 0, 0, None))  # agent 1 on b
        nu = comparison_weights(ex1, m).nu
        assert nu[0, 1] == 0  # own object
        assert nu[0, 0] == 1  # prefers a to b
        assert nu[0, 2] == -1  # prefers b to c
        assert nu[0, None] == -1
        assert nu[3, 0] == 1  # unassigned agent prefers a to nothing


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


class TestBoundedMarginBlock:
    def _price_with_block(self, inst, omega):
        support = {
            (i, j) for i in range(inst.n_agents) for j in inst.pref_idx[i]
        }
        built = build_matching_program(
            inst,
            objective={cell: -1.0 for cell in support},
            sense="min",
            enforce_pe=True,
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
                enforce_pe=True,
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
        variables, constraints = bounded_margin_block(ex1, 2)
        names = {v.name for v in variables}
        assert any(name.startswith("dalpha_a") for name in names)
        assert any(name.startswith("nu_") for name in names)
        assert any(c.name == "margin_bound" for c in constraints)


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

    def test_budget_hit_is_not_infeasibility(self):
        # An RSD matrix always decomposes over efficient matchings, so a
        # search cut short must say the budget ran out, not that no
        # decomposition exists.
        from matchlot import Budget, family_lb, rsd_exact
        from matchlot.popularity import BudgetExhaustedError

        inst = family_lb(2)
        x = rsd_exact(inst).assignment
        omega, _ = binary_search_margin(inst, x, samples=5, seed=1)
        assert omega == 1
        for budget in (Budget(max_rounds_per_k=1), Budget(time_limit=0.0)):
            with pytest.raises(BudgetExhaustedError):
                binary_search_margin(inst, x, samples=5, seed=1, budget=budget)
