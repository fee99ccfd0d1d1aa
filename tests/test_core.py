from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matchlot import (
    EnumerationLimitError,
    Instance,
    InstanceValidationError,
    Matching,
    ProbabilisticAssignment,
    competitive_prices,
    enumerate_pe_matchings,
    is_feasible,
    is_feasible_assignment,
    is_pareto_efficient,
    mu,
    recompose,
    serial_dictatorship,
    validate_instance,
    worst_case_cardinality,
)
from matchlot.prng import SplitMix64

from oracles import brute_force_pe_set, random_instance


class TestValidateInstance:
    def test_minimal_instance(self):
        inst = validate_instance(
            {
                "objects": [{"id": "o1", "capacity": 1}],
                "agents": [{"id": "1", "prefs": ["o1"]}],
            }
        )
        assert inst.n_agents == 1 and inst.n_objects == 1
        assert inst.preferences == (("o1",),)

    def test_duplicate_preference(self):
        with pytest.raises(InstanceValidationError, match="duplicate preference"):
            validate_instance(
                {
                    "objects": [{"id": "o1", "capacity": 1}],
                    "agents": [{"id": "1", "prefs": ["o1", "o1"]}],
                }
            )

    def test_collects_every_violation(self):
        with pytest.raises(InstanceValidationError) as err:
            validate_instance(
                {
                    "objects": [
                        {"id": "o1", "capacity": 0},
                        {"id": "o1", "capacity": 2},
                    ],
                    "agents": [
                        {"id": "1", "prefs": ["nope"]},
                        {"id": "1", "prefs": []},
                    ],
                }
            )
        text = "\n".join(err.value.violations)
        assert "capacity" in text
        assert "duplicate object id" in text
        assert "unknown object" in text
        assert "duplicate agent id" in text

    def test_example_market_is_valid(self, ex1):
        raw = {
            "objects": [
                {"id": "a", "capacity": 2},
                {"id": "b", "capacity": 1},
                {"id": "c", "capacity": 1},
            ],
            "agents": [
                {"id": "1", "prefs": ["a", "b", "c"]},
                {"id": "2", "prefs": ["a", "b", "c"]},
                {"id": "3", "prefs": ["a"]},
                {"id": "4", "prefs": ["a"]},
            ],
        }
        assert validate_instance(raw) == ex1


class TestSerialDictatorship:
    def test_identity_order(self, ex1):
        m = serial_dictatorship(ex1, [0, 1, 2, 3])
        assert m.assignment == (0, 0, None, None)
        assert m.cardinality() == 2

    def test_reversed_blocks(self, ex1):
        m = serial_dictatorship(ex1, [2, 3, 0, 1])
        assert m.assignment == (1, 2, 0, 0)
        assert m.cardinality() == 4

    def test_single_agent(self):
        inst = Instance(("1",), ("a",), (1,), (("a",),))
        assert serial_dictatorship(inst, [0]).assignment == (0,)

    def test_rejects_non_permutation(self, ex1):
        with pytest.raises(ValueError):
            serial_dictatorship(ex1, [0, 0, 1, 2])

    def test_always_pareto_efficient(self):
        rng = SplitMix64(2024)
        for _ in range(1000):
            inst = random_instance(rng, max_agents=6, max_objects=4)
            sigma = rng.permutation(inst.n_agents)
            m = serial_dictatorship(inst, sigma)
            assert is_feasible(inst, m)
            assert is_pareto_efficient(inst, m)


class TestFeasibilityAndMu:
    def test_mu_of_x1(self, x1):
        assert mu(x1) == 3

    def test_mu_all_zeros(self):
        z = ProbabilisticAssignment.from_rows([[0, 0], [0, 0]])
        assert mu(z) == 0

    def test_capacity_violation_detected(self, ex1):
        bad = Matching((0, 0, 0, None))  # three agents on a capacity-2 object
        assert not is_feasible(ex1, bad)

    def test_dimension_mismatch_raises(self, ex1):
        with pytest.raises(ValueError):
            is_feasible(ex1, Matching((0,)))

    def test_assignment_feasibility(self, ex1, x1):
        assert is_feasible_assignment(ex1, x1)
        too_much = ProbabilisticAssignment.from_rows(
            [[1, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
        )
        assert not is_feasible_assignment(ex1, too_much)


class TestParetoEfficiency:
    def test_wasteful_matching_rejected(self, ex1):
        # Agent 2 sits on c while b has unused capacity.
        assert not is_pareto_efficient(ex1, Matching((0, 2, 0, None)))

    def test_lottery_member_accepted(self, ex1):
        assert is_pareto_efficient(ex1, Matching((1, 0, 0, None)))

    def test_empty_matching_with_empty_preferences(self):
        inst = Instance(("1", "2"), ("a",), (1,), ((), ()))
        assert is_pareto_efficient(inst, Matching((None, None)))

    def test_unacceptable_assignment_rejected(self):
        inst = Instance(("1",), ("a", "b"), (1, 1), (("a",),))
        assert not is_pareto_efficient(inst, Matching((1,)))

    def test_over_capacity_matching_rejected(self, ex1):
        # Three agents on a of capacity two: no envy, every agent assigned
        # an acceptable object, but not a matching of the market.
        over = Matching((0, 0, 0, None))
        assert not is_feasible(ex1, over)
        assert not is_pareto_efficient(ex1, over)

    def test_prices_certify(self, ex1):
        prices = competitive_prices(ex1, Matching((1, 0, 0, None)))
        assert prices is not None
        # Envy edges point from b and c toward a, so a is priced highest.
        assert prices[0] > prices[1] and prices[0] > prices[2]
        assert competitive_prices(ex1, Matching((0, 2, 0, None))) is None

    def test_prices_refuse_a_full_envy_cycle(self):
        # Each agent holds the object that the other one ranks first.
        inst = Instance(
            agents=("0", "1"),
            objects=("a", "b"),
            capacities=(1, 1),
            preferences=(("b", "a"), ("a", "b")),
        )
        assert competitive_prices(inst, Matching((0, 1))) is None

    def test_matches_brute_force_on_randoms(self):
        rng = SplitMix64(77)
        for _ in range(150):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            expected = brute_force_pe_set(inst)
            sd_set = enumerate_pe_matchings(inst)
            assert sd_set == expected
            for m in expected:
                assert is_pareto_efficient(inst, m)

    def test_three_characterisations_at_six_agents(self):
        from oracles import enumerate_feasible_matchings

        rng = SplitMix64(606060)
        for _ in range(15):
            inst = random_instance(rng, max_agents=6, max_objects=4)
            if inst.n_agents < 6:
                continue
            expected = brute_force_pe_set(inst)
            assert enumerate_pe_matchings(inst) == expected
            for m in enumerate_feasible_matchings(inst):
                assert is_pareto_efficient(inst, m) == (m in expected)


class TestEnumeration:
    def test_limit_enforced(self):
        inst = Instance(
            tuple(str(i) for i in range(9)),
            ("a",),
            (1,),
            tuple(("a",) for _ in range(9)),
        )
        with pytest.raises(EnumerationLimitError):
            enumerate_pe_matchings(inst)

    def test_example_membership(self, ex1, x1_decomposition):
        pe = enumerate_pe_matchings(ex1)
        lottery = x1_decomposition.matchings()
        assert lottery[0] in pe and lottery[1] in pe
        assert lottery[2] not in pe and lottery[3] not in pe

    def test_single_agent(self):
        inst = Instance(("1",), ("a",), (1,), (("a",),))
        assert enumerate_pe_matchings(inst) == {Matching((0,))}


class TestDecompositionAlgebra:
    def test_recompose_example_lottery(self, ex1, x1, x1_decomposition):
        assert recompose(ex1, x1_decomposition).probs == x1.probs

    def test_single_matching_lottery(self, ex1):
        from matchlot import Decomposition

        m = Matching((0, 1, None, 0))
        d = Decomposition(((Fraction(1), m),))
        assert recompose(ex1, d).probs == ProbabilisticAssignment.from_matching(
            m, 3
        ).probs

    def test_worst_case_of_example(self, ex3, x2):
        from matchlot import Decomposition

        better = Decomposition(
            (
                (Fraction(1, 2), Matching((1, 0, 0, None))),
                (Fraction(1, 2), Matching((0, 1, None, 0))),
            )
        )
        assert recompose(ex3, better).probs == x2.probs
        assert worst_case_cardinality(better) == 3

    def test_weights_must_sum_to_one(self, ex1):
        from matchlot import Decomposition

        d = Decomposition(((Fraction(1, 2), Matching((0, None, None, None))),))
        with pytest.raises(ValueError):
            recompose(ex1, d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**48))
def test_preference_comparisons_are_a_strict_weak_order(seed):
    rng = SplitMix64(seed)
    inst = random_instance(rng, max_agents=4, max_objects=4)
    outcomes = [*range(inst.n_objects), None]
    for i in range(inst.n_agents):
        for a in outcomes:
            assert not inst.prefers(i, a, a)
            for b in outcomes:
                assert not (inst.prefers(i, a, b) and inst.prefers(i, b, a))


def test_public_names_resolve_once():
    import matchlot

    assert len(matchlot.__all__) == len(set(matchlot.__all__))
    for name in matchlot.__all__:
        assert getattr(matchlot, name) is not None
