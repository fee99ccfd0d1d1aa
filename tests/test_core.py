from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchlot import (
    Instance,
    InstanceValidationError,
    Matching,
    ProbabilisticAssignment,
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

from oracles import (
    brute_force_pe_set,
    enumerate_feasible_matchings,
    envy_prices,
    list_rank,
    matching_matrix,
    prefers,
    price_certificate,
    random_feasible_assignment,
    random_instance,
    sd_pe_set,
)


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
        z = ProbabilisticAssignment([[0, 0], [0, 0]])
        assert mu(z) == 0

    def test_capacity_violation_detected(self, ex1):
        bad = Matching((0, 0, 0, None))  # three agents on a capacity-2 object
        assert not is_feasible(ex1, bad)

    def test_dimension_mismatch_raises(self, ex1):
        with pytest.raises(ValueError):
            is_feasible(ex1, Matching((0,)))

    def test_assignment_feasibility(self, ex1, x1):
        assert is_feasible_assignment(ex1, x1)
        too_much = ProbabilisticAssignment(
            [[1, 1, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
        )
        assert not is_feasible_assignment(ex1, too_much)


class TestRepresentation:
    """An assignment is its integer numerators over their least common
    denominator, however it was built."""

    @staticmethod
    def _agree(from_cells, from_numerators):
        assert from_cells == from_numerators
        assert hash(from_cells) == hash(from_numerators)
        assert from_cells.bordered == from_numerators.bordered
        assert from_cells.probs == from_numerators.probs
        assert from_cells.support() == from_numerators.support()
        for a, b in zip(from_cells.flat_cells, from_numerators.flat_cells):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # The floats are float(Fraction) of every cell, bit for bit.
        floats = [float(v) for row in from_cells.probs for v in row]
        assert from_numerators.flat_cells[0].tobytes() == np.array(floats).tobytes()
        assert (from_numerators.n_agents, from_numerators.n_objects) == (
            from_cells.n_agents,
            from_cells.n_objects,
        )

    def test_fraction_cells_and_unreduced_numerators_agree(self, x1):
        # x1 is over 12; the numerators are over 12 * 35.
        numerators = [[int(v * 420) for v in row] for row in x1.probs]
        self._agree(x1, ProbabilisticAssignment.from_numerators(numerators, 420))

    @pytest.mark.parametrize(
        "rows, numerators, denominator",
        [
            ((), [], 7),
            (((), ()), [[], []], 5),
            (((Fraction(1, 3),), (Fraction(2, 3),)), [[4], [8]], 12),
            (((Fraction(1, 10**30),),), [[3]], 3 * 10**30),
            (((0, 0), (0, 1)), [[0, 0], [0, 6]], 6),
        ],
        ids=["zero-rows", "zero-objects", "one-object", "huge-denominator", "integral"],
    )
    def test_edge_shapes_agree(self, rows, numerators, denominator):
        self._agree(
            ProbabilisticAssignment(rows),
            ProbabilisticAssignment.from_numerators(numerators, denominator),
        )

    def test_random_assignments_agree(self):
        rng = SplitMix64(4242)
        for k in range(200):
            inst = random_instance(rng, max_agents=6, max_objects=5, max_capacity=3)
            x = random_feasible_assignment(rng, inst, denominator=(12, 60, 7)[k % 3])
            scale = 1 + rng.randbelow(50)
            d = 420 * scale
            numerators = [[int(v * d) for v in row] for row in x.probs]
            self._agree(x, ProbabilisticAssignment.from_numerators(numerators, d))

    def test_different_matrices_differ(self, x1, x2):
        assert x1 != x2
        assert ProbabilisticAssignment(()) != ProbabilisticAssignment(((),))
        one = ProbabilisticAssignment.from_numerators([[1]], 2)
        assert one != ProbabilisticAssignment.from_numerators([[1]], 3)

    @pytest.mark.parametrize("denominator", [0, -1, -6])
    def test_denominator_must_be_positive(self, denominator):
        with pytest.raises(ValueError, match="denominator"):
            ProbabilisticAssignment.from_numerators([[1, 2]], denominator)

    def test_cells_are_built_only_when_read(self):
        x = ProbabilisticAssignment.from_numerators([[1, 2], [3, 0]], 6)
        assert mu(x) == 1 and x.support() == {(0, 0), (0, 1), (1, 0)}
        x.flat_cells
        assert "probs" not in vars(x)
        assert x.probs == ((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 2), 0))
        assert x.probs is x.probs


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
        prices = envy_prices(ex1, Matching((1, 0, 0, None)))
        assert prices is not None
        # Envy edges point from b and c toward a, so a is priced highest.
        assert prices[0] > prices[1] and prices[0] > prices[2]
        assert is_pareto_efficient(ex1, Matching((1, 0, 0, None)))
        assert envy_prices(ex1, Matching((0, 2, 0, None))) is None
        assert not is_pareto_efficient(ex1, Matching((0, 2, 0, None)))

    def test_prices_refuse_a_full_envy_cycle(self):
        # Each agent holds the object that the other one ranks first.
        inst = Instance(
            agents=("0", "1"),
            objects=("a", "b"),
            capacities=(1, 1),
            preferences=(("b", "a"), ("a", "b")),
        )
        assert envy_prices(inst, Matching((0, 1))) is None
        assert not is_pareto_efficient(inst, Matching((0, 1)))

    @pytest.mark.parametrize(
        "case, expected",
        [
            ("efficient", True),
            ("over-capacity", False),
            ("unlisted-object", False),
            ("free-object-for-the-unassigned", False),
            ("envy-into-a-free-object", False),
            ("envy-cycle", False),
            ("index-past-the-objects", False),
            ("negative-index", False),
        ],
    )
    def test_agrees_with_the_price_certificate_on_hand_cases(self, ex1, case, expected):
        two = Instance(("1", "2"), ("a", "b"), (1, 1), (("a",), ("b",)))
        crossed = Instance(("1", "2"), ("a", "b"), (1, 1), (("b", "a"), ("a", "b")))
        inst, m = {
            "efficient": (ex1, Matching((1, 0, 0, None))),
            "over-capacity": (ex1, Matching((0, 0, 0, None))),
            # Agent 4 accepts only a, yet holds b.
            "unlisted-object": (ex1, Matching((2, 0, 0, 1))),
            # Agent 2 could take b, and no one envies anyone.
            "free-object-for-the-unassigned": (two, Matching((0, None))),
            # Agent 2 holds c and prefers b, which is free; a is full.
            "envy-into-a-free-object": (ex1, Matching((0, 2, 0, None))),
            # Each agent holds the object the other ranks first.
            "envy-cycle": (crossed, Matching((0, 1))),
            "index-past-the-objects": (ex1, Matching((3, None, None, None))),
            "negative-index": (ex1, Matching((-1, None, None, None))),
        }[case]
        assert price_certificate(inst, m) is expected
        assert is_pareto_efficient(inst, m) is expected

    def test_wrong_length_raises_like_the_price_certificate(self, ex1):
        for m in (Matching((0,)), Matching((None,) * 5)):
            with pytest.raises(ValueError):
                price_certificate(ex1, m)
            with pytest.raises(ValueError):
                is_pareto_efficient(ex1, m)

    def test_agrees_with_the_price_certificate_on_random_matchings(self):
        # Every feasible matching of small seeded markets, plus arbitrary
        # index vectors: out of range, unlisted or over capacity.
        rng = SplitMix64(3030)
        verdicts = {True: 0, False: 0}
        for _ in range(200):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            o = inst.n_objects
            matchings = enumerate_feasible_matchings(inst)
            for _ in range(20):
                picks = (rng.randbelow(o + 3) - 1 for _ in range(inst.n_agents))
                matchings.append(Matching(tuple(None if j == -1 else j for j in picks)))
            for m in matchings:
                expected = price_certificate(inst, m)
                assert is_pareto_efficient(inst, m) is expected, (inst, m)
                verdicts[expected] += 1
        assert min(verdicts.values()) > 500, verdicts

    def test_matches_brute_force_on_randoms(self):
        rng = SplitMix64(77)
        for _ in range(150):
            inst = random_instance(rng, max_agents=5, max_objects=4)
            expected = brute_force_pe_set(inst)
            assert sd_pe_set(inst) == expected
            for m in expected:
                assert is_pareto_efficient(inst, m)

    def test_three_characterisations_at_six_agents(self):
        rng = SplitMix64(606060)
        for _ in range(15):
            inst = random_instance(rng, max_agents=6, max_objects=4)
            if inst.n_agents < 6:
                continue
            expected = brute_force_pe_set(inst)
            assert sd_pe_set(inst) == expected
            for m in enumerate_feasible_matchings(inst):
                assert is_pareto_efficient(inst, m) == (m in expected)


class TestEnumeration:
    """The efficient set as serial-dictatorship outcomes over every ordering."""

    def test_example_membership(self, ex1, x1_decomposition):
        pe = sd_pe_set(ex1)
        lottery = x1_decomposition.matchings()
        assert lottery[0] in pe and lottery[1] in pe
        assert lottery[2] not in pe and lottery[3] not in pe
        verdicts = [is_pareto_efficient(ex1, m) for m in lottery]
        assert verdicts == [True, True, False, False]

    def test_single_agent(self):
        inst = Instance(("1",), ("a",), (1,), (("a",),))
        assert sd_pe_set(inst) == {Matching((0,))}
        assert is_pareto_efficient(inst, Matching((0,)))
        assert not is_pareto_efficient(inst, Matching((None,)))


class TestDecompositionAlgebra:
    def test_recompose_example_lottery(self, ex1, x1, x1_decomposition):
        assert recompose(ex1, x1_decomposition).probs == x1.probs

    def test_single_matching_lottery(self, ex1):
        from matchlot import Decomposition

        m = Matching((0, 1, None, 0))
        d = Decomposition(((Fraction(1), m),))
        assert recompose(ex1, d).probs == matching_matrix(m, 3).probs

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
def test_rank_table_orders_outcomes_as_prefers(seed):
    rng = SplitMix64(seed)
    inst = random_instance(rng, max_agents=5, max_objects=3)
    table = inst.rank_table
    column = {None: -1, **{j: j for j in range(inst.n_objects)}}
    for i in range(inst.n_agents):
        assert inst.list_ids[i] == inst.preferences.index(inst.preferences[i])
        for a in column:
            assert table[i, column[a]] == list_rank(inst, i, a)
            for b in column:
                ranked_above = table[i, column[a]] < table[i, column[b]]
                assert prefers(inst, i, a, b) == ranked_above


def test_public_names_resolve_once():
    import matchlot

    assert len(matchlot.__all__) == len(set(matchlot.__all__))
    for name in matchlot.__all__:
        assert getattr(matchlot, name) is not None
