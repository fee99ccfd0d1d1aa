import math
from dataclasses import replace

import pytest

from matchlot import GenParamError, GenParams, generate, mu, rsd_exact
from matchlot.datagen import family_lb, family_ub, generate_with_scores


def generate_batch(params: GenParams, count: int) -> list:
    """Independent instances; instance ``t`` uses ``seed + t``."""
    return [generate(replace(params, seed=params.seed + t)) for t in range(count)]


class TestGenerate:
    def test_deterministic_per_seed(self):
        params = GenParams(n_agents=40, ratio=5.0, seed=7)
        assert generate(params) == generate(params)
        other = GenParams(n_agents=40, ratio=5.0, seed=8)
        assert generate(params) != generate(other)

    def test_shapes_and_lists(self):
        params = GenParams(n_agents=100, ratio=10.0, seed=3)
        inst = generate(params)
        assert inst.n_agents == 100
        assert inst.n_objects == 10
        for prefs in inst.preferences:
            assert 1 <= len(prefs) <= inst.n_objects
            assert len(set(prefs)) == len(prefs)
        assert all(c >= 1 for c in inst.capacities)

    def test_total_capacity_tracks_ratio(self):
        params = GenParams(n_agents=100, ratio=10.0, seed=17)
        totals = [sum(inst.capacities) for inst in generate_batch(params, 40)]
        average = sum(totals) / len(totals)
        assert 100 <= average <= 140  # targets 1.2 * 100

    def test_degenerate_lengths(self):
        params = GenParams(n_agents=12, ratio=4.0, list_mean=1.0, list_sd=0.0, seed=1)
        inst = generate(params)
        assert all(len(p) == 1 for p in inst.preferences)

    def test_parameter_validation(self):
        with pytest.raises(GenParamError) as err:
            generate(GenParams(n_agents=0, ratio=-1.0, list_mean=0.2, rho=3.0))
        text = "\n".join(err.value.problems)
        assert "n_agents" in text and "ratio" in text and "rho" in text

    def test_infeasible_list_length(self):
        with pytest.raises(GenParamError, match="available objects"):
            generate(GenParams(n_agents=10, ratio=10.0, list_mean=2.42))

    def test_scores_exposed(self):
        inst, scores = generate_with_scores(GenParams(n_agents=50, ratio=5.0, seed=2))
        assert scores.capacities == inst.capacities
        assert len(scores.eta) == inst.n_objects
        assert all(e >= 1 for e in scores.eta)
        assert scores.popular <= set(range(inst.n_objects))


class TestFamilies:
    def test_lower_family_matches_example_market(self, ex1):
        inst = family_lb(2)
        assert inst.capacities == (2, 1, 1)
        assert inst.n_agents == 4
        assert inst.preferences[0] == ("o1", "o2", "o3")
        assert inst.preferences[3] == ("o1",)
        # Same market as the worked example up to labels.
        assert [len(p) for p in inst.preferences] == [
            len(p) for p in ex1.preferences
        ]

    def test_lower_family_shape(self):
        inst = family_lb(3)
        assert inst.n_agents == 9
        assert inst.n_objects == 4
        assert inst.capacities == (3, 1, 1, 1)

    def test_lower_family_expected_assignments(self):
        for k in (2, 3):
            est = rsd_exact(family_lb(k))
            assert mu(est.assignment) == 2 * k - 1

    def test_upper_family_shape(self, ex3):
        inst = family_ub(2)
        assert inst.capacities == (2, 2)
        assert [len(p) for p in inst.preferences] == [
            len(p) for p in ex3.preferences
        ]
        bigger = family_ub(4)
        assert bigger.n_agents == 16
        assert bigger.capacities == (4, 4)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            family_lb(1)
        with pytest.raises(ValueError):
            family_ub(1)


def test_mean_length_rejection_shift():
    # Rejection below one pushes the realised mean above the nominal one by
    # the truncated-normal correction, about 0.18 for the default setting.
    params = GenParams(n_agents=400, ratio=8.0, seed=99)
    lengths = []
    for inst in generate_batch(params, 10):
        lengths.extend(len(p) for p in inst.preferences)
    observed = sum(lengths) / len(lengths)
    sigma = params.list_sd
    z = (1.0 - params.list_mean) / sigma
    density = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    expected = params.list_mean + sigma * density / (1.0 - 0.5 * (1 + math.erf(z / math.sqrt(2))))
    assert abs(observed - expected) < 0.1
