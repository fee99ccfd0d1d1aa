import hashlib
import json
import math
from fractions import Fraction

import pytest

from matchlot import Matching
from matchlot.cli import main, run_experiment
from matchlot import io as mio

from oracles import brute_force_margin


@pytest.fixture
def ex1_file(tmp_path, ex1):
    path = tmp_path / "ex1.json"
    mio.write_json(mio.instance_to_mapping(ex1), path)
    return path


class TestIo:
    def test_instance_roundtrip(self, tmp_path, ex1):
        path = tmp_path / "instance.json"
        mio.write_json(mio.instance_to_mapping(ex1), path)
        assert mio.load_instance(path) == ex1

    def test_assignment_roundtrip(self, tmp_path, ex1, x1):
        path = tmp_path / "x.json"
        mio.write_json(mio.assignment_to_mapping(ex1, x1), path)
        loaded = mio.load_assignment(ex1, path)
        assert loaded.probs == x1.probs
        text = path.read_text()
        assert "5/12" in text  # rationals survive as p/q strings

    def test_decomposition_roundtrip(self, tmp_path, ex1, x1_decomposition):
        path = tmp_path / "d.json"
        mio.write_json(mio.decomposition_to_mapping(ex1, x1_decomposition), path)
        loaded = mio.load_decomposition(ex1, path)
        assert loaded == x1_decomposition

    def test_matching_roundtrip(self, tmp_path, ex1):
        m = Matching((1, 0, None, 0))
        path = tmp_path / "m.json"
        mio.write_json(mio.matching_to_mapping(ex1, m), path)
        assert mio.load_matching(ex1, path) == m

    def test_fraction_formats(self):
        assert mio.format_fraction(Fraction(5, 12)) == "5/12"
        assert mio.format_fraction(Fraction(3)) == "3"
        assert mio.parse_fraction("5/12") == Fraction(5, 12)
        assert mio.parse_fraction("3") == 3


class TestCli:
    def test_family_and_bounds(self, tmp_path, capsys):
        inst_path = tmp_path / "fam.json"
        assert main(["family", "--kind", "lb", "--size", "2", "--out", str(inst_path)]) == 0
        out_path = tmp_path / "bounds.json"
        assert main(["bounds", "--instance", str(inst_path), "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["p_minus"] == 2
        assert payload["floor_mu"] == 3
        assert payload["interval"]["half_floor_mu"] == 1.5
        assert payload["interval"]["twice_p_minus"] == 4

    def test_sd_and_rsd(self, tmp_path, ex1_file):
        sd_out = tmp_path / "sd.json"
        assert main([
            "sd", "--instance", str(ex1_file), "--order", "3,4,1,2",
            "--out", str(sd_out),
        ]) == 0
        payload = json.loads(sd_out.read_text())
        assert payload["assignment"] == {"1": "b", "2": "c", "3": "a", "4": "a"}

        rsd_out = tmp_path / "rsd.json"
        assert main([
            "rsd", "--instance", str(ex1_file), "--exact", "--out", str(rsd_out),
        ]) == 0
        payload = json.loads(rsd_out.read_text())
        assert payload["exact"] is True
        assert payload["matrix"][0][1] == "5/12"

        sampled_out = tmp_path / "rsd_sampled.json"
        assert main([
            "rsd", "--instance", str(ex1_file), "--samples", "200",
            "--seed", "4", "--out", str(sampled_out),
        ]) == 0
        payload = json.loads(sampled_out.read_text())
        assert payload["exact"] is False
        assert payload["sample_count"] == 200

    def test_ps_and_decompose(self, tmp_path, ex1_file, ex1):
        ps_out = tmp_path / "ps.json"
        assert main(["ps", "--instance", str(ex1_file), "--out", str(ps_out)]) == 0
        dec_out = tmp_path / "dec.json"
        assert main([
            "decompose", "--instance", str(ex1_file), "--assignment", str(ps_out),
            "--mode", "robust", "--out", str(dec_out),
        ]) == 0
        payload = json.loads(dec_out.read_text())
        assert payload["worst_case_cardinality"] == 3
        weights = [mio.parse_fraction(t["weight"]) for t in payload["terms"]]
        assert sum(weights, Fraction(0)) == 1

    def test_decompose_robust_diagnostic(self, tmp_path, ex1_file, ex1, x1):
        x_path = tmp_path / "x1.json"
        mio.write_json(mio.assignment_to_mapping(ex1, x1), x_path)
        out = tmp_path / "dec.json"
        code = main([
            "decompose", "--instance", str(ex1_file), "--assignment", str(x_path),
            "--mode", "robust", "--out", str(out),
        ])
        payload = json.loads(out.read_text())
        if code == 3:
            assert payload["error"] == "not-robust-ex-post-efficient"
        else:
            assert code == 0

    def test_solve_mdsd(self, tmp_path, ex1_file):
        out = tmp_path / "result.json"
        assert main([
            "solve-mdsd", "--instance", str(ex1_file), "--framework", "rmp",
            "--samples", "2000", "--seed", "5", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "optimal"
        # This market is adversarial: the maximin value sits strictly below
        # the expected-cardinality ceiling.
        assert payload["z"] == 2
        assert payload["floor_mu"] in (2, 3)
        assert payload["worst_case_cardinality"] >= 2

    def test_solve_mdsd_margin_measure(self, tmp_path, ex1_file):
        out = tmp_path / "margin.json"
        assert main([
            "solve-mdsd", "--instance", str(ex1_file), "--measure", "margin",
            "--samples", "2000", "--seed", "5", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["measure"] == "margin"
        assert payload["omega"] >= 0
        assert payload["decomposition"]

    def test_unpopularity(self, tmp_path, ex1_file, ex1):
        m_path = tmp_path / "m.json"
        mio.write_json(mio.matching_to_mapping(ex1, Matching((0, 2, 0, None))), m_path)
        out = tmp_path / "u.json"
        assert main([
            "unpopularity", "--instance", str(ex1_file), "--matching", str(m_path),
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["unpopularity_margin"] == brute_force_margin(
            ex1, Matching((0, 2, 0, None))
        )

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ({"1": "a", "9": "b"}, "unknown agent '9'"),
            ({"1": "z"}, "unknown object 'z'"),
        ],
    )
    def test_unpopularity_rejects_unknown_names(
        self, tmp_path, ex1_file, capsys, pairs, message
    ):
        m_path = tmp_path / "m.json"
        m_path.write_text(json.dumps({"assignment": pairs}))
        assert main([
            "unpopularity", "--instance", str(ex1_file), "--matching", str(m_path),
        ]) == 2
        assert message in capsys.readouterr().err

    def test_unpopularity_rejects_over_capacity(self, tmp_path, ex1_file, capsys):
        # Object b has capacity 1 in ex1.
        m_path = tmp_path / "m.json"
        m_path.write_text(json.dumps({"assignment": {"1": "b", "2": "b"}}))
        assert main([
            "unpopularity", "--instance", str(ex1_file), "--matching", str(m_path),
        ]) == 2
        captured = capsys.readouterr()
        assert "capacity" in captured.err
        assert captured.out == ""

    def test_generate_writes_instances(self, tmp_path):
        out_dir = tmp_path / "data"
        assert main([
            "generate", "--agents", "20", "--ratio", "4", "--count", "3",
            "--seed", "11", "--out", str(out_dir),
        ]) == 0
        files = sorted(out_dir.glob("instance_*.json"))
        assert len(files) == 3
        inst = mio.load_instance(files[0])
        assert inst.n_agents == 20

    def test_invalid_instance_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "objects": [{"id": "a", "capacity": 0}],
            "agents": [{"id": "1", "prefs": ["a", "a"]}],
        }))
        assert main(["ps", "--instance", str(bad)]) == 2


@pytest.mark.parametrize(
    "case",
    [
        {"agents": ["1", "2", "3", "9"]},
        {"matrix": None},
        {"matrix": [["1", "0", "0"]]},
        {"matrix": [["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]},
        {"matrix": [["half", "0", "0"]] + [["0", "0", "0"]] * 3},
        "1,2,9,4",
        "1,2",
        '{"objects": [',
    ],
    ids=[
        "wrong-labels",
        "missing-key",
        "short-matrix",
        "entry-of-two",
        "not-a-fraction",
        "order-unknown-agent",
        "order-too-short",
        "malformed-json",
    ],
)
def test_cli_input_errors_exit_2(case, tmp_path, ex1_file, ex1, x1, capsys):
    path = tmp_path / "input.json"
    if isinstance(case, dict):  # entries replaced (None: removed) in x1's file
        payload = {**mio.assignment_to_mapping(ex1, x1), **case}
        path.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
        argv = ["decompose", "--instance", str(ex1_file), "--assignment", str(path)]
    elif case.startswith("{"):
        path.write_text(case)
        argv = ["ps", "--instance", str(path)]
    else:
        argv = ["sd", "--instance", str(ex1_file), "--order", case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, payload, names",
    [
        ("generate", {"bogus": 1}, "bogus"),
        ("generate", {"seed": 4}, "seed"),
        ("experiment", {"grid": [{"ratio": 4.0}]}, "agents"),
        ("generate", {"list_mean": "x"}, "list_mean"),
        ("experiment", {"grid": [{"agents": "many"}]}, "agents"),
        ("experiment", [{"agents": 4}], "JSON object"),
        ("experiment", {"grid": [{"agents": 4}], "count": "two"}, "count"),
        ("experiment", {"grid": [{"agents": 4}], "samples": 0}, "samples"),
        ("experiment", {"grid": [{"agents": 4}], "count": -2}, "count"),
        ("experiment", {"grid": [{"agents": 4}], "framework": "beta"}, "framework"),
        ("experiment", {"grid": [{"agents": 4}], "time_limit": "soon"}, "time_limit"),
        ("experiment", {"grid": [{"agents": 4}], "time_limit": math.nan}, "time_limit"),
        ("experiment", {"grid": [{"agents": 4}], "time_limit": -5}, "time_limit"),
    ],
    ids=[
        "generate-unknown-param",
        "generate-fixed-param",
        "experiment-cell-without-agents",
        "generate-non-numeric-param",
        "experiment-non-numeric-agents",
        "experiment-config-not-an-object",
        "experiment-non-numeric-count",
        "experiment-zero-samples",
        "experiment-negative-count",
        "experiment-unknown-framework",
        "experiment-non-numeric-time-limit",
        "experiment-nan-time-limit",
        "experiment-negative-time-limit",
    ],
)
def test_bad_generator_input_exits_2(command, payload, names, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "generate":
        argv = ["generate", "--agents", "3", "--params", str(path), "--out", str(tmp_path)]
    else:
        argv = ["experiment", "--config", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err and "Traceback" not in err
    assert not list(tmp_path.glob("instance_*.json"))


@pytest.mark.parametrize(
    "argv",
    [
        ["rsd", "--samples", "0"],
        ["solve-mdsd", "--samples", "-2"],
        ["bounds", "--samples", "0"],
    ],
)
def test_bad_sample_count_exits_2(argv, ex1_file, capsys):
    assert main(argv + ["--instance", str(ex1_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --samples must be >= 1") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["family", "--kind", "lb", "--size", "1"], "--size must be >= 2"),
        (["family", "--kind", "ub", "--size", "-3"], "--size must be >= 2"),
        (["generate", "--agents", "3", "--count", "-2"], "--count must be >= 1"),
        (["solve-mdsd", "--time-limit", "nan"], "--time-limit must be a number >= 0"),
        (["solve-mdsd", "--time-limit", "-5"], "--time-limit must be a number >= 0"),
    ],
)
def test_bad_count_size_or_time_limit_exits_2(argv, message, ex1_file, tmp_path, capsys):
    if argv[0] == "solve-mdsd":
        argv = argv + ["--instance", str(ex1_file)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not out.exists()


def test_zero_time_limit_stays_legal(ex1_file, tmp_path):
    out = tmp_path / "out.json"
    argv = ["solve-mdsd", "--instance", str(ex1_file), "--samples", "50"]
    assert main(argv + ["--time-limit", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "budget-exhausted"
    config = {"grid": [{"agents": 20, "ratio": 4.0}], "samples": 50, "time_limit": 0}
    report = run_experiment(config, None)
    assert [row.status for row in report.rows] == ["budget-exhausted"]


@pytest.mark.parametrize("command", ["ps", "generate", "experiment"])
def test_malformed_json_error_names_the_file(command, tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"objects": [')
    argv = {
        "ps": ["ps", "--instance", str(path)],
        "generate": ["generate", "--agents", "3", "--params", str(path)],
        "experiment": ["experiment", "--config", str(path)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["ps", "--samples", "5"],
        ["sd", "--seed", "1"],
        ["decompose", "--time-limit", "5"],
        ["unpopularity", "--tolerance", "0.1"],
        ["bounds", "--time-limit", "5"],
        ["generate", "--samples", "5"],
        ["rsd", "--tolerance", "0.1"],
        ["solve-mdsd", "--tolerance", "0.1"],
    ],
)
def test_cli_rejects_flags_it_never_reads(argv, tmp_path, ex1_file, capsys):
    # Fill in every required flag, so that only the unread one can fail.
    required = {
        "ps": ["--instance", str(ex1_file)],
        "sd": ["--instance", str(ex1_file)],
        "decompose": ["--instance", str(ex1_file), "--assignment", str(tmp_path / "x.json")],
        "unpopularity": ["--instance", str(ex1_file), "--matching", str(tmp_path / "m.json")],
        "bounds": ["--instance", str(ex1_file)],
        "generate": ["--agents", "3", "--out", str(tmp_path)],
        "rsd": ["--instance", str(ex1_file)],
        "solve-mdsd": ["--instance", str(ex1_file)],
    }
    with pytest.raises(SystemExit) as exit_info:
        main(argv[:1] + required[argv[0]] + argv[1:])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestExperiment:
    CONFIG = {
        "grid": [{"agents": 12, "ratio": 4.0}],
        "count": 2,
        "seed": 3,
        "samples": 400,
        "framework": "rmp",
        "time_limit": 120,
    }

    def test_report_shape_and_invariants(self, tmp_path):
        report = run_experiment(self.CONFIG, None)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.status in ("optimal", "budget-exhausted")
            if row.status == "optimal":
                assert row.p_minus <= row.z <= row.floor_mu
            assert row.seconds >= 0
        agg = report.aggregate()
        assert agg["instances"] == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**self.CONFIG, "tolerance": 0.2}))
        assert main(["experiment", "--config", str(config_path)]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_empty_grid(self):
        report = run_experiment({"grid": [], "count": 5}, None)
        assert report.rows == []
        assert report.to_tsv().count("\n") == 1

    def test_byte_identical_reruns(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(self.CONFIG))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["experiment", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", str(config_path), "--out", str(out_b)]) == 0
        assert (out_a / "report.tsv").read_bytes() == (out_b / "report.tsv").read_bytes()


class TestOutputBytes:
    """SHA-256 of deterministic CLI outputs, recorded before any refactor of
    the writers; a change here means an output file changed."""

    PINNED = {
        "family": (
            "c4dde258caa7ffee7e7ff4dd78229bf8385ec4136f7f2307d1cd0d817070fb70"
        ),
        "family --out": (
            "c4dde258caa7ffee7e7ff4dd78229bf8385ec4136f7f2307d1cd0d817070fb70"
        ),
        "rsd --exact": (
            "3c1e1cb79454b8d5af83730e731aecf9a165db668989b792b69f1c23630216d8"
        ),
        "ps": (
            "e0054cd7a6daf575ff736e2a33a036a4bcc0b0cc58b61d840d83cbcc3e130451"
        ),
        "decompose --mode robust": (
            "9dac6a9bbe92703b39bdad4cbc29d25b9831999fcb36b7c2cc4bfd3ed3286762"
        ),
        "unpopularity": (
            "b3795e167719a2895221c7c2e33489256ea7cb17a74da778b7e6688537351156"
        ),
        "experiment report.tsv": (
            "c87016d9ea8143e4a6169c0bf39053463e2d83fac8dd8712d85c6be8759bd17f"
        ),
        "experiment g00_i000_decomposition.json": (
            "216fae59765896eaed3c84cb7fae4694a3dc9d4ec9abbf519b758c355004d275"
        ),
    }
    EXPERIMENT = {"grid": [{"agents": 12, "ratio": 3.0}], "count": 2, "seed": 2, "samples": 300}

    def test_cli_outputs_are_pinned(self, tmp_path, capsys, ex1_file):
        got = {}

        def stdout_of(argv):
            assert main(argv) == 0
            return capsys.readouterr().out.encode("utf-8")

        family = tmp_path / "family.json"
        got["family"] = stdout_of(["family", "--kind", "lb", "--size", "3"])
        assert main(["family", "--kind", "lb", "--size", "3", "--out", str(family)]) == 0
        got["family --out"] = family.read_bytes()
        got["rsd --exact"] = stdout_of(["rsd", "--exact", "--instance", str(family)])
        ps = tmp_path / "ps.json"
        assert main(["ps", "--instance", str(ex1_file), "--out", str(ps)]) == 0
        got["ps"] = ps.read_bytes()
        got["decompose --mode robust"] = stdout_of(
            ["decompose", "--mode", "robust", "--instance", str(ex1_file),
             "--assignment", str(ps)]
        )
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"assignment": {"1": "b", "2": "c", "3": "a"}}))
        got["unpopularity"] = stdout_of(
            ["unpopularity", "--instance", str(ex1_file), "--matching", str(matching)]
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.EXPERIMENT))
        out = tmp_path / "exp"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        for name in ("report.tsv", "g00_i000_decomposition.json"):
            got[f"experiment {name}"] = (out / name).read_bytes()

        digests = {key: hashlib.sha256(data).hexdigest() for key, data in got.items()}
        assert digests == self.PINNED
