import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from matchlot import Decomposition, Instance, Matching, ProbabilisticAssignment
from matchlot.cli import main, run_experiment
from matchlot import io as mio

from oracles import brute_force_margin


def load_decomposition(instance, path) -> Decomposition:
    """The lottery a ``decomposition_to_mapping`` file holds."""
    return Decomposition(
        tuple(
            (
                mio.parse_fraction(term["weight"]),
                mio._matching_from_pairs(instance, term["assignment"]),
            )
            for term in mio.read_json(path)["terms"]
        )
    )


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
        loaded = load_decomposition(ex1, path)
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

    @pytest.mark.parametrize("framework", ["rmp", "alpha"])
    def test_solve_mdsd_rerun_writes_the_same_bytes(self, tmp_path, framework):
        instance = tmp_path / "lb3.json"
        assert main(["family", "--kind", "lb", "--size", "3", "--out", str(instance)]) == 0
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{run}.json"
            assert main([
                "solve-mdsd", "--instance", str(instance), "--framework", framework,
                "--samples", "200", "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        trace = json.loads(outputs[0])["trace"]
        assert trace and all("seconds" not in entry for entry in trace)

    @pytest.mark.parametrize(
        "target, deviation",
        [(["0", "0"], 0.5), (["1/2", "0"], None)],
        ids=["not-decomposable", "optimal"],
    )
    def test_solve_mdsd_best_deviation_key(self, tmp_path, target, deviation):
        # Agent 1 accepts only a, agent 2 ranks a over b; agent 2 takes a
        # and b by halves.
        inst = Instance(("1", "2"), ("a", "b"), (1, 1), (("a",), ("a", "b")))
        x = ProbabilisticAssignment(
            [[Fraction(v) for v in target], [Fraction(1, 2), Fraction(1, 2)]]
        )
        paths = {name: tmp_path / f"{name}.json" for name in ("inst", "x", "out")}
        mio.write_json(mio.instance_to_mapping(inst), paths["inst"])
        mio.write_json(mio.assignment_to_mapping(inst, x), paths["x"])
        assert main([
            "solve-mdsd", "--instance", str(paths["inst"]), "--assignment",
            str(paths["x"]), "--samples", "20", "--seed", "1", "--out", str(paths["out"]),
        ]) == 0
        payload = json.loads(paths["out"].read_text())
        assert payload.get("best_deviation") == deviation
        assert ("best_deviation" in payload) == (deviation is not None)

    @pytest.mark.parametrize(
        "raw",
        [
            {"objects": [{"id": "a", "capacity": 1}], "agents": []},
            {"objects": [], "agents": [{"id": "1", "prefs": []}]},
            {
                "objects": [{"id": "a", "capacity": 1}],
                "agents": [{"id": "1", "prefs": []}, {"id": "2", "prefs": []}],
            },
        ],
        ids=["no-agents", "no-objects", "no-listed-objects"],
    )
    def test_bounds_when_every_efficient_matching_is_empty(self, tmp_path, capsys, raw):
        path, out = tmp_path / "inst.json", tmp_path / "bounds.json"
        path.write_text(json.dumps(raw))
        assert main(["bounds", "--instance", str(path), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "maximin value is 0" in err and "strictly between" not in err
        payload = json.loads(out.read_text())
        assert payload["p_minus"] == payload["p_plus"] == payload["floor_mu"] == 0
        assert payload["interval"] == {"half_floor_mu": 0.0, "twice_p_minus": 0}

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

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([["1", "a"]], "not a list"),
            ("1:a", "not a str"),
            ({"assignment": [["1", "a"]]}, "not a list"),
            ({"assignment": {"1": ["a"]}}, "unknown object ['a']"),
        ],
        ids=["top-level-list", "top-level-string", "assignment-list", "object-list"],
    )
    def test_unpopularity_rejects_malformed_matchings(
        self, tmp_path, ex1_file, capsys, payload, message
    ):
        m_path = tmp_path / "m.json"
        m_path.write_text(json.dumps(payload))
        assert main([
            "unpopularity", "--instance", str(ex1_file), "--matching", str(m_path),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err

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

    def test_generate_writes_the_recorded_instances(self, tmp_path):
        # The checksums were recorded from the scalar-mix generator; CI runs
        # the same command through the installed console script.
        recorded = Path(__file__).with_name("generate_seed60000.sha256")
        assert main([
            "generate", "--agents", "15", "--ratio", "3", "--count", "20",
            "--seed", "60000", "--out", str(tmp_path),
        ]) == 0
        for line in recorded.read_text().splitlines():
            digest, name = line.split()
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        assert len(list(tmp_path.glob("instance_*.json"))) == 20

    def test_invalid_instance_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "objects": [{"id": "a", "capacity": 0}],
            "agents": [{"id": "1", "prefs": ["a", "a"]}],
        }))
        assert main(["ps", "--instance", str(bad)]) == 2


def _recomposed_cells(target, lottery):
    """The cells a lottery file sums to, on the grid of an assignment file."""
    agents, objects = target["agents"], target["objects"]
    cells = [[Fraction(0)] * len(objects) for _ in agents]
    for term in lottery["terms"]:
        for agent, obj in term["assignment"].items():
            cells[agents.index(agent)][objects.index(obj)] += Fraction(term["weight"])
    return cells


def _chain_lb3_frameworks():
    # Both frameworks reach the same z.
    assert main(["family", "--kind", "lb", "--size", "3", "--out", "lb3.json"]) == 0
    for framework in ("rmp", "alpha"):
        assert main([
            "solve-mdsd", "--instance", "lb3.json", "--framework", framework,
            "--samples", "200", "--out", f"{framework}.json",
        ]) == 0
    r, a = (json.loads(Path(f"{f}.json").read_text()) for f in ("rmp", "alpha"))
    assert r["status"] == a["status"] == "optimal" and r["z"] == a["z"] == 3, (r, a)


def _chain_margin():
    # The margin measure runs; with the coverage master it is a usage error.
    assert main(["family", "--kind", "lb", "--size", "3", "--out", "lb3.json"]) == 0
    argv = ["solve-mdsd", "--instance", "lb3.json", "--measure", "margin"]
    assert main(argv + ["--samples", "200", "--out", "margin.json"]) == 0
    assert json.loads(Path("margin.json").read_text())["measure"] == "margin"
    assert main(argv + ["--framework", "alpha"]) == 2


def _chain_full_support_ps():
    # Two agents listing o1, o2 (capacity 1 each): the PS target has no zero
    # cell, so only there does the deviation master bound the super-column
    # by its own row.
    Path("full.json").write_text(json.dumps({
        "objects": [{"id": "o1", "capacity": 1}, {"id": "o2", "capacity": 1}],
        "agents": [
            {"id": "1", "prefs": ["o1", "o2"]},
            {"id": "2", "prefs": ["o1", "o2"]},
        ],
    }))
    assert main(["ps", "--instance", "full.json", "--out", "full-ps.json"]) == 0
    for framework in ("rmp", "alpha"):
        out = f"full-{framework}.json"
        assert main([
            "solve-mdsd", "--instance", "full.json", "--assignment", "full-ps.json",
            "--framework", framework, "--out", out,
        ]) == 0
        r = json.loads(Path(out).read_text())
        assert (r["status"], r["z"]) == ("optimal", 2), r


def _chain_exact_rsd():
    # The exact RSD matrix of lb3 (denominator 252) decomposes into a
    # lottery that recomposes to it exactly, with worst case floor(mu).
    assert main(["family", "--kind", "lb", "--size", "3", "--out", "lb3.json"]) == 0
    assert main(["rsd", "--instance", "lb3.json", "--exact", "--out", "rsd.json"]) == 0
    assert main([
        "decompose", "--instance", "lb3.json", "--assignment", "rsd.json",
        "--out", "lottery.json",
    ]) == 0
    rsd, lottery = (json.loads(Path(f).read_text()) for f in ("rsd.json", "lottery.json"))
    cells = _recomposed_cells(rsd, lottery)
    assert cells == [[Fraction(v) for v in row] for row in rsd["matrix"]], cells
    total = sum(Fraction(v) for row in rsd["matrix"] for v in row)
    assert lottery["worst_case_cardinality"] == math.floor(total), (lottery, total)


def _chain_eating_robust():
    # The robust lottery of a PS matrix recomposes to it exactly, and every
    # term assigns floor(mu) or ceil(mu) agents.
    assert main([
        "generate", "--agents", "15", "--ratio", "3", "--seed", "60000", "--out", "eating",
    ]) == 0
    instance = "eating/instance_0000.json"
    assert main(["ps", "--instance", instance, "--out", "ps.json"]) == 0
    assert main([
        "decompose", "--instance", instance, "--assignment", "ps.json",
        "--mode", "robust", "--out", "robust.json",
    ]) == 0
    ps, lottery = (json.loads(Path(f).read_text()) for f in ("ps.json", "robust.json"))
    cells = _recomposed_cells(ps, lottery)
    assert cells == [[Fraction(v) for v in row] for row in ps["matrix"]], cells
    total = sum(Fraction(v) for row in ps["matrix"] for v in row)
    sizes = [len(term["assignment"]) for term in lottery["terms"]]
    assert all(math.floor(total) <= s <= math.ceil(total) for s in sizes), (sizes, total)


@pytest.mark.parametrize(
    "chain",
    [
        _chain_lb3_frameworks,
        _chain_margin,
        _chain_full_support_ps,
        _chain_exact_rsd,
        _chain_eating_robust,
    ],
    ids=["lb3-frameworks", "margin", "full-support-ps", "exact-rsd", "eating-robust"],
)
def test_console_chains(chain, tmp_path, monkeypatch):
    # Each chain runs the commands a user would, on relative paths in a
    # fresh directory, and checks what the files they write hold.
    monkeypatch.chdir(tmp_path)
    chain()


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


def _first_object(raw, **change):
    return {**raw, "objects": [{**raw["objects"][0], **change}] + raw["objects"][1:]}


def _first_agent(raw, **change):
    return {**raw, "agents": [{**raw["agents"][0], **change}] + raw["agents"][1:]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: [raw], "expected a JSON object at the top level, got list"),
        (lambda raw: {**raw, "agents": [5] + raw["agents"][1:]}, "agents entry 0 must be"),
        (lambda raw: {**raw, "objects": ["o1"] + raw["objects"][1:]}, "objects entry 0 must"),
        (
            lambda raw: {**raw, "agents": {agent["id"]: agent for agent in raw["agents"]}},
            "'agents' must be a list, got dict",
        ),
        (lambda raw: _first_object(raw, capacity=10**30), f"capacity {10**30},"),
        (lambda raw: _first_object(raw, capacity=True), "capacity True,"),
        (lambda raw: _first_agent(raw, prefs="o1"), "has prefs 'o1', expected a list"),
        (
            lambda raw: {
                **raw,
                "agents": [{"prefs": raw["agents"][0]["prefs"]}] + raw["agents"][1:],
            },
            "agents entry 0 has no id",
        ),
        (lambda raw: _first_object(raw, id=None), "objects entry 0 has no id"),
        (
            lambda raw: _first_agent(raw, id=["x"]),
            "agents entry 0 has id ['x'], expected a JSON string or number",
        ),
    ],
    ids=[
        "top-level-list",
        "agent-is-a-number",
        "object-is-a-string",
        "agents-as-a-mapping",
        "capacity-past-int32",
        "capacity-true",
        "prefs-as-a-string",
        "agent-without-id",
        "object-id-null",
        "agent-id-as-a-list",
    ],
)
def test_malformed_instance_exits_2(edit, message, tmp_path, capsys):
    # Edited copies of the lb3 family file; each edit is one violation (a
    # dropped object entry also leaves the agents that list it naming an
    # unknown object).
    path = tmp_path / "lb3.json"
    assert main(["family", "--kind", "lb", "--size", "3", "--out", str(path)]) == 0
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert main(["bounds", "--instance", str(path), "--samples", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid instance: ") and message in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "command, text, key",
    [
        ("unpopularity", '{"assignment": {"1": "o1", "1": "o2"}}', "'1'"),
        (
            "ps",
            '{"objects": [{"id": "a", "capacity": 1}],'
            ' "agents": [{"id": "1", "prefs": ["a"], "id": "2"}]}',
            "'id'",
        ),
    ],
    ids=["matching-repeats-an-agent", "agent-repeats-its-id"],
)
def test_repeated_json_keys_exit_2(command, text, key, tmp_path, capsys):
    # json keeps the last of repeated keys; the loaders refuse the file.
    lb3, path = tmp_path / "lb3.json", tmp_path / "input.json"
    assert main(["family", "--kind", "lb", "--size", "3", "--out", str(lb3)]) == 0
    path.write_text(text)
    if command == "unpopularity":
        argv = [command, "--instance", str(lb3), "--matching", str(path)]
    else:
        argv = [command, "--instance", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} repeats the key {key} in one JSON object\n"
    assert captured.out == ""


def test_largest_int32_capacity_is_accepted(tmp_path):
    path = tmp_path / "lb3.json"
    assert main(["family", "--kind", "lb", "--size", "3", "--out", str(path)]) == 0
    raw = _first_object(json.loads(path.read_text()), capacity=2**31 - 1)
    path.write_text(json.dumps(raw))
    assert main(["bounds", "--instance", str(path), "--samples", "50"]) == 0


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
        ("experiment", {"grid": [{"agents": 12.9}]}, "agents"),
        ("experiment", {"grid": [{"agents": 4}], "count": 1.7}, "count"),
        ("experiment", {"grid": [{"agents": 4}], "seed": True}, "seed"),
        ("experiment", {"grid": [{"agents": 4}], "samples": "50"}, "samples"),
        ("experiment", {"grid": [{"agents": 4, "ratio": "3"}]}, "ratio"),
        ("experiment", {"grid": [{"agents": 4}], "time_limit": True}, "time_limit"),
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
        "experiment-fractional-agents",
        "experiment-fractional-count",
        "experiment-boolean-seed",
        "experiment-string-samples",
        "experiment-string-ratio",
        "experiment-boolean-time-limit",
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


def test_margin_measure_rejects_the_alpha_framework(ex1_file, tmp_path, capsys):
    # The margin search always runs the deviation master, so asking it for
    # the coverage master is an error rather than a silent substitution.
    out = tmp_path / "out.json"
    argv = ["solve-mdsd", "--instance", str(ex1_file), "--samples", "50", "--out", str(out)]
    assert main(argv + ["--measure", "margin", "--framework", "alpha"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --measure margin") and "Traceback" not in err
    assert not out.exists()
    assert main(argv + ["--measure", "margin", "--framework", "rmp"]) == 0
    assert json.loads(out.read_text())["measure"] == "margin"
    # Without the flag the cardinality search runs the deviation master.
    assert main(argv + ["--time-limit", "0"]) == 0
    assert json.loads(out.read_text())["framework"] == "rmp"


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


def _exits_2_naming(argv, path, capsys) -> None:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_instance_path_that_is_a_directory_exits_2(tmp_path, capsys):
    # `generate --out` names a directory, so `m.json` is one.
    path = tmp_path / "m.json"
    assert main(["generate", "--agents", "15", "--ratio", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    _exits_2_naming(["ps", "--instance", str(path)], path, capsys)


def test_instance_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"objects": [{"id": "café", "capacity": 1}]}'.encode("latin-1"))
    _exits_2_naming(["ps", "--instance", str(path)], path, capsys)


def test_out_path_that_is_a_directory_exits_2(tmp_path, ex1_file, capsys):
    _exits_2_naming(["ps", "--instance", str(ex1_file), "--out", str(tmp_path)], tmp_path, capsys)


def test_generate_into_a_file_exits_2(tmp_path, ex1_file, capsys):
    _exits_2_naming(["generate", "--agents", "3", "--out", str(ex1_file)], ex1_file, capsys)


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

    @pytest.mark.parametrize("grid", [5, {"agents": 5}], ids=["number", "one-cell"])
    def test_grid_that_is_not_a_list_exits_2(self, grid, tmp_path, capsys, monkeypatch):
        # Rejected before any market is generated.
        monkeypatch.setattr("matchlot.cli.generate", None)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({**self.CONFIG, "grid": grid}))
        assert main(["experiment", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "experiment grid must be a list of cells" in err and "Traceback" not in err

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
            "9e8e86ca9a0bc20c6a7be74e810b19095275ff00bc1db89062c5cd7c0873c708"
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

    # Recorded before the two bound searches were merged into one driver.
    SEARCHES = {
        "--framework rmp": (
            "affa1e8acff164bb25472a28b26c702bcedab6746b162a6d6f86519f86cc8faf"
        ),
        "--framework alpha": (
            "fc7abb1bd2dfc48f72bdbbf2f0d67770e9d8e1fdfba9cf616926d709bf528b5e"
        ),
        "--measure margin": (
            "407ee66565ac007b5a267a490d267686881da6457f253101a3a89169d08be8dc"
        ),
    }

    def test_solve_mdsd_outputs_are_pinned(self, tmp_path):
        family = tmp_path / "family.json"
        assert main(["family", "--kind", "lb", "--size", "3", "--out", str(family)]) == 0
        digests = {}
        for flags in self.SEARCHES:
            out = tmp_path / "result.json"
            argv = ["solve-mdsd", "--instance", str(family), "--samples", "200"]
            assert main(argv + flags.split() + ["--out", str(out)]) == 0
            digests[flags] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == self.SEARCHES
