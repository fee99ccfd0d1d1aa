"""Command-line surface.

Subcommands: ``generate``, ``family``, ``sd``, ``rsd``, ``ps``,
``decompose``, ``solve-mdsd``, ``unpopularity``, ``bounds``,
``experiment``.  All randomness flows through explicit ``--seed`` flags,
so every command is reproducible; the experiment report file is
byte-identical across reruns of the same configuration (wall-clock timings
are shown on the console only).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import io as mio
from .bvn import NotRobustError, decompose_md, decompose_robust, md_upper_bound
from .colgen import MdsdResult, binary_search_z
from .core import (
    InstanceValidationError,
    MatchlotError,
    mu,
    serial_dictatorship,
    worst_case_cardinality,
)
from .datagen import GenParams, family_lb, family_ub, generate
from .mechanisms import (
    DEFAULT_SAMPLE_SIZE,
    RSD_ENUMERATION_LIMIT,
    probabilistic_serial,
    rsd_exact,
    rsd_sampled,
)
from .pe_program import extreme_pe_cardinality
from .popularity import unpopularity_margin

_SEED_STRIDE = 7919  # distinct per-instance seeds inside one experiment
_CONFIG_KEYS = {"grid", "count", "seed", "samples", "framework", "time_limit", "params"}


@dataclasses.dataclass
class ReportRow:
    """One instance's outcome; ``report.tsv`` shows every field but ``seconds``."""

    instance: str
    n_agents: int
    n_objects: int
    p_minus: int | None
    floor_mu: int | None
    z: int | None
    status: str
    iterations: int
    columns: int
    seconds: float


@dataclasses.dataclass
class RunReport:
    """Per-instance outcomes of one experiment run plus aggregates."""

    rows: list[ReportRow]

    def aggregate(self) -> dict:
        solved = [r for r in self.rows if r.status == "optimal"]
        at_ceiling = [r for r in solved if r.z == r.floor_mu]
        gained = [
            r for r in solved if r.p_minus is not None and r.z is not None and r.z > r.p_minus
        ]
        return {
            "instances": len(self.rows),
            "optimal": len(solved),
            "z_at_floor_mu": len(at_ceiling),
            "z_above_p_minus": len(gained),
        }

    def to_tsv(self) -> str:
        columns = [f.name for f in dataclasses.fields(ReportRow) if f.name != "seconds"]
        lines = ["\t".join(columns)]
        for row in sorted(self.rows, key=lambda r: r.instance):
            values = (getattr(row, name) for name in columns)
            lines.append("\t".join("-" if v is None else str(v) for v in values))
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        agg = self.aggregate()
        lines = [self.to_tsv().rstrip("\n"), ""]
        lines.append(
            f"{agg['optimal']}/{agg['instances']} optimal; "
            f"{agg['z_at_floor_mu']} reached floor(mu); "
            f"{agg['z_above_p_minus']} improved on the worst-case baseline"
        )
        total = sum(r.seconds for r in self.rows)
        lines.append(f"total wall time: {total:.1f} s")
        return "\n".join(lines)


def _add_sampling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLE_SIZE)
    parser.add_argument("--seed", type=int, default=0)


def _at_least(value: int, name: str = "--samples", floor: int = 1) -> int:
    """``value`` if it is at least ``floor``; otherwise a ``MatchlotError``."""
    if value < floor:
        raise MatchlotError(f"{name} must be >= {floor}, not {value}")
    return value


def _time_limit(seconds: float, name: str = "--time-limit") -> float:
    """``seconds`` if it is a number >= 0; otherwise (NaN too) a ``MatchlotError``."""
    if not seconds >= 0:
        raise MatchlotError(f"{name} must be a number >= 0, not {seconds}")
    return seconds


def _gen_params(overrides: object, **fixed) -> GenParams:
    """``GenParams`` of ``fixed`` plus a params mapping; other keys are a ``MatchlotError``."""
    if not isinstance(overrides, dict):
        raise MatchlotError("params must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(GenParams)} - set(fixed)
    bad = sorted(set(overrides) - allowed)
    if bad:
        raise MatchlotError(
            f"params cannot set {', '.join(bad)}; allowed: {', '.join(sorted(allowed))}"
        )
    return GenParams(**fixed, **overrides)


def _cmd_generate(args) -> int:
    _at_least(args.count, "--count")
    overrides = mio.read_json(args.params) if args.params else {}
    out_dir = args.out or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for index in range(args.count):
        params = _gen_params(
            overrides, n_agents=args.agents, ratio=args.ratio, seed=args.seed + index
        )
        instance = generate(params)
        path = out_dir / f"instance_{index:04d}.json"
        mio.write_json(mio.instance_to_mapping(instance), path)
    print(f"wrote {args.count} instance(s) to {out_dir}")
    return 0


def _cmd_family(args) -> int:
    _at_least(args.size, "--size", floor=2)
    instance = family_lb(args.size) if args.kind == "lb" else family_ub(args.size)
    mio.write_json(mio.instance_to_mapping(instance), args.out)
    return 0


def _cmd_sd(args) -> int:
    instance = mio.load_instance(args.instance)
    if args.order:
        names = args.order.split(",")
        if sorted(names) != sorted(instance.agents):
            raise MatchlotError(
                f"--order must name every agent exactly once: {', '.join(instance.agents)}"
            )
        order = [instance.agent_index[a] for a in names]
    else:
        order = list(range(instance.n_agents))
    matching = serial_dictatorship(instance, order)
    mio.write_json(mio.matching_to_mapping(instance, matching), args.out)
    return 0


def _cmd_rsd(args) -> int:
    _at_least(args.samples)
    instance = mio.load_instance(args.instance)
    if args.exact:
        estimate = rsd_exact(instance)
    else:
        estimate = rsd_sampled(instance, args.samples, args.seed)
    payload = mio.assignment_to_mapping(instance, estimate.assignment)
    payload["exact"] = estimate.exact
    payload["sample_count"] = estimate.sample_count
    mio.write_json(payload, args.out)
    return 0


def _cmd_ps(args) -> int:
    instance = mio.load_instance(args.instance)
    assignment = probabilistic_serial(instance)
    mio.write_json(mio.assignment_to_mapping(instance, assignment), args.out)
    return 0


def _cmd_decompose(args) -> int:
    instance = mio.load_instance(args.instance)
    assignment = mio.load_assignment(instance, args.assignment)
    try:
        if args.mode == "robust":
            decomposition = decompose_robust(instance, assignment)
        else:
            decomposition = decompose_md(instance, assignment)
    except NotRobustError as err:
        payload = {
            "error": "not-robust-ex-post-efficient",
            "witness_weight": mio.format_fraction(err.weight),
            "witness": err.matching.as_pairs(instance),
        }
        mio.write_json(payload, args.out)
        return 3
    payload = mio.decomposition_to_mapping(instance, decomposition)
    payload["worst_case_cardinality"] = worst_case_cardinality(decomposition)
    mio.write_json(payload, args.out)
    return 0


def _result_payload(instance, result: MdsdResult) -> dict:
    payload = {
        "status": result.status,
        "z": result.z,
        "floor_mu": result.floor_mu,
        "lower_bound": result.lower_bound,
        "framework": result.framework,
        "measure": result.measure,
        # Wall-clock seconds stay on the KTrace, out of the file, so a rerun
        # writes the same bytes.
        "trace": [
            {k: v for k, v in dataclasses.asdict(t).items() if k != "seconds"}
            for t in result.trace
        ],
    }
    if result.best_deviation is not None:
        payload["best_deviation"] = result.best_deviation
    if result.decomposition is not None:
        payload["decomposition"] = mio.decomposition_to_mapping(
            instance, result.decomposition
        )["terms"]
        payload["worst_case_cardinality"] = worst_case_cardinality(
            result.decomposition
        )
    return payload


def _cmd_solve_mdsd(args) -> int:
    _at_least(args.samples)
    _time_limit(args.time_limit)
    instance = mio.load_instance(args.instance)
    if args.assignment:
        assignment = mio.load_assignment(instance, args.assignment)
        witnessed = False
    else:
        assignment = rsd_sampled(instance, args.samples, args.seed).assignment
        witnessed = True
    result = binary_search_z(
        instance,
        assignment,
        args.framework,
        measure=args.measure,
        samples=args.samples,
        seed=args.seed,
        time_limit=args.time_limit,
        known_decomposable=witnessed,
    )
    mio.write_json(_result_payload(instance, result), args.out)
    return 0


def _cmd_unpopularity(args) -> int:
    instance = mio.load_instance(args.instance)
    matching = mio.load_matching(instance, args.matching)
    margin = unpopularity_margin(instance, matching)
    mio.write_json({"unpopularity_margin": margin}, args.out)
    return 0


def _cmd_bounds(args) -> int:
    _at_least(args.samples)
    instance = mio.load_instance(args.instance)
    p_minus = extreme_pe_cardinality(instance, "min")
    p_plus = extreme_pe_cardinality(instance, "max")
    if instance.n_agents <= RSD_ENUMERATION_LIMIT:
        estimate = rsd_exact(instance)
    else:
        estimate = rsd_sampled(instance, args.samples, args.seed)
    expected = mu(estimate.assignment)
    floor_mu = md_upper_bound(estimate.assignment)
    payload = {
        "p_minus": p_minus,
        "p_plus": p_plus,
        "mu": mio.format_fraction(expected),
        "mu_exact": estimate.exact,
        "floor_mu": floor_mu,
        "interval": {
            "half_floor_mu": floor_mu / 2.0,
            "twice_p_minus": 2 * p_minus,
        },
    }
    mio.write_json(payload, args.out)
    if p_minus:
        verdict = f"lies strictly between {floor_mu / 2.0} and {2 * p_minus}"
    else:
        # The empty matching is efficient only when no agent lists an
        # object, and then every efficient matching is empty.
        verdict = "is 0: every efficient matching is empty"
    print(
        f"p-={p_minus} p+={p_plus} floor(mu)={floor_mu}; maximin value {verdict}",
        file=sys.stderr,
    )
    return 0


def _config_number(kind: type, value: object, name: str):
    """``kind(value)`` for a JSON integer (``int``) or any JSON number
    (``float``); anything else, a boolean included, is a ``MatchlotError``."""
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        noun = "an integer" if kind is int else "a number"
        raise MatchlotError(f"experiment {name} must be {noun}, not {value!r}")
    return kind(value)


def run_experiment(config: dict, out_dir: Path | None = None) -> RunReport:
    """Generate-estimate-solve over a parameter grid; deterministic per seeds.

    Raises:
        MatchlotError: the configuration is not a mapping, holds a key this
            function does not read, a grid that is not a list, a grid cell
            without ``agents``, a count, seed, sample size or agents that is
            not a JSON integer, a time limit or ratio that is not a JSON
            number, a count or sample size below 1, a NaN or negative time
            limit, an unknown framework, or bad generator params.
    """
    if not isinstance(config, dict):
        raise MatchlotError("experiment config must be a JSON object")
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise MatchlotError(f"unknown experiment config key(s): {', '.join(unknown)}")
    cells = config.get("grid", [])
    if not isinstance(cells, list):
        raise MatchlotError(
            f"experiment grid must be a list of cells, not {type(cells).__name__}"
        )
    rows: list[ReportRow] = []
    grid = []  # (agents, ratio) per cell
    for cell_index, cell in enumerate(cells):
        if not isinstance(cell, dict) or "agents" not in cell:
            raise MatchlotError(f"experiment grid cell {cell_index} has no agents")
        label = f"grid cell {cell_index}"
        grid.append(
            (
                _config_number(int, cell["agents"], f"{label} agents"),
                _config_number(float, cell.get("ratio", 10.0), f"{label} ratio"),
            )
        )
    count = _at_least(
        _config_number(int, config.get("count", 1), "count"), "experiment count"
    )
    base_seed = _config_number(int, config.get("seed", 0), "seed")
    samples = _at_least(
        _config_number(int, config.get("samples", DEFAULT_SAMPLE_SIZE), "samples"),
        "experiment samples",
    )
    framework = config.get("framework", "rmp")
    if framework not in ("rmp", "alpha"):
        raise MatchlotError(f"experiment framework must be 'rmp' or 'alpha', not {framework!r}")
    time_limit = config.get("time_limit", 3600.0)
    if time_limit is not None:
        time_limit = _time_limit(
            _config_number(float, time_limit, "time_limit"), "experiment time_limit"
        )
    overrides = config.get("params", {})
    for cell_index, (agents, ratio) in enumerate(grid):
        for index in range(count):
            seed = base_seed + _SEED_STRIDE * (cell_index * count + index)
            instance_id = f"g{cell_index:02d}_i{index:03d}"
            start = time.monotonic()
            params = _gen_params(
                overrides,
                n_agents=agents,
                ratio=ratio,
                seed=seed,
            )
            instance = generate(params)
            estimate = rsd_sampled(instance, samples, seed)
            result = binary_search_z(
                instance,
                estimate.assignment,
                framework,
                samples=samples,
                seed=seed,
                time_limit=time_limit,
                known_decomposable=True,
            )
            elapsed = time.monotonic() - start
            rows.append(
                ReportRow(
                    instance=instance_id,
                    n_agents=instance.n_agents,
                    n_objects=instance.n_objects,
                    p_minus=result.lower_bound,
                    floor_mu=result.floor_mu,
                    z=result.z,
                    status=result.status,
                    iterations=sum(t.iterations for t in result.trace),
                    columns=sum(t.columns_added for t in result.trace),
                    seconds=elapsed,
                )
            )
            if out_dir is not None and result.decomposition is not None:
                mio.write_json(
                    mio.decomposition_to_mapping(instance, result.decomposition),
                    out_dir / f"{instance_id}_decomposition.json",
                )
    return RunReport(rows=rows)


def _cmd_experiment(args) -> int:
    config = mio.read_json(args.config)
    out_dir = args.out
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    report = run_experiment(config, out_dir)
    if out_dir is not None:
        (out_dir / "report.tsv").write_text(report.to_tsv(), encoding="utf-8")
    print(report.render())
    incomplete = [
        r for r in report.rows if r.status not in ("optimal", "budget-exhausted")
    ]
    return 0 if not incomplete else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlot",
        description=(
            "Lottery decompositions for one-sided matching: mechanisms, "
            "maximin decomposition, and column generation over "
            "Pareto-efficient matchings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample instances from the market model")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--ratio", type=float, default=10.0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--params", type=Path, default=None, help="JSON overrides")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("family", help="emit one of the adversarial families")
    p.add_argument("--kind", choices=("lb", "ub"), required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sd", help="serial dictatorship under a fixed order")
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--order", type=str, default=None, help="comma-separated agent ids")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_sd)

    p = sub.add_parser("rsd", help="random serial dictatorship matrix")
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--exact", action="store_true")
    _add_sampling(p)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_rsd)

    p = sub.add_parser("ps", help="simultaneous-eating assignment")
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_ps)

    p = sub.add_parser("decompose", help="maximin decomposition of a matrix")
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--assignment", type=Path, required=True)
    p.add_argument("--mode", choices=("md", "robust"), default="md")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser(
        "solve-mdsd", help="worst-case-optimal decomposition over efficient matchings"
    )
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--assignment", type=Path, default=None)
    p.add_argument(
        "--framework",
        choices=("rmp", "alpha"),
        default="rmp",
        help="master of either measure: rmp (deviation) or alpha (coverage)",
    )
    p.add_argument("--measure", choices=("cardinality", "margin"), default="cardinality")
    _add_sampling(p)
    p.add_argument("--time-limit", type=float, default=3600.0)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_solve_mdsd)

    p = sub.add_parser("unpopularity", help="unpopularity margin of a matching")
    p.add_argument("--instance", type=Path, required=True)
    p.add_argument("--matching", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_unpopularity)

    p = sub.add_parser("bounds", help="cardinality bounds and the maximin interval")
    p.add_argument("--instance", type=Path, required=True)
    _add_sampling(p)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="batch benchmark over a parameter grid")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceValidationError as err:
        for violation in err.violations:
            print(f"invalid instance: {violation}", file=sys.stderr)
        return 2
    except (MatchlotError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
