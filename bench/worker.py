"""One workload process: set up, run markets in a closed loop, report JSON.

Started by ``run.py`` with a controlled environment; not meant to be run
by hand.  Modes:

* ``setup``  -- import, generate the market pool, load the references, exit;
* ``timed``  -- run markets one after another until ``--seconds`` elapse;
* ``traced`` -- run exactly ``--count`` markets with the span wrappers on.

The last stdout line is one JSON object.  A market that raises, fails a
check or runs past its time budget is recorded and the loop goes on; only a
broken set-up exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import matchlot.lp
import spans
from workloads import WORKLOADS, MarketFailure

REFERENCE = Path(__file__).with_name("reference.json")
# A market still running after this many seconds is stopped and counted as
# failed.  The timer is enforced here rather than through ``colgen.Budget``:
# ``binary_search_margin`` reads a budget hit as infeasibility at the probed
# margin, and the ``p-`` MIP takes no time limit.
MARKET_BUDGET_S = 20.0
PROBE_ITERATIONS = 10_000  # about 2 ms on a 2-vCPU virtual machine
PROBE_EVERY_S = 0.1  # CPU seconds between two speed samples
PROBE_WINDOW = 10  # fewest samples a market's time is scaled by
# The reference host speed: about the probe's mean time on the 2-vCPU
# virtual machine the workload sizes were chosen on.
PROBE_REF_S = 0.0016


class MarketTimeout(BaseException):
    """The market timer fired.

    A ``BaseException``, so that no handler inside the package can swallow it.
    """


def _on_alarm(signum, frame):
    raise MarketTimeout(f"market ran past its {MARKET_BUDGET_S:g} s budget")


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "lp_backend": matchlot.lp._ACTIVE,
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def probe() -> float:
    """Time a fixed pure-Python loop that calls no package code."""
    start = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(PROBE_ITERATIONS):
        table[i & 1023] = total
        total += (i % 7) * 0.5
    return time.perf_counter() - start


class SpeedSampler:
    """Times :func:`probe` every ``PROBE_EVERY_S`` of CPU time while active.

    On a shared virtual machine the host's speed swings between two levels
    within a second, and the share of slow time drifts over minutes: one
    seed's markets ran 1.3 s or 1.8 s each a few minutes apart.  Sampled
    while a market runs, the probe slows down with it, so a market time
    scaled by the market's own samples repeats far better than the raw
    time.  ``spent`` is the time the samples took, which the loop takes out
    of every time it measures.
    """

    def __init__(self) -> None:
        self.samples = [probe()]  # so that a market too short to be sampled has one
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        sample = probe()
        self.samples.append(sample)
        self.spent += sample

    def at_reference(self, seconds: float, first: int) -> float:
        """Scale ``seconds``, measured since sample ``first``, to the reference speed.

        A market with fewer than ``PROBE_WINDOW`` samples of its own also
        uses the ones just before it: a single sample is too noisy.
        """
        start = max(0, min(first, len(self.samples) - PROBE_WINDOW))
        return seconds * PROBE_REF_S / statistics.fmean(self.samples[start:])

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


def run_markets(workload, markets, references, *, seconds=None, count=None) -> dict:
    """Closed loop with one client: each market starts after the last is verified.

    The loop stops after ``count`` markets, or once ``seconds`` of market
    time have elapsed.  ``market_s`` holds the verified markets' times and
    ``busy_s`` the time of every attempted market, both at the reference
    host speed and without the speed samples.  ``raw_market_s`` is as
    measured, and ``loop_s`` is the loop's wall time, samples included.
    """
    times: list[float] = []
    raw_times: list[float] = []
    failures: list[dict] = []
    busy = 0.0
    recompose_err = 0.0
    checked = 0
    signal.signal(signal.SIGALRM, _on_alarm)
    with SpeedSampler() as sampler:
        loop_start = time.perf_counter()
        for index, market in enumerate(markets):
            if count is not None and index >= count:
                break
            elapsed = time.perf_counter() - loop_start - sampler.spent
            if seconds is not None and elapsed >= seconds:
                break
            first, spent = len(sampler.samples), sampler.spent
            start = time.perf_counter()
            failure = None
            try:
                signal.setitimer(signal.ITIMER_REAL, MARKET_BUDGET_S)
                try:
                    outcome, error = workload.solve(market)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                if index < len(references):
                    checked += 1
                    if outcome != references[index]:
                        raise MarketFailure(
                            f"got {outcome}, reference {references[index]}"
                        )
            except (Exception, MarketTimeout) as exc:  # counted, never fatal
                failure = {
                    "index": index,
                    "type": type(exc).__name__,
                    "message": str(exc)[:200],
                }
            raw = time.perf_counter() - start - (sampler.spent - spent)
            scaled = sampler.at_reference(raw, first)
            busy += scaled
            if failure is not None:
                failures.append(failure)
                continue
            times.append(scaled)
            raw_times.append(raw)
            recompose_err = max(recompose_err, error)
        loop_s = time.perf_counter() - loop_start
    return {
        "attempted": len(times) + len(failures),
        "market_s": times,
        "busy_s": busy,
        "raw_market_s": raw_times,
        "loop_s": loop_s,
        "failures": failures,
        "reference_checked": checked,
        "recompose_err_max": recompose_err,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--count", type=int)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    markets = [workload.make(args.seed, i) for i in range(workload.pool)]
    references = []
    if args.seed == 0:
        references = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    report = {"ready_at": time.monotonic()}
    # The host's speed just after set-up, to scale the set-up time by.
    report["setup_speed"] = PROBE_REF_S / statistics.fmean(
        probe() for _ in range(PROBE_WINDOW * 2)
    )
    if args.mode == "timed":
        report.update(run_markets(workload, markets, references, seconds=args.seconds))
    elif args.mode == "traced":
        tracer = spans.Tracer()
        with spans.installed(tracer):
            report.update(run_markets(workload, markets, references, count=args.count))
        report["trace"] = tracer.metrics()
        report["required_spans"] = list(workload.required_spans)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    report["environment"] = environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
