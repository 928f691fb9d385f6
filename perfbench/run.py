"""swmix benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

Workloads: ``reduce``, ``certify`` and ``orbits`` (``workloads.py`` says
what each exercises and why).  Only ``src/swmix`` of the checkout is
imported; there is nothing to build.  All work happens in fresh child
processes (``worker.py``) started one at a time, so no two share a core or a
memory high-water mark.

With ``--trace 0`` a run is a series of timed rounds over the same fixed
task list (the workload's ``round_tasks``), each round in its own process.
Rounds go on until ``--seconds`` have passed, and there are at least
``MIN_ROUNDS``.  The first round also checks every output, between tasks;
the other rounds must compute exactly the same outputs (for ``certify``
that means byte-identical ``report.json`` and ``certificate.json``).
Separate processes also mean no cache inside the program can carry over
from one round to the next.

Times are scaled to a reference machine speed.  The shared VMs this was
written on run a process at 1x to 1.8x of its best speed, changing within
seconds and sometimes staying slow for minutes; the slow state is not steal
time (process CPU time slows down alike), so neither CPU time nor a best of
a few rounds removes it.  Each worker therefore times a fixed loop of
standard-library ``Fraction`` arithmetic (``worker.calibrate``) right before
every task and around every set-up, and a time is multiplied by
``REFERENCE_CALIBRATION_S`` over the median calibration around it.  A
change to swmix moves the task times but not the calibration, so it shows
in full.  A task's latency is the median of its scaled latencies over the
rounds.  ``setup_s`` is the median scaled set-up time over eight fresh
set-ups per round, ``peak_rss_mb`` the median over rounds of the peak
resident memory during the tasks.

With ``--trace 1`` one process runs a fixed number of tasks untraced and
under the outside-in tracer (``tracer.py``), in alternating chunks, and
reports the per-layer metrics; their times are not scaled, and the
aggregated spans go to ``.perfbench/``.

The last output line is ``{"correct", "attempted", "failed", "metrics"}``.
A task fails when it raises, when a verifier rejects its output, when it
disagrees with an oracle, or when its rounds disagree.  The exit code is 0
only when a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("reduce", "certify", "orbits")
MIN_ROUNDS = 3
MAX_ROUNDS = 12
WINDOW = 4  # calibration samples on each side that set a task's speed
# Median calibration time (worker.calibrate) on the reference machine, a
# 2-vCPU x86-64 VM in its fast state; scaled times are in its units.
REFERENCE_CALIBRATION_S = 0.0011
RUN_LIMIT_S = 170  # every child of one run must end within this


class BenchError(Exception):
    pass


def _child(argv: list[str], root: str, deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _scaled(r: dict) -> list[float]:
    """A round's task latencies at the reference machine speed.

    Each latency is divided by the median calibration time of the tasks
    around it, so a stretch in which the machine runs this process slowly
    does not read as slow code.
    """
    cal = r["calibrations"]
    out = []
    for i, dt in enumerate(r["latencies"]):
        speed = statistics.median(cal[max(0, i - WINDOW) : i + WINDOW + 1])
        out.append(dt * REFERENCE_CALIBRATION_S / speed)
    return out


def _end_to_end(rounds: list[dict]) -> dict:
    per_task = [statistics.median(t) for t in zip(*map(_scaled, rounds))]
    setup = [dt * REFERENCE_CALIBRATION_S / cal for r in rounds for dt, cal in r["setup_s"]]
    return {
        "tasks_per_s": (len(per_task) / sum(per_task), "tasks/s"),
        "task_p50_ms": (1000 * statistics.median(per_task), "ms"),
        "task_p90_ms": (1000 * statistics.quantiles(per_task, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        "decided_frac": (rounds[0]["decided"] / rounds[0]["attempted"], "ratio"),
    }


def _disagreements(rounds: list[dict]) -> int:
    """Tasks whose output differs between the checked round and a later one."""
    first, *rest = (r["fingerprints"] for r in rounds)
    return sum(1 for i, want in enumerate(first) if any(r[i] != want for r in rest))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "swmix", "__init__.py")):
        print(f"no swmix sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    state = os.path.join(root, ".perfbench")
    os.makedirs(state, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=state)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--src", src,
              "--workdir", workdir]
    try:
        if args.trace:
            trace_out = os.path.join(state, f"trace-{args.workload}-{args.seed}.json")
            res = _child(common + ["--mode", "trace", "--trace-out", trace_out], root, deadline)
            metrics = {k: (m["value"], m["unit"]) for k, m in res["metrics"].items()}
        else:
            # Rounds go on until --seconds have passed, within the bounds.
            start = time.monotonic()
            rounds = [_child(common + ["--mode", "round", "--check"], root, deadline)]
            while len(rounds) < MIN_ROUNDS or (
                len(rounds) < MAX_ROUNDS and time.monotonic() - start < args.seconds
            ):
                rounds.append(_child(common + ["--mode", "round"], root, deadline))
            res = rounds[0]
            differ = _disagreements(rounds)
            if differ:
                res["failed"] = min(res["attempted"], res["failed"] + differ)
                res["problems"].append(f"{differ} tasks gave different outputs across rounds")
            metrics = _end_to_end(rounds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
