"""One workload pass in a fresh process.

``run.py`` starts this file several times per run, one process at a time.
Every pass first sets up (imports swmix, builds the systems, generates the
inputs) and reports how long that took, next to a calibration time (see
``calibrate``) taken around the set-up.  Modes:

* ``round`` -- a closed loop over the workload's ``round_tasks`` tasks, one
  at a time, each waiting for its verdict.  Reports each task's latency, a
  calibration time taken right before it, a fingerprint of its output and
  the peak resident memory; then repeats the set-up a few more times, each
  re-importing every module it loads.  With ``--check`` every output is
  also checked, between tasks and outside their latencies, with the public
  verifiers and then the oracles in ``workloads.py``.
* ``trace`` -- runs the workload's ``trace_tasks`` tasks untraced and again
  under the tracer, alternating in chunks, checks the traced outputs with the
  tracer removed and reports per-layer metrics.  A fixed task count makes
  every per-layer count repeat exactly for a given seed.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

TRACE_CHUNK = 20  # tasks per untraced/traced alternation in trace mode
CALIBRATION_STEPS = 200  # about 1.5 ms on a 2-vCPU x86-64 VM
SETUPS = 8  # set-ups per round, each re-importing every module it loads
SETUP_CALIBRATIONS = 5  # samples before and after each set-up


def calibrate() -> float:
    """Seconds a fixed loop of Fraction arithmetic takes right now.

    The loop uses only the standard library, so no change to swmix moves it;
    it moves only with the speed the machine gives this process, and
    ``run.py`` divides task latencies by it.  Denominators stay divisors of
    97**2, so every call does the same work; the garbage collector is off so
    that the size of the program's heap does not leak into it.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc, low = Fraction(0), Fraction(1)
    for i in range(1, CALIBRATION_STEPS):
        q = Fraction(i, 97)
        acc = (acc + q * q) % 1
        if acc < low:
            low = acc
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def _set_up(args, loaded: set[str]) -> tuple[object, float, float]:
    """Import swmix, build the workload; (workload, seconds, calibration).

    Every module not in ``loaded`` is dropped first, so a repeated set-up
    pays for the whole import again, as the first one does.
    """
    for name in set(sys.modules) - loaded:
        del sys.modules[name]
    gc.collect()  # frees the previous set-up before this one is measured
    before = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    t0 = time.perf_counter()
    import workloads  # imports swmix from --src

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    dt = time.perf_counter() - t0
    after = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    return wl, dt, statistics.median(before + after)


def _one(wl, task, span=None) -> tuple[dict, float]:
    """Run one task; its latency excludes preparation and output collection."""
    wl.prepare(task)
    t0 = time.perf_counter()
    try:
        if span is None:
            out = wl.run(task)
        else:
            with span:
                out = wl.run(task)
    except Exception:  # a task that raises counts as failed, the loop goes on
        dt = time.perf_counter() - t0
        out = {"task": task, "decided": False, "error": traceback.format_exc(limit=3)}
    else:
        dt = time.perf_counter() - t0
    wl.collect(out)
    return out, dt


def _fingerprint(out: dict) -> str:
    body = repr([(k, v) for k, v in out.items() if k != "task"])
    return hashlib.blake2b(body.encode(), digest_size=8).hexdigest()


def _verified(wl, out: dict) -> list[str]:
    """Problems the public verifiers find in one task's output."""
    if "error" in out:
        return [out["error"].strip().splitlines()[-1]]
    return wl.verify(out)


class Tally:
    """Checked, failed and decided counts, plus the first few problems."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.decided = 0
        self.problems: list[str] = []

    def add(self, out: dict, problems: list[str]) -> None:
        self.attempted += 1
        self.decided += bool(out["decided"])
        if problems:
            self.failed += 1
            self.problems += problems[: 5 - len(self.problems)]

    def as_dict(self) -> dict:
        return dict(vars(self))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("round", "trace"), required=True)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--src", required=True, help="directory holding the swmix package")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", help="where trace mode writes its spans")
    args = parser.parse_args()

    src_pkg = os.path.join(os.path.abspath(args.src), "swmix")
    sys.path.insert(0, os.path.abspath(args.src))
    loaded = set(sys.modules)
    wl, *set_up = _set_up(args, loaded)
    result: dict = {"setup_s": [tuple(set_up)]}
    workloads = sys.modules["workloads"]
    if os.path.dirname(os.path.abspath(workloads.swmix.__file__)) != src_pkg:
        raise SystemExit(f"swmix imported from {workloads.swmix.__file__}, not {src_pkg}")
    tally = Tally()

    if args.mode == "round":
        lat: list[float] = []
        cal: list[float] = []
        prints: list[str] = []
        for task in wl.tasks[: wl.round_tasks]:
            cal.append(calibrate())
            out, dt = _one(wl, task)
            lat.append(dt)
            prints.append(_fingerprint(out))
            if args.check:
                tally.add(out, _verified(wl, out) or wl.check(out))
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # More set-ups for a steadier set-up time, after the memory reading.
        wl = None
        result["setup_s"] += [_set_up(args, loaded)[1:] for _ in range(SETUPS - 1)]
        result["latencies"] = lat
        result["calibrations"] = cal
        result["fingerprints"] = prints
    else:
        import tracer as tracing

        tracer = tracing.Tracer()
        plain, traced = [], []
        # Untraced and traced runs alternate in short chunks of the same
        # tasks, so a change in machine speed hits both sides alike.  Only
        # the tasks run under the tracer; the checks run after it is removed.
        tasks = wl.tasks[: wl.trace_tasks]
        for start in range(0, len(tasks), TRACE_CHUNK):
            chunk = tasks[start : start + TRACE_CHUNK]
            plain += [_one(wl, t) for t in chunk]
            tracer.install()
            try:
                traced += [_one(wl, t, tracer.span("task." + wl.kind(t))) for t in chunk]
            finally:
                tracer.uninstall()
        for (out, _), (plain_out, _) in zip(traced, plain):
            problems = _verified(wl, out)
            if _fingerprint(out) != _fingerprint(plain_out):
                problems.append("traced and untraced runs computed different outputs")
            tally.add(out, problems or wl.check(out))
        metrics = tracing.layer_metrics(
            tracer, sum(dt for _, dt in plain), sum(dt for _, dt in traced)
        )
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        if args.trace_out:
            tracer.write(args.trace_out)

    result.update(tally.as_dict())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
