"""Seeded workloads of the swmix benchmark.

Each workload builds its systems and a pool of task inputs from the seed
alone, runs one task at a time (``run``), checks each result with the
package's public verifiers (``verify``) and with independent oracles kept in
this file (``check``).  Every search runs under a node budget, never a
wall-clock one, so each task's verdict and every count repeat exactly for a
given seed.

Why each workload exists:

* ``reduce`` -- the criterion-5 path on circle rotations.  About half the
  random quadruples have no transfer word, so whole depth levels are searched
  and refuted: the search walker and the interval kernel do most of the work.
* ``certify`` -- ``swmix run`` / ``swmix verify`` on generated tent-family
  scenarios.  Hits come early, so pull-backs, verifiers, serialization and
  file I/O get a real share; half the tasks use float numerics.
* ``orbits`` -- point-orbit searches (Xiong witnesses, distance envelopes),
  each followed inside the task by its public verifier (``verify_xiong``,
  ``verify_envelope``).  They never touch the interval kernel, so this is the
  workload on which an interval-kernel change must show no effect.

Task sizes keep each workload's p90 latency inside a kind of task whose
costs are narrowly spread (rational hitting tasks on ``certify``, distance
envelopes on ``orbits``), so that p90 does not jump between seeds; a wider
spread table or a looser envelope horizon put p90 in a long, sparse tail.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction as F

import swmix
from swmix import cli, search, serialization

__all__ = ["WORKLOADS"]

ZERO, ONE, HALF = F(0), F(1), F(1, 2)
GRID = 1000  # interval endpoints are multiples of 1/GRID


def _subinterval(rng: random.Random, min_w: int = 50, max_w: int = 250) -> tuple[F, F]:
    """Random open subinterval of (0, 1) with endpoints on the 1/GRID grid."""
    w = rng.randrange(min_w, max_w)
    lo = rng.randrange(0, GRID - w + 1)
    return F(lo, GRID), F(lo + w, GRID)


def _point(rng: random.Random) -> F:
    return F(rng.randrange(1, 10**6), 10**6)


def _rotation(c: F) -> swmix.PiecewiseAffineMap:
    """x + c modulo 1 as two unit-slope pieces on (0, 1)."""
    return swmix.PiecewiseAffineMap(
        pieces=(
            swmix.AffinePiece(swmix.Interval(ZERO, 1 - c), ONE, c),
            swmix.AffinePiece(swmix.Interval(1 - c, ONE), ONE, c - 1),
        )
    )


def _unit_system(maps, clamp: bool = False) -> swmix.SwitchedSystem:
    return swmix.SwitchedSystem(
        maps=tuple(maps),
        language=swmix.FullShift(len(maps)),
        bounds=swmix.Interval(ZERO, ONE),
        clamp=clamp,
    )


def _pieces(*pieces: tuple[F, F, F, F]) -> swmix.PiecewiseAffineMap:
    return swmix.PiecewiseAffineMap(
        pieces=tuple(
            swmix.AffinePiece(swmix.Interval(lo, hi), a, b) for lo, hi, a, b in pieces
        )
    )


def _first_hits(system, sources, targets, horizon: int) -> dict[int, tuple[int, ...]]:
    """Oracle: lexicographically first hitting word at every length.

    A plain recursive walk over every admissible word up to ``horizon``,
    sharing prefixes but with no node budget and no early exit.  A branch
    ends only where the set semantics end it: an empty image, or with the
    clamp flag an image that left the closed box.
    """
    aut = system.automaton
    widen = system.numerics.widen
    min_overlap = system.numerics.min_overlap
    first: dict[int, tuple[int, ...]] = {}

    def walk(state: int, images: tuple, path: tuple[int, ...]) -> None:
        n = len(path)
        if n and n not in first and all(
            img.intersects(t, min_overlap) for img, t in zip(images, targets)
        ):
            first[n] = path
        if n == horizon:
            return
        for sym in range(aut.m):
            nxt = aut.transitions[state][sym]
            if nxt < 0:
                continue
            children = []
            for img in images:
                child = swmix.image_of(system.maps[sym], img, widen=widen, partial=True)
                if child.is_empty or (system.clamp and not system.inside_kill_box(child)):
                    break
                children.append(child)
            else:
                walk(nxt, tuple(children), path + (sym,))

    walk(aut.start, tuple(sources), ())
    return first


def _orbit_levels(system, points, depth: int) -> list[set]:
    """Oracle: the set of reachable orbit tuples at every length up to ``depth``."""
    aut = system.automaton
    level = {(aut.start, tuple(points))}
    out = []
    for _ in range(depth):
        nxt = set()
        for state, values in level:
            for sym in range(aut.m):
                to = aut.transitions[state][sym]
                if to < 0:
                    continue
                try:
                    nxt.add((to, tuple(system.maps[sym].value_at(v) for v in values)))
                except swmix.UndefinedAtPoint:
                    continue
        out.append({values for _, values in nxt})
        level = nxt
    return out


class Workload:
    """Hooks a workload may override; the defaults do nothing."""

    def prepare(self, task) -> None:
        """Per-task preparation outside the timed region."""

    def collect(self, out: dict) -> None:
        """Per-task collection of outputs outside the timed region."""


class Reduce(Workload):
    """Transfer word, order reduction, reduced-pair hitting sets, pull-backs."""

    name = "reduce"
    pool = 512
    round_tasks = 200
    trace_tasks = 160
    node_budget = 200_000

    def __init__(self, seed: int, workdir: str) -> None:
        self.families = (
            (_unit_system([_rotation(F(5, 21))]), 25),
            (_unit_system([_rotation(F(1, 3)), _rotation(F(2, 7))]), 8),
        )
        rng = random.Random(seed)
        self.tasks = [
            (i % 2,) + tuple(swmix.IntervalSet.of(*_subinterval(rng)) for _ in range(4))
            for i in range(self.pool)
        ]

    def kind(self, task) -> str:
        return f"family{task[0]}"

    def run(self, task) -> dict:
        fam, U1, V1, U2, V2 = task
        system, horizon = self.families[fam]
        budget = swmix.SearchBudget(max_horizon=horizon, max_words=self.node_budget)
        clock = search.SearchClock(budget)
        hit = search.first_set_hit(
            system, [U1, V1], [U2, V2], range(1, horizon + 1), clock
        )
        out = {"task": task, "hit": hit, "exceeded": clock.exceeded}
        if hit is None:
            out["decided"] = not clock.exceeded
            return out
        Ur, Vr = swmix.order_reduction(system, U1, U2, V1, V2, swmix.Word(hit[0]))
        report = swmix.hitting_sets(
            system,
            Ur,
            Vr,
            budget=swmix.SearchBudget(
                max_horizon=horizon, max_words=self.node_budget, required=2
            ),
        )
        out["reduced"] = (Ur, Vr)
        out["report"] = report
        out["pulls"] = [
            (
                swmix.pull_back_hit(system, wit.word, U1, V1),
                swmix.pull_back_hit(system, wit.word, U2, V2),
            )
            for wit in report.witnesses
        ]
        out["decided"] = report.exhausted
        return out

    def verify(self, out: dict) -> list[str]:
        if out["hit"] is None:
            return []
        fam, U1, V1, U2, V2 = out["task"]
        system = self.families[fam][0]
        Ur, Vr = out["reduced"]
        problems = []
        for wit, (sub1, sub2) in zip(out["report"].witnesses, out["pulls"]):
            if not wit.verify(system, Ur, Vr):
                problems.append(f"reduced-pair witness {wit.word} does not verify")
            for sub, U, V in ((sub1, U1, V1), (sub2, U2, V2)):
                if sub is None or not swmix.HitWitness(
                    wit.word, "set", source=sub
                ).verify(system, U, V):
                    problems.append(f"word {wit.word} does not pull back on a pair")
        return problems

    def check(self, out: dict) -> list[str]:
        fam, U1, V1, U2, V2 = out["task"]
        system, horizon = self.families[fam]
        if out["exceeded"]:
            return []
        first = _first_hits(system, [U1, V1], [U2, V2], horizon)
        expect = first[min(first)] if first else None
        got = out["hit"][0] if out["hit"] is not None else None
        if got != expect:
            return [f"transfer word {got} but the oracle finds {expect}"]
        if got is None:
            return []
        report = out["report"]
        Ur, Vr = out["reduced"]
        lengths = tuple(sorted(_first_hits(system, [Ur], [Vr], horizon)))
        if report.exhausted and report.type1 != lengths:
            return [f"type-1 set {report.type1} but the oracle finds {lengths}"]
        if not set(report.type1) <= set(lengths):
            return [f"type-1 set {report.type1} not within the oracle's {lengths}"]
        return []


def _scalar(x: F, as_float: bool):
    return float(x) if as_float else str(x)


def _tent_json(clamp: bool, as_float: bool) -> dict:
    """The doubling pair {2x, 2 - 2x} on (0, 1) as scenario JSON."""
    s = lambda x: _scalar(F(x), as_float)  # noqa: E731
    return {
        "maps": [
            [{"domain": ["-inf", "inf"], "a": s(2), "b": s(0)}],
            [{"domain": ["-inf", "inf"], "a": s(-2), "b": s(2)}],
        ],
        "bounds": [s(0), s(1)],
        "language": {"kind": "full", "m": 2},
        "clamp": clamp,
        "numerics": {"mode": "float" if as_float else "rational"},
    }


class Certify(Workload):
    """``swmix run`` then ``swmix verify`` on generated scenario files."""

    name = "certify"
    pool = 2048
    round_tasks = 800
    trace_tasks = 600
    # An even mix of hitting, wm-cert (wm1 and wm2) and spread tasks; the
    # second half of the cycle flips the numerics so each kind runs in both.
    cycle = ("hitting", "wm1", "spread", "hitting", "wm2", "spread")

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.scenario_path = os.path.join(workdir, "scenario.json")
        self.out_dir = os.path.join(workdir, "out")
        rng = random.Random(seed)
        self.tasks = []
        for i in range(self.pool):
            kind = self.cycle[i % len(self.cycle)]
            as_float = (i + i // len(self.cycle)) % 2 == 1
            scenario = self._scenario(rng, kind, as_float)
            self.tasks.append((kind, as_float, scenario, json.dumps(scenario)))

    @staticmethod
    def _scenario(rng: random.Random, kind: str, as_float: bool) -> dict:
        def iset(min_w: int = 50, max_w: int = 250) -> list:
            lo, hi = _subinterval(rng, min_w, max_w)
            return [[_scalar(lo, as_float), _scalar(hi, as_float)]]

        unit = [[_scalar(ZERO, as_float), _scalar(ONE, as_float)]]
        if kind == "hitting":
            return {
                "task": "hitting",
                "system": _tent_json(True, as_float),
                "params": {"U": iset(), "V": iset()},
                "budget": {"max_horizon": 8, "max_words": 50_000, "required": 2},
            }
        if kind in ("wm1", "wm2"):
            return {
                "task": "wm-cert",
                "system": _tent_json(True, as_float),
                "params": {
                    "K": unit,
                    "Q": unit,
                    "pairs": [[iset(), iset()], [iset(), iset()]],
                    "kind": kind,
                },
                "budget": {"max_horizon": 12, "max_words": 50_000, "required": 2},
            }
        return {
            "task": "spread",
            "system": _tent_json(False, as_float),
            "params": {
                "seeds": [iset(200, 500)],
                "K": unit,
                "Q": unit,
                "eps": _scalar(F(2, 5), as_float),
                "net_radius": _scalar(F(1, 5), as_float),
            },
            "budget": {"max_horizon": 12, "max_words": 200_000},
        }

    def kind(self, task) -> str:
        return task[0] + ("-float" if task[1] else "-rational")

    def prepare(self, task) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            fh.write(task[3])

    def run(self, task) -> dict:
        cert_path = os.path.join(self.out_dir, "certificate.json")
        run_out, verify_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(run_out):
            code = cli.main(["run", self.scenario_path, "--out", self.out_dir])
        vcode = None
        if os.path.exists(cert_path):
            with contextlib.redirect_stdout(verify_out):
                vcode = cli.main(["verify", cert_path])
        return {
            "task": task,
            "decided": code == 0,
            "code": code,
            "vcode": vcode,
            "stdout": run_out.getvalue(),
            "vstdout": verify_out.getvalue(),
        }

    def collect(self, out: dict) -> None:
        """Read the artifacts back (outside the timed region)."""
        for name in ("report.json", "certificate.json"):
            path = os.path.join(self.out_dir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name] = fh.read()

    def verify(self, out: dict) -> list[str]:
        kind, _, scenario, _ = out["task"]
        code, vcode = out["code"], out["vcode"]
        if code not in (0, 2):
            return [f"swmix run exited {code}: {out['stdout'][:200]}"]
        report_bytes = out.get("report.json")
        if report_bytes is None or report_bytes.decode() != out["stdout"]:
            return ["report.json missing or differs from stdout"]
        report = json.loads(report_bytes)
        if kind == "hitting":
            system = serialization.system_from_json(scenario["system"])
            U = serialization.interval_set_from_json(scenario["params"]["U"])
            V = serialization.interval_set_from_json(scenario["params"]["V"])
            for wit in report["type2"]:
                lo, hi = (serialization.scalar_from_json(x) for x in wit["source"])
                w = swmix.HitWitness(
                    swmix.Word(tuple(wit["word"])), "set", source=swmix.IntervalSet.of(lo, hi)
                )
                if not w.verify(system, U, V):
                    return [f"hitting witness {wit['word']} does not verify"]
            return []
        cert = out.get("certificate.json")
        if code == 0:
            if cert is None:
                return ["no certificate emitted"]
            if report.get("verified") is not True or vcode != 0:
                return [f"certificate not verified (run {code}, verify {vcode})"]
            if json.loads(out["vstdout"]) != {"kind": json.loads(cert)["kind"], "verified": True}:
                return [f"unexpected swmix verify output {out['vstdout']!r}"]
            return []
        if cert is None:
            return []
        # A budget-exhausted wm-cert run leaves a partial certificate: it must
        # verify exactly when it holds at least one length of evidence.
        partial = json.loads(cert)["certificate"]
        want = 0 if partial["S"] else 1
        if vcode != want:
            return [f"partial certificate with S={partial['S']} verified with exit {vcode}"]
        return []

    def check(self, out: dict) -> list[str]:
        kind, _, scenario, _ = out["task"]
        if kind != "hitting" or out["code"] not in (0, 2):
            return []
        report = json.loads(out["report.json"])
        system = serialization.system_from_json(scenario["system"])
        U = serialization.interval_set_from_json(scenario["params"]["U"])
        V = serialization.interval_set_from_json(scenario["params"]["V"])
        lengths = tuple(sorted(_first_hits(system, [U], [V], report["horizon"])))
        got = tuple(report["type1"])
        if report["exhausted"] and got != lengths:
            return [f"type-1 set {got} but the oracle finds {lengths}"]
        if not set(got) <= set(lengths):
            return [f"type-1 set {got} not within the oracle's {lengths}"]
        return []


class Orbits(Workload):
    """Xiong witnesses and distance envelopes: point searches only."""

    name = "orbits"
    pool = 2048
    round_tasks = 420
    trace_tasks = 600
    cycle = ("xiong2", "xiong1", "envelope1", "envelope2")
    # About one Xiong task in a hundred cannot be decided.  Small node budgets
    # keep its cost within a few decided tasks' (at 50k nodes one such task
    # took as long as sixty others), so how many a seed draws barely moves
    # tasks_per_s.
    xiong2_tolerances = (F(1, 4), F(1, 10), F(1, 40))
    xiong2_budget = swmix.SearchBudget(max_horizon=20, max_words=5_000)
    xiong1_tolerances = (F(1, 4), F(1, 8), F(1, 32))
    xiong1_budget = swmix.SearchBudget(max_horizon=14, max_words=5_000)
    envelope_horizon = 10
    envelope_budget = swmix.SearchBudget(max_words=20_000)

    def __init__(self, seed: int, workdir: str) -> None:
        # Commuting rotations: every shared word shifts both points alike.
        self.rotations = _unit_system([_rotation(F(1, 3)), _rotation(F(2, 7))])
        # Doubling and a two-slope expanding map: piecewise, not global.
        self.piecewise = _unit_system(
            [
                _pieces((ZERO, HALF, F(2), ZERO), (HALF, ONE, F(2), F(-1))),
                _pieces((ZERO, F(1, 3), F(3), ZERO), (F(1, 3), ONE, F(3, 2), -HALF)),
            ]
        )
        rng = random.Random(seed)
        self.tasks = []
        for i in range(self.pool):
            kind = self.cycle[i % len(self.cycle)]
            if kind == "xiong2":
                points = self._distinct(rng, 2)
                shift = F(rng.randrange(21), 21)  # rotation angles lie on (1/21)Z
                targets = tuple(
                    (x + shift + F(rng.randrange(-999, 1000), 10**6)) % 1 for x in points
                )
                self.tasks.append((kind, points, targets))
            elif kind == "xiong1":
                self.tasks.append((kind, self._distinct(rng, 3), self._distinct(rng, 3)))
            else:
                self.tasks.append((kind,) + self._distinct(rng, 2))

    @staticmethod
    def _distinct(rng: random.Random, n: int) -> tuple:
        out: list[F] = []
        while len(out) < n:
            x = _point(rng)
            if x not in out:
                out.append(x)
        return tuple(out)

    def kind(self, task) -> str:
        return task[0]

    def _xiong_params(self, task):
        kind = task[0]
        if kind == "xiong2":
            return self.rotations, "type2", self.xiong2_tolerances, self.xiong2_budget
        return self.piecewise, "type1", self.xiong1_tolerances, self.xiong1_budget

    def run(self, task) -> dict:
        """One witness or envelope, then its public verifier's verdict."""
        kind = task[0]
        if kind.startswith("xiong"):
            system, wkind, tolerances, budget = self._xiong_params(task)
            wit = swmix.xiong_witness(
                system, task[1], task[2], kind=wkind, tolerances=tolerances, budget=budget
            )
            return {
                "task": task,
                "witness": wit,
                "verified": swmix.verify_xiong(system, wit),
                "decided": wit.complete,
            }
        env = swmix.distance_envelope(
            self.piecewise,
            task[1],
            task[2],
            kind="type1" if kind == "envelope1" else "type2",
            horizon=self.envelope_horizon,
            budget=self.envelope_budget,
        )
        return {
            "task": task,
            "envelope": env,
            "verified": swmix.verify_envelope(self.piecewise, env),
            "decided": not env.truncated,
        }

    def verify(self, out: dict) -> list[str]:
        task = out["task"]
        if "witness" in out:
            wit = out["witness"]
            if wit.complete and len(wit.stages) != len(self._xiong_params(task)[2]):
                return ["complete witness with missing stages"]
        if not out["verified"]:
            return [f"{task[0]} output does not verify"]
        return []

    def check(self, out: dict) -> list[str]:
        task = out["task"]
        if "witness" in out:
            return self._check_xiong(task, out["witness"])
        return self._check_envelope(task, out["envelope"])

    def _check_xiong(self, task, wit) -> list[str]:
        """Each stage sits at the first length admitting words within tolerance."""
        system, wkind, _, _ = self._xiong_params(task)
        points, targets = task[1], task[2]
        if not wit.stages:
            return []
        depth = wit.stages[-1].length
        if wkind == "type2":
            levels = _orbit_levels(system, points, depth)

            def solvable(n: int, eps: F) -> bool:
                return any(
                    all(abs(v - t) < eps for v, t in zip(vals, targets))
                    for vals in levels[n - 1]
                )
        else:
            per_point = [_orbit_levels(system, [x], depth) for x in points]

            def solvable(n: int, eps: F) -> bool:
                return all(
                    any(abs(vals[0] - t) < eps for vals in levels[n - 1])
                    for levels, t in zip(per_point, targets)
                )

        floor = 0
        for stage in wit.stages:
            for n in range(floor + 1, stage.length):
                if solvable(n, stage.tolerance):
                    return [f"{task[0]} stage at length {stage.length}, oracle solves {n}"]
            floor = stage.length
        return []

    def _check_envelope(self, task, env) -> list[str]:
        """Row extremes equal those over every word's orbit, level by level."""
        kind, x, y = task
        horizon = self.envelope_horizon
        if kind == "envelope2":
            levels = _orbit_levels(self.piecewise, [x, y], horizon)
            extremes = [
                (min(d), max(d)) if d else None
                for d in ([abs(b - a) for a, b in level] for level in levels)
            ]
        else:
            xs = _orbit_levels(self.piecewise, [x], horizon)
            ys = _orbit_levels(self.piecewise, [y], horizon)
            extremes = [
                _cross_extremes([v for v, in lx], [v for v, in ly]) if lx and ly else None
                for lx, ly in zip(xs, ys)
            ]
        for row in env.rows:
            if (row.d_min, row.d_max) != extremes[row.length - 1]:
                return [f"{kind} row {row.length} extremes differ from the oracle"]
        complete = sum(1 for e in extremes if e)
        if not env.truncated and len(env.rows) != complete:
            return [f"{kind} has {len(env.rows)} rows, the oracle {complete}"]
        return []


def _cross_extremes(a: list, b: list) -> tuple:
    """Smallest and largest |p - q| over p in a, q in b.

    The smallest is attained by two neighbours of the merged sorted list that
    come from different sides; the largest by opposite ends.
    """
    merged = sorted([(v, 0) for v in a] + [(v, 1) for v in b])
    d_min = min(q - p for (p, i), (q, j) in zip(merged, merged[1:]) if i != j)
    return d_min, max(max(a) - min(b), max(b) - min(a))


WORKLOADS = {w.name: w for w in (Reduce, Certify, Orbits)}
