"""Outside-in call tracer for the ``swmix`` package.

The tracer never edits ``swmix`` source.  It replaces public functions with
timing wrappers at every module binding that refers to them (``from .core
import image_of`` copies the name into ``search``, ``hitting`` and
``spread``, so wrapping ``core.image_of`` alone would miss those calls), and
puts every original back on :meth:`Tracer.uninstall`.

Spans carry a name, a start, an end and a parent.  They are aggregated on
the fly by ``(name, parent name)`` into call count, total time and self time
(duration minus the time covered by child spans), so a run with millions of
calls keeps a small, fixed amount of state.  The hottest methods are counted
without timing; their cost lands in the self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "swmix"

# (module, attribute) pairs wrapped with a timed span.
TIMED = (
    ("core", "image_of"),
    ("core", "preimage"),
    ("core", "eval_interval"),
    ("core", "word_preimage"),
    ("core", "eval_point"),
    ("search", "first_set_hit"),
    ("search", "step_images"),
    ("search", "step_points"),
    ("hitting", "pull_back_hit"),
    ("hitting", "verify_wm_certificate"),
    ("hitting", "wm_certificate"),
    ("hitting", "hitting_sets"),
    ("hitting", "order_reduction"),
    ("hitting", "maps_commute"),
    ("spread", "certify_spread"),
    ("spread", "verify_certificate"),
    ("chaos", "distance_envelope"),
    ("chaos", "xiong_witness"),
    ("chaos", "verify_xiong"),
    ("chaos", "verify_envelope"),
    ("language", "compile_language"),
    ("serialization", "system_from_json"),
    ("serialization", "dumps"),
    ("cli", "main"),
)

# Generator functions: each resume is one span, each yielded item one hit.
GENERATORS = (
    ("search", "iter_set_hits"),
    ("search", "iter_point_hits"),
)

# (module, class, method, counter name) for methods counted without timing.
COUNTED = (
    ("core", "PiecewiseAffineMap", "value_at", "core.value_at.calls"),
    ("intervals", "Interval", "__post_init__", "intervals.Interval.constructed"),
)


class Tracer:
    """Span aggregator plus the wrappers that feed it."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [name, child seconds]
        self.edges: dict[tuple[str, str | None], list] = {}  # -> [calls, total, self]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.nodes_in: defaultdict[str | None, int] = defaultdict(int)
        self.exceeded_clocks: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _close(self, frame: list, dt: float) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dt
        key = (frame[0], parent[0] if parent is not None else None)
        edge = self.edges.get(key)
        if edge is None:
            self.edges[key] = [1, dt, dt - frame[1]]
        else:
            edge[0] += 1
            edge[1] += dt
            edge[2] += dt - frame[1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, such as the root span of a task."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, time.perf_counter() - t0)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, post=None):
        stack = self._stack
        close = self._close
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, perf() - t0)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _generator(self, name: str, fn):
        stack = self._stack
        close = self._close
        counts = self.counts
        perf = time.perf_counter

        def drive(gen):
            try:
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(frame, perf() - t0)
                    counts["search.hits_yielded"] += 1
                    yield item
            finally:
                gen.close()

        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spend(self, fn):
        # SearchClock.spend: one call per search node.  Nodes are attributed
        # to the innermost span so nodes/s is measured where they are spent.
        stack = self._stack
        nodes_in = self.nodes_in
        exceeded = self.exceeded_clocks

        def wrapper(clock):
            nodes_in[stack[-1][0] if stack else None] += 1
            ok = fn(clock)
            if not ok:
                exceeded.add(clock)
            return ok

        return wrapper

    def _post_first_set_hit(self, args, kwargs, result) -> None:
        clock = args[4] if len(args) > 4 else kwargs["clock"]
        if result is None and not clock.exceeded:
            self.counts["search.first_set_hit.refuted"] += 1

    def _post_pull_back_hit(self, args, kwargs, result) -> None:
        if result is not None:
            self.counts["hitting.pull_back_hit.succeeded"] += 1

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        posts = {
            "search.first_set_hit": self._post_first_set_hit,
            "hitting.pull_back_hit": self._post_pull_back_hit,
        }
        for mod_name, attr in TIMED + GENERATORS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
            name = f"{mod_name}.{attr}"
            if (mod_name, attr) in GENERATORS:
                wrapper = self._generator(name, original)
            else:
                wrapper = self._timed(name, original, posts.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        for mod_name, cls_name, method, counter in COUNTED:
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            self._rebind(cls, method, self._counted(counter, vars(cls)[method]))
        clock_cls = sys.modules[f"{PACKAGE}.search"].SearchClock
        self._rebind(clock_cls, "spend", self._spend(vars(clock_cls)["spend"]))

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) summed over every parent."""
        calls, total, own = 0, 0.0, 0.0
        for (span, _), (c, t, s) in self.edges.items():
            if span == name:
                calls += c
                total += t
                own += s
        return calls, total, own

    def write(self, path: str) -> None:
        doc = {
            "edges": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(
                    self.edges.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "counts": dict(sorted(self.counts.items())),
            "nodes_in": {str(k): v for k, v in sorted(self.nodes_in.items(), key=str)},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``untraced_s`` and ``traced_s`` are the summed task latencies of the same
    tasks run without and with the tracer; their ratio is the overhead.
    """
    out: dict[str, tuple[float, str]] = {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def timed(name: str, *quantities: str) -> None:
        calls, total, own = tracer.totals(name)
        for q in quantities:
            value = {"calls": (calls, "count"), "self_s": (own, "s"), "total_s": (total, "s")}[q]
            out[f"{name}.{q}"] = value

    timed("core.image_of", "calls", "self_s")
    calls, _, own = tracer.totals("core.image_of")
    out["core.image_of.calls_per_s"] = (ratio(calls, own), "1/s")
    out["intervals.Interval.constructed"] = (
        tracer.counts["intervals.Interval.constructed"],
        "count",
    )
    timed("core.preimage", "calls", "self_s")
    timed("core.eval_interval", "calls")
    timed("core.word_preimage", "calls")
    timed("core.eval_point", "calls", "self_s")
    out["core.value_at.calls"] = (tracer.counts["core.value_at.calls"], "count")

    nodes = sum(tracer.nodes_in.values())
    # time inside the spans that spend nodes (the innermost span at spend)
    spend_time = sum(tracer.totals(name)[1] for name in tracer.nodes_in if name)
    out["search.nodes"] = (nodes, "count")
    out["search.nodes_per_s"] = (ratio(nodes, spend_time), "1/s")
    out["search.clocks_exceeded"] = (len(tracer.exceeded_clocks), "count")
    out["search.hits_yielded"] = (tracer.counts["search.hits_yielded"], "count")
    out["search.first_set_hit.refuted"] = (
        tracer.counts["search.first_set_hit.refuted"],
        "count",
    )
    for name in (
        "search.iter_set_hits",
        "search.step_images",
        "search.iter_point_hits",
        "search.step_points",
    ):
        timed(name, "self_s")

    timed("hitting.pull_back_hit", "calls", "self_s")
    out["hitting.pull_back_hit.success_ratio"] = (
        ratio(
            tracer.counts["hitting.pull_back_hit.succeeded"],
            tracer.totals("hitting.pull_back_hit")[0],
        ),
        "ratio",
    )
    for name in (
        "hitting.verify_wm_certificate",
        "hitting.wm_certificate",
        "hitting.hitting_sets",
        "hitting.order_reduction",
    ):
        timed(name, "total_s")
    timed("hitting.maps_commute", "self_s")
    timed("spread.certify_spread", "total_s", "self_s")
    timed("spread.verify_certificate", "total_s")
    timed("chaos.distance_envelope", "self_s")
    for name in ("chaos.xiong_witness", "chaos.verify_xiong", "chaos.verify_envelope"):
        timed(name, "total_s")
    for name in (
        "language.compile_language",
        "serialization.system_from_json",
        "serialization.dumps",
        "cli.main",
    ):
        timed(name, "self_s")
    out["trace.overhead_frac"] = (ratio(traced_s, untraced_s) - 1.0, "ratio")
    return out
