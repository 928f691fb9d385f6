"""Command-line driver.

One scenario file per invocation; artifacts land under ``--out`` as
``report.json`` plus task-specific files (``certificate.json``,
``envelope.csv``, ``counts.csv``).  Exit status: 0 on success, 2 when a
search budget ran out (partial artifacts are still written), 1 on validation
errors, which are printed as machine-readable JSON objects.  A float-mode
number past float range, such as the string ``"1e400"``, is one of them: the
``OverflowError`` it raises is reported like a ``ValueError``.

:func:`main` may be called any number of times in one process: the argument
parser is built on the first call and reused.  Each report is encoded once,
and those bytes are both ``report.json`` and stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
from pathlib import Path
from typing import Any, Callable, Sequence

from . import demo
from .chaos import (
    XiongWitness,
    distance_envelope,
    scrambled_verdict,
    verify_xiong,
    xiong_witness,
)
from .core import SwitchedSystem, eval_interval, eval_point
from .errors import BudgetExceeded, ScenarioError, SwmixError
from .hitting import WMCertificate, hitting_sets, verify_wm_certificate, wm_certificate
from .language import count_words, enumerate_words
from .search import SearchBudget
from .serialization import (
    budget_to_json,
    budget_from_json,
    dumps,
    envelope_to_csv,
    hitting_report_to_json,
    interval_set_from_json,
    interval_set_to_json,
    scalar_from_json,
    scalar_to_json,
    spread_certificate_from_json,
    spread_certificate_to_json,
    system_from_json,
    system_to_json,
    wm_certificate_from_json,
    wm_certificate_to_json,
    word_from_json,
    word_to_json,
    xiong_witness_from_json,
    xiong_witness_to_json,
)
from .spread import _check_net, build_qnet, certify_spread, verify_certificate

__all__ = ["main"]

_LIST_CAP = 100_000
# Longest word length that prelang counts or lists, and longest horizon of a
# scrambled envelope.  Every count is written out; over at most 64 symbols, a
# count of length 1,000 has at most 1,807 digits, inside the 4,300 that
# Python turns into a string by default.  An envelope's distances can grow
# as fast as its slopes' powers: on the unclamped tent at horizon 15,000 the
# search took 14 s and the rows could not be printed.
_MAX_LEN = 1_000


def _error_payload(exc: BaseException) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)}


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc


def _emit(out: str, report: dict, artifacts: dict[str, str]) -> None:
    """Write ``report.json`` and the artifacts under ``out``, and print the
    report: one encoding serves both, so stdout and ``report.json`` are the
    same bytes."""
    text = dumps(report)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, body in {"report.json": text, **artifacts}.items():
        (out_dir / name).write_text(body, encoding="utf-8")
    print(text, end="")


def _require(params: dict, key: str) -> Any:
    if key not in params:
        raise ScenarioError(f"task parameter {key!r} is required")
    return params[key]


def _int_param(
    params: dict,
    key: str,
    default: int | None = None,
    minimum: int = 1,
    maximum: int | None = None,
) -> int:
    v = params.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"task parameter {key!r} must be an integer")
    if v < minimum:
        raise ScenarioError(f"task parameter {key!r} must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ScenarioError(f"task parameter {key!r} must be <= {maximum}")
    return v


def _list_param(params: dict, key: str, read: Callable[[Any], Any]) -> list:
    raw = _require(params, key)
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"task parameter {key!r} must be a non-empty list")
    return [read(item) for item in raw]


def _set_pair(entry: Any) -> tuple:
    if not isinstance(entry, list) or len(entry) != 2:
        raise ScenarioError("each pair must be a [U, V] list")
    return interval_set_from_json(entry[0]), interval_set_from_json(entry[1])


def _wrap(system: SwitchedSystem, kind: str, payload: dict) -> dict:
    return {"kind": kind, "system": system_to_json(system), "certificate": payload}


TaskResult = tuple[int, dict, dict[str, str]]


def _task_prelang(
    system: SwitchedSystem, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    max_len = _int_param(params, "max_len", 10, maximum=_MAX_LEN)
    list_len = _int_param(params, "list_len", maximum=_MAX_LEN) if "list_len" in params else None
    counts = [count_words(system.automaton, n) for n in range(1, max_len + 1)]
    payload: dict[str, Any] = {
        "alphabet": system.automaton.m,
        "max_len": max_len,
        "counts": counts,
    }
    if list_len is not None:
        total = count_words(system.automaton, list_len)
        if total > _LIST_CAP:
            raise ScenarioError(f"refusing to list {total} words at length {list_len}")
        payload["words"] = [w.as_string() for w in enumerate_words(system.automaton, list_len)]
    csv = "length,count\n" + "".join(
        f"{n},{c}\n" for n, c in enumerate(counts, start=1)
    )
    return 0, payload, {"counts.csv": csv}


def _task_orbit(
    system: SwitchedSystem, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    word = word_from_json(_require(params, "word"))
    payload: dict[str, Any] = {"word": word_to_json(word)}
    if "x" in params:
        value = eval_point(system, word, scalar_from_json(params["x"]))
        payload["value"] = scalar_to_json(value)
    if "source" in params:
        image = eval_interval(system, word, interval_set_from_json(params["source"]))
        payload["image"] = interval_set_to_json(image)
    if "x" not in params and "source" not in params:
        raise ScenarioError("orbit task needs 'x' or 'source'")
    return 0, payload, {}


def _task_hitting(
    system: SwitchedSystem, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    U = interval_set_from_json(_require(params, "U"))
    V = interval_set_from_json(_require(params, "V"))
    report = hitting_sets(system, U, V, budget)
    return (0 if report.exhausted else 2), hitting_report_to_json(report), {}


def _task_wm_cert(
    system: SwitchedSystem, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    K = interval_set_from_json(_require(params, "K"))
    Q = interval_set_from_json(_require(params, "Q"))
    pairs = _list_param(params, "pairs", _set_pair)
    kind = params.get("kind", "wm1")
    try:
        cert = wm_certificate(system, K, Q, pairs, kind=kind, budget=budget)
    except BudgetExceeded as exc:
        artifacts: dict[str, str] = {}
        payload = {"error": _error_payload(exc)}
        if isinstance(exc.partial, WMCertificate):
            doc = _wrap(system, "wm", wm_certificate_to_json(exc.partial))
            artifacts["certificate.json"] = dumps(doc)
            payload["partial_certificate"] = "certificate.json"
        return 2, payload, artifacts
    cert_json = wm_certificate_to_json(cert)
    payload = {"certificate": cert_json, "verified": verify_wm_certificate(system, cert)}
    return 0, payload, {"certificate.json": dumps(_wrap(system, "wm", cert_json))}


def _task_scrambled(
    system: SwitchedSystem, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    x = scalar_from_json(_require(params, "x"))
    y = scalar_from_json(_require(params, "y"))
    kind = params.get("kind", "type2")
    envelope_args = {
        key: _int_param(params, key, maximum=_MAX_LEN) for key in ("horizon",) if key in params
    }
    eps_prox = scalar_from_json(params.get("eps_prox", "1/10"))
    eps_div = scalar_from_json(params.get("eps_div", "1/2"))
    verdict_args = {key: _int_param(params, key) for key in ("k",) if key in params}
    env = distance_envelope(system, x, y, kind=kind, budget=budget, **envelope_args)
    payload: dict[str, Any] = {
        "kind": kind,
        "horizon": env.horizon,
        "lengths_computed": len(env.rows),
        "truncated": env.truncated,
    }
    if env.rows:
        verdict = scrambled_verdict(env, eps_prox, eps_div, **verdict_args)
        payload["verdict"] = {
            "verdict": verdict.verdict,
            "prox_hits": verdict.prox_hits,
            "div_hits": verdict.div_hits,
            "best_min": scalar_to_json(verdict.best_min),
            "best_max": scalar_to_json(verdict.best_max),
            "eps_prox": scalar_to_json(eps_prox),
            "eps_div": scalar_to_json(eps_div),
            "k": verdict.k,
        }
    return (2 if env.truncated else 0), payload, {"envelope.csv": envelope_to_csv(env)}


def _verify_xiong_complete(system: SwitchedSystem, wit: XiongWitness) -> bool:
    """What ``run`` and ``verify`` report for a Xiong witness: it verifies
    only when it is complete.  :func:`verify_xiong` checks the stages a
    witness carries, whether or not the search reached every tolerance."""
    return wit.complete and verify_xiong(system, wit)


def _task_xiong(
    system: SwitchedSystem, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    points = _list_param(params, "points", scalar_from_json)
    targets = _list_param(params, "targets", scalar_from_json)
    tolerances = _list_param(params, "tolerances", scalar_from_json)
    kind = params.get("kind", "type2")
    wit = xiong_witness(system, points, targets, kind=kind, tolerances=tolerances, budget=budget)
    wit_json = xiong_witness_to_json(wit)
    payload = {"witness": wit_json, "verified": _verify_xiong_complete(system, wit)}
    artifacts = {"certificate.json": dumps(_wrap(system, "xiong", wit_json))}
    return (0 if wit.complete else 2), payload, artifacts


def _task_spread(
    system: SwitchedSystem, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    seeds = _list_param(params, "seeds", interval_set_from_json)
    K = interval_set_from_json(_require(params, "K"))
    Q = interval_set_from_json(_require(params, "Q"))
    eps = scalar_from_json(_require(params, "eps"))
    radius = scalar_from_json(params["net_radius"]) if "net_radius" in params else eps / 2
    max_table = _int_param(params, "max_table", 4096)
    _check_net(Q, radius, len(seeds), max_table)
    net = build_qnet(Q, radius)
    cert = certify_spread(system, seeds, K, eps, net, budget, max_table=max_table)
    cert_json = spread_certificate_to_json(cert)
    payload = {
        "rows": len(cert.rows),
        "net_size": len(net.centers),
        "delta": scalar_to_json(cert.delta),
        "verified": verify_certificate(system, cert),
    }
    return 0, payload, {"certificate.json": dumps(_wrap(system, "spread", cert_json))}


_TENT_DEMO_PARAMS = ("samples", "steps", "wm_trials", "wm_horizon", "envelope_pairs")


def _task_tent_demo(
    system: SwitchedSystem | None, params: dict, budget: SearchBudget, seed: int
) -> TaskResult:
    given = {key: _int_param(params, key) for key in _TENT_DEMO_PARAMS if key in params}
    report = demo.tent_demo(seed=seed, **given)
    return (0 if report["ok"] else 1), report, {}


_TASKS: dict[str, Callable[..., TaskResult]] = {
    "prelang": _task_prelang,
    "orbit": _task_orbit,
    "hitting": _task_hitting,
    "wm-cert": _task_wm_cert,
    "scrambled": _task_scrambled,
    "xiong": _task_xiong,
    "spread": _task_spread,
    "tent-demo": _task_tent_demo,
}


def _dispatch(scenario: Any) -> TaskResult:
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    task = scenario.get("task")
    if not isinstance(task, str) or task not in _TASKS:
        raise ScenarioError(f"unknown task {task!r}")
    params = scenario.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError("'params' must be an object")
    seed = scenario.get("seed", demo.DEFAULT_SEED)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("'seed' must be an integer")
    budget = budget_from_json(scenario.get("budget"))
    if task == "tent-demo":
        system = None
    else:
        if "system" not in scenario:
            raise ScenarioError(f"task {task!r} requires a 'system'")
        system = system_from_json(scenario["system"])
    code, payload, artifacts = _TASKS[task](system, params, budget, seed)
    report = {"task": task, "seed": seed, "budget": budget_to_json(budget)}
    report.update(payload)
    return code, report, artifacts


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        code, report, artifacts = _dispatch(_load_json(args.scenario))
    except BudgetExceeded as exc:
        code, report, artifacts = 2, {"error": _error_payload(exc)}, {}
    _emit(args.out, report, artifacts)
    return code


def _cmd_tent_demo(args: argparse.Namespace) -> int:
    flags = {
        "samples": args.samples,
        "wm_trials": args.trials,
        "wm_horizon": args.horizon,
    }
    params = {key: value for key, value in flags.items() if value is not None}
    code, report, _ = _task_tent_demo(None, params, SearchBudget(), args.seed)
    _emit(args.out, report, {})
    return code


_VERIFIERS: dict[str, tuple[Callable[[Any], Any], Callable[..., bool]]] = {
    "wm": (wm_certificate_from_json, verify_wm_certificate),
    "spread": (spread_certificate_from_json, verify_certificate),
    "xiong": (xiong_witness_from_json, _verify_xiong_complete),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = _load_json(args.certificate)
    if not isinstance(doc, dict):
        raise ScenarioError("certificate file must be a JSON object")
    kind = doc.get("kind")
    system = system_from_json(doc.get("system"))
    if not isinstance(kind, str) or kind not in _VERIFIERS:
        raise ScenarioError(f"unknown certificate kind {kind!r}")
    read, verify = _VERIFIERS[kind]
    ok = verify(system, read(doc.get("certificate")))
    print(dumps({"kind": kind, "verified": ok}), end="")
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swmix",
        description="Certificate-producing analyses of switched affine systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to scenario JSON")
    p_run.add_argument("--out", default=".", help="artifact directory")
    p_run.set_defaults(func=_cmd_run)

    p_demo = sub.add_parser("tent-demo", help="run the built-in tent example")
    p_demo.add_argument("--samples", type=int)
    p_demo.add_argument("--horizon", type=int)
    p_demo.add_argument("--trials", type=int)
    p_demo.add_argument("--seed", type=int, default=demo.DEFAULT_SEED)
    p_demo.add_argument("--out", default=".", help="artifact directory")
    p_demo.set_defaults(func=_cmd_tent_demo)

    p_verify = sub.add_parser("verify", help="re-check an emitted certificate")
    p_verify.add_argument("certificate", help="path to certificate JSON")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SwmixError, ValueError, OverflowError, OSError) as exc:
        print(dumps({"error": _error_payload(exc)}), end="")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
