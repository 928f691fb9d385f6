"""Deterministic wire formats.

Scalars follow the numeric mode: rationals become canonical fraction strings
("3/4", "2"), floats stay JSON numbers, and the two infinities become the
strings "inf" / "-inf".  All JSON is emitted with sorted keys and a fixed
separator/indent convention so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import fields
from fractions import Fraction
from typing import Any

from .chaos import DistanceEnvelope, XiongStage, XiongWitness
from .core import (
    AffinePiece,
    Numerics,
    PiecewiseAffineMap,
    SwitchedSystem,
)
from .errors import ScenarioError
from .hitting import HitWitness, HittingReport, WMCertificate
from .intervals import NEG_INF, POS_INF, Interval, IntervalSet, Scalar
from .language import Dfa, ForbiddenWords, FullShift, LanguageSpec
from .search import SearchBudget
from .spread import QNet, SpreadCertificate, SpreadRow
from .words import Word

__all__ = [
    "dumps",
    "scalar_to_json",
    "scalar_from_json",
    "interval_set_to_json",
    "interval_set_from_json",
    "system_to_json",
    "system_from_json",
    "budget_to_json",
    "budget_from_json",
    "hitting_report_to_json",
    "wm_certificate_to_json",
    "wm_certificate_from_json",
    "spread_certificate_to_json",
    "spread_certificate_from_json",
    "xiong_witness_to_json",
    "xiong_witness_from_json",
    "envelope_to_csv",
]


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def scalar_to_json(x: Scalar) -> Any:
    if isinstance(x, float):
        if x == POS_INF:
            return "inf"
        if x == NEG_INF:
            return "-inf"
        return x
    return str(Fraction(x))


def scalar_from_json(v: Any) -> Scalar:
    if isinstance(v, bool):
        raise ScenarioError(f"expected a scalar, got {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        if v == "inf":
            return POS_INF
        if v == "-inf":
            return NEG_INF
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"bad scalar string {v!r}") from exc
    raise ScenarioError(f"expected a scalar, got {v!r}")


def _pair_to_json(lo: Scalar, hi: Scalar) -> list:
    return [scalar_to_json(lo), scalar_to_json(hi)]


def interval_set_to_json(s: IntervalSet) -> list:
    return [_pair_to_json(c.lo, c.hi) for c in s]


def interval_set_from_json(v: Any) -> IntervalSet:
    if not isinstance(v, list):
        raise ScenarioError("an interval set must be a list of [lo, hi] pairs")
    pairs = []
    for item in v:
        if not isinstance(item, list) or len(item) != 2:
            raise ScenarioError(f"bad interval {item!r}")
        pairs.append((scalar_from_json(item[0]), scalar_from_json(item[1])))
    try:
        return IntervalSet.from_pairs(pairs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _int_from_json(what: str, v: Any) -> int:
    """``v`` itself when it is an int and not a bool; a float such as
    ``4.0``, a string or a bool raises."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(f"{what} must be an integer, got {v!r}")
    return v


def word_to_json(w: Word) -> list[int]:
    return list(w)


def word_from_json(v: Any) -> Word:
    if not isinstance(v, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in v
    ):
        raise ScenarioError(f"a word must be a list of symbols, got {v!r}")
    try:
        return Word(tuple(v))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def language_to_json(spec: LanguageSpec) -> dict:
    if isinstance(spec, FullShift):
        return {"kind": "full", "m": spec.m}
    if isinstance(spec, ForbiddenWords):
        return {"kind": "sft", "m": spec.m, "forbidden": [list(w) for w in spec.words]}
    if isinstance(spec, Dfa):
        return {
            "kind": "dfa",
            "m": spec.m,
            "dfa": {
                "states": spec.num_states,
                "start": spec.start,
                "trans": [list(t) for t in spec.transitions],
            },
        }
    raise ScenarioError(f"unknown language spec {spec!r}")


def language_from_json(v: Any) -> LanguageSpec:
    if not isinstance(v, dict) or "kind" not in v or "m" not in v:
        raise ScenarioError("a language needs 'kind' and 'm'")
    kind, m = v["kind"], v["m"]
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ScenarioError(f"bad alphabet size {m!r}")
    try:
        if kind == "full":
            return FullShift(m)
        if kind == "sft":
            forbidden = v.get("forbidden", [])
            if not isinstance(forbidden, list):
                raise ScenarioError("'forbidden' must be a list of symbol lists")
            return ForbiddenWords(
                m, tuple(tuple(word_from_json(w)) for w in forbidden)
            )
        if kind == "dfa":
            dfa = v.get("dfa")
            if not isinstance(dfa, dict):
                raise ScenarioError("a dfa language needs a 'dfa' object")
            trans = dfa.get("trans", [])
            return Dfa(
                m=m,
                num_states=dfa["states"],
                start=dfa["start"],
                transitions=tuple(tuple(t) for t in trans),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad language description: {exc}") from exc
    raise ScenarioError(f"unknown language kind {kind!r}")


def numerics_to_json(num: Numerics) -> dict:
    return {
        "mode": num.mode,
        "tau": num.tau,
        "min_overlap": scalar_to_json(num.min_overlap),
    }


def numerics_from_json(v: Any) -> Numerics:
    if v is None:
        return Numerics()
    if not isinstance(v, dict):
        raise ScenarioError("'numerics' must be an object")
    given: dict[str, Any] = {}
    if "mode" in v:
        given["mode"] = v["mode"]
    if "tau" in v:
        given["tau"] = float(v["tau"])
    if "min_overlap" in v:
        given["min_overlap"] = scalar_from_json(v["min_overlap"])
    try:
        return Numerics(**given)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def system_to_json(system: SwitchedSystem) -> dict:
    return {
        "maps": [
            [
                {
                    "domain": _pair_to_json(p.domain.lo, p.domain.hi),
                    "a": scalar_to_json(p.slope),
                    "b": scalar_to_json(p.offset),
                }
                for p in pam.effective_pieces
            ]
            for pam in system.maps
        ],
        "bounds": _pair_to_json(system.bounds.lo, system.bounds.hi),
        "language": language_to_json(system.language),
        "clamp": system.clamp,
        "numerics": numerics_to_json(system.numerics),
    }


def system_from_json(v: Any) -> SwitchedSystem:
    if not isinstance(v, dict):
        raise ScenarioError("a system must be an object")
    for key in ("maps", "bounds", "language"):
        if key not in v:
            raise ScenarioError(f"system is missing '{key}'")
    maps_json = v["maps"]
    if not isinstance(maps_json, list) or not maps_json:
        raise ScenarioError("'maps' must be a nonempty list")
    maps = []
    try:
        for pieces_json in maps_json:
            pieces = tuple(
                AffinePiece(
                    domain=Interval(
                        scalar_from_json(p["domain"][0]),
                        scalar_from_json(p["domain"][1]),
                    ),
                    slope=scalar_from_json(p["a"]),
                    offset=scalar_from_json(p["b"]),
                )
                for p in pieces_json
            )
            maps.append(PiecewiseAffineMap(pieces=pieces))
        bounds = Interval(
            scalar_from_json(v["bounds"][0]), scalar_from_json(v["bounds"][1])
        )
        return SwitchedSystem(
            maps=tuple(maps),
            language=language_from_json(v["language"]),
            bounds=bounds,
            clamp=bool(v.get("clamp", False)),
            numerics=numerics_from_json(v.get("numerics")),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ScenarioError(f"bad system description: {exc}") from exc


def budget_to_json(budget: SearchBudget) -> dict:
    return {
        "max_horizon": budget.max_horizon,
        "max_words": budget.max_words,
        "max_seconds": budget.max_seconds,
        "required": budget.required,
    }


def budget_from_json(v: Any) -> SearchBudget:
    if v is None:
        return SearchBudget()
    if not isinstance(v, dict):
        raise ScenarioError("'budget' must be an object")
    try:
        given = {f.name: v[f.name] for f in fields(SearchBudget) if f.name in v}
        return SearchBudget(**given)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad budget: {exc}") from exc


def _witness_to_json(wit: HitWitness, pair: int | None = None) -> dict:
    out: dict[str, Any] = {"word": word_to_json(wit.word), "kind": wit.kind}
    if pair is not None:
        out["pair"] = pair
    if wit.kind == "set":
        assert wit.source is not None
        comp = wit.source.components[0]
        out["source"] = _pair_to_json(comp.lo, comp.hi)
    else:
        out["point"] = scalar_to_json(wit.point)
    return out


def _witness_from_json(v: Any) -> tuple[int, HitWitness]:
    try:
        pair = _int_from_json("a witness pair", v["pair"])
        word = word_from_json(v["word"])
        kind = v.get("kind", "set")
        if kind == "set":
            lo, hi = v["source"]
            wit = HitWitness(
                word,
                "set",
                source=IntervalSet.of(scalar_from_json(lo), scalar_from_json(hi)),
            )
        else:
            wit = HitWitness(word, "point", point=scalar_from_json(v["point"]))
        return pair, wit
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad witness: {exc}") from exc


def hitting_report_to_json(report: HittingReport) -> dict:
    return {
        "horizon": report.horizon,
        "type1": list(report.type1),
        "type2": [_witness_to_json(w) for w in report.witnesses],
        "exhausted": report.exhausted,
    }


def wm_certificate_to_json(cert: WMCertificate) -> dict:
    if cert.kind == "wm1":
        S: list[Any] = list(cert.lengths)
    else:
        S = [word_to_json(w) for w in cert.words]
    return {
        "kind": cert.kind,
        "order": cert.order,
        "K": interval_set_to_json(cert.K),
        "Q": interval_set_to_json(cert.Q),
        "pairs": [
            [interval_set_to_json(U), interval_set_to_json(V)] for U, V in cert.pairs
        ],
        "S": S,
        "witnesses": [_witness_to_json(w, pair=i) for i, w in cert.witnesses],
        "exhausted": cert.complete,
    }


def wm_certificate_from_json(v: Any) -> WMCertificate:
    if not isinstance(v, dict):
        raise ScenarioError("a certificate must be an object")
    try:
        kind = v["kind"]
        if kind not in ("wm1", "wm2"):
            raise ScenarioError(f"unknown certificate kind {kind!r}")
        pairs = tuple(
            (interval_set_from_json(U), interval_set_from_json(V))
            for U, V in v["pairs"]
        )
        if kind == "wm1":
            lengths = tuple(_int_from_json("a length in S", n) for n in v["S"])
            words: tuple[Word, ...] = ()
        else:
            words = tuple(word_from_json(w) for w in v["S"])
            lengths = tuple(len(w) for w in words)
        witnesses = tuple(_witness_from_json(w) for w in v["witnesses"])
        return WMCertificate(
            kind=kind,
            order=_int_from_json("the order", v["order"]),
            K=interval_set_from_json(v["K"]),
            Q=interval_set_from_json(v["Q"]),
            pairs=pairs,
            lengths=lengths,
            words=words,
            witnesses=witnesses,
            complete=bool(v.get("exhausted", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad certificate: {exc}") from exc


def spread_certificate_to_json(cert: SpreadCertificate) -> dict:
    return {
        "eps": scalar_to_json(cert.eps),
        "delta": scalar_to_json(cert.delta),
        "centers": [scalar_to_json(z) for z in cert.centers],
        "net": {
            "radius": scalar_to_json(cert.net.radius),
            "centers": [scalar_to_json(y) for y in cert.net.centers],
        },
        "rows": [
            {"alpha": list(row.alpha), "word": word_to_json(row.word)}
            for row in cert.rows
        ],
    }


def spread_certificate_from_json(v: Any) -> SpreadCertificate:
    if not isinstance(v, dict):
        raise ScenarioError("a certificate must be an object")
    try:
        net = QNet(
            radius=scalar_from_json(v["net"]["radius"]),
            centers=tuple(scalar_from_json(y) for y in v["net"]["centers"]),
        )
        rows = tuple(
            SpreadRow(
                alpha=tuple(_int_from_json("an alpha index", a) for a in r["alpha"]),
                word=word_from_json(r["word"]),
            )
            for r in v["rows"]
        )
        return SpreadCertificate(
            eps=scalar_from_json(v["eps"]),
            delta=scalar_from_json(v["delta"]),
            centers=tuple(scalar_from_json(z) for z in v["centers"]),
            net=net,
            rows=rows,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad certificate: {exc}") from exc


def xiong_witness_to_json(wit: XiongWitness) -> dict:
    return {
        "kind": wit.kind,
        "points": [scalar_to_json(p) for p in wit.points],
        "targets": [scalar_to_json(t) for t in wit.targets],
        "stages": [
            {
                "tolerance": scalar_to_json(s.tolerance),
                "length": s.length,
                "words": [word_to_json(w) for w in s.words],
                "errors": [scalar_to_json(e) for e in s.errors],
            }
            for s in wit.stages
        ],
        "complete": wit.complete,
    }


def xiong_witness_from_json(v: Any) -> XiongWitness:
    if not isinstance(v, dict):
        raise ScenarioError("a witness must be an object")
    try:
        stages = tuple(
            XiongStage(
                tolerance=scalar_from_json(s["tolerance"]),
                length=_int_from_json("a stage length", s["length"]),
                words=tuple(word_from_json(w) for w in s["words"]),
                errors=tuple(scalar_from_json(e) for e in s["errors"]),
            )
            for s in v["stages"]
        )
        return XiongWitness(
            kind=v["kind"],
            points=tuple(scalar_from_json(p) for p in v["points"]),
            targets=tuple(scalar_from_json(t) for t in v["targets"]),
            stages=stages,
            complete=bool(v["complete"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad witness: {exc}") from exc


def envelope_to_csv(env: DistanceEnvelope) -> str:
    """Rows length,d_min,d_max,word_min,word_max; word pairs joined by '|'."""
    lines = ["length,d_min,d_max,word_min,word_max"]
    for row in env.rows:
        wmin = "|".join(w.as_string() for w in row.min_words)
        wmax = "|".join(w.as_string() for w in row.max_words)
        lines.append(
            f"{row.length},{scalar_to_json(row.d_min)},{scalar_to_json(row.d_max)},"
            f"{wmin},{wmax}"
        )
    return "\n".join(lines) + "\n"
