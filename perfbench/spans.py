"""Spans around the library's layer functions, installed from outside.

``Tracer.install`` replaces each traced function with a timing wrapper on
every ``whlaurent`` module that holds it: where it is defined and where it
was imported by name (``cli.factorize``, ``factorization.det_block``).  A
function that no longer exists is reported as absent, so the traced run
survives refactors that delete or rename a layer.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "symbol"

# (defining module, attribute path); the span is named "<module>.<path>"
TARGETS: List[Tuple[str, str]] = [
    ("cli", "run_job"),
    ("serialize", "result_to_json"),
    ("series", "invert_from_factors"),
    ("series", "InvertiblePair.make"),
    ("series", "div_unit"),
    ("factorization", "factorize"),
    ("factorization", "pi_plus"),
    ("factorization", "pi_minus"),
    ("factorization", "pi_tilde_derived"),
    ("factorization", "pi_tilde_direct"),
    ("factorization", "holomorphic_det_matrix"),
    ("factorization", "antiholomorphic_det_matrix"),
    ("determinants", "det_tilde_column_reduced"),
    ("determinants", "det_block"),
    ("determinants", "det_truncated"),
]

DET_BLOCK = "determinants.det_block"
DET_TRUNCATED = "determinants.det_truncated"
BRACKETS = ("factorization.holomorphic_det_matrix", "factorization.antiholomorphic_det_matrix")

# Times and counts are per symbol of the traced pass.
PER_SYMBOL_S = "s/symbol"
PER_SYMBOL = "count/symbol"
LAYER_UNITS: Dict[str, str] = {
    "series.invert_s": PER_SYMBOL_S,
    "series.div_unit_s": PER_SYMBOL_S,
    "factorization.bracket_s": PER_SYMBOL_S,
    "factorization.bracket_entries": PER_SYMBOL,
    "factorization.block_fill_ratio": "ratio",
    "determinants.det_block_s.q": PER_SYMBOL_S,
    "determinants.det_block_s.q2": PER_SYMBOL_S,
    "determinants.det_block_s.c": PER_SYMBOL_S,
    "determinants.det_block_calls.q": PER_SYMBOL,
    "determinants.det_block_calls.q2": PER_SYMBOL,
    "determinants.det_block_calls.c": PER_SYMBOL,
    "determinants.block_n_mean": "rows",
    "determinants.block_n_max": "rows",
    "determinants.entry_span_mean": "degree",
    "determinants.colred_self_s": PER_SYMBOL_S,
    "determinants.det_truncated_s": PER_SYMBOL_S,
    "determinants.det_truncated_calls": PER_SYMBOL,
    "factorization.pi_plus_s": PER_SYMBOL_S,
    "factorization.pi_minus_s": PER_SYMBOL_S,
    "factorization.pi_tilde_derived_s": PER_SYMBOL_S,
    "factorization.pi_tilde_direct_s": PER_SYMBOL_S,
    "factorization.factorize_self_s": PER_SYMBOL_S,
    "cli.run_job_self_s": PER_SYMBOL_S,
    "serialize.result_to_json_s": PER_SYMBOL_S,
    "check.s": PER_SYMBOL_S,
    "check.max_oracle_diff": "abs",
    "check.max_cross_diff": "abs",
    "trace.overhead_frac": "ratio",
    "trace.self_cover_frac": "ratio",
}


def _ring_class(ring: Any) -> str:
    base = getattr(ring, "base", None) or ring
    name = getattr(base, "name", "")
    if name == "Q":
        return "q"
    if name.startswith("Q^"):
        return "q2"
    if name == "C":
        return "c"
    return "other"


def _block_stats(args: tuple, out: Any) -> Dict[str, Any]:
    ring, rows = args[0], args[1]
    lo = hi = 0
    for row in rows:
        for e in row:
            coeffs = getattr(e, "coeffs", None)
            if coeffs:
                lo = min(lo, min(coeffs))
                hi = max(hi, max(coeffs))
    return {"ring": _ring_class(ring), "n": len(rows), "span": hi - lo}


def _entry_count(args: tuple, out: Any) -> Dict[str, Any]:
    return {"entries": len(out.entries)}


STATS: Dict[str, Callable[[tuple, Any], Dict[str, Any]]] = {
    DET_BLOCK: _block_stats,
    BRACKETS[0]: _entry_count,
    BRACKETS[1]: _entry_count,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_time", "stats")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_time = 0.0
        self.stats: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def inside(self, name: str) -> bool:
        p = self.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


class Tracer:
    """Records nested spans in memory; one process, one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.stats_errors = 0
        self._stack: List[Span] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stats = STATS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                if span.parent is not None:
                    span.parent.child_time += span.duration
            if stats is not None:
                try:
                    span.stats = stats(args, out)
                except Exception:  # a changed signature must not stop the run
                    self.stats_errors += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_root(self, fn: Callable) -> Callable:
        """``fn`` under the per-symbol root span."""
        return self._wrap(ROOT, fn)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if (k == "whlaurent" or k.startswith("whlaurent.")) and m is not None]
        for mod_name, path in TARGETS:
            span_name = "%s.%s" % (mod_name, path)
            try:
                owner: Any = importlib.import_module("whlaurent." + mod_name)
            except ImportError:
                self.absent.append(span_name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, fn)
            if outer:  # a static method on a class
                self._patch(owner, attr, staticmethod(wrapper))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner: Any, key: str, new: Any) -> None:
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()


def layer_metrics(tracer: Tracer, symbols: int,
                  traced_wall: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer numbers, per symbol, and a self-time table for the report."""
    incl: Dict[str, float] = defaultdict(float)
    self_t: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    block_s: Dict[str, float] = defaultdict(float)
    block_calls: Dict[str, int] = defaultdict(int)
    ns: List[int] = []
    spans_: List[int] = []
    entries = 0
    fill = 0
    for s in tracer.spans:
        self_t[s.name] += s.self_time
        calls[s.name] += 1
        if s.parent is None or s.parent.name != s.name:
            incl[s.name] += s.duration
        if s.name in BRACKETS and s.stats:
            entries += s.stats["entries"]
        if s.name == DET_BLOCK and s.stats and (s.parent is None or s.parent.name != DET_BLOCK):
            block_s[s.stats["ring"]] += s.duration
            block_calls[s.stats["ring"]] += 1
            ns.append(s.stats["n"])
            spans_.append(s.stats["span"])
            if not s.inside(DET_TRUNCATED):
                fill += s.stats["n"] ** 2
    table = {name: {"self_s": round(self_t[name], 6), "calls": calls[name]}
             for name in sorted(self_t)}
    per = 1.0 / max(symbols, 1)
    m: Dict[str, float] = {
        "series.invert_s": (self_t["series.invert_from_factors"]
                            + self_t["series.InvertiblePair.make"]) * per,
        "series.div_unit_s": incl["series.div_unit"] * per,
        "factorization.bracket_s": sum(incl[b] for b in BRACKETS) * per,
        "factorization.bracket_entries": entries * per,
        "factorization.block_fill_ratio": fill / entries if entries else 0.0,
        "determinants.block_n_mean": statistics.fmean(ns) if ns else 0.0,
        "determinants.block_n_max": float(max(ns, default=0)),
        "determinants.entry_span_mean": statistics.fmean(spans_) if spans_ else 0.0,
        "determinants.colred_self_s": self_t["determinants.det_tilde_column_reduced"] * per,
        "determinants.det_truncated_s": incl[DET_TRUNCATED] * per,
        "determinants.det_truncated_calls": calls[DET_TRUNCATED] * per,
        "factorization.pi_plus_s": incl["factorization.pi_plus"] * per,
        "factorization.pi_minus_s": incl["factorization.pi_minus"] * per,
        "factorization.pi_tilde_derived_s": incl["factorization.pi_tilde_derived"] * per,
        "factorization.pi_tilde_direct_s": incl["factorization.pi_tilde_direct"] * per,
        "factorization.factorize_self_s": self_t["factorization.factorize"] * per,
        "cli.run_job_self_s": self_t["cli.run_job"] * per,
        "serialize.result_to_json_s": incl["serialize.result_to_json"] * per,
    }
    for ring in ("q", "q2", "c"):
        m["determinants.det_block_s." + ring] = block_s[ring] * per
        m["determinants.det_block_calls." + ring] = block_calls[ring] * per
    layer_self = sum(t for name, t in self_t.items() if name != ROOT)
    m["trace.self_cover_frac"] = layer_self / traced_wall if traced_wall else 0.0
    return m, {"spans": table, "absent": tracer.absent, "stats_errors": tracer.stats_errors,
               "det_block_other_calls": block_calls["other"]}
