"""In-memory tracing of the bnslopes layers, installed from outside.

The package has no tracing of its own, so :class:`Tracer` wraps public
functions of each layer and rebinds every module-level name (and every
module-level dict value, such as the ``_PUSHES`` and ``_TASKS`` dispatch
tables) that refers to the original function.  ``from .x import f``
copies ``f`` into the importing module, so patching only the defining
module would miss most call sites.

Each wrapped call pushes a frame on a stack.  On return its self time is
its duration minus the time of wrapped calls nested in it, and its whole
duration, tracer bookkeeping included, is charged to the caller as child
time, so tracing cost lands in ``trace.overhead_s`` and not in any
layer's self time.  Calls of ordinary functions become spans (name,
start, end, parent span, item id); hot callees such as ``pieri_ek`` only
update counters, which keeps the trace small.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Set, Tuple

# (module, function, hot).  Hot functions are counted, not recorded as spans.
TRACED = [
    ("cli", "main", False),
    ("divisors", "slope_report", False),
    ("tautpush", "push_combo", False),
    ("tautpush", "push_a", False),
    ("tautpush", "push_b", False),
    ("tautpush", "push_c", False),
    ("tautpush", "castelnuovo_N", True),
    ("numeric", "factorial", True),
    ("schubert", "pieri_ek", True),
    ("schubert", "brute_zeta_integral", True),
    ("schubert", "zeta_power_integral", True),
    ("families", "suite_reports", False),
    ("families", "reconstruct", False),
    ("families", "pullbacks", False),
    ("families", "matrix_determinant", False),
    ("families", "identity_castelnuovo", False),
]

LAYERS = ("cli", "divisors", "tautpush", "numeric", "schubert", "families")


def _coeff_bits(stats, distinct, args, result) -> None:
    stats["tautpush.coeff_bits"] += sum(
        x.numerator.bit_length() + x.denominator.bit_length() for x in result.coefficients()
    )


def _castelnuovo(stats, distinct, args, result) -> None:
    distinct["tautpush.castelnuovo_N"].add(args)


def _pieri(stats, distinct, args, result) -> None:
    c, k = args
    stats["schubert.pieri_ek.terms_in"] += len(c.terms)
    stats["schubert.pieri_ek.terms_out"] += len(result.terms)
    distinct["schubert.pieri_ek"].add(hash((c.spec, c.codim, k, frozenset(c.terms.items()))))


def _reconstruct(stats, distinct, args, result) -> None:
    stats["families.reconstruct.unknowns"] += args[0] + 3


def _suite(stats, distinct, args, result) -> None:
    stats["families.checks"] += len(result)
    stats["families.checks_failed"] += sum(not r.passed for r in result)


OBSERVERS: Dict[str, Callable] = {
    "tautpush.push_a": _coeff_bits,
    "tautpush.push_b": _coeff_bits,
    "tautpush.push_c": _coeff_bits,
    "tautpush.push_combo": _coeff_bits,
    "tautpush.castelnuovo_N": _castelnuovo,
    "schubert.pieri_ek": _pieri,
    "families.reconstruct": _reconstruct,
    "families.suite_reports": _suite,
}


class Tracer:
    """Wraps the functions in :data:`TRACED` while installed.

    ``stats`` holds plain counters (``<name>.calls``, ``<name>.self_s``
    and the observers' extras) and ``distinct`` the distinct inputs seen
    by the functions whose reuse is measured; :meth:`reset` clears both
    between passes.  ``spans`` accumulates over the whole run.
    """

    def __init__(self) -> None:
        self.item: Optional[str] = None  # "<traced pass>:<index in pass>"
        self.stats: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, Set] = defaultdict(set)
        # (id, name, start, end, parent id, item id, self seconds)
        self.spans: List[Tuple] = []
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[dict, object, object]] = []

    def reset(self) -> None:
        self.stats = defaultdict(float)
        self.distinct = defaultdict(set)

    def _wrap(self, name: str, fn: Callable, hot: bool) -> Callable:
        perf = time.perf_counter
        observe = OBSERVERS.get(name)
        calls_key, self_key = name + ".calls", name + ".self_s"
        tracer = self

        def traced(*args, **kwargs):
            entry = perf()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            span_id = parent_id if hot else next(tracer._ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
            own = end - start - frame[0]
            stats = tracer.stats
            stats[calls_key] += 1
            stats[self_key] += own
            if observe is not None:
                observe(stats, tracer.distinct, args, result)
            if not hot:
                tracer.spans.append((span_id, name, start, end, parent_id, tracer.item, own))
            if parent is not None:
                parent[0] += perf() - entry
            return result

        return traced

    def install(self, package) -> None:
        modules = [getattr(package, layer) for layer in LAYERS] + [package]
        for layer, fname, hot in TRACED:
            original = getattr(getattr(package, layer), fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, hot)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((vars(mod), key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            table, key, original = self._patches.pop()
            table[key] = original

    def pass_metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset."""
        s = self.stats
        out: Dict[str, float] = {}
        for layer, fname, _ in TRACED:
            name = f"{layer}.{fname}"
            out[name + ".calls"] = s[name + ".calls"]
            out[name + ".self_s"] = s[name + ".self_s"]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                s[f"{layer}.{fname}.self_s"] for lay, fname, _ in TRACED if lay == layer
            )
        for key in (
            "tautpush.coeff_bits",
            "schubert.pieri_ek.terms_in",
            "schubert.pieri_ek.terms_out",
            "families.reconstruct.unknowns",
            "families.checks",
            "families.checks_failed",
        ):
            out[key] = s[key]
        for name in ("tautpush.castelnuovo_N", "schubert.pieri_ek"):
            calls = s[name + ".calls"]
            # No calls means no reuse to measure; 0 marks the idle layer.
            out[name + ".distinct_ratio"] = len(self.distinct[name]) / calls if calls else 0.0
        return out

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "item", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
