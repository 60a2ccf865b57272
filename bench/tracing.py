"""Per-layer spans, recorded from outside fanocalc.

``Tracer.install`` replaces each function in ``LAYERS`` with a wrapper that
counts calls and adds up self time: the wrapper's span minus the spans of
the wrapped functions it called.  A function is replaced wherever a
fanocalc module binds it (``from .chern import sym_power`` makes a second
binding), and the two methods in ``METHODS`` are replaced on their class.
Spans are aggregated in memory as they close; the caller of each span is
kept as a count per (caller, callee) pair.
"""

from __future__ import annotations

import importlib
import sys
from functools import wraps
from time import perf_counter

LAYERS = {
    "schubert": ("pieri", "multiply", "giambelli", "integrate"),
    "chern": ("sym_power", "ext_power", "whitney_sum", "twist_line", "dual", "top_chern"),
    "rings": ("mul",),
    "wps": ("is_generated", "cotangent_twist_lmin", "singular_strata", "normalize"),
    "degree_bound": (
        "E_value",
        "max_multiplier",
        "feasible_multipliers",
        "feasibility_witnesses",
        "ramification_feasibility",
        "quadric_degree_bound",
    ),
    "fano_db": ("load_database", "validate"),
    "riemann_roch": ("chi_surface", "chi_threefold", "derive_fano_invariants"),
    "reports": ("lines_on_cubic_threefold",),
    "cli": ("build_parser", "run", "to_json"),
}
METHODS = {
    ("rings", "mul"): ("PolyElement", "__mul__"),
    ("cli", "to_json"): ("CommandResult", "to_json"),
}
# Modules whose self import time the traced runs report, as printed by -X importtime.
IMPORT_MODULES = ("fanocalc",) + tuple(f"fanocalc.{m}" for m in LAYERS)


def span_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.callers: dict[tuple[str, str], int] = {}
        # One entry per open span: [name, time spent in wrapped children].
        self._open = [["", 0.0]]
        self._replaced: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        calls, self_s, callers, open_spans = self.calls, self.self_s, self.callers, self._open

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_spans[-1]
            frame = [name, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                open_spans.pop()
                parent[1] += span
                calls[name] += 1
                self_s[name] += span - frame[1]
                edge = (parent[0], name)
                callers[edge] = callers.get(edge, 0) + 1

        return wrapper

    def install(self) -> None:
        """Import every traced module and replace the traced functions."""
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"fanocalc.{module}")
            for fname in names:
                name = f"{module}.{fname}"
                if (module, fname) in METHODS:
                    cls_name, attr = METHODS[module, fname]
                    cls = getattr(mod, cls_name)
                    self._replace(cls, attr, self.wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(mod, fname)
                wrapper = self.wrap(name, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("fanocalc"):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._replace(loaded, attr, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._replaced.append((owner, attr, current))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every replaced function back."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        callers = {f"{parent or '-'}>{name}": n for (parent, name), n in self.callers.items()}
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "callers": callers}


def merge(total: dict, part: dict) -> dict:
    """Add the counts and times of one snapshot into another."""
    for key in ("calls", "self_s", "callers"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    return total


def parse_importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """``{module: (self_us, cumulative_us)}`` from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        out[fields[2].strip()] = (int(fields[0]), int(fields[1]))
    return out
