"""Per-layer tracing from the benchmark's side.

`Tracer` wraps the public functions of each g2nil module listed in `TARGETS`
and counts calls and self time (a call's wall time minus the time of the
wrapped calls it made). The wrappers are installed at every binding site:
the defining module or class and every g2nil module that imported the name
with ``from ... import``. Nothing under ``src/`` is edited; `uninstall`
restores the original objects.
"""
from __future__ import annotations

import functools
import sys
import time

PACKAGE = "g2nil"
TARGETS = {
    "exterior": ("KForm.wedge", "KForm.interior", "hodge", "form_inner", "top_wedge_coeff"),
    "liealg": ("LieAlgebra.ce_diff", "LieAlgebra.bracket", "bracket_float",
               "LieAlgebra.derived_basis", "LieAlgebra.center_basis", "Metric.inner",
               "jz_matrix", "ricci", "is_nilsoliton"),
    "g2su3": ("phi_from_coframe", "induced_metric", "torsion_class"),
    "structure": ("decompose", "case1_exists", "case2_exists", "case3_exists", "sd_gram",
                  "symmetrize_M"),
    "construct": ("construct_case1", "construct_case2", "construct_case3", "construct"),
    "catalog": ("run_regression", "check_fixture"),
    "_linalg": ("mat_det", "mat_inv", "nullspace", "gram_schmidt_sq"),
}


def metric_key(module: str, qualname: str) -> str:
    # metric names must start with a letter, so `_linalg` reports as `linalg`
    return f"{module.lstrip('_')}.{qualname}"


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for module, quals in TARGETS.items():
        for q in quals:
            key = metric_key(module, q)
            out += [(f"{key}.calls", "calls/op"), (f"{key}.self_ms", "ms/op")]
    return out


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack = [0.0]
        self._originals: dict[int, tuple[str, object]] = {}
        self._patched: list[tuple[object, str, object]] = []
        for module, quals in TARGETS.items():
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            for q in quals:
                key = metric_key(module, q)
                self.calls[key] = 0
                self.self_s[key] = 0.0
                obj = mod
                for part in q.split("."):
                    obj = getattr(obj, part, None)
                if callable(obj):
                    self._originals[id(obj)] = (key, obj)
                else:
                    self.missing.append(key)

    def _wrap(self, key: str, fn):
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[key] += 1
                self_s[key] += dt - child
        return wrapper

    def _namespaces(self):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            yield mod, vars(mod)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value, vars(value)

    def install(self) -> None:
        if self._patched:
            return
        wrappers = {oid: self._wrap(key, fn) for oid, (key, fn) in self._originals.items()}
        for owner, ns in self._namespaces():
            for attr, value in list(ns.items()):
                w = wrappers.get(id(value))
                if w is not None and self._originals[id(value)][1] is value:
                    setattr(owner, attr, w)
                    self._patched.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
