"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each named function or method of buchstab
with a wrapper that records (name, start, end, parent) in memory and
bumps counters; ``Tracer.uninstall`` puts the originals back.  A target
that does not exist in the installed package is skipped and listed in
``Tracer.skipped``, so a later version that folds a function away still
traces the rest.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans, so every
traced instant is charged to exactly one layer.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name).  A span name's first component
# is the layer (the module of src/buchstab it belongs to).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("buchstab.counts", "build_table", "counts.build_table"),
    ("buchstab.counts", "distribution", "counts.query"),
    ("buchstab.counts", "tail_probability", "counts.query"),
    ("buchstab.counts", "moment", "counts.query"),
    ("buchstab.counts", "variance", "counts.query"),
    ("buchstab.counts", "variance_series", "counts.query"),
    ("buchstab.omega", "build_omega_ledger", "omega.build_ledger"),
    ("buchstab.omega", "moment_constant", "omega.moment_constant"),
    ("buchstab.omega", "integrate_block", "omega.integrate_block"),
    ("buchstab.omega", "eval_omega", "omega.eval"),
    ("buchstab.omega_k", "OmegaKLedger.ensure", "omega_k.ensure"),
    ("buchstab.omega_k", "advance_omega_k", "omega_k.advance"),
    ("buchstab.omega_k", "alpha_vector", "omega_k.advance"),
    ("buchstab.omega_k", "eval_omega_k", "omega_k.eval"),
    ("buchstab.omega_k", "oracle_quadrature", "omega_k.oracle"),
    ("buchstab.store", "save_artifact", "store.save"),
    ("buchstab.store", "load_artifact", "store.load"),
    ("buchstab.store", "artifact_from_table", "store.encode"),
    ("buchstab.store", "artifact_from_omega_ledger", "store.encode"),
    ("buchstab.store", "artifact_from_omega_k_ledger", "store.encode"),
    ("buchstab.store", "table_from_artifact", "store.decode"),
    ("buchstab.store", "omega_ledger_from_artifact", "store.decode"),
    ("buchstab.store", "omega_k_ledger_from_artifact", "store.decode"),
    ("buchstab.store", "ArtifactCache.lookup", "store.cache_lookup"),
    ("buchstab.store", "ArtifactCache.store", "store.cache_store"),
    ("buchstab.cli", "main", "cli.main"),
)

LAYERS = ("counts", "omega", "omega_k", "store", "cli")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counters: Dict[str, int] = {}
        self.skipped: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            before = tracer._observe_before(name, args, kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            tracer._observe_after(name, args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_before(self, name, args, kwargs):
        if name == "omega_k.ensure" and args:
            return getattr(args[0], "built_through", None)
        return None

    def _observe_after(self, name, args, kwargs, result, before) -> None:
        if name == "counts.build_table":
            N = kwargs.get("N", args[1] if len(args) > 1 else getattr(result, "N", 0))
            self.count("counts.cells", N * (N + 1) // 2)
        elif name == "omega.integrate_block":
            self.count("omega.integrate_block.calls")
        elif name == "omega_k.ensure" and before is not None:
            self.count("omega_k.blocks_built", args[0].built_through - before)
        elif name == "store.save":
            self.count("store.bytes_written", _file_size(args[1] if len(args) > 1 else kwargs.get("path")))
        elif name == "store.load":
            self.count("store.bytes_read", _file_size(args[0] if args else kwargs.get("path")))
        elif name == "store.cache_lookup":
            self.count("store.cache_lookups")
            if result is not None:
                self.count("store.cache_hits")

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, in each buchstab module that binds it."""
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.skipped.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, span)
            if owner_name:
                self._patch(owner, leaf, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "buchstab" and getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reducing ----------------------------------------------------------

    def inclusive_seconds(self) -> Dict[str, float]:
        """Total time per span name, not counting a span nested in one of
        the same name twice."""
        totals: Dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            p = parent
            nested = False
            while p >= 0:
                if self.spans[p][0] == name:
                    nested = True
                    break
                p = self.spans[p][3]
            if not nested:
                totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def layer_self_seconds(self) -> Dict[str, float]:
        self_time = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for (name, _, _, _), t in zip(self.spans, self_time):
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + t
        return totals

    def write(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            if extra:
                fh.write(json.dumps({"run": extra}, sort_keys=True) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
