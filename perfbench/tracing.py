"""Span tracing around the public functions of each ``recipesearch`` module.

The tracer replaces a function by a wrapper everywhere the program looks the
name up: every ``recipesearch`` module global bound to the original (so
``controller.execute_recipe`` and ``operators.apply_semdedup`` as a global of
``apply_step`` are both covered), or the attribute of the class for a method.
Spans (name, start, end, parent) stay in memory until the run writes them
out. Nothing here runs during an untraced measurement.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# layer name -> (module, attribute); "Class.method" names a method.
LAYERS = {
    "pool.load_pool": ("recipesearch.pool", "load_pool"),
    "pool.load_signals": ("recipesearch.pool", "load_signals"),
    "operators.apply_semdedup": ("recipesearch.operators", "apply_semdedup"),
    "operators.minibatch_kmeans": ("recipesearch.operators", "minibatch_kmeans"),
    "operators.semdedup_greedy_pass": ("recipesearch.operators", "semdedup_greedy_pass"),
    "operators.apply_top_fraction": ("recipesearch.operators", "apply_top_fraction"),
    "operators.apply_mona_union": ("recipesearch.operators", "apply_mona_union"),
    "operators.apply_mix": ("recipesearch.operators", "apply_mix"),
    "operators.apply_random_k": ("recipesearch.operators", "apply_random_k"),
    "operators.content_hash": ("recipesearch.operators", "Subset.content_hash"),
    "recipe.execute_recipe": ("recipesearch.recipe", "execute_recipe"),
    "recipe.propose_local_edits": ("recipesearch.recipe", "propose_local_edits"),
    "recipe.sample_random_recipe": ("recipesearch.recipe", "sample_random_recipe"),
    "state.compute_state": ("recipesearch.state", "compute_state"),
    "surrogate.fit_gp": ("recipesearch.surrogate", "fit_gp"),
    "surrogate.predict_gp": ("recipesearch.surrogate", "predict_gp"),
    "controller.run_search": ("recipesearch.controller", "run_search"),
    "controller.fallback_summarize": ("recipesearch.controller", "fallback_summarize"),
    "controller.fallback_rank": ("recipesearch.controller", "fallback_rank"),
    "controller.fallback_reseed": ("recipesearch.controller", "fallback_reseed"),
    "oracle.write_manifest": ("recipesearch.oracle", "write_manifest"),
    "oracle.command": ("recipesearch.oracle", "CommandOracle.evaluate"),
    "oracle.cache_lookup": ("recipesearch.oracle", "EvalCache.lookup"),
    "cli.ledger_write": ("recipesearch.cli", "RunLedger.write"),
    "cli.cmd_report": ("recipesearch.cli", "cmd_report"),
}

# Operator layers whose arguments and results a traced run can keep for the
# output checks (SemDedup's check needs the labels of its k-means call).
OPERATOR_LAYERS = tuple(
    name for name in LAYERS
    if name.startswith("operators.apply_") or name == "operators.minibatch_kmeans"
)

# Layers whose calls leave a note: (positional args, result) -> value.
NOTES = {
    "oracle.cache_lookup": lambda args, result: result is not None,  # a cache hit
    "oracle.write_manifest": lambda args, result: args[0],           # manifest path
}


class Tracer:
    """Records nested spans of the wrapped functions of one process."""

    def __init__(self, keep_operator_io: bool = False):
        self.keep_operator_io = keep_operator_io
        self.spans: list[list] = []      # [name, start, end, parent, error]
        self.notes: list[tuple[int, object]] = []  # (span index, value)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, (module_name, attr) in LAYERS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(layer, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("recipesearch"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, layer: str, fn):
        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter
        keep_io = self.keep_operator_io and layer in OPERATOR_LAYERS
        note = NOTES.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if keep_io:
                notes.append((index, (args, kwargs, result)))
            elif note is not None:
                notes.append((index, note(args, result)))
            return result

        return traced

    # -- results -----------------------------------------------------------

    def noted(self, layer: str) -> list:
        """The notes of one layer's calls; for kept operator calls, (args, kwargs, result)."""
        return [value for index, value in self.notes if self.spans[index][0] == layer]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer self time, call counts and the derived counters."""
        self_time = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        errors = {layer: 0 for layer in LAYERS}
        for name, start, end, parent, error in self.spans:
            duration = end - start
            self_time[name] += duration
            calls[name] += 1
            errors[name] += error == "ExecutionError"
            if parent >= 0:
                self_time[self.spans[parent][0]] -= duration
        cache_hits = sum(self.noted("oracle.cache_lookup"))
        manifest_bytes = sum(
            Path(path).stat().st_size for path in self.noted("oracle.write_manifest")
        )
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            if layer in ("oracle.cache_lookup", "recipe.sample_random_recipe"):
                continue
            key = "controller.run_search.self" if layer == "controller.run_search" else layer
            out[f"{key}.s"] = (self_time[layer], "s")
        for layer in ("operators.apply_semdedup", "operators.apply_top_fraction",
                      "operators.content_hash", "recipe.execute_recipe",
                      "state.compute_state", "recipe.sample_random_recipe"):
            out[f"{layer}.calls"] = (calls[layer], "count")
        out["recipe.execute_recipe.aborts"] = (errors["recipe.execute_recipe"], "count")
        out["oracle.evals"] = (calls["oracle.cache_lookup"], "count")
        out["oracle.cache_hits"] = (cache_hits, "count")
        out["oracle.manifest_mb"] = (manifest_bytes / 1e6, "MB")
        out["cli.ledger_events"] = (calls["cli.ledger_write"], "count")
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, error in self.spans:
                fh.write(json.dumps([name, start, end, parent, error]) + "\n")
