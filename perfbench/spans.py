"""Span tracer that wraps vttcap's public functions from outside the package.

Every boundary is a public function or method.  Installing the tracer
replaces it in every ``vttcap`` module namespace that holds it, because
``training``, ``scst`` and ``cli`` bind names such as ``greedy_decode`` with
``from .model import ...``.  Spans (name, start, end, parent) are kept in
flat arrays in memory and written out once, when the run ends.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Tensor primitives: each call builds one graph node (or one plain result
# under no_grad), so their call counts are node counts.
TENSOR_OPS = ("matmul", "add", "mul", "scale", "relu", "sigmoid", "softmax_lastdim",
              "layer_norm", "concat", "slice_rows", "slice_cols", "gather_rows",
              "transpose", "cross_entropy")

# (span name, module, attribute path).  The span name is also the metric prefix.
BOUNDARIES = (
    *((f"tensor.{op}", "vttcap.tensor", op) for op in TENSOR_OPS),
    ("tensor.backward", "vttcap.tensor", "Tensor.backward"),
    ("model.encode", "vttcap.model", "TransformerModel.encode"),
    ("model.decode_logits", "vttcap.model", "TransformerModel.decode_logits"),
    ("model.forward_teacher_forced", "vttcap.model",
     "TransformerModel.forward_teacher_forced"),
    ("model.greedy_decode", "vttcap.model", "greedy_decode"),
    ("model.sample_decode", "vttcap.model", "sample_decode"),
    ("model.save_checkpoint", "vttcap.model", "save_checkpoint"),
    ("model.load_checkpoint", "vttcap.model", "load_checkpoint"),
    ("training.batch_xe_loss", "vttcap.training", "batch_xe_loss"),
    ("training.clip_gradients", "vttcap.training", "clip_gradients"),
    ("training.adam_update", "vttcap.training", "adam_update"),
    ("training.evaluate", "vttcap.training", "evaluate"),
    ("training.validation_loss", "vttcap.training", "validation_loss"),
    ("scst.scst_batch_step", "vttcap.scst", "scst_batch_step"),
    ("scst.scst_surrogate_loss", "vttcap.scst", "scst_surrogate_loss"),
    ("scst.validation_mixed_reward", "vttcap.scst", "validation_mixed_reward"),
    ("scst.mixed_reward", "vttcap.scst", "mixed_reward"),
    ("metrics.cider_sentence", "vttcap.metrics", "cider_sentence"),
    ("metrics.bleu4", "vttcap.metrics", "bleu4"),
    ("metrics.compute_idf", "vttcap.metrics", "compute_idf"),
    ("metrics.score_corpus", "vttcap.metrics", "score_corpus"),
    ("tokenizer.encode", "vttcap.tokenizer", "encode"),
    ("tokenizer.decode", "vttcap.tokenizer", "decode"),
    ("tokenizer.normalize_words", "vttcap.tokenizer", "normalize_words"),
    ("features.read_feature_file", "vttcap.features", "read_feature_file"),
    ("features.load_manifest", "vttcap.features", "load_manifest"),
    ("features.synth_dataset", "vttcap.features", "synth_dataset"),
)

CLI_STAGES = ("synth-data", "build-vocab", "train", "finetune-scst", "evaluate")

# What each boundary reports: call count, inclusive seconds ("s") or self
# seconds ("self_s").  tensor.mul, tensor.sigmoid and tensor.slice_rows are
# traced but not reported: only X-linear attention and dropout call them,
# and the desk and paper profiles use neither, so they would always read 0.
_TIMED = ("calls", "s")
FIELDS = {
    **{f"tensor.{op}": ("calls", "self_s") for op in TENSOR_OPS
       if op not in ("mul", "sigmoid", "slice_rows")},
    "tensor.backward": ("s",),
    "model.encode": _TIMED, "model.decode_logits": _TIMED,
    "model.forward_teacher_forced": _TIMED, "model.greedy_decode": _TIMED,
    "model.sample_decode": _TIMED,
    "model.save_checkpoint": ("s",), "model.load_checkpoint": ("s",),
    "training.batch_xe_loss": ("s",), "training.clip_gradients": ("s",),
    "training.adam_update": ("s",), "training.evaluate": ("s",),
    "training.validation_loss": ("s",),
    "scst.scst_batch_step": ("s",), "scst.scst_surrogate_loss": ("s",),
    "scst.validation_mixed_reward": ("s",), "scst.mixed_reward": _TIMED,
    "metrics.cider_sentence": _TIMED, "metrics.bleu4": _TIMED,
    "metrics.compute_idf": ("s",), "metrics.score_corpus": ("s",),
    "tokenizer.encode": _TIMED, "tokenizer.decode": _TIMED,
    "tokenizer.normalize_words": _TIMED,
    "features.read_feature_file": _TIMED, "features.load_manifest": ("s",),
    "features.synth_dataset": ("s",),
}
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

# Metrics that do not come from one boundary's spans: name -> (unit, source).
# The source names the boundary whose absence makes the metric missing.
DERIVED = {
    "model.decode_tokens": ("tokens", "model.greedy_decode"),
    "model.save_checkpoint.bytes": ("bytes", "model.save_checkpoint"),
    "features.read_feature_file.bytes": ("bytes", "features.read_feature_file"),
    "tensor.nodes_per_xe_step": ("nodes/step", "training.batch_xe_loss"),
    "tensor.nodes_per_decode_token": ("nodes/token", "model.greedy_decode"),
    "training.xe_step_s.p50": ("s", "training.adam_update"),
    "training.xe_step_s.p90": ("s", "training.adam_update"),
}


def per_layer_spec() -> list:
    """(metric name, unit) of every per-layer metric, in report order."""
    spec = [(f"{name}.{f}", _UNITS[f]) for name, _, _ in BOUNDARIES
            for f in FIELDS.get(name, ())]
    spec += [(name, unit) for name, (unit, _) in DERIVED.items()]
    spec += [(f"cli.{stage}.s", "s") for stage in CLI_STAGES]
    spec += [("trace.overhead_s", "s"), ("trace.boundaries_wrapped", "count"),
             ("trace.counts_matched", "count")]
    return spec


def per_layer_values(summary: dict, missing, overhead_s: float) -> dict:
    """Metric name -> (value, unit); metrics of vanished boundaries are left out."""
    per_name = summary["per_name"]
    values = {**summary["counters"], **summary["derived"]}
    out = {}
    for name, unit in per_layer_spec():
        head, _, field = name.rpartition(".")
        if name in DERIVED:
            if DERIVED[name][1] not in missing:
                out[name] = (values.get(name, 0), unit)
        elif head in FIELDS:
            if head not in missing:
                out[name] = (per_name.get(head, {}).get(field, 0), unit)
        elif name.startswith("cli."):
            out[name] = (per_name.get(head, {}).get("s", 0.0), unit)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def _decoded_tokens(name, args, out):
    """Tokens emitted by one decode call (BOS excluded)."""
    if name == "model.greedy_decode":
        return len(out) - 1
    return sum(len(ids) - 1 for ids, _ in out)


def _file_bytes(name, args, out):
    path = str(args[1] if name == "model.save_checkpoint" else args[0])
    size = os.path.getsize(path)
    if name == "model.save_checkpoint":
        size += os.path.getsize(path + ".json")
    return size


# Extra per-call quantities, summed per boundary: (span name, counter, fn).
EXTRAS = (
    ("model.greedy_decode", "model.decode_tokens", _decoded_tokens),
    ("model.sample_decode", "model.decode_tokens", _decoded_tokens),
    ("model.save_checkpoint", "model.save_checkpoint.bytes", _file_bytes),
    ("features.read_feature_file", "features.read_feature_file.bytes", _file_bytes),
)


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the boundary has vanished."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


class Tracer:
    """Records spans for the wrapped boundaries while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    # -- spans

    def _id(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        prev, self.active = self.active, False
        try:
            yield
        finally:
            self.active = prev

    # -- patching

    def _wrap(self, name: str, fn, extras):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            for counter, extra in extras:
                tracer.counters[counter] += extra(name, args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, module, path in BOUNDARIES:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(name)
                continue
            owner, attr, fn = found
            extras = [(c, f) for n, c, f in EXTRAS if n == name]
            wrapper = self._wrap(name, fn, extras)
            if isinstance(owner, type):
                self._patches.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "vttcap" or mod_name.startswith("vttcap.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- analysis

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.span_end, dtype=np.float64).copy()}

    def write(self, path: Path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus derived counts."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        has_parent = parent >= 0
        child_cover = np.bincount(parent[has_parent], weights=dur[has_parent],
                                  minlength=len(name))
        self_s = np.bincount(name, weights=dur - child_cover, minlength=n_names)
        per_name = {n: {"calls": int(calls[i]), "s": float(total[i]),
                        "self_s": float(self_s[i])}
                    for i, n in enumerate(self.names)}

        prim = np.isin(name, [self._name_id[f"tensor.{op}"] for op in TENSOR_OPS
                              if f"tensor.{op}" in self._name_id])

        def nodes_under(roots):
            ids = [self._name_id[r] for r in roots if r in self._name_id]
            if not ids:
                return 0
            return int(np.count_nonzero(prim & _has_ancestor(name, parent, ids)))

        derived = {}
        xe_steps = per_name.get("training.batch_xe_loss", {}).get("calls", 0)
        if xe_steps:
            derived["tensor.nodes_per_xe_step"] = (
                nodes_under(["training.batch_xe_loss"]) / xe_steps)
        tokens = self.counters.get("model.decode_tokens", 0)
        if tokens:
            derived["tensor.nodes_per_decode_token"] = (
                nodes_under(["model.greedy_decode", "model.sample_decode"]) / tokens)
        steps = _xe_step_seconds(self._name_id, name, a["start"], a["end"])
        if steps.size:
            derived["training.xe_step_s.p50"] = float(np.percentile(steps, 50))
            derived["training.xe_step_s.p90"] = float(np.percentile(steps, 90))
        return {"per_name": per_name, "derived": derived,
                "counters": dict(self.counters), "spans": int(len(name))}


def _has_ancestor(name, parent, root_ids) -> np.ndarray:
    """Whether each span has an ancestor (or is itself) one of ``root_ids``."""
    hit = np.isin(name, root_ids)
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            return hit
        hit[live] |= np.isin(name[up[live]], root_ids)
        up[live] = parent[up[live]]


def _xe_step_seconds(name_id, name, start, end) -> np.ndarray:
    """Each XE step: start of its batch loss to the end of the Adam update after it."""
    loss_id = name_id.get("training.batch_xe_loss")
    adam_id = name_id.get("training.adam_update")
    if loss_id is None or adam_id is None:
        return np.zeros(0)
    losses = np.flatnonzero(name == loss_id)
    adams = np.flatnonzero(name == adam_id)
    nxt = np.searchsorted(adams, losses)
    ok = nxt < adams.size
    return end[adams[nxt[ok]]] - start[losses[ok]]
