"""Span tracer for the traced benchmark run.

The tracer replaces public functions of lanetopo with wrappers, from the
outside, in the module that looks each name up (``lanetopo.metrics`` calls
``discrete_frechet`` through its own module globals, so that is where the
wrapper goes). Each call becomes a span: id, name, parent span, scene id,
start and end. Spans stay in memory until the run ends; self time is the
span's duration minus the durations of its direct children.

A target that no longer exists is recorded as absent and its metrics read
0; it never stops the run, because later changes are expected to rename or
delete some of these functions.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
from array import array

import numpy as np

# Fréchet results below the largest threshold any consumer compares against
# (DET_l 1/2/3 m, TOP 1.5 m, lane segments 1/2/3 m) can change a match.
FRECHET_USEFUL_BELOW = 3.0


def _kind_of_top_score(args, kwargs):
    kind = args[2] if len(args) > 2 else kwargs.get("kind")
    return f"metrics.top_{kind}"


# metric name -> the (module, attribute) sites that look it up. A site
# attribute may be dotted to reach a method through its class.
TARGETS = {
    "geometry.discrete_frechet": [("lanetopo.metrics", "discrete_frechet")],
    "geometry.chamfer": [("lanetopo.metrics", "chamfer")],
    "geometry.avg_l1": [("lanetopo.heads", "avg_l1"), ("lanetopo.connect", "avg_l1")],
    "metrics.evaluate": [("lanetopo.cli", "evaluate")],
    "metrics.det_l": [("lanetopo.metrics", "det_l")],
    "metrics.det_t": [("lanetopo.metrics", "det_t")],
    "metrics.top_ll": [("lanetopo.metrics", "top_score")],
    "metrics.top_lt": [],  # same site as metrics.top_ll, split by its kind argument
    "metrics.lane_segment_metrics": [("lanetopo.metrics", "lane_segment_metrics")],
    "metrics.greedy_match": [("lanetopo.metrics", "greedy_match")],
    "connect.build_connected_gt": [("lanetopo.pipeline", "build_connected_gt"),
                                   ("lanetopo.training", "build_connected_gt")],
    "connect.correlation_distances": [("lanetopo.pipeline", "correlation_distances"),
                                      ("lanetopo.training", "correlation_distances")],
    "heads.match_connected": [("lanetopo.pipeline", "match_connected"),
                              ("lanetopo.training", "match_connected")],
    "heads.predict_ll": [("lanetopo.pipeline", "predict_ll")],
    "heads.predict_lt": [("lanetopo.pipeline", "predict_lt")],
    "heads.predict_ll_cached": [("lanetopo.heads", "predict_ll_cached"),
                                ("lanetopo.training", "predict_ll_cached")],
    "heads.predict_ll_backward": [("lanetopo.training", "predict_ll_backward")],
    "attention.self_attention": [("lanetopo.pipeline", "self_attention")],
    "attention.self_attention_forward": [("lanetopo.attention", "self_attention_forward")],
    "attention.sigmoid_mask": [("lanetopo.pipeline", "sigmoid_mask")],
    "attention.sigmoid_mask_forward": [("lanetopo.attention", "sigmoid_mask_forward"),
                                       ("lanetopo.training", "sigmoid_mask_forward")],
    "attention.sigmoid_mask_backward": [("lanetopo.training", "sigmoid_mask_backward")],
    "attention.masked_cross_attention": [("lanetopo.pipeline", "masked_cross_attention")],
    "attention.masked_cross_attention_forward": [
        ("lanetopo.attention", "masked_cross_attention_forward"),
        ("lanetopo.training", "masked_cross_attention_forward")],
    "attention.masked_cross_attention_backward": [
        ("lanetopo.training", "masked_cross_attention_backward")],
    "features.encode": [("lanetopo.features", "GeometryEncoder.encode")],
    "pipeline.run_pipeline": [("lanetopo.cli", "run_pipeline")],
    "pipeline.init_pipeline_params": [("lanetopo.pipeline", "init_pipeline_params")],
    "synth.perturb": [("lanetopo.pipeline", "perturb")],
    "synth.generate": [("lanetopo.synth", "generate_scene")],
    "serialize.read": [("lanetopo.cli", "read_scene"), ("lanetopo.cli", "read_prediction"),
                       ("lanetopo.cli", "read_json")],
    "serialize.write_json": [("lanetopo.cli", "write_json")],
    "serialize.manifest": [("lanetopo.cli", "build_manifest"),
                           ("lanetopo.cli", "write_manifest")],
    "cli.build_parser": [("lanetopo.cli", "build_parser")],
    "cli.widen_to_segment": [("lanetopo.cli", "widen_to_segment")],
    "training.toy_fit": [("lanetopo.cli", "toy_fit")],
    "training.focal_loss": [("lanetopo.training", "focal_loss")],
    "training.focal_loss_grad": [("lanetopo.training", "focal_loss_grad")],
}

# names chosen per call from the arguments, for sites shared by two metrics
NAMERS = {"metrics.top_ll": _kind_of_top_score}

# root spans the benchmark opens around each CLI call
OPS = ("op.generate", "op.predict", "op.eval", "op.batch_predict", "op.batch_eval",
       "op.fitdemo")


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names = list(OPS) + list(TARGETS)
        self._name_idx = {n: k for k, n in enumerate(self.names)}
        self.scenes: list[str] = []
        self._scene_idx: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cols = {k: array(t) for k, t in (("id", "q"), ("name", "i"), ("parent", "q"),
                                               ("scene", "i"), ("start", "d"), ("end", "d"))}
        self.counters = {"eval_pairs": 0, "frechet_useful": 0, "half_pairs": 0,
                         "mask_entries": 0, "bytes_written": 0}
        self.counter_errors = 0
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._root = -1
        self._root_scene = 0

    # -- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _scene(self, scene: str) -> int:
        idx = self._scene_idx.get(scene)
        if idx is None:
            idx = self._scene_idx[scene] = len(self.scenes)
            self.scenes.append(scene)
        return idx

    def _record(self, sid, name_idx, parent, scene_idx, t0, t1) -> None:
        with self._lock:
            c = self._cols
            c["id"].append(sid)
            c["name"].append(name_idx)
            c["parent"].append(parent)
            c["scene"].append(scene_idx)
            c["start"].append(t0)
            c["end"].append(t1)

    def op(self, name: str, scene: str, fn, *args):
        """Run one benchmark operation as a root span for `scene`.

        Spans opened in worker threads, whose own stack is empty, hang off
        the current root span.
        """
        sid = next(self._ids)
        self._root, self._root_scene = sid, self._scene(scene)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._record(sid, self._name_idx[name], -1, self._root_scene, t0, t1)
            self._root = -1

    def _wrap(self, metric: str, fn):
        tracer = self
        namer = NAMERS.get(metric)
        fixed_idx = self._name_idx[metric]
        observe = _OBSERVERS.get(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            name_idx = tracer._name_idx[namer(args, kwargs)] if namer else fixed_idx
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._record(sid, name_idx, parent, tracer._root_scene, t0, t1)
            if observe is not None:
                tracer._observe(observe, args, result)
            return result

        return traced

    def _observe(self, observe, args, result) -> None:
        try:
            updates = observe(args, result)
        except Exception:  # a changed signature must not stop the run
            updates = None
        with self._lock:
            if updates is None:
                self.counter_errors += 1
                return
            for key, value in updates.items():
                self.counters[key] += value

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        for metric, sites in TARGETS.items():
            for module_name, attr in sites:
                owner, leaf = _resolve(module_name, attr)
                if owner is None:
                    if f"{module_name}.{attr}" not in self.absent:
                        self.absent.append(f"{module_name}.{attr}")
                    continue
                original = getattr(owner, leaf)
                self._installed.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(metric, original))

    def absent_metrics(self) -> list[str]:
        """Metrics none of whose sites exist any more."""
        gone = set(self.absent)
        out = [m for m, sites in TARGETS.items()
               if sites and all(f"{mod}.{attr}" in gone for mod, attr in sites)]
        if "metrics.top_ll" in out:
            out.append("metrics.top_lt")
        return out

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    # -- summaries ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(v) for k, v in self._cols.items()}

    def summary(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name, over every span recorded."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        order = np.argsort(a["id"])
        pos = np.searchsorted(a["id"][order], a["parent"])
        has_parent = a["parent"] >= 0
        child_time = np.zeros(dur.size)
        np.add.at(child_time, order[pos[has_parent]], dur[has_parent])
        self_time = dur - child_time
        out = {}
        for k, name in enumerate(self.names):
            sel = a["name"] == k
            out[name] = {"calls": int(sel.sum()), "busy_s": float(dur[sel].sum()),
                         "self_s": float(self_time[sel].sum())}
        return out

    def pool_busy_s(self) -> tuple[float, float]:
        """Busy time of run_pipeline/evaluate inside the directory form, and
        the directory form's wall time."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        batch_ops = np.isin(a["name"], [self._name_idx["op.batch_predict"],
                                        self._name_idx["op.batch_eval"]])
        work = np.isin(a["name"], [self._name_idx["pipeline.run_pipeline"],
                                   self._name_idx["metrics.evaluate"]])
        in_batch = work & np.isin(a["parent"], a["id"][batch_ops])
        return float(dur[in_batch].sum()), float(dur[batch_ops].sum())

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), scenes=np.array(self.scenes or [""]),
                 **self.arrays())


def _resolve(module_name: str, attr: str):
    """(object holding the leaf attribute, leaf name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, leaf, None)):
        return None, None
    return owner, leaf


_OBSERVERS = {
    "geometry.discrete_frechet":
        lambda args, d: {"frechet_useful": int(d < FRECHET_USEFUL_BELOW)},
    "metrics.evaluate":
        lambda args, r: {"eval_pairs": len(args[0].lanes) * len(args[1].lanes)},
    "heads.match_connected":
        lambda args, r: {"half_pairs": len(args[0]) * len(args[1])},
    "attention.sigmoid_mask_forward":
        lambda args, r: {"mask_entries": int(np.size(args[1]))},
    "serialize.write_json": lambda args, r: {"bytes_written": os.path.getsize(args[0])},
    # build_manifest returns the record, write_manifest the path it wrote
    "serialize.manifest":
        lambda args, r: {} if isinstance(r, dict) else {"bytes_written": os.path.getsize(r)},
}
