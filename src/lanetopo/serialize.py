"""JSON and CSV serialization with byte-stable formatting.

Every float is rounded to 9 significant digits before writing, JSON uses
compact separators, and files end with one trailing newline, so the same
data always serializes to the same bytes. Readers validate documents and
raise SchemaError with the full violation list.

Every file is written to a temporary name in its directory and renamed
into place, so an interrupted or failed run leaves no partial file.

Manifests record what produced an output file: the command, its parameters
and seeds, and sha256 hashes of inputs and outputs. Wall time is recorded
but excluded from equivalence checks.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .connect import ConnectedLane
from .metrics import MetricReport
from .scene import (
    Polyline3D,
    Prediction,
    Scene,
    TopologyGraph,
    TrafficElement,
    validate_prediction,
    validate_scene,
)

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1

CSV_HEADER = "scene,det_l,det_t,top_ll,top_lt,ols,map,ap_ls,ap_ped,top_lsls"


class SchemaError(ValueError):
    """A document failed structural or semantic validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def round9(x: float) -> float:
    """Round to 9 significant digits, the on-disk float precision."""
    return float(f"{float(x):.9g}")


def _walk(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return round9(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _walk(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_walk(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _walk(v) for k, v in obj.items()}
    return obj


def dumps(obj) -> str:
    return json.dumps(_walk(obj), separators=(",", ":")) + "\n"


def write_text(path, text: str) -> None:
    """Write text atomically: a temp file in the same directory, then os.replace,
    so a failed run never leaves a partial file under the final name."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    write_text(path, dumps(obj))


def read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _traffic_to_dict(el: TrafficElement) -> dict:
    d = {"bbox": list(el.bbox), "category": el.category}
    if el.score is not None:
        d["score"] = el.score
    return d


def scene_to_dict(scene: Scene) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "n_points": scene.n_points,
        "lanes": [lane.points for lane in scene.lanes],
        "traffic": [_traffic_to_dict(el) for el in scene.traffic],
        "topo": {"ll": scene.topo.ll, "lt": scene.topo.lt},
    }


def prediction_to_dict(pred: Prediction) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "lanes": [lane.points for lane in pred.lanes],
        "lane_scores": pred.lane_scores,
        "traffic": [_traffic_to_dict(el) for el in pred.traffic],
        "topo": {"ll": pred.topo.ll, "lt": pred.topo.lt},
    }


def connected_list_to_dict(items: list[ConnectedLane]) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "connected": [{"source": list(c.source), "curve": c.curve.points} for c in items],
    }


def _require(d, keys, what: str) -> None:
    if not isinstance(d, dict):
        raise SchemaError([f"{what} is not an object"])
    missing = [k for k in keys if k not in d]
    if missing:
        raise SchemaError([f"{what} is missing key '{k}'" for k in missing])


def _check_version(d: dict, what: str) -> None:
    if d.get("version") != SCHEMA_VERSION:
        raise SchemaError([f"{what}: unsupported version {d.get('version')!r}"])


def _parse_lanes(items) -> list[Polyline3D]:
    lanes = []
    for k, pts in enumerate(items):
        try:
            lanes.append(Polyline3D(np.asarray(pts, dtype=float)))
        except (TypeError, ValueError) as err:
            raise SchemaError([f"lane {k}: {err}"]) from err
    return lanes


def _parse_traffic(items, need_score: bool) -> list[TrafficElement]:
    out = []
    for k, d in enumerate(items):
        _require(d, ("bbox", "category"), f"traffic element {k}")
        if need_score and "score" not in d:
            raise SchemaError([f"traffic element {k} is missing a score"])
        try:
            out.append(TrafficElement(
                bbox=tuple(float(v) for v in d["bbox"]),
                category=str(d["category"]),
                score=float(d["score"]) if "score" in d else None,
            ))
        except (TypeError, ValueError) as err:
            raise SchemaError([f"traffic element {k}: {err}"]) from err
    return out


def _parse_topo(d, n_lanes: int, n_traffic: int) -> TopologyGraph:
    _require(d, ("ll", "lt"), "topo")
    try:
        ll = np.asarray(d["ll"], dtype=float)
        lt = np.asarray(d["lt"], dtype=float)
    except (TypeError, ValueError) as err:
        raise SchemaError([f"topo: {err}"]) from err
    # JSON cannot distinguish (0, 0) from (0, k) matrices; restore the
    # expected empty shapes instead of failing shape validation later
    if n_lanes == 0 and ll.size == 0:
        ll = np.zeros((0, 0))
    if n_lanes == 0 and lt.size == 0:
        lt = np.zeros((0, n_traffic))
    try:
        return TopologyGraph(ll=ll, lt=lt)
    except ValueError as err:
        raise SchemaError([f"topo: {err}"]) from err


def scene_from_dict(d) -> Scene:
    _require(d, ("n_points", "lanes", "traffic", "topo"), "scene")
    _check_version(d, "scene")
    lanes = _parse_lanes(d["lanes"])
    traffic = _parse_traffic(d["traffic"], need_score=False)
    topo = _parse_topo(d["topo"], len(lanes), len(traffic))
    scene = Scene(lanes=lanes, traffic=traffic, topo=topo, n_points=int(d["n_points"]))
    violations = validate_scene(scene)
    if violations:
        raise SchemaError(violations)
    return scene


def prediction_from_dict(d, n_points: int | None = None) -> Prediction:
    _require(d, ("lanes", "lane_scores", "traffic", "topo"), "prediction")
    _check_version(d, "prediction")
    lanes = _parse_lanes(d["lanes"])
    try:
        scores = np.asarray(d["lane_scores"], dtype=float).reshape(-1)
    except (TypeError, ValueError) as err:
        raise SchemaError([f"lane_scores: {err}"]) from err
    traffic = _parse_traffic(d["traffic"], need_score=True)
    topo = _parse_topo(d["topo"], len(lanes), len(traffic))
    pred = Prediction(lanes=lanes, lane_scores=scores, traffic=traffic, topo=topo)
    violations = validate_prediction(pred, n_points)
    if violations:
        raise SchemaError(violations)
    return pred


def read_scene(path) -> Scene:
    return scene_from_dict(read_json(path))


def read_prediction(path, n_points: int | None = None) -> Prediction:
    return prediction_from_dict(read_json(path), n_points)


def _csv_cell(x) -> str:
    return "" if x is None else f"{float(x):.9g}"


def metrics_csv(rows: list[tuple[str, MetricReport]]) -> str:
    """Fixed-header CSV; lane-segment columns are empty when not evaluated."""
    lines = [CSV_HEADER]
    for name, r in rows:
        ls = r.lane_segments
        segment = (ls.map, ls.ap_lane, ls.ap_ped, ls.top_lsls) if ls is not None else (None,) * 4
        cells = (r.det_l, r.det_t, r.top_ll, r.top_lt, r.ols, *segment)
        lines.append(",".join([name, *map(_csv_cell, cells)]))
    return "\n".join(lines) + "\n"


def write_metrics_csv(path, rows) -> None:
    write_text(path, metrics_csv(rows))


def report_to_dict(report: MetricReport) -> dict:
    d = {
        "det_l": report.det_l,
        "det_t": report.det_t,
        "top_ll": report.top_ll,
        "top_lt": report.top_lt,
        "ols": report.ols,
    }
    if report.lane_segments is not None:
        ls = report.lane_segments
        d["lane_segments"] = {
            "map": ls.map, "ap_ls": ls.ap_lane,
            "ap_ped": ls.ap_ped, "top_lsls": ls.top_lsls,
        }
    return d


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(command: str, params: dict, seeds: dict,
                   inputs: list, outputs: list, wall_time_s: float) -> dict:
    """Provenance record for one CLI run. Paths are stored as basenames so
    the record does not depend on where the working tree lives."""
    return {
        "command": command,
        "params": _walk(params),
        "seeds": _walk(seeds),
        "inputs": [{"path": Path(p).name, "sha256": sha256_file(p)} for p in inputs],
        "outputs": [{"path": Path(p).name, "sha256": sha256_file(p)} for p in outputs],
        "tool_version": TOOL_VERSION,
        "wall_time_s": wall_time_s,
    }


def manifest_path_for(out_path) -> Path:
    return Path(str(out_path) + ".manifest.json")


def write_manifest(out_path, manifest: dict) -> Path:
    path = manifest_path_for(out_path)
    write_json(path, manifest)
    return path


def manifests_equivalent(a: dict, b: dict) -> bool:
    """Equality up to wall_time_s, the one nondeterministic field."""

    def strip(m):
        return {k: v for k, v in m.items() if k != "wall_time_s"}

    return strip(a) == strip(b)
