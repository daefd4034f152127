"""JSON and CSV serialization with byte-stable formatting.

Every float is rounded to 9 significant digits before writing (round9),
JSON uses compact separators, and files end with one trailing newline, so
the same data always serializes to the same bytes. Readers validate
documents and raise SchemaError with the full violation list.

The JSON writer formats each float array of at least _ONE_PASS_MIN values
in one printf pass over a template built as one byte array of fixed-width
cells, instead of rounding and re-printing every float. Each value's cell
is one of:

* in arrays of at least _SHORT_MIN values, a short value, 1e-4 <= |x| < 1
  (every sigmoid score): "0.", the zeros of its decade and "%d" of its 9
  significant digits as an integer without trailing zeros, about a third
  of the cost of "%.9g" but with a larger fixed cost per array;
* any other plain value (normal, finite, under 1e9 and not rounded to an
  integer by "%.9g"): "%.9g";
* an integral value under 1e9: "%.1f", which keeps repr's ".0" ("1.0",
  "-0.0") where "%.9g" drops it;
* anything else (values "%.9g" writes in exponent form from 1e9, where
  repr waits until 1e16, values it rounds to an integer, subnormals, NaN
  and +-inf): the text json.dumps writes for round9 of the value.

That is exact. Two different decimals of at most 9 significant digits
never round to the same normal double, so repr(round9(x)) has the digits
of "%.9g" % x, and only the layout can differ. A short value's digits are
rint(|x| * 10**(9 + zeros)): its decade comes from exact comparisons (the
doubles 0.1, 0.01, 0.001 and 1e-4 each lie above their decimal), and each
power of ten is an exact double, so the product rounds once, to within
6e-8 of the exact one under 1e9, and rint rounds it as "%.9g" rounds the
exact value unless it lies within 1e-6 of a half-integer. Those values,
and those whose digits round up to 10**9, take "%.9g". For every other
short value "%.9g" writes the same digits in fixed notation, its decimal
exponent being -4 to -1, with its trailing zeros stripped. A numpy mask
finds a superset of the values "%.9g" cannot write, so every other value
costs one "%d" or one "%.9g". Lanes sharing a point count are written as
one (k, n, 3) stack, and read into one Lanes array checked once.

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
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

import numpy as np

from .connect import ConnectedLane
from .metrics import LaneSegmentReport, MetricReport
from .scene import (
    FLAWS,
    Lanes,
    Polyline3D,
    Prediction,
    Scene,
    TopologyGraph,
    Traffic,
    polyline_flaws,
    traffic_flaw,
    validate_prediction,
    validate_scene,
)

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1

# a report's JSON keys and CSV columns, in order, are its fields: the
# scores of MetricReport, then those of its LaneSegmentReport block
_SCORE_KEYS = tuple(f.name for f in fields(MetricReport) if f.name != "lane_segments")
_SEGMENT_KEYS = tuple(f.name for f in fields(LaneSegmentReport))
CSV_HEADER = ",".join(["scene", *_SCORE_KEYS, *_SEGMENT_KEYS])


class SchemaError(ValueError):
    """A document failed structural or semantic validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def round9(x: float) -> float:
    """Round to 9 significant digits, the on-disk float precision."""
    return float(f"{float(x):.9g}")


# below the smallest normal double fewer than 9 digits can be significant
_TINY = float(np.finfo(np.float64).tiny)

# smaller float arrays are written value by value: measured on 2 vCPU, one
# value costs 1-2 us and the array pass without short cells about 20 us up to
# a few dozen values
_ONE_PASS_MIN = 16

# smaller arrays write their short values with "%.9g" too: measured on
# 2 vCPU, finding the short cells costs 20-60 us more per array and saves
# 0.1-0.3 us per short value, so sigmoid scores gain from about 400 values
_SHORT_MIN = 512

# json.dumps's text of the floats repr writes as nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# the format of each value, by kind: "%.9g", "%.1f", "%s" for a value passed
# as its exact text, then the short values with 0 to 3 zeros after "0.",
# positive and then negative; each padded to 8 bytes with "-" flags, which
# change nothing without a field width, so a template is one 8-byte cell per
# value, gathered as one uint64
_SPECS = np.array([f.replace(b"%", b"%" + b"-" * (8 - len(f)), 1) for f in (
    b"%.9g", b"%.1f", b"%s", b"0.%d", b"0.0%d", b"0.00%d", b"0.000%d",
    b"-0.%d", b"-0.0%d", b"-0.00%d", b"-0.000%d")]).view(np.uint64)
_SHORT = 3

# the exact doubles 10**(9 + z) that scale a short value with z zeros after
# "0." to its 9 digits
_SCALES = 10.0 ** np.arange(9, 13)


def _nest(parts: list[str], shape: tuple) -> str:
    """Join the texts of the last-axis rows into nested JSON lists of shape."""
    for n in reversed(shape):
        parts = ["[" + ",".join(parts[k:k + n]) + "]" for k in range(0, len(parts), n)]
    return parts[0]


def _float_text(x) -> str:
    """JSON text of round9(x), as json.dumps writes that float."""
    text = repr(round9(x))
    return _NON_FINITE.get(text, text)


def _short_digits(mag: np.ndarray):
    """(short, zeros, digits) of the magnitudes mag: short marks the values
    in [1e-4, 1) whose 9 significant digits one exact rounding gives
    (module docstring), zeros counts their zeros after "0.", and digits
    holds those digits as integral floats."""
    # exact decade tests: mag < 0.1 exactly when the real mag is below 1/10
    zeros = (mag < 0.1).view(np.int8) + (mag < 0.01) + (mag < 0.001)
    s = mag * _SCALES[zeros]
    digits = np.rint(s)
    # |s - digits| is exact, and 1/2 less the distance of s's fraction from 1/2
    short = (mag >= 1e-4) & (mag < 1.0) & (np.abs(s - digits) < 0.5 - 1e-6) & (digits < 1e9)
    return short, zeros, digits


def _float_array(a: np.ndarray, short_cells: bool = True) -> str:
    """JSON text of a float array of at least _ONE_PASS_MIN values, each
    written as round9 writes it (module docstring); without short_cells,
    short values take "%.9g" as any other plain value does."""
    x = a.astype(np.float64, copy=False).reshape(-1, a.shape[-1])
    n, m = x.shape
    flat = x.ravel()
    with np.errstate(invalid="ignore", over="ignore"):
        mag = np.abs(flat)
        off = np.abs(flat - np.rint(flat))
        whole = (off == 0.0) & (mag < 1e9)
        # the values "%.9g" writes as repr does: normal, and further than a
        # relative 1e-8 from an integer, so finite, under 1e9 and not
        # rounded to an integer by "%.9g"
        plain = (off > mag * 1e-8) & (mag >= _TINY)
        if short_cells:
            short, zeros, digits = _short_digits(mag)
    kind = 2 - whole - 2 * plain
    if short_cells:
        short &= plain
        kind = np.where(short, _SHORT + zeros + 4 * (flat < 0.0), kind)
        # a short value's "%d" argument: its digits without their trailing zeros
        digits = digits[short].astype(np.int64)
        tail = np.flatnonzero(digits % 10 == 0)
        while tail.size:
            digits[tail] //= 10
            tail = tail[digits[tail] % 10 == 0]
        values = np.empty(n * m, dtype=object)
        values[short] = digits
        values[~short] = flat[~short]
    else:
        values = flat.tolist()
    for k in np.flatnonzero(kind == 2).tolist():
        values[k] = _float_text(values[k])
    # per value its format and "," or, ending its row, "]"
    cells = np.empty((n, m, 9), dtype=np.uint8)
    cells[..., :8] = _SPECS[kind].view(np.uint8).reshape(n, m, 8)
    cells[..., 8] = ord(",")
    cells[:, -1, 8] = ord("]")
    rows = cells.tobytes().decode("ascii")
    width = 9 * m
    template = _nest(["[" + rows[i:i + width] for i in range(0, n * width, width)],
                     a.shape[:-1])
    return template % tuple(values)


def _json(obj) -> str:
    """Compact JSON text of obj with every float rounded by round9.

    Tuples and arrays are lists, numpy scalars their Python values, and
    dict keys are str()-ed, as json.dumps would write the same data after
    the rounding.
    """
    if isinstance(obj, (float, np.floating)):
        return _float_text(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.size >= _ONE_PASS_MIN:
            return _float_array(obj, obj.size >= _SHORT_MIN)
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join([_json(v) for v in obj]) + "]"
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        return "{" + ",".join([_string(k) + ":" + _json(v) for k, v in items.items()]) + "}"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    # None; anything else raises json's TypeError
    return json.dumps(obj)


def dumps(obj) -> str:
    return _json(obj) + "\n"


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


def _traffic_list(traffic: Traffic) -> list[dict]:
    """One {"bbox", "category"[, "score"]} object per element, read from the arrays."""
    boxes, categories = traffic.boxes.tolist(), traffic.categories.tolist()
    if traffic.scores is None:
        return [{"bbox": box, "category": cat} for box, cat in zip(boxes, categories)]
    return [{"bbox": box, "category": cat, "score": score}
            for box, cat, score in zip(boxes, categories, traffic.scores.tolist())]


def _lane_arrays(lanes: Lanes):
    """The lanes as one (k, n, 3) stack when every lane has n points, else one array each."""
    P = lanes.stack()
    return np.split(lanes.points, lanes.offsets[1:-1]) if P is None else P


def scene_to_dict(scene: Scene) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "n_points": scene.n_points,
        "lanes": _lane_arrays(scene.lanes),
        "traffic": _traffic_list(scene.traffic),
        "topo": {"ll": scene.topo.ll, "lt": scene.topo.lt},
    }


def prediction_to_dict(pred: Prediction) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "lanes": _lane_arrays(pred.lanes),
        "lane_scores": pred.lane_scores,
        "traffic": _traffic_list(pred.traffic),
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


def _is_int(v) -> bool:
    """A JSON integer: true and 1.0 are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_version(d: dict, what: str) -> None:
    v = d.get("version")
    if not _is_int(v) or v != SCHEMA_VERSION:
        raise SchemaError([f"{what}: unsupported version {v!r}"])


def _iterable(items, key: str):
    """items, refused naming key when it is a JSON number, bool or null,
    which no lane or traffic loop can iterate."""
    if items is None or isinstance(items, (int, float)):
        raise SchemaError([f"{key} must be a list, got {json.dumps(items)}"])
    return items


def _parse_lane(k: int, pts) -> Polyline3D:
    try:
        return Polyline3D(np.asarray(pts, dtype=float))
    except (TypeError, ValueError, OverflowError) as err:
        raise SchemaError([f"lane {k}: {err}"]) from err


def _parse_lanes(items) -> Lanes:
    """The lanes of a document as one Lanes, checked once; the first bad lane
    raises Polyline3D's message. Lanes that are not all lists of at least 2
    (x, y, z) points are read one Polyline3D at a time, for its error."""
    try:
        counts = [len(pts) for pts in items]
        points = np.array([p for pts in items for p in pts], dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        points = None
    if points is None or points.shape != (sum(counts), 3) or min(counts, default=2) < 2:
        return Lanes.of([_parse_lane(k, pts) for k, pts in enumerate(items)])
    offsets = np.cumsum([0, *counts])
    bad = np.argwhere(polyline_flaws(points, offsets))
    if bad.size:
        raise SchemaError([f"lane {bad[0, 0]}: {FLAWS[bad[0, 1]]}"])
    return Lanes(points, offsets)


def _is_number(v) -> bool:
    """A JSON number: true and false are not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _refused(k: int, rule: str, value) -> SchemaError:
    return SchemaError([f"traffic element {k}: {rule}, got {json.dumps(value, default=repr)}"])


def _parse_traffic(items, need_score: bool) -> Traffic:
    """The traffic elements of a document as one Traffic, checked once: each
    an object with a bbox of 4 numbers, a string category and a number
    score, in every element or (unless need_score) in none. A JSON value of
    another type is refused, never converted."""
    boxes, categories, scores = [], [], []
    for k, d in enumerate(items):
        _require(d, ("bbox", "category"), f"traffic element {k}")
        box, cat, score = d["bbox"], d["category"], d.get("score")
        if not (isinstance(box, list) and len(box) == 4 and all(map(_is_number, box))):
            raise _refused(k, "bbox must be 4 finite numbers", box)
        if not isinstance(cat, str):
            raise _refused(k, "category must be a string", cat)
        if "score" in d and not _is_number(score):
            raise _refused(k, "score must be a number", score)
        try:
            boxes.append([float(v) for v in box])
            scores.append(None if score is None else float(score))
        except OverflowError as err:
            raise SchemaError([f"traffic element {k}: {err}"]) from err
        categories.append(cat)
    scored = need_score or any(s is not None for s in scores)
    if scored and None in scores:
        raise SchemaError([f"traffic element {scores.index(None)} is missing a score"])
    boxes = np.array(boxes).reshape(-1, 4)
    scores = np.array(scores) if scored else None
    try:
        return Traffic(boxes, categories, scores)
    except ValueError as err:
        raise SchemaError([f"traffic element {traffic_flaw(boxes, scores)[0]}: {err}"]) from err


def _parse_topo(d, n_lanes: int, n_traffic: int) -> TopologyGraph:
    _require(d, ("ll", "lt"), "topo")
    try:
        ll = np.asarray(d["ll"], dtype=float)
        lt = np.asarray(d["lt"], dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
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
    if not _is_int(d["n_points"]):
        raise SchemaError([f"scene: n_points must be an integer, got {d['n_points']!r}"])
    lanes = _parse_lanes(_iterable(d["lanes"], "lanes"))
    traffic = _parse_traffic(_iterable(d["traffic"], "traffic"), need_score=False)
    topo = _parse_topo(d["topo"], len(lanes), len(traffic))
    scene = Scene(lanes=lanes, traffic=traffic, topo=topo, n_points=d["n_points"])
    violations = validate_scene(scene)
    if violations:
        raise SchemaError(violations)
    return scene


def prediction_from_dict(d, n_points: int | None = None) -> Prediction:
    _require(d, ("lanes", "lane_scores", "traffic", "topo"), "prediction")
    _check_version(d, "prediction")
    lanes = _parse_lanes(_iterable(d["lanes"], "lanes"))
    try:
        scores = np.asarray(d["lane_scores"], dtype=float).reshape(-1)
    except (TypeError, ValueError, OverflowError) as err:
        raise SchemaError([f"lane_scores: {err}"]) from err
    traffic = _parse_traffic(_iterable(d["traffic"], "traffic"), need_score=True)
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
        cells = [*(getattr(r, k) for k in _SCORE_KEYS),
                 *(None if ls is None else getattr(ls, k) for k in _SEGMENT_KEYS)]
        lines.append(",".join([name, *map(_csv_cell, cells)]))
    return "\n".join(lines) + "\n"


def report_to_dict(report: MetricReport) -> dict:
    d = {k: getattr(report, k) for k in _SCORE_KEYS}
    if report.lane_segments is not None:
        d["lane_segments"] = {k: getattr(report.lane_segments, k) for k in _SEGMENT_KEYS}
    return d


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(command: str, params: dict, seeds: dict,
                   inputs: list, outputs: list, wall_time_s: float) -> dict:
    """Provenance record for one CLI run. Paths are stored as basenames so
    the record does not depend on where the working tree lives."""
    return {
        "command": command,
        "params": dict(params),
        "seeds": dict(seeds),
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
