"""Pinned `eval` output on a fixed, seeded corpus.

The sha256 of the report JSON and CSV were taken from the per-pair
reference implementation of the metrics (one Frechet DP per lane pair, a
Python double loop for greedy matching). The corpus is predicted first, so
they were re-taken when the per-slot positional queries were deleted; the
metrics scored the older predictions to the same bytes as before. Any change to the arithmetic,
matching, pruning or formatting behind `eval` that moves one byte fails
here. The corpus covers:

* 2x2, 4x6 and 6x12 grids and one roundabout, predicted with point noise,
  dropped lanes and spurious lanes;
* tied lane scores (4x6) and jittered traffic boxes with one category
  swapped (6x12), so ties and IoU matching matter;
* one prediction resampled to 7 points against an 11-point ground truth;
* one prediction with every other lane slid 4 m along the road, whose
  centerline Frechet distance is past every DET_l threshold while its
  lane-segment distance is not;
* a second run with non-default thresholds, TOP's above every DET_l
  threshold and every default, so a hard-coded pruning cut would show.
"""

import hashlib
import json

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.cli import main
from lanetopo.geometry import resample_stack
from lanetopo.serialize import scene_to_dict, write_json

SCENES = (
    ("grid2x2", lt.SynthParams(n_corridors=2, n_segments=2, seed=21)),
    ("grid4x6", lt.SynthParams(n_corridors=4, n_segments=6, seed=22)),
    ("grid6x12", lt.SynthParams(n_corridors=6, n_segments=12, seed=23)),
)
PREDICT = ("--source", "perturbed", "--point-sigma", "0.4", "--drop-rate", "0.1",
           "--spurious-rate", "0.1", "--noise-seed", "5")
CUSTOM = ("--det-thresholds", "0.5,1.25,2.5,3.5", "--top-frechet", "4.5",
          "--det-iou", "0.5", "--top-iou", "0.6")

DIGESTS = {
    "default.json": "170f6270d8070181b1b448dcd9487d82f3f7801d9bf4b4adefd42adfb3166d24",
    "default.csv": "009510fdae8760e37862e50c82c7e5815648c05a72256cdd88c0e22845f5672f",
    "custom.json": "81bf55fd86760bdbc09867cd9fc815b482fb1547a8bda69f76445dd15c658875",
    "custom.csv": "1975acb91989e63f22f7b3e6b826aee3e81373cc9013ead00e7bc98288fc75f2",
}


def _edit_json(path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    write_json(path, doc)


def _tie_scores(doc):
    doc["lane_scores"] = [round(s, 1) for s in doc["lane_scores"]]


def _jitter_traffic(doc):
    rng = np.random.default_rng(7)
    for el in doc["traffic"]:
        el["bbox"] = [v + float(rng.normal(0.0, 4.0)) for v in el["bbox"]]
    doc["traffic"][0]["category"] = "stop_sign" \
        if doc["traffic"][0]["category"] != "stop_sign" else "traffic_light"


def _slide(doc):
    doc["lanes"] = [(np.asarray(p) + [4.0 * (k % 2), 0.0, 0.0]).tolist()
                    for k, p in enumerate(doc["lanes"])]


def _resample(doc):
    doc["lanes"] = [resample_stack(np.asarray(p)[None], 7)[0].tolist() for p in doc["lanes"]]


def build_corpus(root):
    scenes, preds = root / "scenes", root / "preds"
    scenes.mkdir()
    for name, params in SCENES:
        write_json(scenes / f"{name}.json", scene_to_dict(lt.generate_scene(params)))
    write_json(scenes / "roundabout.json",
               scene_to_dict(lt.generate_roundabout(radius=18.0, n_arms=4, seed=24)))
    for copy in ("resampled.json", "slid.json"):
        (scenes / copy).write_bytes((scenes / "grid4x6.json").read_bytes())
    assert main(["predict", "--scene", str(scenes), "--out", str(preds), *PREDICT]) == 0
    _edit_json(preds / "grid4x6.json", _tie_scores)
    _edit_json(preds / "grid6x12.json", _jitter_traffic)
    _edit_json(preds / "resampled.json", _resample)
    _edit_json(preds / "slid.json", _slide)
    return scenes, preds


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    scenes, preds = build_corpus(root)
    out = {}
    for run, extra in (("default", ()), ("custom", CUSTOM)):
        report = root / f"{run}.json"
        assert main(["eval", "--pred", str(preds), "--gt", str(scenes),
                     "--out", str(report), *extra]) == 0
        for path in (report, report.with_suffix(".csv")):
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_bytes_are_pinned(reports, name):
    assert reports[name] == DIGESTS[name]
