"""Directory runs against per-file runs, byte for byte.

A directory `predict` draws the model parameters once per point count and
a directory `eval` scores its pairs in groups (metrics.evaluate_group);
neither may change one output byte against the per-file command on the
same scene. The corpus mixes two point counts, a scene without lanes, a
scene without traffic and a prediction whose lanes have ragged point
counts. Scoring errors name the file and the lane, in file form and in
directory form.
"""

import json

import numpy as np
import pytest

import lanetopo as lt
from lanetopo import cli
from lanetopo.cli import main
from lanetopo.geometry import resample_stack
from lanetopo.serialize import manifest_path_for, read_json, scene_to_dict, write_json

PREDICT = ("--source", "perturbed", "--point-sigma", "0.3", "--drop-rate", "0.1",
           "--noise-seed", "3", "--channels", "16", "--heads", "2")


def run(*argv) -> int:
    return main([str(a) for a in argv])


def lane_less_scene():
    traffic = [lt.TrafficElement(bbox=(10.0, 20.0, 50.0, 90.0), category="traffic_light")]
    return lt.Scene(lanes=[], traffic=traffic,
                    topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, 1))))


SCENES = {
    "a_grid11": lambda: lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3, seed=61)),
    "b_grid7": lambda: lt.generate_scene(
        lt.SynthParams(n_corridors=2, n_segments=2, n_points=7, seed=62)),
    "c_empty": lane_less_scene,
    "d_no_traffic": lambda: lt.generate_scene(
        lt.SynthParams(n_corridors=3, n_segments=2, n_traffic=0, seed=63)),
    "e_grid7": lambda: lt.generate_scene(
        lt.SynthParams(n_corridors=3, n_segments=3, n_points=7, seed=64)),
    "f_grid11": lambda: lt.generate_scene(lt.SynthParams(n_corridors=1, n_segments=4, seed=65)),
}


def ragged(doc):
    """Every other lane of a prediction resampled to 5 points."""
    doc["lanes"] = [resample_stack(np.asarray(p)[None], 5)[0].tolist() if k % 2 else p
                    for k, p in enumerate(doc["lanes"])]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(root, scene dir, per-file prediction dir, directory prediction dir)."""
    root = tmp_path_factory.mktemp("mixed")
    scenes, files, batch = root / "scenes", root / "files", root / "batch"
    scenes.mkdir()
    files.mkdir()
    for name, build in SCENES.items():
        write_json(scenes / f"{name}.json", scene_to_dict(build()))
    for name in SCENES:
        assert run("predict", "--scene", scenes / f"{name}.json",
                   "--out", files / f"{name}.json", *PREDICT) == 0
    assert run("predict", "--scene", scenes, "--out", batch, *PREDICT) == 0
    return root, scenes, files, batch


def eval_rows(report):
    """{scene: (its report entry's JSON text, its CSV row)}."""
    doc = json.loads(report.read_text(encoding="utf-8"))
    rows = report.with_suffix(".csv").read_text(encoding="utf-8").splitlines()[1:]
    return {name: (json.dumps(entry), next(r for r in rows if r.startswith(name + ",")))
            for name, entry in doc["scenes"].items()}


class TestDirectoryEqualsPerFile:
    def test_predictions_are_byte_equal(self, corpus):
        _, _, files, batch = corpus
        for name in SCENES:
            assert (batch / f"{name}.json").read_bytes() == (files / f"{name}.json").read_bytes()
        assert read_json(files / "c_empty.json")["lanes"] == []

    def test_parameters_are_drawn_once_per_point_count(self, corpus, tmp_path, monkeypatch):
        _, scenes, files, _ = corpus
        counts = []
        draw = lt.pipeline.init_pipeline_params

        def counted(cfg, n_points):
            counts.append(n_points)
            return draw(cfg, n_points)

        monkeypatch.setattr(lt.pipeline, "init_pipeline_params", counted)
        assert run("predict", "--scene", scenes, "--out", tmp_path, *PREDICT) == 0
        assert sorted(counts) == [7, 11]
        for name in SCENES:
            assert (tmp_path / f"{name}.json").read_bytes() \
                == (files / f"{name}.json").read_bytes()

    @pytest.mark.parametrize("group_lanes", [1, 40, cli.GROUP_LANES])
    def test_reports_are_byte_equal(self, corpus, tmp_path, monkeypatch, group_lanes):
        root, scenes, _, batch = corpus
        preds = tmp_path / "preds"
        preds.mkdir()
        for name in SCENES:
            (preds / f"{name}.json").write_bytes((batch / f"{name}.json").read_bytes())
        doc = read_json(preds / "e_grid7.json")
        ragged(doc)
        write_json(preds / "e_grid7.json", doc)
        expected = {}
        for name in SCENES:
            report = tmp_path / f"report-{name}.json"
            assert run("eval", "--pred", preds / f"{name}.json",
                       "--gt", scenes / f"{name}.json", "--out", report) == 0
            expected.update(eval_rows(report))
        monkeypatch.setattr(cli, "GROUP_LANES", group_lanes)
        report = tmp_path / "report.json"
        assert run("eval", "--pred", preds, "--gt", scenes, "--out", report) == 0
        assert eval_rows(report) == expected
        assert len(expected) == len(SCENES)
        assert expected["c_empty"][0].startswith('{"det_l": 1.0')

    @pytest.mark.parametrize("group_lanes", [1, cli.GROUP_LANES])
    def test_an_unreadable_file_in_the_middle_blocks_the_report(
            self, corpus, tmp_path, capsys, monkeypatch, group_lanes):
        _, scenes, _, batch = corpus
        preds = tmp_path / "preds"
        preds.mkdir()
        for name in SCENES:
            (preds / f"{name}.json").write_bytes((batch / f"{name}.json").read_bytes())
        (preds / "d_no_traffic.json").write_text("{not json", encoding="utf-8")
        monkeypatch.setattr(cli, "GROUP_LANES", group_lanes)
        out = tmp_path / "report.json"
        assert run("eval", "--pred", preds, "--gt", scenes, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "d_no_traffic.json: invalid JSON" in err[0]
        assert not out.exists() and not out.with_suffix(".csv").exists()
        assert not manifest_path_for(out).exists()


def overflowing_prediction(tmp_path, name="pred.json"):
    """The README-sized scene and its prediction, lane 0 of the prediction
    starting at the far ends of the float range, so its tangent overflows."""
    scene, pred = tmp_path / "scene.json", tmp_path / name
    assert run("synth", "--corridors", 1, "--segments", 2, "--seed", 2, "--out", scene) == 0
    assert run("predict", "--scene", scene, "--out", pred) == 0
    doc = read_json(pred)
    doc["lanes"][0][0] = [-1.7e308, -1.7e308, 0.0]
    doc["lanes"][0][1] = [1.7e308, 1.7e308, 0.0]
    write_json(pred, doc)
    return scene, pred


EXPECTED = "lane 0: left boundary at lane width 1.75: polyline has non-finite coordinates"


class TestOverflowingBoundaries:
    """A lane that reads but cannot be widened is an input error naming its
    file and lane: one line, exit 2, no warning, nothing written."""

    def test_file_form(self, tmp_path, capsys):
        scene, pred = overflowing_prediction(tmp_path)
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run("eval", "--pred", pred, "--gt", scene, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {pred}: {EXPECTED}"]
        assert not out.exists() and not out.with_suffix(".csv").exists()
        assert not manifest_path_for(out).exists()

    def test_directory_form(self, tmp_path, capsys):
        scenes, preds = tmp_path / "scenes", tmp_path / "preds"
        scenes.mkdir()
        preds.mkdir()
        for name, seed in (("a.json", 4), ("c.json", 5)):
            assert run("synth", "--corridors", 2, "--segments", 2, "--seed", seed,
                       "--out", scenes / name) == 0
        scene, pred = overflowing_prediction(tmp_path, "b.json")
        (scenes / "b.json").write_bytes(scene.read_bytes())
        (preds / "b.json").write_bytes(pred.read_bytes())
        assert run("predict", "--scene", scenes / "a.json", "--out", preds / "a.json") == 0
        assert run("predict", "--scene", scenes / "c.json", "--out", preds / "c.json") == 0
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert run("eval", "--pred", preds, "--gt", scenes, "--out", out) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {preds / 'b.json'}: {EXPECTED}"]
        assert not out.exists() and not out.with_suffix(".csv").exists()

    def test_a_ground_truth_lane_names_the_scene_file(self, tmp_path, capsys):
        scene, pred = overflowing_prediction(tmp_path)
        far_ends = read_json(pred)["lanes"][0][:2]
        assert run("predict", "--scene", scene, "--out", pred) == 0
        gt = read_json(scene)
        gt["lanes"][0][:2] = far_ends
        write_json(scene, gt)
        capsys.readouterr()
        assert run("eval", "--pred", pred, "--gt", scene, "--out", tmp_path / "r.json") == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {scene}: {EXPECTED}"]
