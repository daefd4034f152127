"""Byte-stable JSON/CSV serialization, schema validation, manifests."""

import hashlib
import json

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.serialize import (
    CSV_HEADER,
    SCHEMA_VERSION,
    SchemaError,
    build_manifest,
    dumps,
    manifest_path_for,
    manifests_equivalent,
    metrics_csv,
    prediction_from_dict,
    prediction_to_dict,
    read_json,
    read_prediction,
    read_scene,
    report_to_dict,
    round9,
    scene_from_dict,
    scene_to_dict,
    sha256_file,
    write_json,
    write_manifest,
)
from conftest import chain_scene, perfect_prediction


class TestRound9:
    def test_nine_significant_digits(self):
        assert round9(1.0 / 3.0) == 0.333333333
        assert round9(123456789.123) == 123456789.0
        assert round9(0.1) == 0.1

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(0.0, 100.0, size=50):
            assert round9(round9(float(x))) == round9(float(x))

    def test_integers_survive(self):
        assert round9(42.0) == 42.0
        assert round9(-7.0) == -7.0


class TestDumps:
    def test_compact_separators_and_trailing_newline(self):
        s = dumps({"a": [1, 2], "b": 0.5})
        assert s == '{"a":[1,2],"b":0.5}\n'

    def test_numpy_scalars_and_arrays(self):
        s = dumps({"m": np.array([[1.0, 2.0]]), "flag": np.bool_(True),
                   "n": np.int64(3), "x": np.float64(0.25)})
        assert s == '{"m":[[1.0,2.0]],"flag":true,"n":3,"x":0.25}\n'

    def test_floats_rounded_on_the_way_out(self):
        s = dumps({"x": 1.0 / 3.0})
        assert "0.333333333" in s
        assert "3333333333" not in s


class TestSceneRoundTrip:
    def test_bytes_stable_round_trip(self, tmp_path):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 n_traffic=3, seed=0))
        path = tmp_path / "scene.json"
        write_json(path, scene_to_dict(scene))
        again = read_scene(path)
        assert dumps(scene_to_dict(again)) == path.read_text()

    def test_values_survive_within_round9(self):
        scene = chain_scene()
        back = scene_from_dict(json.loads(dumps(scene_to_dict(scene))))
        assert back.n_points == scene.n_points
        for a, b in zip(back.lanes, scene.lanes):
            assert np.allclose(a.points, b.points, rtol=1e-8)
        assert np.array_equal(back.topo.ll, scene.topo.ll)
        assert back.traffic[0].category == scene.traffic[0].category
        assert back.traffic[0].score is None

    def test_empty_scene_restores_shapes(self):
        empty = lt.Scene(lanes=[], traffic=[],
                         topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, 0))))
        back = scene_from_dict(json.loads(dumps(scene_to_dict(empty))))
        assert back.topo.ll.shape == (0, 0)
        assert back.topo.lt.shape == (0, 0)

    def test_wrong_version_rejected(self):
        d = scene_to_dict(chain_scene())
        d["version"] = 99
        with pytest.raises(SchemaError, match="version"):
            scene_from_dict(d)

    def test_missing_key_rejected(self):
        d = scene_to_dict(chain_scene())
        del d["lanes"]
        with pytest.raises(SchemaError, match="lanes"):
            scene_from_dict(d)

    def test_invalid_topology_collected_not_crashed(self):
        d = scene_to_dict(chain_scene())
        d["topo"]["ll"] = [[0.0, 0.5], [0.0, 0.0]]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(d)
        assert any("not binary" in v for v in err.value.violations)

    def test_non_object_rejected(self):
        with pytest.raises(SchemaError):
            scene_from_dict([1, 2, 3])


class TestPredictionRoundTrip:
    def test_round_trip(self, tmp_path):
        scene = chain_scene()
        pred = perfect_prediction(scene)
        path = tmp_path / "pred.json"
        write_json(path, prediction_to_dict(pred))
        again = read_prediction(path, n_points=scene.n_points)
        assert dumps(prediction_to_dict(again)) == path.read_text()
        assert np.array_equal(again.lane_scores, pred.lane_scores)

    def test_missing_traffic_score_rejected(self):
        scene = chain_scene()
        d = prediction_to_dict(perfect_prediction(scene))
        del d["traffic"][0]["score"]
        with pytest.raises(SchemaError, match="score"):
            prediction_from_dict(d)

    def test_score_out_of_range_rejected(self):
        scene = chain_scene()
        d = prediction_to_dict(perfect_prediction(scene))
        d["lane_scores"] = [1.0, 1.5]
        with pytest.raises(SchemaError, match="outside"):
            prediction_from_dict(d)

    def test_point_count_enforced_when_given(self):
        scene = chain_scene()
        d = prediction_to_dict(perfect_prediction(scene))
        prediction_from_dict(d, n_points=11)
        with pytest.raises(SchemaError, match="point count"):
            prediction_from_dict(d, n_points=7)


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        write_json(path, {"version": 1})
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("lanetopo.serialize.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_json(path, {"version": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"version": 1})
        write_json(path, {"version": 2})
        assert read_json(path) == {"version": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestMetricsCsv:
    def test_header_and_formatting(self):
        rep = lt.MetricReport(det_l=1.0, det_t=0.5, top_ll=1.0 / 3.0, top_lt=0.0,
                              ols=0.625, lane_segments=None)
        csv = metrics_csv([("scene_a", rep)])
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "scene_a"
        assert cells[1] == "1"
        assert cells[3] == "0.333333333"
        # lane-segment columns are empty when that block was not computed
        assert cells[6:] == ["", "", "", ""]

    def test_lane_segment_columns_filled(self):
        rep = lt.MetricReport(
            det_l=1.0, det_t=1.0, top_ll=1.0, top_lt=1.0, ols=1.0,
            lane_segments=lt.LaneSegmentReport(map=0.75, ap_lane=0.5, ap_ped=None,
                                               top_lsls=1.0))
        csv = metrics_csv([("s", rep)])
        cells = csv.strip().split("\n")[1].split(",")
        assert cells[6] == "0.75"
        assert cells[7] == "0.5"
        assert cells[8] == ""
        assert cells[9] == "1"

    def test_report_dict_mirrors_csv_fields(self):
        rep = lt.MetricReport(det_l=0.1, det_t=0.2, top_ll=0.3, top_lt=0.4,
                              ols=0.25, lane_segments=None)
        d = report_to_dict(rep)
        assert d["det_l"] == 0.1
        assert d["ols"] == 0.25


class TestManifests:
    def test_sha256_matches_hashlib(self, tmp_path):
        p = tmp_path / "blob.json"
        p.write_text('{"x":1}\n')
        assert sha256_file(p) == hashlib.sha256(p.read_bytes()).hexdigest()

    def test_build_and_write(self, tmp_path):
        out = tmp_path / "scene.json"
        write_json(out, {"version": SCHEMA_VERSION})
        m = build_manifest("synth", params={"seed": 3}, seeds={"seed": 3},
                           inputs=[], outputs=[out], wall_time_s=0.25)
        assert m["command"] == "synth"
        assert m["outputs"][0]["path"] == "scene.json"
        assert m["outputs"][0]["sha256"] == sha256_file(out)
        mp = write_manifest(out, m)
        assert mp == manifest_path_for(out)
        assert mp.name == "scene.json.manifest.json"
        assert read_json(mp)["command"] == "synth"

    def test_equivalence_ignores_wall_time(self, tmp_path):
        out = tmp_path / "o.json"
        write_json(out, {"version": SCHEMA_VERSION})
        a = build_manifest("synth", {"seed": 1}, {"seed": 1}, [], [out],
                           wall_time_s=0.1)
        b = build_manifest("synth", {"seed": 1}, {"seed": 1}, [], [out],
                           wall_time_s=9.9)
        c = build_manifest("synth", {"seed": 2}, {"seed": 2}, [], [out],
                           wall_time_s=0.1)
        assert manifests_equivalent(a, b)
        assert not manifests_equivalent(a, c)

    def test_input_paths_stored_as_basenames(self, tmp_path):
        src = tmp_path / "deep" / "nested" / "in.json"
        src.parent.mkdir(parents=True)
        write_json(src, {"version": SCHEMA_VERSION})
        m = build_manifest("eval", {}, {}, inputs=[src], outputs=[],
                           wall_time_s=0.0)
        assert m["inputs"][0]["path"] == "in.json"
