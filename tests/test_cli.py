"""End-to-end CLI runs, exercised in process through main()."""

import warnings

import numpy as np
import pytest

import lanetopo as lt
from lanetopo.cli import build_parser, main
from lanetopo.serialize import (
    CSV_HEADER,
    manifest_path_for,
    manifests_equivalent,
    prediction_to_dict,
    read_json,
    read_prediction,
    read_scene,
    scene_to_dict,
    write_json,
)
from conftest import chain_scene, perfect_prediction, straight_lane


def run(*argv) -> int:
    return main([str(a) for a in argv])


def write_chain(path):
    scene = chain_scene()
    write_json(path, scene_to_dict(scene))
    return scene


def assert_refused_unwritten(rc, capsys, kept: dict, absent=()):
    """Exit 2 with the overwrite named, every kept file as it was, and no
    manifest or other output written."""
    assert rc == 2
    assert "would overwrite" in capsys.readouterr().err
    for path, before in kept.items():
        assert path.read_bytes() == before
        assert not manifest_path_for(path).exists()
    for path in absent:
        assert not path.exists()


class TestSynth:
    def test_grid_scene_and_manifest(self, tmp_path):
        out = tmp_path / "scene.json"
        assert run("synth", "--out", out, "--seed", 1) == 0
        scene = read_scene(out)
        assert len(scene.lanes) >= 2
        m = read_json(manifest_path_for(out))
        assert m["command"] == "synth"
        assert m["seeds"] == {"seed": 1}
        assert m["outputs"][0]["path"] == "scene.json"

    def test_roundabout(self, tmp_path):
        out = tmp_path / "ring.json"
        assert run("synth", "--kind", "roundabout", "--arms", 3, "--out", out) == 0
        scene = read_scene(out)
        assert len(scene.lanes) == 9
        assert int(scene.topo.ll.sum()) == 12

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("synth", "--seed", 7, "--traffic", 2)
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        ma = read_json(manifest_path_for(a))
        mb = read_json(manifest_path_for(b))
        ma["outputs"][0]["path"] = mb["outputs"][0]["path"] = "x"
        assert manifests_equivalent(ma, mb)

    def test_seed_changes_scene(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("synth", "--seed", 0, "--out", a) == 0
        assert run("synth", "--seed", 1, "--out", b) == 0
        assert a.read_bytes() != b.read_bytes()


class TestConnected:
    def test_chain_yields_one_connected_lane(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene = write_chain(scene_path)
        out = tmp_path / "conn.json"
        assert run("connected", "--scene", scene_path, "--out", out) == 0
        doc = read_json(out)
        assert len(doc["connected"]) == 1
        entry = doc["connected"][0]
        assert entry["source"] == [0, 1]
        assert len(entry["curve"]) == scene.n_points
        assert "1 connected lanes" in capsys.readouterr().out

    def test_edgeless_scene_yields_empty_list(self, tmp_path):
        scene = lt.Scene(
            lanes=[straight_lane(0.0, 10.0, 0.0), straight_lane(0.0, 10.0, 4.0)],
            traffic=[],
            topo=lt.TopologyGraph(ll=np.zeros((2, 2)), lt=np.zeros((2, 0))),
        )
        scene_path = tmp_path / "scene.json"
        write_json(scene_path, scene_to_dict(scene))
        out = tmp_path / "conn.json"
        assert run("connected", "--scene", scene_path, "--out", out) == 0
        assert read_json(out)["connected"] == []

    # the second case: the manifest of out.json would replace the scene
    @pytest.mark.parametrize("scene, out", [("scene.json", "./scene.json"),
                                            ("out.json.manifest.json", "out.json")])
    def test_output_onto_the_scene_exits_2(self, tmp_path, capsys, scene, out):
        scene_path = tmp_path / scene
        write_chain(scene_path)
        before = scene_path.read_bytes()
        rc = run("connected", "--scene", scene_path, "--out", tmp_path / out)
        assert_refused_unwritten(rc, capsys, {scene_path: before}, absent=[tmp_path / "out.json"])

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        d = scene_to_dict(chain_scene())
        d["version"] = 99
        write_json(scene_path, d)
        rc = run("connected", "--scene", scene_path, "--out", tmp_path / "c.json")
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestPredict:
    def small(self, *extra):
        return ("--channels", 16, "--heads", 2,
                "--lane-queries", 32, "--traffic-queries", 8) + extra

    @pytest.mark.parametrize("flag, value", [("--heads", "0"), ("--channels", "0"),
                                             ("--heads", "-2"), ("--channels", "-4")])
    def test_unusable_model_size_exits_2(self, tmp_path, capsys, flag, value):
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        out = tmp_path / "pred.json"
        with pytest.raises(SystemExit) as exc:
            run("predict", "--scene", scene_path, "--out", out, f"{flag}={value}")
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_output_onto_the_scene_exits_2(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        before = scene_path.read_bytes()
        rc = run("predict", "--scene", scene_path, "--out", scene_path, *self.small())
        assert_refused_unwritten(rc, capsys, {scene_path: before})

    def test_single_file(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        scene = write_chain(scene_path)
        out = tmp_path / "pred.json"
        assert run("predict", "--scene", scene_path, "--out", out, *self.small()) == 0
        pred = read_prediction(out, n_points=scene.n_points)
        assert len(pred.lanes) == len(scene.lanes)
        m = read_json(manifest_path_for(out))
        assert m["command"] == "predict"
        assert m["seeds"] == {"param_seed": 0, "noise_seed": 0}

    def test_directory_mode(self, tmp_path):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for name, seed in (("a.json", 0), ("b.json", 1)):
            assert run("synth", "--seed", seed, "--out", scenes / name) == 0
        preds = tmp_path / "preds"
        assert run("predict", "--scene", scenes, "--out", preds, *self.small()) == 0
        assert sorted(p.name for p in preds.glob("*.json")
                      if not p.name.endswith(".manifest.json")) == ["a.json", "b.json"]
        read_prediction(preds / "a.json")

    def test_corrupt_scene_in_directory_exits_2_and_others_get_output(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for name, seed in (("a.json", 0), ("c.json", 1)):
            assert run("synth", "--seed", seed, "--out", scenes / name) == 0
        (scenes / "b.json").write_text("{not json", encoding="utf-8")
        preds = tmp_path / "preds"
        assert run("predict", "--scene", scenes, "--out", preds, *self.small()) == 2
        assert "b.json: invalid JSON" in capsys.readouterr().err
        assert sorted(p.name for p in preds.iterdir()) == [
            "a.json", "a.json.manifest.json", "c.json", "c.json.manifest.json"]
        read_prediction(preds / "a.json")
        read_prediction(preds / "c.json")

    def test_failed_scene_drops_earlier_output(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for name, seed in (("a.json", 0), ("b.json", 1), ("c.json", 2)):
            assert run("synth", "--seed", seed, "--out", scenes / name) == 0
        preds = tmp_path / "preds"
        assert run("predict", "--scene", scenes, "--out", preds, *self.small()) == 0
        for name in ("b.json", "c.json"):
            (scenes / name).write_text("{not json", encoding="utf-8")
        assert run("predict", "--scene", scenes, "--out", preds, *self.small()) == 2
        assert sorted(p.name for p in preds.iterdir()) == ["a.json", "a.json.manifest.json"]
        # so a later eval cannot score the stale predictions
        assert run("eval", "--pred", preds, "--gt", scenes,
                   "--out", tmp_path / "r.json") == 2
        assert "no prediction file for b.json, c.json" in capsys.readouterr().err

    def test_output_into_the_scene_directory_exits_2(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        assert run("synth", "--seed", 0, "--out", scenes / "a.json") == 0
        before = (scenes / "a.json").read_bytes()
        assert run("predict", "--scene", scenes, "--out", scenes, *self.small()) == 2
        assert "is the scene directory" in capsys.readouterr().err
        assert (scenes / "a.json").read_bytes() == before

    def test_rerun_is_byte_identical(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        a, b = tmp_path / "p1.json", tmp_path / "p2.json"
        args = ("predict", "--scene", scene_path, "--source", "perturbed",
                "--point-sigma", 0.2, "--score-noise", 0.3) + self.small()
        assert run(*args, "--out", a) == 0
        assert run(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truncating_budget_warns_on_stderr(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene = write_chain(scene_path)
        full, cut = tmp_path / "full.json", tmp_path / "cut.json"
        assert run("predict", "--scene", scene_path, "--out", full, *self.small()) == 0
        assert capsys.readouterr().err == ""
        assert run("predict", "--scene", scene_path, "--out", cut, *self.small(),
                   "--lane-queries", 1) == 0
        assert capsys.readouterr().err == (
            f"warning: scene.json: query budget keeps 1 of {len(scene.lanes)} lanes\n")
        assert len(read_prediction(cut).lanes) == 1
        m = read_json(manifest_path_for(cut))
        assert m["params"]["lane_queries"] == 1

    def test_no_tam_runs(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        out = tmp_path / "pred.json"
        assert run("predict", "--scene", scene_path, "--out", out,
                   "--no-tam", *self.small()) == 0
        m = read_json(manifest_path_for(out))
        assert m["params"]["use_tam"] is False

    def test_score_noise_flags_warn_and_stay_out_of_the_manifest(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        plain, noisy = tmp_path / "plain.json", tmp_path / "noisy.json"
        perturbed = ("--source", "perturbed", "--point-sigma", 0.2) + self.small()
        assert run("predict", "--scene", scene_path, "--out", plain, *perturbed) == 0
        assert capsys.readouterr().err == ""
        assert run("predict", "--scene", scene_path, "--out", noisy, *perturbed,
                   "--score-noise", 0.3, "--topo-flip-rate", 0.2) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: ")
        assert "--score-noise" in err[0] and "--topo-flip-rate" in err[0]
        assert noisy.read_bytes() == plain.read_bytes()
        params = read_json(manifest_path_for(noisy))["params"]
        assert "score_noise" not in params and "topo_flip_rate" not in params
        assert params == read_json(manifest_path_for(plain))["params"]
        assert run("predict", "--scene", scene_path, "--out", noisy, *perturbed,
                   "--topo-flip-rate", 0.2) == 0
        err = capsys.readouterr().err
        assert "--topo-flip-rate" in err and "--score-noise" not in err

    NOISE = (("--point-sigma", 0.3), ("--drop-rate", 0.1), ("--spurious-rate", 0.2),
             ("--score-noise", 0.3), ("--topo-flip-rate", 0.05), ("--noise-seed", 4))

    def test_noise_flags_under_gt_source_exit_2(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        out = tmp_path / "pred.json"
        for flag, value in self.NOISE:
            assert run("predict", "--scene", scene_path, "--out", out,
                       flag, value, *self.small()) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and flag in err
            assert "--source gt" in err
            assert not out.exists()
        every = [str(tok) for pair in self.NOISE for tok in pair]
        assert run("predict", "--scene", scene_path, "--out", out, "--source", "gt",
                   *every, *self.small()) == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag, _ in self.NOISE)
        assert err.count("\n") == 1

    def test_zero_noise_flags_under_gt_source_are_accepted(self, tmp_path):
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        out = tmp_path / "pred.json"
        zeros = [str(tok) for flag, _ in self.NOISE for tok in (flag, 0)]
        assert run("predict", "--scene", scene_path, "--out", out, *zeros,
                   *self.small()) == 0


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_each_call_parses_its_own_arguments(self, tmp_path):
        # one shared parser: predict, eval, predict --no-tam and predict
        # again, each manifest recording only its own call's flags
        scene_path = tmp_path / "scene.json"
        write_chain(scene_path)
        small = ("--channels", 16, "--heads", 2, "--lane-queries", 32, "--traffic-queries", 8)
        outs = [tmp_path / f"pred{k}.json" for k in range(3)]
        assert run("predict", "--scene", scene_path, "--out", outs[0], *small) == 0
        report = tmp_path / "report.json"
        assert run("eval", "--pred", outs[0], "--gt", scene_path, "--out", report,
                   "--lane-width", 2.5) == 0
        assert run("predict", "--scene", scene_path, "--out", outs[1], "--no-tam",
                   *small) == 0
        assert run("predict", "--scene", scene_path, "--out", outs[2], *small) == 0
        params = [read_json(manifest_path_for(out))["params"] for out in outs]
        assert [p["use_tam"] for p in params] == [True, False, True]
        eval_manifest = read_json(manifest_path_for(report))
        assert eval_manifest["command"] == "eval"
        assert eval_manifest["params"]["lane_width"] == 2.5
        assert outs[0].read_bytes() == outs[2].read_bytes()


class TestEval:
    # the default CSV path of --out report.csv is report.csv, and the
    # manifest of report.json is report.json.manifest.json
    @pytest.mark.parametrize("out, csv", [("report.json", "report.json"), ("pred.json", None),
                                          ("report.json", "scene.json"), ("report.csv", None),
                                          ("report.json", "report.json.manifest.json")])
    def test_output_onto_an_input_or_the_other_output_exits_2(self, tmp_path, capsys,
                                                              out, csv):
        scene_path, pred_path = tmp_path / "scene.json", tmp_path / "pred.json"
        scene = write_chain(scene_path)
        write_json(pred_path, prediction_to_dict(perfect_prediction(scene)))
        kept = {p: p.read_bytes() for p in (scene_path, pred_path)}
        rc = run("eval", "--pred", pred_path, "--gt", scene_path, "--out", tmp_path / out,
                 *(("--csv", tmp_path / csv) if csv else ()))
        assert_refused_unwritten(rc, capsys, kept,
                                 absent=[tmp_path / "report.json", tmp_path / "report.csv"])

    def test_perfect_prediction_scores_ones(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene = write_chain(scene_path)
        pred_path = tmp_path / "pred.json"
        from lanetopo.serialize import prediction_to_dict
        write_json(pred_path, prediction_to_dict(perfect_prediction(scene)))
        out = tmp_path / "report.json"
        assert run("eval", "--pred", pred_path, "--gt", scene_path,
                   "--out", out) == 0
        doc = read_json(out)
        row = doc["scenes"]["pred"]
        assert row["det_l"] == 1.0
        assert row["ols"] == 1.0
        assert row["lane_segments"]["map"] == 1.0
        assert row["lane_segments"]["ap_ped"] is None
        csv = (tmp_path / "report.csv").read_text()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2  # no mean row for a single scene
        assert "OLS 1.0000" in capsys.readouterr().out

    def test_directory_mode_with_mean_row(self, tmp_path):
        scenes = tmp_path / "scenes"
        preds = tmp_path / "preds"
        scenes.mkdir()
        for name, seed in (("a.json", 0), ("b.json", 1)):
            assert run("synth", "--seed", seed, "--out", scenes / name) == 0
        assert run("predict", "--scene", scenes, "--out", preds,
                   "--channels", 16, "--heads", 2,
                   "--lane-queries", 32, "--traffic-queries", 8) == 0
        out = tmp_path / "report.json"
        csv_path = tmp_path / "metrics.csv"
        assert run("eval", "--pred", preds, "--gt", scenes, "--out", out,
                   "--csv", csv_path) == 0
        doc = read_json(out)
        assert set(doc["scenes"]) == {"a", "b"}
        assert 0.0 <= doc["mean"]["ols"] <= 1.0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[-1].startswith("mean,")

    def test_missing_prediction_exits_2(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        preds = tmp_path / "preds"
        scenes.mkdir()
        for name, seed in (("a.json", 0), ("b.json", 1), ("c.json", 2)):
            assert run("synth", "--seed", seed, "--out", scenes / name) == 0
        assert run("predict", "--scene", scenes, "--out", preds,
                   "--channels", 16, "--heads", 2,
                   "--lane-queries", 32, "--traffic-queries", 8) == 0
        (preds / "b.json").unlink()
        out = tmp_path / "report.json"
        assert run("eval", "--pred", preds, "--gt", scenes, "--out", out) == 2
        assert "no prediction file for b.json" in capsys.readouterr().err
        assert not out.exists()

    def test_every_unreadable_scene_is_named(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        preds = tmp_path / "preds"
        scenes.mkdir()
        for name, seed in (("a.json", 0), ("b.json", 1), ("c.json", 2)):
            assert run("synth", "--seed", seed, "--out", scenes / name) == 0
        assert run("predict", "--scene", scenes, "--out", preds,
                   "--channels", 16, "--heads", 2,
                   "--lane-queries", 32, "--traffic-queries", 8) == 0
        for name in ("b.json", "c.json"):
            (scenes / name).write_text("{not json", encoding="utf-8")
        out = tmp_path / "report.json"
        assert run("eval", "--pred", preds, "--gt", scenes, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert "b.json: invalid JSON" in err[0]
        assert "c.json: invalid JSON" in err[1]
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--det-thresholds", "nan"), ("--det-thresholds", "-1"),
        ("--det-thresholds", "1,0,3"), ("--det-thresholds", ","),
        ("--top-frechet", "nan"), ("--top-frechet", "inf"), ("--top-frechet", "-2"),
        ("--top-iou", "inf"), ("--top-iou", "0"), ("--det-iou", "1.5"), ("--det-iou", "nan"),
    ])
    def test_unscorable_threshold_exits_2(self, tmp_path, capsys, flag, value):
        scene_path = tmp_path / "scene.json"
        scene = write_chain(scene_path)
        pred_path = tmp_path / "pred.json"
        from lanetopo.serialize import prediction_to_dict
        write_json(pred_path, prediction_to_dict(perfect_prediction(scene)))
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run("eval", "--pred", pred_path, "--gt", scene_path, "--out", out,
                f"{flag}={value}")
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_unusable_lane_width_exits_2_before_reading(self, tmp_path, capsys, value):
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                # neither file exists: the flag is rejected before any is read
                run("eval", "--pred", tmp_path / "pred.json", "--gt", tmp_path / "scene.json",
                    "--out", out, f"--lane-width={value}")
        assert exc.value.code == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith(("usage:", " "))]
        assert len(err) == 1
        assert "--lane-width" in err[0] and "lane width must be finite and positive" in err[0]
        assert not out.exists()

    def test_eval_builds_no_polyline_beyond_its_inputs(self, tmp_path, monkeypatch):
        # the lane-segment block widens lanes as arrays; a per-lane object
        # path would build three more polylines per lane
        scene_path, pred_path = tmp_path / "scene.json", tmp_path / "pred.json"
        assert run("synth", "--corridors", 6, "--segments", 12, "--seed", 3,
                   "--out", scene_path) == 0
        assert run("predict", "--scene", scene_path, "--out", pred_path,
                   "--source", "perturbed", "--point-sigma", 0.3, "--drop-rate", 0.1) == 0
        n_lanes = len(read_scene(scene_path).lanes) + len(read_prediction(pred_path).lanes)
        # every polyline built, checked one by one or read from a checked stack
        built = []
        check = lt.Polyline3D.__post_init__
        unchecked = lt.Polyline3D.unchecked.__func__

        def counted(self):
            built.append(1)
            check(self)

        def counted_unchecked(cls, points):
            built.append(1)
            return unchecked(cls, points)

        monkeypatch.setattr(lt.Polyline3D, "__post_init__", counted)
        monkeypatch.setattr(lt.Polyline3D, "unchecked", classmethod(counted_unchecked))
        assert run("eval", "--pred", pred_path, "--gt", scene_path,
                   "--out", tmp_path / "report.json") == 0
        assert n_lanes > 100
        assert len(built) == n_lanes
        assert read_json(tmp_path / "report.json")["scenes"]["pred"]["lane_segments"] is not None

    def test_file_dir_mismatch_exits_2(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        pred_path = tmp_path / "pred.json"
        scene = write_chain(tmp_path / "scene.json")
        from lanetopo.serialize import prediction_to_dict
        write_json(pred_path, prediction_to_dict(perfect_prediction(scene)))
        rc = run("eval", "--pred", pred_path, "--gt", scenes,
                 "--out", tmp_path / "r.json")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_prediction_exits_2(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene = write_chain(scene_path)
        from lanetopo.serialize import prediction_to_dict
        d = prediction_to_dict(perfect_prediction(scene))
        d["lane_scores"] = d["lane_scores"][:-1]
        pred_path = tmp_path / "pred.json"
        write_json(pred_path, d)
        rc = run("eval", "--pred", pred_path, "--gt", scene_path,
                 "--out", tmp_path / "r.json")
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_clean_run_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run("gradcheck", "--instances", 2, "--out", out) == 0
        doc = read_json(out)
        assert doc["pass"] is True
        assert doc["max_rel_error"] < 1e-4
        assert {e["op"] for e in doc["ops"]} == {
            "mlp_forward", "sigmoid_mask", "self_attention",
            "masked_cross_attention", "predict_ll_backward", "focal_loss_grad",
            "topology_stack"}
        assert "pass" in capsys.readouterr().out

    def test_corrupted_gradient_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run("gradcheck", "--instances", 2, "--out", out,
                 "--corrupt", "self_attention")
        assert rc == 1
        assert read_json(out)["pass"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_ll_head_gradient_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = run("gradcheck", "--instances", 1, "--out", out,
                 "--corrupt", "predict_ll_backward")
        assert rc == 1
        doc = read_json(out)
        assert doc["pass"] is False
        assert [e["op"] for e in doc["ops"] if e["max_rel_error"] > 1e-3] \
            == ["predict_ll_backward"]

    def gradcheck_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            run("gradcheck", "--out", out, f"{flag}={value}")
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1e-5", "nan", "inf"])
    def test_unusable_eps_exits_2(self, tmp_path, capsys, value):
        self.gradcheck_exits_2(tmp_path, capsys, "--eps", value)

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_unusable_tol_exits_2(self, tmp_path, capsys, value):
        self.gradcheck_exits_2(tmp_path, capsys, "--tol", value)

    @pytest.mark.parametrize("value", ["0", "-2", "1.5"])
    def test_unusable_instances_exits_2(self, tmp_path, capsys, value):
        self.gradcheck_exits_2(tmp_path, capsys, "--instances", value)

    @pytest.mark.parametrize("value", ["typo", "sigmoid_mask_forward", ""])
    def test_corrupting_an_unchecked_op_exits_2(self, tmp_path, capsys, value):
        self.gradcheck_exits_2(tmp_path, capsys, "--corrupt", value)


class TestFitdemo:
    def scene_path(self, tmp_path):
        params = lt.SynthParams(n_corridors=1, n_segments=2, split_prob=0.0,
                                merge_prob=0.0, n_traffic=0, seed=0)
        path = tmp_path / "scene.json"
        write_json(path, scene_to_dict(lt.generate_scene(params)))
        return path

    def test_reaches_loose_target(self, tmp_path, capsys):
        scene = self.scene_path(tmp_path)
        out = tmp_path / "losses.csv"
        assert run("fitdemo", "--scene", scene, "--out", out,
                   "--steps", 60, "--max-loss", 10.0) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert len(lines) == 61
        assert "loss" in capsys.readouterr().out

    def test_misses_tight_target(self, tmp_path, capsys):
        scene = self.scene_path(tmp_path)
        rc = run("fitdemo", "--scene", scene, "--out", tmp_path / "l.csv",
                 "--steps", 5, "--max-loss", 1e-9)
        assert rc == 1
        assert "did not reach" in capsys.readouterr().out

    def test_output_onto_the_scene_exits_2(self, tmp_path, capsys):
        scene = self.scene_path(tmp_path)
        before = scene.read_bytes()
        rc = run("fitdemo", "--scene", scene, "--out", scene, "--steps", 2)
        assert_refused_unwritten(rc, capsys, {scene: before})

    @pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning gets out
    def test_diverging_fit_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        rc = run("fitdemo", "--scene", self.scene_path(tmp_path), "--out", out,
                 "--steps", 20, "--lr", 1e300)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: --lr 1e+300 diverges: loss nan at step 1\n"
        assert not out.exists() and not manifest_path_for(out).exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_fewer_than_one_step_exits_2(self, tmp_path, capsys, value):
        out = tmp_path / "l.csv"
        with pytest.raises(SystemExit) as exc:
            run("fitdemo", "--scene", self.scene_path(tmp_path), "--out", out,
                f"--steps={value}")
        assert exc.value.code == 2
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()


class TestInputErrors:
    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "scene.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = run("connected", "--scene", bad, "--out", tmp_path / "c.json")
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = run("connected", "--scene", tmp_path / "absent.json",
                 "--out", tmp_path / "c.json")
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("n_points", None), ("n_points", [11]), ("n_points", 11.7), ("n_points", "11"),
        ("n_points", True), ("version", True), ("version", 1.0),
    ])
    def test_malformed_integer_field_exits_2(self, tmp_path, capsys, field, value):
        scene_path = tmp_path / "scene.json"
        d = scene_to_dict(chain_scene())
        d[field] = value
        write_json(scene_path, d)
        rc = run("predict", "--scene", scene_path, "--out", tmp_path / "p.json")
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and field in lines[0]
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("command, where", [
        ("predict", "lane 0"), ("predict", "traffic element 0"), ("predict", "topo"),
        ("eval", "lane_scores"),
    ])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, command, where):
        # 10**400 is a valid JSON integer that no float holds
        scene_path, pred_path = tmp_path / "scene.json", tmp_path / "pred.json"
        scene = write_chain(scene_path)
        from lanetopo.serialize import prediction_to_dict
        write_json(pred_path, prediction_to_dict(perfect_prediction(scene)))
        doc = read_json(pred_path if command == "eval" else scene_path)
        if where == "lane 0":
            doc["lanes"][0][0][0] = 10**400
        elif where == "traffic element 0":
            doc["traffic"][0]["bbox"][0] = 10**400
        elif where == "topo":
            doc["topo"]["ll"][0][1] = 10**400
        else:
            doc["lane_scores"][0] = 10**400
        write_json(pred_path if command == "eval" else scene_path, doc)
        out = tmp_path / "out.json"
        if command == "eval":
            rc = run("eval", "--pred", pred_path, "--gt", scene_path, "--out", out)
        else:
            rc = run("predict", "--scene", scene_path, "--out", out)
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and f"{where}: " in lines[0]
        assert "too large" in lines[0]
        assert not out.exists()
