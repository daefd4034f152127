"""The model's leading batch axis against one scene at a time, bit for bit.

A directory `predict` groups its scenes by shape (point count, lanes,
connected curves, traffic elements) after the degradation model and the
query budgets, and runs each group through the model once
(pipeline.predict_batch). Every stage keeps the batch axis, so each
scene's prediction must be the bytes of tests/oracles.py's per-scene
pipeline. The scenes mix two point counts, scenes without lanes, without
connected curves and without traffic, and a pair of 54-lane scenes whose
correlation matrix spans two MASK_BLOCKs and whose lane pairs span two
PAIR_BLOCKs.
"""

import hashlib

import numpy as np
import pytest

import lanetopo as lt
from lanetopo import attention, cli, heads, pipeline
from lanetopo.attention import (
    MASK_BLOCK,
    CrossAttentionParams,
    ModelDims,
    SelfAttentionParams,
    SigmoidMaskParams,
    masked_cross_attention_forward,
    self_attention_forward,
    sigmoid_mask_forward,
)
from lanetopo.connect import half_distances
from lanetopo.features import GeometryEncoder
from lanetopo.geometry import avg_l1_matrix
from lanetopo.heads import PAIR_BLOCK, TopologyHeadParams, match_connected, predict_lt
from lanetopo.nn import MlpParams, mlp_forward
from lanetopo.serialize import (
    manifest_path_for,
    prediction_to_dict,
    read_scene,
    scene_to_dict,
    write_json,
)
from conftest import chain_scene, traffic_bits
from oracles import run_pipeline_per_scene
from test_predict_corpus import DIGESTS, RUNS
from test_predict_corpus import SCENES as CORPUS

FLAT = dict(split_prob=0.0, merge_prob=0.0)


def lane_less(n_traffic):
    traffic = [lt.TrafficElement(bbox=(10.0 + k, 20.0, 50.0, 90.0), category="stop_sign")
               for k in range(n_traffic)]
    return lt.Scene(lanes=[], traffic=traffic,
                    topo=lt.TopologyGraph(ll=np.zeros((0, 0)), lt=np.zeros((0, n_traffic))))


def grid(corridors, segments, seed, **kw):
    return lt.generate_scene(lt.SynthParams(n_corridors=corridors, n_segments=segments,
                                            seed=seed, **kw))


# pairs of scenes of one shape, so each group has at least two
SCENES = {
    "a_empty": lambda: lane_less(1),
    "b_empty": lambda: lane_less(1),
    "c_grid": lambda: grid(2, 2, 1, **FLAT),
    "d_grid": lambda: grid(2, 2, 2, **FLAT),
    "e_noconn": lambda: grid(3, 1, 3),
    "f_noconn": lambda: grid(3, 1, 4),
    "g_notraffic": lambda: grid(2, 3, 5, n_traffic=0, **FLAT),
    "h_notraffic": lambda: grid(2, 3, 6, n_traffic=0, **FLAT),
    "i_big": lambda: grid(6, 9, 7, **FLAT),
    "j_big": lambda: grid(6, 9, 8, **FLAT),
    "k_pts7": lambda: grid(2, 2, 9, n_points=7, **FLAT),
    "l_pts7": lambda: grid(2, 2, 10, n_points=7, **FLAT),
    "m_split": lambda: grid(2, 3, 11, split_prob=1.0, merge_prob=1.0),
}

NOISE = lt.NoiseParams(point_sigma=0.3, drop_rate=0.1, spurious_rate=0.2)
CONFIGS = {
    "gt": (lt.PipelineConfig(), ()),
    "jitter": (lt.PipelineConfig(source="perturbed", noise=lt.NoiseParams(point_sigma=0.3),
                                 noise_seed=3),
               ("--source", "perturbed", "--point-sigma", "0.3", "--noise-seed", "3")),
    "perturbed": (lt.PipelineConfig(source="perturbed", noise=NOISE, noise_seed=5),
                  ("--source", "perturbed", "--point-sigma", "0.3", "--drop-rate", "0.1",
                   "--spurious-rate", "0.2", "--noise-seed", "5")),
    "budget": (lt.PipelineConfig(n_lane_queries=5, n_traffic_queries=2,
                                 dims=ModelDims(c=16, n_heads=2)),
               ("--lane-queries", "5", "--traffic-queries", "2", "--channels", "16",
                "--heads", "2")),
    "no_tam": (lt.PipelineConfig(use_tam=False), ("--no-tam",)),
}


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def scenes():
    return {name: build() for name, build in SCENES.items()}


def assert_bitwise(a, b):
    assert a.lanes.points.tobytes() == b.lanes.points.tobytes()
    assert np.array_equal(a.lanes.offsets, b.lanes.offsets)
    for x, y in ((a.lane_scores, b.lane_scores), (a.topo.ll, b.topo.ll),
                 (a.topo.lt, b.topo.lt)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    assert traffic_bits(a.traffic) == traffic_bits(b.traffic)


def grouped(scenes, cfg):
    """{name: prediction} of every scene, one predict_batch per shape, and
    the groups' sizes by shape."""
    params = {n: pipeline.init_pipeline_params(cfg, n) for n in {s.n_points for s in scenes.values()}}
    inputs = {name: pipeline.scene_inputs(scene, cfg) for name, scene in scenes.items()}
    groups = {}
    for name, item in inputs.items():
        groups.setdefault(item.shape, []).append(name)
    out = {}
    for shape, names in groups.items():
        preds = pipeline.predict_batch(params[shape[0]], [inputs[k] for k in names], cfg)
        out.update(zip(names, preds))
    return out, {shape: len(names) for shape, names in groups.items()}, params


class TestGroupedForward:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_each_scene_is_its_per_scene_prediction(self, scenes, config):
        cfg, _ = CONFIGS[config]
        preds, sizes, params = grouped(scenes, cfg)
        assert max(sizes.values()) >= 2
        for name, scene in scenes.items():
            assert_bitwise(preds[name], run_pipeline_per_scene(scene, cfg,
                                                               params[scene.n_points]))

    def test_the_corpus_covers_its_edge_cases(self, scenes):
        _, sizes, _ = grouped(scenes, lt.PipelineConfig())
        by_shape = {(n_points, n, m, t): size for (n_points, n, m, t), size in sizes.items()}
        assert by_shape[(11, 0, 0, 1)] == 2
        assert any(m == 0 and n and size == 2 for (_, n, m, _), size in by_shape.items())
        assert any(t == 0 and size == 2 for (_, _, _, t), size in by_shape.items())
        assert any(p == 7 and size == 2 for (p, _, _, _), size in by_shape.items())
        big = [(n, m) for (_, n, m, _), size in by_shape.items() if size == 2 and n > 50]
        assert big and all(n * m > MASK_BLOCK and n * n > PAIR_BLOCK for n, m in big)

    def test_run_pipeline_is_a_batch_of_one(self, scenes):
        cfg = CONFIGS["perturbed"][0]
        for scene in scenes.values():
            assert_bitwise(lt.run_pipeline(scene, cfg), run_pipeline_per_scene(
                scene, cfg, pipeline.init_pipeline_params(cfg, scene.n_points)))


def write_scenes(directory, scenes):
    directory.mkdir()
    for name, scene in scenes.items():
        write_json(directory / f"{name}.json", scene_to_dict(scene))


class TestDirectoryPredict:
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_every_file_is_the_per_scene_bytes(self, scenes, tmp_path, config):
        cfg, flags = CONFIGS[config]
        write_scenes(tmp_path / "scenes", scenes)
        assert run("predict", "--scene", tmp_path / "scenes", "--out", tmp_path / "out",
                   *flags) == 0
        for name in scenes:
            # the scene as the command reads it: written to 9 significant digits
            scene = read_scene(tmp_path / "scenes" / f"{name}.json")
            expected = tmp_path / f"{name}.expected.json"
            write_json(expected, prediction_to_dict(run_pipeline_per_scene(
                scene, cfg, pipeline.init_pipeline_params(cfg, scene.n_points))))
            assert (tmp_path / "out" / f"{name}.json").read_bytes() == expected.read_bytes()

    def test_the_predict_corpus_equals_its_per_file_outputs(self, tmp_path):
        scenes = {name: lt.generate_scene(params) for name, params in CORPUS}
        scenes["roundabout"] = lt.generate_roundabout(radius=18.0, n_arms=5, seed=44)
        write_scenes(tmp_path / "scenes", scenes)
        for name_run, flags in RUNS.items():
            batch = tmp_path / name_run
            assert run("predict", "--scene", tmp_path / "scenes", "--out", batch, *flags) == 0
            for name in scenes:
                single = tmp_path / f"{name_run}-{name}.json"
                assert run("predict", "--scene", tmp_path / "scenes" / f"{name}.json",
                           "--out", single, *flags) == 0
                data = single.read_bytes()
                assert (batch / f"{name}.json").read_bytes() == data
                assert hashlib.sha256(data).hexdigest() == DIGESTS[f"{name_run}/{name}.json"]

    @pytest.mark.parametrize("group_lanes", [1, 10, cli.GROUP_LANES])
    def test_a_bad_scene_in_a_chunk_is_reported_and_skipped(
            self, scenes, tmp_path, capsys, monkeypatch, group_lanes):
        names = ["c_grid", "d_grid", "k_pts7", "m_split"]
        write_scenes(tmp_path / "scenes", {name: scenes[name] for name in names})
        bad = tmp_path / "scenes" / "e_bad.json"
        doc = scene_to_dict(grid(2, 2, 1, **FLAT))  # its lanes are views of the scene's
        # it reads, but the merge of its edge (0, 1) is longer than any float
        doc["lanes"][0][0] = [1e308, -1e308, 0.0]
        write_json(bad, doc)
        flags = ("--lane-queries", "3", "--traffic-queries", "2")
        out = tmp_path / "out"
        out.mkdir()
        for stale in (out / bad.name, manifest_path_for(out / bad.name)):
            stale.write_text("{}", encoding="utf-8")
        files = sorted(p.name for p in (tmp_path / "scenes").iterdir())
        expected_out, expected_err = [], []
        for name in files:
            code = run("predict", "--scene", tmp_path / "scenes" / name,
                       "--out", tmp_path / f"single-{name}", *flags)
            captured = capsys.readouterr()
            assert code == (2 if name == bad.name else 0)
            expected_out += [line.replace(str(tmp_path / f"single-{name}"), str(out / name))
                             for line in captured.out.splitlines()]
            expected_err += [line.replace("error: ", f"error: {name}: ")
                             for line in captured.err.splitlines()]
        assert len(expected_err) == len(files) and "marked connected" in expected_err[2]

        monkeypatch.setattr(cli, "GROUP_LANES", group_lanes)
        assert run("predict", "--scene", tmp_path / "scenes", "--out", out, *flags) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == expected_out
        assert captured.err.splitlines() == expected_err
        assert not (out / bad.name).exists() and not manifest_path_for(out / bad.name).exists()
        for name in files:
            if name != bad.name:
                assert (out / name).read_bytes() == (tmp_path / f"single-{name}").read_bytes()


    def test_a_group_the_model_refuses_fails_each_of_its_scenes(self, tmp_path, capsys):
        # two-point curves cannot be split into halves, whatever the batch
        write_scenes(tmp_path / "scenes", {"a": chain_scene(n_points=2), "b": chain_scene(),
                                           "c": chain_scene(n_points=2)})
        assert run("predict", "--scene", tmp_path / "scenes", "--out", tmp_path / "out") == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"wrote {tmp_path / 'out' / 'b.json'}: 2 lanes"]
        assert captured.err.splitlines() == [
            f"error: {name}.json: cannot split 2-point curves into halves: one half would be "
            "a zero-length polyline (at least 3 points are needed)" for name in "ac"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) \
            == ["b.json", "b.json.manifest.json"]


class TestCallsPerGroup:
    """A directory of scenes of one shape runs the model once: as many
    self-attention and ll-head calls for eight scenes as for one."""

    def test_eight_scenes_make_the_calls_of_one(self, tmp_path, monkeypatch):
        calls = []
        for module, name in ((attention, "self_attention_forward"),
                             (heads, "predict_ll_cached")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        counts = {}
        for k in (1, 8):
            scenes = {f"s{seed}": grid(2, 2, seed, **FLAT) for seed in range(k)}
            write_scenes(tmp_path / f"scenes{k}", scenes)
            calls.clear()
            assert run("predict", "--scene", tmp_path / f"scenes{k}",
                       "--out", tmp_path / f"out{k}") == 0
            counts[k] = sorted(calls)
        # lanes, connected curves and traffic each through the self-attention
        assert counts[1] == ["predict_ll_cached"] + ["self_attention_forward"] * 3
        assert counts[8] == counts[1]


def batch_of(draw, k=3):
    return np.stack([draw() for _ in range(k)])


class TestBatchAxis:
    """Each batched primitive against its 2-D call on every scene."""

    C = 8

    @staticmethod
    def per_scene(batched, fn, *arrays):
        for b in range(len(arrays[0])):
            single = fn(*(a[b] for a in arrays))
            assert batched[b].shape == single.shape
            assert batched[b].tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_encode_and_self_attention(self, n):
        rng = np.random.default_rng(n)
        enc = GeometryEncoder.init(3 * 5, self.C, rng)
        L = rng.normal(scale=30.0, size=(3, n, 5, 3))
        self.per_scene(enc.encode(L), enc.encode, L)
        params = SelfAttentionParams.init(ModelDims(c=self.C, n_heads=2), rng)
        q = enc.encode(L)
        self.per_scene(self_attention_forward(params, q)[0],
                       lambda x: self_attention_forward(params, x)[0], q)

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 5), (50, 45), (683, 3)])
    def test_mask_and_cross_attention(self, n, m):
        rng = np.random.default_rng(n + m)
        mask = SigmoidMaskParams.init(self.C, rng)
        d = np.abs(rng.normal(scale=3.0, size=(3, n, m)))
        s = sigmoid_mask_forward(mask, d)[0]
        self.per_scene(s, lambda x: sigmoid_mask_forward(mask, x)[0], d)
        tam = CrossAttentionParams.init(ModelDims(c=self.C, n_heads=2), rng)
        q, qc = rng.normal(size=(3, n, self.C)), rng.normal(size=(3, m, self.C))
        self.per_scene(masked_cross_attention_forward(tam, q, qc, s)[0],
                       lambda *x: masked_cross_attention_forward(tam, *x)[0], q, qc, s)

    @pytest.mark.parametrize("n, m, t", [(1, 1, 1), (4, 6, 2), (60, 3, 40)])
    def test_heads(self, n, m, t):
        rng = np.random.default_rng(n * m)
        params = TopologyHeadParams.init(self.C, rng)
        q, qc = rng.normal(size=(3, n, self.C)), rng.normal(size=(3, m, self.C))
        # duplicate pairs, so the winning row is picked within each scene
        pairs = rng.integers(0, min(n, 2), size=(3, m, 2))
        self.per_scene(heads.predict_ll_cached(params, q, qc, pairs)[0],
                       lambda *x: heads.predict_ll_cached(params, *x)[0], q, qc, pairs)
        qt = rng.normal(size=(3, t, self.C))
        self.per_scene(predict_lt(q, qt, params), lambda *x: predict_lt(*x, params), q, qt)
        mlp = MlpParams.init((self.C, self.C, 1), rng)
        self.per_scene(mlp_forward(mlp, q), lambda x: mlp_forward(mlp, x), q)

    @pytest.mark.parametrize("n, m, N", [(1, 1, 3), (5, 0, 11), (70, 80, 11), (4, 3, 20)])
    def test_distances_and_matching(self, n, m, N):
        rng = np.random.default_rng(N + n)
        L, C = rng.normal(scale=9.0, size=(2, n, N, 3)), rng.normal(scale=9.0, size=(2, m, N, 3))
        self.per_scene(avg_l1_matrix(L, C), avg_l1_matrix, L, C)
        front, back = half_distances(L, C)
        self.per_scene(front, lambda *x: half_distances(*x)[0], L, C)
        self.per_scene(back, lambda *x: half_distances(*x)[1], L, C)
        self.per_scene(match_connected(front, back), match_connected, front, back)
