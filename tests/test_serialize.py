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
    connected_list_to_dict,
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
from lanetopo.serialize import _ONE_PASS_MIN, _SHORT_MIN, _float_array, _short_digits
from conftest import chain_scene, perfect_prediction
from oracles import dumps_walk, float_array_9g, parse_lanes_loops


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


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


class TestWriterOracle:
    """dumps against the oracle that rounds and prints one float at a time."""

    # both sides of 1e9 (where "%.9g" turns to exponent form) and of 1e16
    # (where repr does), values "%.9g" rounds to an integer, the subnormal
    # range, and the ends of the double range
    EDGES = _signed([
        999999999.0, 999999999.4, 999999999.5, 999999999.6, 1e9,
        np.nextafter(1e9, 0.0), np.nextafter(1e9, 2e9), 1234567890.0, 1234567894.9,
        1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, 2e16), 9999999999999998.0,
        1.23456789e17, 99999999.96, 123456789.4, 100000000.5, 12345678.999999999,
        0.99999999996, 9.99999999951, 99999.9999996, 1e8, 0.0, 1.0, 42.0,
        1e-4, 9.99999999999e-5, 1e-5, 0.1, 1.0 / 3.0,
        5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0),
        2.2250738585072014e-308, 2.2250738585072014e-300, 1.7976931348623157e308,
    ])

    @staticmethod
    def check(obj):
        assert dumps(obj) == dumps_walk(obj)

    def test_seeded_magnitudes_negatives_and_integers(self):
        rng = np.random.default_rng(2024)
        x = 10.0 ** rng.uniform(-300.0, 300.0, 20000) * rng.choice([-1.0, 1.0], 20000)
        ints = rng.integers(-2 * 10**9, 2 * 10**9, 2000).astype(float)
        near = rng.integers(-10**6, 10**6, 2000) + rng.uniform(-1e-7, 1e-7, 2000)
        ninedigit = np.array([float(f"{v:.9g}") for v in rng.normal(0.0, 50.0, 2000)])
        values = np.concatenate([x, ints, near, ninedigit, [0.0, -0.0, 1.0, -1.0]])
        self.check(values)
        self.check(values.reshape(-1, 4))
        self.check(values[:24].reshape(2, 3, 4))
        self.check(values[::500].tolist())

    def test_layout_edges(self):
        self.check(self.EDGES)
        self.check(self.EDGES.reshape(2, -1))
        self.check([float(v) for v in self.EDGES])
        self.check(self.EDGES[np.abs(self.EDGES) < 3e38].astype(np.float32))

    def test_non_finite(self):
        values = np.array([np.nan, np.inf, -np.inf, 0.5, -0.0])
        self.check(values)
        self.check(np.stack([values, values[::-1]]))
        self.check({"x": float("nan"), "y": [np.float32("inf"), -np.inf]})
        assert dumps([np.nan, np.inf, -np.inf]) == "[NaN,Infinity,-Infinity]\n"

    @pytest.mark.parametrize("obj", [
        np.float64(0.1), np.float32(1.0 / 3.0), np.float16(0.1), np.array(2.5),
        np.array(-0.0), np.array([0.1]), np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)),
        np.arange(24, dtype=float).reshape(2, 3, 4) / 7.0, np.arange(6).reshape(2, 3),
        np.array([[True, False]]), np.int64(-3), np.uint8(200), np.bool_(False),
        True, None, "caf\u00e9 \"quoted\"\n", (1.0, [2, (3.5,)]),
        [np.ones((2, 3)), np.ones((2, 3)) / 3.0], [np.ones((2, 3)), np.ones((3, 3))],
        [np.ones(3), np.arange(3)], [np.ones(3, dtype=np.float32), np.full(3, 0.1)],
        [np.array(0.5), np.array(1.5)], [np.zeros((0, 3)), np.zeros((0, 3))],
        {1: 0.5, 2.5: [1, 2], True: None, None: "x", (1, 2): np.eye(2)},
        {1: "shadowed", "1": "kept"}, {"a": {"b": {0: np.eye(2) / 3.0}}},
    ], ids=lambda obj: type(obj).__name__)
    def test_shapes_and_types(self, obj):
        self.check(obj)

    def test_unserializable_raises_json_error(self):
        for obj in ({1, 2}, 1j, np.array([1j]), [object()]):
            with pytest.raises(TypeError) as ours:
                dumps(obj)
            with pytest.raises(TypeError) as oracle:
                dumps_walk(obj)
            assert str(ours.value) == str(oracle.value)

    def test_every_document(self, tmp_path):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=3,
                                                 n_traffic=3, seed=4))
        cfg = lt.PipelineConfig(source="perturbed",
                                noise=lt.NoiseParams(point_sigma=0.3, drop_rate=0.1))
        pred = lt.run_pipeline(scene, cfg)
        out = tmp_path / "pred.json"
        write_json(out, prediction_to_dict(pred))
        report = lt.evaluate(pred, scene, lane_width=3.5)
        for doc in (scene_to_dict(scene), prediction_to_dict(pred),
                    connected_list_to_dict(lt.build_connected_gt(scene)),
                    report_to_dict(report),
                    build_manifest("predict", {"point_sigma": 0.3, "use_tam": True},
                                   {"noise_seed": np.int64(0)}, [], [out], 0.123456789123)):
            self.check(doc)


def _neighbours(x, k=64):
    """The k doubles below x and x with the k - 1 above it."""
    below = [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], 0.0))
    above = [x]
    for _ in range(k - 1):
        above.append(np.nextafter(above[-1], 2.0))
    return below[1:] + above


class TestShortValueCells:
    """The writer's cells for values in [1e-4, 1) against the one-"%.9g"-pass
    writer they replaced, byte for byte."""

    @staticmethod
    def check(a):
        assert _float_array(a) == float_array_9g(a)

    def test_a_million_values_across_decades(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(1.0, 10.0, 10**6) * 10.0 ** rng.integers(-7, 2, 10**6)
        self.check((x * rng.choice([-1.0, 1.0], 10**6)).reshape(1000, 1000))

    def test_scores_take_the_short_cells(self):
        # every sigmoid score is short but the few next to a rounding tie
        x = np.random.default_rng(34).uniform(1e-4, 1.0, 10**5)
        short = _short_digits(x)[0]
        assert short.mean() > 0.9999
        self.check(x.reshape(100, -1))

    def test_decade_edges(self):
        x = np.array([v for e in (1e-4, 1e-3, 0.01, 0.1, 1.0) for v in _neighbours(e)])
        self.check(_signed(x))
        self.check(_signed(x).reshape(-1, 8))
        # each decade's first double is short, with its decade's zeros
        short, zeros, _ = _short_digits(np.array([0.1, 0.01, 1e-3, 1e-4]))
        assert short.all() and zeros.tolist() == [0, 1, 2, 3]

    def test_digits_that_round_into_the_next_decade(self):
        x = np.array([0.09999999995, 0.099999999951, 0.0999999999499, 0.0999999999999,
                      0.00099999999951, 0.0009999999995, 0.000999999999, 0.999999999,
                      0.9999999995, 0.99999999949, 0.0099999999951, 0.00999999999949,
                      0.000099999999951, 0.00009999999995, 0.099999999, 0.0999999996])
        self.check(_signed(x))
        assert not _short_digits(np.float64(0.0999999999999)[None])[0].any()

    def test_ties_at_the_tenth_digit_are_left_to_printf(self):
        rng = np.random.default_rng(35)
        for zeros in range(4):
            digits = rng.integers(10**8, 10**9, 4000)
            x = np.array([float(f"0.{'0' * zeros}{d}5") for d in digits])
            assert not _short_digits(x)[0].any()
            self.check(_signed(x))

    def test_special_values(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                      np.nan, np.inf, -np.inf, 0.5, -0.5, 0.25, 1e-4, -1e-4, 0.1, 0.001,
                      1.0, -1.0, 1e9, 1e16, 9.99999999999e-5, 0.123456789, 0.1000000005])
        self.check(x)
        self.check(np.stack([x, x[::-1]]))
        self.check(x.astype(np.float32))

    @pytest.mark.parametrize("size", [_ONE_PASS_MIN, _ONE_PASS_MIN + 1])
    @pytest.mark.parametrize("shape", [(-1,), (1, -1), (-1, 1), (1, 1, -1), (-1, 1, 1)])
    def test_shapes_at_the_array_pass_threshold(self, size, shape):
        rng = np.random.default_rng(size)
        x = np.concatenate([rng.uniform(-1.0, 1.0, size - 4), [0.0, -0.0, np.nan, 12.5]])
        self.check(x.reshape(shape))
        assert dumps(x.reshape(shape)) == dumps_walk(x.reshape(shape))
        assert dumps(x[:-1].reshape(shape)) == dumps_walk(x[:-1].reshape(shape))

    def test_three_dimensional_lane_stacks(self):
        rng = np.random.default_rng(36)
        lanes = rng.normal(size=(7, 11, 3)) * 10.0 ** rng.integers(-5, 3, (7, 11, 3))
        self.check(lanes)
        assert dumps([*lanes]) == dumps_walk([*lanes])


class TestPlainCells:
    """The array pass without short cells, which arrays under _SHORT_MIN
    values take, against the one-"%.9g"-pass writer, byte for byte."""

    @staticmethod
    def check(a):
        assert _float_array(a, short_cells=False) == float_array_9g(a)

    def test_values_across_decades_and_specials(self):
        rng = np.random.default_rng(37)
        x = rng.uniform(1.0, 10.0, 20000) * 10.0 ** rng.integers(-7, 11, 20000)
        self.check(_signed(x).reshape(200, -1))
        specials = np.array([0.0, -0.0, 5e-324, 1e-310, np.nan, np.inf, -np.inf, 0.5, 1e-4,
                             1.0, -1.0, 1e9, 1e16, 0.1000000005, 0.0999999999499, 12.5])
        self.check(specials)
        self.check(np.stack([specials, specials[::-1]]).astype(np.float32))

    def test_lane_stacks_and_score_rows(self):
        rng = np.random.default_rng(38)
        self.check(rng.normal(0.0, 30.0, (6, 11, 3)))
        self.check(1.0 / (1.0 + np.exp(-rng.normal(size=(9, 9)))))

    @pytest.mark.parametrize("size", [_ONE_PASS_MIN, _SHORT_MIN - 1, _SHORT_MIN])
    def test_dumps_on_either_side_of_the_short_cells(self, size):
        # scores: nearly every value short
        x = np.random.default_rng(size).uniform(1e-4, 1.0, size)
        for shape in ((-1,), (1, -1), (-1, 1)):
            assert dumps(x.reshape(shape)) == dumps_walk(x.reshape(shape))


NAN, INF = float("nan"), float("inf")

# name, point counts, edits (lane, point, new point): point None replaces
# the whole lane, and a new point "dup" repeats the point before it
LANE_CASES = [
    ("wrong inner shape", (11, 11, 11), [(1, None, [[0.0, 1.0]] * 11)]),
    ("all lanes two wide", (5, 5), [(0, None, [[k, 0.0] for k in range(5)]),
                                    (1, None, [[k, 1.0] for k in range(5)])]),
    ("one point", (11, 11), [(1, None, [[0.0, 1.0, 2.0]])]),
    ("empty lane", (11, 11), [(0, None, [])]),
    ("lane not a list", (11, 11), [(1, None, 5.0)]),
    ("non-finite", (11, 11, 11), [(2, 4, [0.0, NAN, 1.0])]),
    ("infinite", (11, 11), [(0, 0, [INF, 0.0, 0.0])]),
    ("duplicates", (11, 11, 11), [(1, 4, "dup")]),
    ("duplicate and non-finite in one lane", (11, 11),
     [(1, 3, "dup"), (1, 7, [NAN, 0.0, 0.0])]),
    ("ragged lane", (11, 11, 11), [(1, 5, [1.0, 2.0])]),
    ("two bad lanes", (11, 11, 11, 11), [(3, 1, [NAN, 0.0, 0.0]), (1, 1, "dup")]),
    ("lower bad lane in the smaller group", (11, 7, 11, 7),
     [(2, 5, "dup"), (1, 6, [0.0, 0.0, NAN])]),
    ("lower bad lane in the larger group", (11, 7, 11, 7),
     [(0, 10, "dup"), (3, 2, [0.0, 0.0, NAN])]),
]


def _lanes(*counts):
    rng = np.random.default_rng(sum(counts))
    return [np.cumsum(rng.uniform(0.5, 1.5, (n, 3)), axis=0).tolist() for n in counts]


def _prediction_doc(lanes):
    n = len(lanes)
    return {"version": SCHEMA_VERSION, "lanes": lanes, "lane_scores": [0.5] * n,
            "traffic": [], "topo": {"ll": [[0.0] * n for _ in range(n)],
                                    "lt": [[] for _ in range(n)]}}


class TestLaneReader:
    """Lanes read as stacks keep the per-lane reader's first error."""

    @pytest.mark.parametrize("counts, edits", [case[1:] for case in LANE_CASES],
                             ids=[case[0] for case in LANE_CASES])
    def test_first_error_is_the_per_lane_one(self, counts, edits):
        lanes = _lanes(*counts)
        for k, i, new in edits:
            if i is None:
                lanes[k] = new
            else:
                lanes[k][i] = list(lanes[k][i - 1]) if new == "dup" else new
        expected = parse_lanes_loops(lanes)
        assert expected is not None
        with pytest.raises(SchemaError) as err:
            prediction_from_dict(_prediction_doc(lanes))
        assert err.value.violations == [expected]

    def test_lanes_that_are_not_a_list(self):
        d = _prediction_doc(_lanes(11, 11))
        d["lanes"] = {"a": 1}
        with pytest.raises(SchemaError) as err:
            prediction_from_dict(d)
        assert err.value.violations == [parse_lanes_loops({"a": 1})]

    def test_mixed_point_counts_read_and_read_back_byte_identical(self, tmp_path):
        lanes = _lanes(7, 11, 7, 20, 11)
        path = tmp_path / "pred.json"
        write_json(path, _prediction_doc(lanes))
        pred = read_prediction(path)
        assert [len(lane.points) for lane in pred.lanes] == [7, 11, 7, 20, 11]
        for lane, pts in zip(pred.lanes, lanes):
            assert lane.points.dtype == np.float64 and lane.points.flags.c_contiguous
            assert np.array_equal(lane.points, [[round9(v) for v in p] for p in pts])
        assert dumps(prediction_to_dict(pred)) == path.read_text()


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

    def test_traffic_scores_in_every_element_or_in_none(self):
        scene = lt.generate_scene(lt.SynthParams(n_corridors=2, n_segments=2, n_traffic=3,
                                                 seed=0))
        d = scene_to_dict(scene)
        assert scene_from_dict(d).traffic.scores is None
        for k, el in enumerate(d["traffic"]):
            el["score"] = 0.25 * k
        scored = scene_from_dict(d)
        assert scored.traffic.scores.tolist() == [0.0, 0.25, 0.5]
        assert dumps(scene_to_dict(scored)) == dumps(d)
        del d["traffic"][1]["score"]
        with pytest.raises(SchemaError) as err:
            scene_from_dict(d)
        assert err.value.violations == ["traffic element 1 is missing a score"]


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
            lane_segments=lt.LaneSegmentReport(map=0.75, ap_ls=0.5, ap_ped=None,
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

    def test_keys_and_columns_are_the_report_fields_in_order(self):
        assert CSV_HEADER == "scene,det_l,det_t,top_ll,top_lt,ols,map,ap_ls,ap_ped,top_lsls"
        rep = lt.MetricReport(det_l=0.1, det_t=0.2, top_ll=0.3, top_lt=0.4, ols=0.25,
                              lane_segments=lt.LaneSegmentReport(map=0.75, ap_ls=0.5,
                                                                 ap_ped=None, top_lsls=1.0))
        d = report_to_dict(rep)
        assert list(d) == CSV_HEADER.split(",")[1:6] + ["lane_segments"]
        assert d["lane_segments"] == {"map": 0.75, "ap_ls": 0.5, "ap_ped": None,
                                      "top_lsls": 1.0}


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
