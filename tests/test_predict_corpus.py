"""Pinned `predict` output on a fixed, seeded corpus.

The sha256 of every prediction JSON was taken from the per-pair reference
implementation of the half distances (one scalar mean-L1 call per lane and
half, once for the argmin match and again for the mask input). Any change
to the arithmetic, tie-breaking or formatting behind `predict` that moves
one byte fails here. The corpus covers:

* 2x2, 4x6 and 6x12 grids and one roundabout;
* a scene with no connected lanes;
* scenes sampled at 3 and 20 points per lane, so both numpy's short sums
  and its pairwise summation over N >= 8 are covered;
* ground-truth input, perturbed input with dropped and spurious lanes,
  score noise and topology flips, the --no-tam ablation, and query budgets
  small enough to truncate lanes, connections and traffic elements.
"""

import hashlib

import pytest

import lanetopo as lt
from lanetopo.cli import main
from lanetopo.serialize import scene_to_dict, write_json

SCENES = (
    ("grid2x2", lt.SynthParams(n_corridors=2, n_segments=2, seed=41)),
    ("grid4x6", lt.SynthParams(n_corridors=4, n_segments=6, seed=42)),
    ("grid6x12", lt.SynthParams(n_corridors=6, n_segments=12, seed=43)),
    ("noconn", lt.SynthParams(n_corridors=3, n_segments=1, seed=45)),
    ("pts3", lt.SynthParams(n_corridors=3, n_segments=4, n_points=3, split_prob=0.5,
                            merge_prob=0.5, seed=46)),
    ("pts20", lt.SynthParams(n_corridors=3, n_segments=4, n_points=20, split_prob=0.5,
                             merge_prob=0.5, seed=47)),
)
RUNS = {
    "gt": (),
    "perturbed": ("--source", "perturbed", "--point-sigma", "0.3", "--drop-rate", "0.1",
                  "--spurious-rate", "0.2", "--score-noise", "0.3",
                  "--topo-flip-rate", "0.05", "--noise-seed", "9"),
    "no_tam": ("--no-tam",),
    "budget": ("--source", "perturbed", "--spurious-rate", "0.3", "--noise-seed", "4",
               "--lane-queries", "12", "--traffic-queries", "2"),
}

DIGESTS = {
    "budget/grid2x2.json": "417f5db01f4b5cc0bb9d07d46e48954ad36c2a06789ce6da137e1324c6718d12",
    "budget/grid4x6.json": "c8a6d8e76675dc5c043bc51c87bcf7ad340d1afc3a66b92ccb0cfe1ae8e1500a",
    "budget/grid6x12.json": "92e43f063f80af38728d1e0daa6836e97695edf41624c52cada673ce29d54e2f",
    "budget/noconn.json": "bfc934d24fa78787f638a5570e8860116f635a97ad3bcb214058592b6f061e9f",
    "budget/pts20.json": "6b0250212b6f0f3b62fc5872ea43abc0dd4aa3b2bdeba87d452e149e463b20d8",
    "budget/pts3.json": "0275e306f7099adb9d4530681cb9ca6d52bd4509f9ace070f0d1966e6a5c0e9e",
    "budget/roundabout.json": "873f011ab06793af2fea3f3da8a9af8caeb8756bbf410e8f36598702637d9b88",
    "gt/grid2x2.json": "ac1ba888a4f1c28e8d27e7e10d1af90fd953f265a3c42835a002279024fa3ed8",
    "gt/grid4x6.json": "a76171d5143e650b10c4682416fc641c2fddc85206990f9984b0afa4e01abc3d",
    "gt/grid6x12.json": "20c618b2cb582fac3c1c9f4ca85576a874bf778abe9cb0750ecc03bd93febc3c",
    "gt/noconn.json": "cff047972859f273b5e95196b26b64384b8a0772b146a061e3d7cc26e9f7baab",
    "gt/pts20.json": "8d896a5696f7ed57644eb612f8e41b94c4e8dc3b3042f190c192151e98e66e0c",
    "gt/pts3.json": "dbe8e11d95e3f5f1d1a976030a3cde4173ad291b36065d80edf46d16c9c131c9",
    "gt/roundabout.json": "4896966e551c87b5d5453f7f48e065dbe096ac43474b5db001ff24bdbdcf53a6",
    "no_tam/grid2x2.json": "e541feacb5661bf8a198aaf587b40568c937dc795fdd407ee02d4a5e2e379411",
    "no_tam/grid4x6.json": "ed3526aef56c93f381770528f2ab2d55d4000dd2752d8cdcdfae8a384792761d",
    "no_tam/grid6x12.json": "8ab039106468dcd0260ac1bff683de61275791019667c4b0b538e6d127096bd8",
    "no_tam/noconn.json": "cff047972859f273b5e95196b26b64384b8a0772b146a061e3d7cc26e9f7baab",
    "no_tam/pts20.json": "e1367bc2855b99d8096ba6ba66f16d5eed34f1605636ebc7d560137b2b828912",
    "no_tam/pts3.json": "08b4a225c45997748ff79838c898483383166c17697cb883457f6756f49a1bcb",
    "no_tam/roundabout.json": "75345e3782922eaacb0b1bc6fd8c9c58e021bdeec47d64439eb3862f7ffdc340",
    "perturbed/grid2x2.json": "8fce6388d4f457b76f3ed87e9c02b87bbf132e26aee8f75518605a7c75d514ee",
    "perturbed/grid4x6.json": "2f72e2ed07f3c3cb19a2a98a39c453e65c925555e99a32b8353978980472499f",
    "perturbed/grid6x12.json": "5751e4973ddf73145895656519aa7ea755e3756347021882821fc4ed31d2f345",
    "perturbed/noconn.json": "75ab72c763f74962966b6518c2fd7aba3c462299f63f97df146fb3cad34071df",
    "perturbed/pts20.json": "bd3e0a28d1c0555b228782261a49f6a2fd3ca095bf50cca4e91863d7902a3302",
    "perturbed/pts3.json": "cde8a91b5af18b8da1ef702994ea2b63344d8115d54647d245b65a6ddbe588e9",
    "perturbed/roundabout.json": "410466b22cf2586dcd41f58e874beb54c86ca785ae6616dea24a8efeb821f74c",
}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    scenes = root / "scenes"
    scenes.mkdir()
    for name, params in SCENES:
        write_json(scenes / f"{name}.json", scene_to_dict(lt.generate_scene(params)))
    write_json(scenes / "roundabout.json",
               scene_to_dict(lt.generate_roundabout(radius=18.0, n_arms=5, seed=44)))
    out = {}
    for run, extra in RUNS.items():
        preds = root / run
        assert main(["predict", "--scene", str(scenes), "--out", str(preds), *extra]) == 0
        for path in sorted(preds.glob("*.json")):
            if not path.name.endswith(".manifest.json"):
                out[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_prediction_bytes_are_pinned(digests, name):
    assert digests[name] == DIGESTS[name]
