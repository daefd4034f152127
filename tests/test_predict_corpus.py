"""Pinned `predict` output on a fixed, seeded corpus.

The sha256 of every prediction JSON was taken from the per-pair reference
implementation of the half distances (one scalar mean-L1 call per lane and
half, once for the argmin match and again for the mask input), and re-taken
when the per-slot positional queries were deleted: the new bytes are what
the older code wrote with those queries set to zero and not drawn. Any change
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
    "budget/grid2x2.json": "ad06f33014469c74aad78db6b04cb2fe325b3ec4377fbb1578c21772b8a7b0a2",
    "budget/grid4x6.json": "5de1e2f0af71c69b95bb757927bee49dd6a8e97b448d25dd288593663bcd5580",
    "budget/grid6x12.json": "4f99b99c66188d05d323fb845ccf318d0e81ca7c3c53fd98f7fb745f39b8c2a6",
    "budget/noconn.json": "e4c75f3d437c1d4eebf350a8189a4a46a5f0dfb6faabf9f649c607dccc7de5f0",
    "budget/pts20.json": "356a748259ceec4317eedd2307f41e950004e167350ffdfae3ed26cc87cd2e6f",
    "budget/pts3.json": "f43aa18d06562962fac1390b76fa477dfe91c8912771eec99d708afaeb3af582",
    "budget/roundabout.json": "7ff86332234d25ddbaab117881b9b86fb047b39ac71c4c95cad85e562ae736a5",
    "gt/grid2x2.json": "0c8b38aee07d8be48ca6ea51a755c2fd30ba0c5bfce1c25720f57be905fde3df",
    "gt/grid4x6.json": "ae9c36077889df44b88a8cd36bdbb1b7d300302d892516ffc2587d69959c4ba0",
    "gt/grid6x12.json": "b9fa4fb2db1780f88da43e4fddc21f2258e03a5fbfcee15d24ff6d437cd08fd3",
    "gt/noconn.json": "52aab8c02a683ea26dfdcb946006aac5be5b57c23606a52e36dbd1fc431ba706",
    "gt/pts20.json": "f5d7564e92bddf00e2496da71e81ddd603fe9d4d0be91be9d98bb840d4716b7a",
    "gt/pts3.json": "8c3f62302011ae2abeb989251df7541c09ed4d1fd01174879bca8d76f07e7223",
    "gt/roundabout.json": "45f26a434fbe8b9a8a4c0f86f281ad86469d842db847cc2a2d3c1e3930c88194",
    "no_tam/grid2x2.json": "80b42dfacb925028a178879e2c153b47834cca11aa63f5b7349aa23f456beea0",
    "no_tam/grid4x6.json": "a43e9a6b3f5b912c6903f4936f78fb282f624f793fd9008c312c989bee1354da",
    "no_tam/grid6x12.json": "1e262ca7d61863b891dc67b5bc0399236440fcef320f0383c023146e2706d4bb",
    "no_tam/noconn.json": "52aab8c02a683ea26dfdcb946006aac5be5b57c23606a52e36dbd1fc431ba706",
    "no_tam/pts20.json": "0fd57b92b72f8ef173afde5419b1442898e4045bca9b5646507bc08f18749978",
    "no_tam/pts3.json": "3fdf0dd988a6243f1c3ab0913fb7f501f44b749e50b0dfa3f5cef5fd4b722874",
    "no_tam/roundabout.json": "585286a2e9af19f6116d524ce320116ee66f444d3ca389a634fb208e3e37d1ff",
    "perturbed/grid2x2.json": "6f1e6efdc64c1391bd451b5d0785f15314ebd48cbc14f26d8cec15f5512cef1a",
    "perturbed/grid4x6.json": "4a363057568c6b2e612a040552fe1ecda90658a029ed31d6db7bc2961fb17ad0",
    "perturbed/grid6x12.json": "a3e52ceda10b0ee57cf7a208324d0f1623f328ebdbde857f0d4d0387ca74a478",
    "perturbed/noconn.json": "e0d9825913db8e00dbed099659bb4a8e06413bfc564744fcb1b7b700c4b76105",
    "perturbed/pts20.json": "b74c24bf170e75d0887b08f348af320183051d2744fe2a2ae6afdd7a53014e1e",
    "perturbed/pts3.json": "4b74b7fe556346af1a33bd9fe3df81b219bd94b4ad6d93ac04267c91c24c772d",
    "perturbed/roundabout.json": "cac0e671b3670de8b87d2e7eedacf223ab7e1050c9696493881dbd225624f335",
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
