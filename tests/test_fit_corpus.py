"""Pinned `fitdemo` loss trajectories.

The sha256 of the default `fitdemo` CSV (500 steps, lr 0.05, seed 0).
Both digests were re-pinned when toy_fit moved onto run_pipeline's query
path: it now fits the stack init_pipeline_params draws at param_seed =
seed, on the queries pipeline.queries builds (encoders and shared
self-attention included), where it used to draw the stack and its own
encoders from two generators of its own and skip the self-attention. Any
change to the arithmetic of the query path, the mask, the masked
cross-attention, the ll head, their backwards, the focal loss or the
parameter update that moves one byte fails here. The
scenes are the README's tiny scene (two lanes in one corridor, one
connected lane) and a 2x2 grid (five lanes, three connected lanes).
"""

import hashlib

import pytest

import lanetopo as lt
from lanetopo.cli import main
from lanetopo.serialize import scene_to_dict, write_json

SCENES = {
    "tiny": lt.SynthParams(n_corridors=1, n_segments=2, split_prob=0.0, merge_prob=0.0,
                           n_traffic=0),
    "grid2x2": lt.SynthParams(n_corridors=2, n_segments=2, seed=3),
}

DIGESTS = {
    "tiny": "f7c96b24fc13f9b9a5b8f9bed0fb49a3de671b659ef3cfa6c2ed2d1e5a4b7775",
    "grid2x2": "d848fb04ef675aaf1ff06639ac8ac03cce2dbd9f78e0771de34c47058e510bac",
}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_loss_trajectory_bytes_are_pinned(tmp_path, name):
    scene = tmp_path / "scene.json"
    write_json(scene, scene_to_dict(lt.generate_scene(SCENES[name])))
    out = tmp_path / "losses.csv"
    assert main(["fitdemo", "--scene", str(scene), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
