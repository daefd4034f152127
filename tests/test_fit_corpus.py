"""Pinned `fitdemo` loss trajectories.

The sha256 of the default `fitdemo` CSV (500 steps, lr 0.05, seed 0) was
taken when the fit loop still had its own forward and backward, before it
ran through the pipeline's TopologyStack. Any change to the arithmetic of
the mask, the masked cross-attention, the ll head, their backwards, the
focal loss or the parameter update that moves one byte fails here. The
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
    "tiny": "74318387e58201ddea509ac537c8b206e314c07b1dd0de3c60cd9d62be3cc68e",
    "grid2x2": "48f1950b01893fb5de2b8b3e37648d3ee2a76f6131a1100e04826b5641e51489",
}


@pytest.mark.parametrize("name", sorted(SCENES))
def test_loss_trajectory_bytes_are_pinned(tmp_path, name):
    scene = tmp_path / "scene.json"
    write_json(scene, scene_to_dict(lt.generate_scene(SCENES[name])))
    out = tmp_path / "losses.csv"
    assert main(["fitdemo", "--scene", str(scene), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[name]
