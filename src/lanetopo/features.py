"""Deterministic geometry features.

Queries are seeded encodings of geometry: every scalar of an item (lane
point coordinates, box corners) is expanded with sin/cos at a few fixed
frequencies and the expansion is projected to the model width by a seeded
random matrix. Same seed and same geometry give bitwise identical features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# angular frequencies; wavelengths span roughly 125 m down to 4.6 m
FREQS = 2.0 * np.pi * 0.008 * 3.0 ** np.arange(4)


@dataclass
class GeometryEncoder:
    projection: np.ndarray  # (n_values * 2 * len(FREQS), c)

    @classmethod
    def init(cls, n_values: int, c: int, rng: np.random.Generator) -> "GeometryEncoder":
        d = n_values * 2 * len(FREQS)
        return cls(projection=rng.normal(size=(d, c)) / np.sqrt(d))

    def encode(self, values: np.ndarray) -> np.ndarray:
        """(n_items, n_values) -> (n_items, c) features."""
        values = np.asarray(values, dtype=np.float64)
        phases = values[:, :, None] * FREQS[None, None, :]
        enc = np.concatenate([np.sin(phases), np.cos(phases)], axis=2)
        return enc.reshape(values.shape[0], -1) @ self.projection


def lane_values(lanes) -> np.ndarray:
    """Stack lane polylines into (n_lanes, 3 * n_points) rows."""
    if not lanes:
        return np.zeros((0, 0))
    return np.stack([lane.points.reshape(-1) for lane in lanes])


BOX_SCALE = 1000.0  # pixels; keeps box phases in the same range as lane coords


def box_values(traffic) -> np.ndarray:
    if not traffic:
        return np.zeros((0, 4))
    return np.array([el.bbox for el in traffic], dtype=np.float64) / BOX_SCALE
