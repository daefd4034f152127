"""Deterministic geometry features.

Queries are seeded encodings of geometry: every scalar of an item (lane
point coordinates, box corners) is expanded with sin/cos at a few fixed
frequencies and the expansion is projected to the model width by a seeded
random matrix. The encoder reads arrays: a stack of lanes or connected
curves (k, n, 3) is k items of 3n values, flattened in row-major order.
Same seed and same geometry give bitwise identical features.
"""

from __future__ import annotations

import math
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

    @property
    def n_values(self) -> int:
        """The values per item this encoder was drawn for."""
        return self.projection.shape[0] // (2 * len(FREQS))

    def encode(self, values: np.ndarray) -> np.ndarray:
        """(n_items, ...) -> (n_items, c) features; each item's values are
        flattened in row-major order, so (k, n, 3) is (k, 3n); no items give
        (0, c)."""
        values = np.asarray(values, dtype=np.float64)
        values = values.reshape(len(values), math.prod(values.shape[1:]))
        phases = values[:, :, None] * FREQS[None, None, :]
        enc = np.concatenate([np.sin(phases), np.cos(phases)], axis=2)
        return enc.reshape(len(values), 2 * len(FREQS) * values.shape[1]) @ self.projection


BOX_SCALE = 1000.0  # pixels; keeps box phases in the same range as lane coords
