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
        """(k, n_values) -> (k, c) features, or (B, k, n_values) -> (B, k, c)
        for a batch of scenes, each scene's product its own; items given as
        (..., k, n, 3) polylines are flattened in row-major order, so
        (k, n, 3) is (k, 3n). No items give (0, c)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self.n_values:
            values = values.reshape(*values.shape[:-2], math.prod(values.shape[-2:]))
        phases = values[..., None] * FREQS
        enc = np.concatenate([np.sin(phases), np.cos(phases)], axis=-1)
        return enc.reshape(*values.shape[:-1], 2 * len(FREQS) * self.n_values) @ self.projection


BOX_SCALE = 1000.0  # pixels; keeps box phases in the same range as lane coords
