"""Bin-density map for the global placer's spreading force."""

from __future__ import annotations

import numpy as np

from repro.geometry import SiteGrid


class DensityMap:
    """Occupancy histogram over coarse bins with a gradient for spreading.

    The global placer deposits each cell's area into the bin containing
    its centre, then pushes cells downhill along the smoothed density
    gradient — the classical diffusion-style spreading force.

    Cells are addressed by their flat row-major bin index
    (:meth:`flat_bins`), so a caller that both deposits and samples the
    gradient at the same positions bins them once and passes the index to
    :meth:`deposit_bins` and :meth:`gradient_of_bins`;
    :meth:`deposit` / :meth:`gradient_at` are the coordinate-level views.
    """

    def __init__(self, grid: SiteGrid, bin_size: float = 2.0) -> None:
        if bin_size <= 0:
            raise ValueError(f"bin_size must be positive, got {bin_size}")
        self.grid = grid
        self.bin_size = bin_size
        self.nx = max(2, int(np.ceil(grid.width / bin_size)))
        self.ny = max(2, int(np.ceil(grid.height / bin_size)))
        self._density = np.zeros((self.ny, self.nx))

    @property
    def density(self) -> np.ndarray:
        """Current density array, shape ``(ny, nx)``, units of area/bin."""
        return self._density

    def bin_of(self, xs: np.ndarray, ys: np.ndarray) -> tuple:
        """Vectorized bin indices (clipped to the map)."""
        bx = (xs / self.bin_size).astype(int)
        by = (ys / self.bin_size).astype(int)
        return (
            np.minimum(np.maximum(bx, 0), self.nx - 1),
            np.minimum(np.maximum(by, 0), self.ny - 1),
        )

    def flat_bins(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Row-major bin index ``by * nx + bx`` of every cell."""
        bx, by = self.bin_of(xs, ys)
        return by * self.nx + bx

    def deposit_bins(self, bins: np.ndarray, areas: np.ndarray) -> None:
        """Recompute the density from cells given by :meth:`flat_bins`."""
        self._density = np.bincount(
            bins, weights=areas, minlength=self.ny * self.nx
        ).reshape(self.ny, self.nx)

    def deposit(self, xs: np.ndarray, ys: np.ndarray, areas: np.ndarray) -> None:
        """Recompute the density from scratch for the given cells."""
        self.deposit_bins(self.flat_bins(xs, ys), areas)

    def smoothed(self) -> np.ndarray:
        """Density after one 3x3 box blur (keeps the gradient stable)."""
        d = self._density
        padded = np.pad(d, 1, mode="edge")
        out = np.zeros_like(d)
        for dy in range(3):
            for dx in range(3):
                out += padded[dy : dy + d.shape[0], dx : dx + d.shape[1]]
        return out / 9.0

    def gradient_of_bins(self, bins: np.ndarray) -> tuple:
        """Smoothed density gradient sampled at cells given by
        :meth:`flat_bins`; returns ``(gx, gy)``."""
        gy, gx = np.gradient(self.smoothed())
        return (np.take(gx, bins), np.take(gy, bins))

    def gradient_at(self, xs: np.ndarray, ys: np.ndarray) -> tuple:
        """Smoothed density gradient sampled at cell centres.

        Returns ``(gx, gy)`` arrays; the spreading force is ``-grad``.
        """
        return self.gradient_of_bins(self.flat_bins(xs, ys))
