"""Regridding utilities (xESMF substitute, paper §5.2).

The paper regrids ERA5 from 0.25° (720×1440) to 5.625° (32×64) with xESMF's
bilinear method.  We implement the three algorithms the paper names —
bilinear, nearest-neighbour and (first-order) conservative — for regular
lat-lon grids.  Conservative regridding preserves the area-weighted mean,
which the property tests assert.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Grid", "regrid", "bilinear_regrid", "nearest_regrid", "conservative_regrid"]


class Grid:
    """A regular global lat-lon grid with cell-centre coordinates."""

    def __init__(self, n_lat: int, n_lon: int) -> None:
        if n_lat < 2 or n_lon < 2:
            raise ValueError("grid must be at least 2x2")
        self.n_lat = n_lat
        self.n_lon = n_lon
        self.lats = np.linspace(-90 + 90.0 / n_lat, 90 - 90.0 / n_lat, n_lat)
        self.lons = np.linspace(0.0, 360.0, n_lon, endpoint=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Grid({self.n_lat}x{self.n_lon}, {180.0 / self.n_lat:.3f} deg)"


def _check_field(field: np.ndarray, grid: Grid) -> np.ndarray:
    field = np.asarray(field, dtype=np.float64)
    if field.shape[-2:] != grid.shape:
        raise ValueError(f"field shape {field.shape[-2:]} != grid {grid.shape}")
    return field


def bilinear_regrid(field: np.ndarray, src: Grid, dst: Grid) -> np.ndarray:
    """Bilinear interpolation with periodic longitude (the paper's choice)."""
    from scipy.interpolate import RegularGridInterpolator  # imported on first use, not with repro.data

    field = _check_field(field, src)
    lead = field.shape[:-2]
    flat = field.reshape(-1, *src.shape)
    # Pad one periodic longitude column so dst lons beyond src.lons[-1] work.
    lons = np.concatenate([src.lons, [src.lons[0] + 360.0]])
    out = np.empty((flat.shape[0], dst.n_lat, dst.n_lon), dtype=np.float64)
    pts_lat = np.clip(dst.lats, src.lats[0], src.lats[-1])
    mesh = np.stack(np.meshgrid(pts_lat, dst.lons, indexing="ij"), axis=-1)
    for i, f in enumerate(flat):
        fp = np.concatenate([f, f[:, :1]], axis=1)
        interp = RegularGridInterpolator((src.lats, lons), fp, method="linear")
        out[i] = interp(mesh.reshape(-1, 2)).reshape(dst.shape)
    return out.reshape(*lead, *dst.shape).astype(np.float32)


def nearest_regrid(field: np.ndarray, src: Grid, dst: Grid) -> np.ndarray:
    """Nearest-neighbour sampling (periodic in longitude)."""
    field = _check_field(field, src)
    lat_idx = np.abs(src.lats[None, :] - dst.lats[:, None]).argmin(axis=1)
    dlon = np.abs((src.lons[None, :] - dst.lons[:, None] + 180.0) % 360.0 - 180.0)
    lon_idx = dlon.argmin(axis=1)
    return field[..., lat_idx[:, None], lon_idx[None, :]].astype(np.float32)


def conservative_regrid(field: np.ndarray, src: Grid, dst: Grid) -> np.ndarray:
    """First-order conservative (area-weighted box averaging).

    Requires the destination resolution to divide the source resolution
    evenly (the ERA5 0.25° → 5.625° case is a 1:22.5 ratio — we support the
    integer-factor case, e.g. 0.25°→4° or 1.40625°→5.625°).
    """
    field = _check_field(field, src)
    if src.n_lat % dst.n_lat or src.n_lon % dst.n_lon:
        raise ValueError(
            f"conservative regrid needs integer coarsening, got {src.shape} -> {dst.shape}"
        )
    fy = src.n_lat // dst.n_lat
    fx = src.n_lon // dst.n_lon
    lead = field.shape[:-2]
    blocks = field.reshape(*lead, dst.n_lat, fy, dst.n_lon, fx)
    w = np.cos(np.deg2rad(src.lats)).reshape(dst.n_lat, fy)
    w = w / w.sum(axis=1, keepdims=True)
    out = np.einsum("...ijkl,ij->...ik", blocks, w) / fx
    return out.astype(np.float32)


def regrid(field: np.ndarray, src: Grid, dst: Grid, method: str = "bilinear") -> np.ndarray:
    """Dispatch on *method* ∈ {bilinear, nearest, conservative}."""
    if method == "bilinear":
        return bilinear_regrid(field, src, dst)
    if method == "nearest":
        return nearest_regrid(field, src, dst)
    if method == "conservative":
        return conservative_regrid(field, src, dst)
    raise ValueError(f"unknown regrid method {method!r}")
