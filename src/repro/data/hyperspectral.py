"""Synthetic APPL-like hyperspectral plant imagery (paper §5.1 substitute).

The real dataset — 494 VNIR hyperspectral images of Poplar, 500 spectral
bands over 400–900 nm, from ORNL's Advanced Plant Phenotyping Laboratory —
is not distributable.  This generator produces images with the same tensor
shapes and the same *structure* that makes the MAE task learnable:

* a **linear spectral mixing model**: every pixel is a convex combination of
  a few endmember spectra (leaf, stem, soil, background panel), so the 500
  channels are strongly correlated along smooth spectral signatures
  (vegetation red-edge, chlorophyll absorption, soil slope);
* **spatially smooth abundance maps** with plant-like elliptical lobes, so
  masked patches are predictable from context;
* band-dependent sensor noise.

``pseudo_rgb`` mirrors the paper's Fig. 11 visualisation trick.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EndmemberLibrary", "HyperspectralConfig", "HyperspectralDataset", "pseudo_rgb"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class EndmemberLibrary:
    """Reflectance spectra of the scene's pure materials on a wavelength grid."""

    wavelengths_nm: np.ndarray  # [C]
    spectra: np.ndarray         # [K, C], rows normalised to [0, 1]
    names: tuple[str, ...]

    @staticmethod
    def vnir(channels: int = 500, lo_nm: float = 400.0, hi_nm: float = 900.0) -> "EndmemberLibrary":
        """Leaf / stem / soil / panel endmembers over the APPL VNIR range."""
        wl = np.linspace(lo_nm, hi_nm, channels)
        # Healthy leaf: green bump at 550, chlorophyll absorption at 680,
        # sharp red-edge to the NIR plateau at ~720 nm.
        leaf = (
            0.12
            + 0.10 * np.exp(-0.5 * ((wl - 550) / 25.0) ** 2)
            - 0.06 * np.exp(-0.5 * ((wl - 680) / 18.0) ** 2)
            + 0.55 * _sigmoid((wl - 715) / 12.0)
        )
        # Stem/bark: muted red-edge, browner visible slope.
        stem = 0.15 + 0.0004 * (wl - 400) + 0.25 * _sigmoid((wl - 730) / 30.0)
        # Soil: gently increasing, featureless.
        soil = 0.08 + 0.00045 * (wl - 400)
        # Calibration panel: flat and bright.
        panel = np.full_like(wl, 0.85)
        spectra = np.stack([leaf, stem, soil, panel]).astype(np.float32)
        return EndmemberLibrary(
            wavelengths_nm=wl.astype(np.float32),
            spectra=np.clip(spectra, 0.0, 1.0),
            names=("leaf", "stem", "soil", "panel"),
        )


@dataclass(frozen=True)
class HyperspectralConfig:
    channels: int = 500
    height: int = 64
    width: int = 64
    n_images: int = 494          # matches the APPL Poplar subset size
    noise_std: float = 0.01
    smoothness: float = 4.0      # Gaussian blur sigma of the abundance fields
    seed: int = 0


class HyperspectralDataset:
    """Deterministic, lazily generated synthetic hyperspectral images.

    ``dataset[i]`` → ``[C, H, W]`` float32 in [0, ~1].  Images are generated
    per-index from ``seed + i`` so any subset is reproducible without holding
    494 × 500-band images in memory.
    """

    def __init__(self, config: HyperspectralConfig = HyperspectralConfig()) -> None:
        self.config = config
        self.library = EndmemberLibrary.vnir(config.channels)

    def __len__(self) -> int:
        return self.config.n_images

    def _abundances(self, rng: np.random.Generator) -> np.ndarray:
        """[K, H, W] convex abundance maps with plant-like structure."""
        from scipy import ndimage  # imported on first use, not with repro.data

        cfg = self.config
        h, w = cfg.height, cfg.width
        yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
        # Plant mask: a few elliptical leaf lobes around the image centre.
        plant = np.zeros((h, w))
        n_lobes = int(rng.integers(3, 7))
        for _ in range(n_lobes):
            cy = h / 2 + rng.normal(0, h / 8)
            cx = w / 2 + rng.normal(0, w / 8)
            ry = rng.uniform(h / 10, h / 4)
            rx = rng.uniform(w / 10, w / 4)
            theta = rng.uniform(0, np.pi)
            dy, dx = yy - cy, xx - cx
            u = dy * np.cos(theta) + dx * np.sin(theta)
            v = -dy * np.sin(theta) + dx * np.cos(theta)
            plant = np.maximum(plant, _sigmoid(4.0 * (1.0 - (u / ry) ** 2 - (v / rx) ** 2)))
        stem_frac = ndimage.gaussian_filter(rng.random((h, w)), cfg.smoothness)
        stem_frac = 0.15 + 0.25 * (stem_frac - stem_frac.min()) / np.ptp(stem_frac + 1e-9)
        leaf = plant * (1.0 - stem_frac)
        stem = plant * stem_frac
        # Background splits between soil and the calibration panel (a strip).
        bg = 1.0 - plant
        panel = np.zeros((h, w))
        panel[: max(1, h // 10), :] = 1.0
        soil = bg * (1.0 - panel)
        panel = bg * panel
        ab = np.stack([leaf, stem, soil, panel])
        return (ab / ab.sum(axis=0, keepdims=True)).astype(np.float32)

    def __getitem__(self, index: int) -> np.ndarray:
        cfg = self.config
        if not 0 <= index < cfg.n_images:
            raise IndexError(index)
        rng = np.random.default_rng(cfg.seed * 1_000_003 + index)
        ab = self._abundances(rng)                             # [K, H, W]
        img = np.einsum("kc,khw->chw", self.library.spectra, ab)
        # Mild per-image brightness variation + band-dependent sensor noise.
        img *= rng.uniform(0.85, 1.15)
        noise_scale = cfg.noise_std * (1.0 + 0.5 * np.linspace(0, 1, cfg.channels))
        img += rng.standard_normal(img.shape) * noise_scale[:, None, None]
        return np.clip(img, 0.0, 1.5).astype(np.float32)

    def batch(self, indices: list[int] | np.ndarray) -> np.ndarray:
        """Stack images for *indices* into ``[B, C, H, W]``."""
        return np.stack([self[int(i)] for i in indices])


def pseudo_rgb(image: np.ndarray, library: EndmemberLibrary) -> np.ndarray:
    """[C, H, W] hyperspectral → [H, W, 3] display image using the bands
    closest to 650/550/450 nm (the paper's Fig. 11 visualisation)."""
    wl = library.wavelengths_nm
    idx = [int(np.argmin(np.abs(wl - nm))) for nm in (650.0, 550.0, 450.0)]
    rgb = image[idx].transpose(1, 2, 0)
    lo, hi = rgb.min(), rgb.max()
    return ((rgb - lo) / (hi - lo + 1e-9)).astype(np.float32)
