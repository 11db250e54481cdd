"""Video-level feature construction.

Turns per-frame activations, per-trajectory descriptors and category labels
into fixed-size float64 vectors: mean pooling, two-scale region-pyramid
pooling, k-means codebooks with bag-of-features encoding and one-hot
categories. Concatenation is harness.FeatureStore's compound names: feature
'a+b' resolves to a's vector followed by b's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import binio
from .errors import DataError, DimensionError, FormatError, ParameterError, naming
from .numerics import check_finite

# Scale-2 regions per frame: 3x3 grid with overlaps and horizontal flips.
REGION_COUNT = 26

# Fixed concatenation order of the trajectory descriptor channels.
DESCRIPTOR_CHANNELS = ("trajectory-shape", "HOG", "HOF", "MBHx", "MBHy")

POOL_COMBOS = ("avg-avg", "max-avg", "max-max")


@dataclass
class RegionActivations:
    """One frame: scale-1 vector plus its 26 scale-2 region vectors."""

    scale1: np.ndarray
    regions: np.ndarray  # (26, d)

    def __post_init__(self):
        self.scale1 = np.asarray(self.scale1, dtype=np.float64)
        self.regions = np.asarray(self.regions, dtype=np.float64)
        if self.regions.ndim != 2 or self.regions.shape[0] != REGION_COUNT:
            raise DimensionError(
                f"expected {REGION_COUNT} scale-2 regions, got shape {self.regions.shape}"
            )
        if self.scale1.ndim != 1 or self.regions.shape[1] != self.scale1.shape[0]:
            raise DimensionError(
                f"region dim {self.regions.shape} inconsistent with scale-1 {self.scale1.shape}"
            )


def mean_pool(vectors: list[np.ndarray]) -> np.ndarray:
    if len(vectors) == 0:
        raise DataError("mean_pool of an empty list")
    stack = [np.asarray(v, dtype=np.float64) for v in vectors]
    dim = stack[0].shape
    for v in stack:
        if v.shape != dim:
            raise DimensionError(f"mixed dims in mean_pool: {v.shape} vs {dim}")
    return np.mean(stack, axis=0)


def _pool(stack: np.ndarray, op: str) -> np.ndarray:
    return np.max(stack, axis=0) if op == "max" else np.mean(stack, axis=0)


def pyramid_pool(frames: list[RegionActivations], combo: str = "avg-avg") -> np.ndarray:
    """Two-scale pyramid: per frame pool the 26 regions (stage 1), concat with
    the scale-1 vector, then pool across frames (stage 2). Output dim = 2*d."""
    if combo not in POOL_COMBOS:
        raise ParameterError(f"pooling combo must be one of {POOL_COMBOS}, got {combo!r}")
    if len(frames) == 0:
        raise DataError("pyramid_pool of an empty frame list")
    region_op, frame_op = combo.split("-")
    per_frame = []
    for fr in frames:
        pooled2 = _pool(fr.regions, region_op)
        per_frame.append(np.concatenate([fr.scale1, pooled2]))
    return _pool(np.stack(per_frame), frame_op)


@dataclass
class _CodebookHeader:
    channel: str


@dataclass
class Codebook:
    """k-means centroids for one descriptor channel."""

    channel: str
    centroids: np.ndarray  # (k, d)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise DimensionError(f"centroids must be (k,d) with k>=1, got {self.centroids.shape}")
        check_finite(self.centroids, f"codebook {self.channel!r}")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def save(self, path) -> None:
        binio.write_checkpoint(path, binio.CODEBOOK_MAGIC, asdict(_CodebookHeader(self.channel)),
                               {"centroids": self.centroids.astype(np.float32)})

    @classmethod
    def load(cls, path) -> "Codebook":
        head, tensors = binio.load(path, binio.CODEBOOK_MAGIC, _CodebookHeader,
                                   lambda h: {"centroids": (None, None)})
        with naming(f"{path}: ", DimensionError, FormatError):  # no centroids
            return cls(channel=head.channel, centroids=tensors["centroids"].astype(np.float64))


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distances (n, k), chunked over rows."""
    n, k = points.shape[0], centroids.shape[0]
    out = np.empty((n, k))
    chunk = max(1, int(1e6 // max(k * points.shape[1], 1)))
    for s in range(0, n, chunk):
        diff = points[s : s + chunk, None, :] - centroids[None, :, :]
        out[s : s + chunk] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, centroids[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining mass sits on already-chosen points (duplicates).
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=d2 / total)
        centroids[j] = points[idx]
        d2 = np.minimum(d2, _sq_dists(points, centroids[j : j + 1]).ravel())
    return centroids


def kmeans(
    samples: np.ndarray, k: int, rng: np.random.Generator, max_iters: int = 100
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations with k-means++ init.

    Returns (centroids, assignments, objective history). The history holds the
    total squared quantization error after each assignment step and is
    non-increasing up to rounding. Empty clusters are reseeded with the point
    farthest from its assigned centroid. Stops when the assignments repeat,
    when the objective does not fall below the previous one (fewer distinct
    points than k can otherwise flip tied assignments forever), or at max_iters.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise DimensionError(f"samples must be (n,d), got {samples.shape}")
    n = samples.shape[0]
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if n < k:
        raise ParameterError(f"need at least k={k} samples, got {n}")
    centroids = _kmeanspp_init(samples, k, rng)
    assignments = None
    history: list[float] = []
    for _ in range(max_iters):
        d2 = _sq_dists(samples, centroids)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_assign].sum()))
        stalled = len(history) > 1 and (history[-1] >= history[-2]
                                        or np.array_equal(new_assign, assignments))
        assignments = new_assign
        if stalled:
            break
        point_err = d2[np.arange(n), assignments]
        for j in range(k):
            members = assignments == j
            if members.any():
                centroids[j] = samples[members].mean(axis=0)
            else:
                centroids[j] = samples[np.argmax(point_err)]
    return centroids, assignments, history


def bof_encode(descriptors: dict[str, np.ndarray], codebooks: dict[str, Codebook]) -> np.ndarray:
    """Hard-assignment bag-of-features over the five descriptor channels.

    Per channel: nearest-centroid histogram, L1-normalized (an empty channel
    stays all-zero). Channels concatenate in DESCRIPTOR_CHANNELS order, so the
    output has 5*k dimensions.
    """
    parts = []
    for channel in DESCRIPTOR_CHANNELS:
        if channel not in descriptors:
            raise DataError(f"descriptor channel {channel!r} missing")
        if channel not in codebooks:
            raise DataError(f"codebook for channel {channel!r} missing")
        book = codebooks[channel]
        desc = np.asarray(descriptors[channel], dtype=np.float64)
        hist = np.zeros(book.k)
        if desc.size > 0:
            if desc.ndim != 2 or desc.shape[1] != book.dim:
                raise DimensionError(
                    f"channel {channel!r}: descriptors {desc.shape} vs codebook dim {book.dim}"
                )
            idx = np.argmin(_sq_dists(desc, book.centroids), axis=1)  # ties: lowest index
            np.add.at(hist, idx, 1.0)
            hist /= hist.sum()
        parts.append(hist)
    return np.concatenate(parts)


def category_onehot(idx: int, n_categories: int = 20) -> np.ndarray:
    if not 0 <= idx < n_categories:
        raise DataError(f"category index {idx} out of range [0,{n_categories})")
    values = np.zeros(n_categories)
    values[idx] = 1.0
    return values
