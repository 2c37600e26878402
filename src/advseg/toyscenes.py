"""Procedural toy segmentation scenes.

Each scene is a textured background (class 0) with occluding rectangles and
circles of the remaining classes, per-pixel Gaussian noise, and void pixels
along the image border and in one-pixel ribbons around label changes
(emulating unlabeled object borders in real annotations). Generation is
pure in (seed, index), so datasets are reproducible bit for bit.

On disk a sample is an 8-bit binary PPM (P6) image plus a binary PGM (P5)
label map where 255 encodes VOID.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .labelmap import VOID

# channel values spaced 0.3125 (exactly representable) apart; class k takes
# ladder[(k + channel) % 4], so any two classes differ by at least 0.3 in
# every channel (C <= 4)
_COLOR_LADDER = (0.03125, 0.34375, 0.65625, 0.96875)

# cycles per image per class, chosen so textures survive local contrast
# normalization and differ between classes
_TEXTURE_FREQS = ((3.0, 5.0), (8.0, 3.0), (5.0, 9.0), (11.0, 7.0),
                  (4.0, 11.0), (9.0, 6.0), (6.0, 13.0), (13.0, 4.0))

# shapes per scene, and the side or diameter of a shape in pixels, as
# inclusive (min, max) ranges; extents shrink to fit scenes under 24 px
N_SHAPES = (2, 5)
SHAPE_EXTENT = (8, 22)


def default_colors(num_classes: int) -> tuple:
    if num_classes > 4:
        raise ValueError(f"generated scenes have 2 to 4 classes, got "
                         f"num_classes={num_classes}")
    return tuple(tuple(_COLOR_LADDER[(k + ch) % 4] for ch in range(3))
                 for k in range(num_classes))


@dataclass(frozen=True)
class SceneSpec:
    """Geometry, appearance, and labeling noise of the generated scenes."""

    height: int = 64
    width: int = 64
    num_classes: int = 4
    noise_sigma: float = 0.03
    texture_amp: float = 0.12
    void_border_px: int = 1
    void_ribbon_px: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")
        if min(self.height, self.width) < 5:  # the smallest that fits a circle
            raise ValueError(f"height and width must be at least 5, got "
                             f"{self.height}x{self.width}")
        for key in ("noise_sigma", "texture_amp"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be >= 0 and finite, "
                                 f"got {getattr(self, key)}")
        for key in ("seed", "void_border_px", "void_ribbon_px"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0, got {getattr(self, key)}")
        if 2 * self.void_border_px >= min(self.height, self.width):
            raise ValueError(f"void_border_px={self.void_border_px} leaves no "
                             f"labelled pixel in {self.height}x{self.width} scenes")
        # a class count the palette cannot separate raises here
        default_colors(self.num_classes)


@dataclass(eq=False)
class Sample:
    """One scene. Compared and hashed by identity: training keys two stores
    by the sample object, the frozen segmenter's outputs and the
    contrast-normalized images. So a sample is treated as immutable once
    made; a changed image would not reach either store."""

    image: np.ndarray  # (3, H, W) float64 in [0, 1]
    labels: np.ndarray  # (H, W) int64, values in [0, C) or VOID
    id: str


@dataclass
class Dataset:
    spec: SceneSpec
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def split(self, name: str) -> list:
        return {"train": self.train, "val": self.val, "test": self.test}[name]


def _scene_rng(spec: SceneSpec, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,)))


def _mark_ribbons(labels: np.ndarray, width: int) -> np.ndarray:
    """Pixels adjacent (4-neighborhood) to a label change, dilated to the
    requested ribbon width."""
    changed = np.zeros(labels.shape, dtype=bool)
    changed[1:, :] |= labels[1:, :] != labels[:-1, :]
    changed[:-1, :] |= labels[:-1, :] != labels[1:, :]
    changed[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    changed[:, :-1] |= labels[:, :-1] != labels[:, 1:]
    for _ in range(width - 1):
        grown = changed.copy()
        grown[1:, :] |= changed[:-1, :]
        grown[:-1, :] |= changed[1:, :]
        grown[:, 1:] |= changed[:, :-1]
        grown[:, :-1] |= changed[:, 1:]
        changed = grown
    return changed


def generate_scene(spec: SceneSpec, index: int) -> Sample:
    """Deterministic in (spec.seed, index); later shapes occlude earlier."""
    rng = _scene_rng(spec, index)
    h, w = spec.height, spec.width
    labels = np.zeros((h, w), dtype=np.int64)

    n_shapes = int(rng.integers(N_SHAPES[0], N_SHAPES[1] + 1))
    emax = min(SHAPE_EXTENT[1], h - 2, w - 2)
    emin = min(SHAPE_EXTENT[0], emax)
    ii, jj = np.mgrid[0:h, 0:w]
    for _ in range(n_shapes):
        cls = int(rng.integers(1, spec.num_classes))
        kind = rng.choice(["rect", "circle"])
        if kind == "rect":
            eh = int(rng.integers(emin, emax + 1))
            ew = int(rng.integers(emin, emax + 1))
            top = int(rng.integers(0, h - eh + 1))
            left = int(rng.integers(0, w - ew + 1))
            labels[top: top + eh, left: left + ew] = cls
        else:
            r = int(rng.integers(emin, emax + 1)) // 2
            r = max(2, min(r, min(h, w) // 2 - 1))
            ci = int(rng.integers(r, h - r))
            cj = int(rng.integers(r, w - r))
            labels[(ii - ci) ** 2 + (jj - cj) ** 2 <= r * r] = cls

    colors = np.asarray(default_colors(spec.num_classes))
    image = colors[labels].transpose(2, 0, 1).copy()
    if spec.texture_amp > 0:
        phases = rng.uniform(0, 2 * math.pi, size=spec.num_classes)
        for k in range(spec.num_classes):
            fx, fy = _TEXTURE_FREQS[k % len(_TEXTURE_FREQS)]
            wave = np.sin(2 * math.pi * (fx * ii / h + fy * jj / w) + phases[k])
            image += spec.texture_amp * wave * (labels == k)
    image += rng.normal(scale=spec.noise_sigma, size=image.shape)
    np.clip(image, 0.0, 1.0, out=image)

    if spec.void_ribbon_px > 0:
        labels[_mark_ribbons(labels, spec.void_ribbon_px)] = VOID
    b = spec.void_border_px
    if b > 0:
        labels[:b, :] = VOID
        labels[-b:, :] = VOID
        labels[:, :b] = VOID
        labels[:, -b:] = VOID

    return Sample(image, labels, f"scene_{index:05d}")


def make_dataset(spec: SceneSpec, n_train: int, n_val: int, n_test: int = 0) -> Dataset:
    """Deterministic disjoint splits: train takes indices [0, n_train),
    val and test the following ranges."""
    ds = Dataset(spec)
    idx = 0
    for count, bucket in ((n_train, ds.train), (n_val, ds.val), (n_test, ds.test)):
        for _ in range(count):
            bucket.append(generate_scene(spec, idx))
            idx += 1
    return ds


# ---------------------------------------------------------------------------
# netpbm I/O


def write_ppm(path, image: np.ndarray) -> None:
    """(3, H, W) floats in [0, 1] -> binary P6, maxval 255."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W), got {img.shape}")
    data = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape[1:]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        (w, h), raw = _read_netpbm(fh, b"P6", 3)
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_pgm(path, labels: np.ndarray) -> None:
    """(H, W) class indices (< 255) with VOID encoded as 255."""
    lab = np.asarray(labels)
    if lab.ndim != 2:
        raise ValueError(f"expected (H, W), got {lab.shape}")
    if np.any((lab < 0) | (lab > 255)):
        raise ValueError("labels out of 8-bit range")
    h, w = lab.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(lab.astype(np.uint8).tobytes())


def read_pgm(path, num_classes: int | None = None) -> np.ndarray:
    with open(path, "rb") as fh:
        (w, h), raw = _read_netpbm(fh, b"P5", 1)
    lab = np.frombuffer(raw, dtype=np.uint8).reshape(h, w).astype(np.int64)
    if num_classes is not None:
        bad = (lab >= num_classes) & (lab != VOID)
        if np.any(bad):
            raise ValueError(f"label {lab[bad].max()} out of range for C={num_classes}")
    return lab


def _read_netpbm(fh, expected_magic: bytes, channels: int):
    """((w, h), payload) of a binary netpbm file with maxval 255."""
    def token():
        # skip whitespace and '#' comments, return one header token
        tok = b""
        while True:
            ch = fh.read(1)
            if not ch:
                raise ValueError("truncated netpbm header")
            if ch == b"#":
                while ch not in (b"\n", b""):
                    ch = fh.read(1)
                continue
            if ch.isspace():
                if tok:
                    return tok
                continue
            tok += ch

    magic = token()
    if magic != expected_magic:
        raise ValueError(f"expected {expected_magic.decode()}, got {magic!r}")
    w, h = int(token()), int(token())
    maxval = int(token())
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    raw = fh.read(w * h * channels)
    if len(raw) != w * h * channels:
        raise ValueError("truncated netpbm payload")
    return (w, h), raw


def save_sample(sample: Sample, directory) -> None:
    directory = Path(directory)
    write_ppm(directory / f"{sample.id}.ppm", sample.image)
    write_pgm(directory / f"{sample.id}.pgm", sample.labels)


def load_sample(directory, sample_id: str, num_classes: int | None = None) -> Sample:
    directory = Path(directory)
    image = read_ppm(directory / f"{sample_id}.ppm")
    labels = read_pgm(directory / f"{sample_id}.pgm", num_classes)
    return Sample(image, labels, sample_id)


def save_dataset(ds: Dataset, directory) -> None:
    """Samples plus a split manifest ('<split> <id>' per line) and the
    scene parameters needed to reload."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for split in ("train", "val", "test"):
        for sample in ds.split(split):
            save_sample(sample, directory)
            lines.append(f"{split} {sample.id}\n")
    (directory / "manifest.txt").write_text("".join(lines))
    meta = {
        "height": ds.spec.height, "width": ds.spec.width,
        "num_classes": ds.spec.num_classes, "seed": ds.spec.seed,
    }
    (directory / "meta.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in sorted(meta.items())))


def load_dataset(directory) -> Dataset:
    """The dataset that ``save_dataset`` wrote to ``directory``; a malformed
    ``meta.cfg`` or manifest line, a sample file that does not parse, or a
    sample whose image is not (3, H, W) or whose label map is not (H, W),
    with H and W from ``meta.cfg``, raises ValueError."""
    directory = Path(directory)
    meta = {}
    for line in (directory / "meta.cfg").read_text().splitlines():
        key, _, value = line.partition("=")
        meta[key.strip()] = int(value.strip())
    missing = {"height", "width", "num_classes", "seed"} - set(meta)
    if missing:
        raise ValueError(f"meta.cfg does not set {', '.join(sorted(missing))}")
    spec = SceneSpec(height=meta["height"], width=meta["width"],
                     num_classes=meta["num_classes"], seed=meta["seed"])
    ds, extent = Dataset(spec), (spec.height, spec.width)
    for line in (directory / "manifest.txt").read_text().splitlines():
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2 or fields[0] not in ("train", "val", "test"):
            raise ValueError(f"manifest line {line!r} is not '<train|val|test> <id>'")
        split, sample_id = fields
        try:
            sample = load_sample(directory, sample_id, spec.num_classes)
            if sample.image.shape != (3, *extent) or sample.labels.shape != extent:
                raise ValueError(f"image {sample.image.shape} and label map "
                                 f"{sample.labels.shape}, but meta.cfg says "
                                 f"{spec.height}x{spec.width}")
        except ValueError as e:
            raise ValueError(f"sample {sample_id}: {e}") from None
        ds.split(split).append(sample)
    return ds
