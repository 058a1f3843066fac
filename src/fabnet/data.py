"""Dataset ingestion, preprocessing, splitting, batching, and synthesis.

Images are binary PPM (P6) or PGM (P5) with maxval 255; grayscale is
expanded to three channels. A dataset is a CSV manifest of
``path,label`` rows; class ids follow lexicographic label order.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ImageFormatError, ManifestError, SplitError, decode_utf8
from .tensor import Tensor


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple                 # ((path, label), ...) in file order
    class_names: tuple             # sorted unique labels
    base_dir: Path                 # paths resolve relative to this

    @property
    def class_ids(self) -> dict:
        return {name: i for i, name in enumerate(self.class_names)}

    def label_id(self, index: int) -> int:
        return self.class_ids[self.entries[index][1]]

    def resolve(self, index: int) -> Path:
        p = Path(self.entries[index][0])
        return p if p.is_absolute() else self.base_dir / p


def load_manifest(path) -> DatasetManifest:
    """Read a ``path,label`` CSV; ids are assigned by sorted label order."""
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    lines = decode_utf8(path.read_bytes(), f"manifest {path}", ManifestError).splitlines()
    if not lines or lines[0].strip() != "path,label":
        raise ManifestError("manifest must start with a 'path,label' header")
    entries = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "," not in line:
            raise ManifestError(f"line {lineno}: expected 'path,label'")
        img_path, label = line.rsplit(",", 1)
        img_path, label = img_path.strip(), label.strip()
        if not img_path or not label:
            raise ManifestError(f"line {lineno}: empty path or label")
        # One file has one key however it is spelled, as test_split.csv
        # writes it; a path the OS cannot resolve (a NUL byte, a symlink
        # loop) keys on its text, and decode_image reports it.
        try:
            key = (path.parent / img_path).resolve()
        except (ValueError, RuntimeError):
            key = img_path
        if key in seen:
            raise ManifestError(f"line {lineno}: duplicate path {img_path!r}")
        seen.add(key)
        entries.append((img_path, label))
    if not entries:
        raise ManifestError("manifest has no entries")
    class_names = tuple(sorted({label for _, label in entries}))
    return DatasetManifest(entries=tuple(entries), class_names=class_names,
                           base_dir=path.parent)


_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_token(blob: bytes, offset: int):
    """Next whitespace-delimited header token, skipping '#' comments."""
    match = _HEADER_TOKEN.match(blob, offset)
    if not match.group(1):
        raise ImageFormatError("unexpected end of header")
    return match.group(1), match.end()


def decode_image(path) -> np.ndarray:
    """Decode binary PPM/PGM into a (H, W, 3) uint8 RGB grid."""
    try:
        blob = Path(path).read_bytes()
    # ValueError: a path holding a NUL byte, as a manifest line may.
    except (OSError, ValueError) as exc:
        raise ImageFormatError(f"cannot read image {path}: {exc}") from exc
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"bad magic {magic!r}; expected binary P5/P6")
    channels = 1 if magic == b"P5" else 3
    offset = 2
    try:
        width_tok, offset = _read_token(blob, offset)
        height_tok, offset = _read_token(blob, offset)
        maxval_tok, offset = _read_token(blob, offset)
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except (ValueError, ImageFormatError) as exc:
        raise ImageFormatError(f"bad header in {path}: {exc}") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported maxval {maxval}; expected 255")
    offset += 1   # single whitespace byte separates header from payload
    payload = blob[offset:offset + height * width * channels]
    if len(payload) != height * width * channels:
        raise ImageFormatError(f"truncated payload: expected "
                               f"{height * width * channels} bytes, "
                               f"got {len(payload)}")
    grid = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    # np.repeat makes a new array; a P6 grid is copied off the read-only blob.
    return np.repeat(grid, 3, axis=2) if channels == 1 else grid.copy()


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write a (H, W, 3) uint8 grid as binary P6, maxval 255."""
    h, w, c = pixels.shape
    if c != 3 or pixels.dtype != np.uint8:
        raise ValueError("write_ppm needs (H, W, 3) uint8 pixels")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def bilinear_resize(img: np.ndarray, target) -> np.ndarray:
    """Resize (H, W, C) pixels to float64 with half-pixel center alignment.

    Interpolation uses the ``a + t*(b - a)`` form so constant images are
    preserved bit-exactly. Each source row set is gathered once, then
    widened to float64 and viewed as (rows, W*C), so every lerp runs over
    contiguous rows and a decoder's uint8 grid is never widened whole.
    The result is always a new array. At equal sizes every sample centre
    is an exact pixel and every weight 0.0, so it holds ``img``'s values.
    """
    src_h, src_w, c = img.shape
    dst_h, dst_w = target

    def axis_coords(src, dst):
        scale = src / dst
        centers = (np.arange(dst) + 0.5) * scale - 0.5
        centers = np.clip(centers, 0.0, src - 1.0)
        lo = np.floor(centers).astype(np.int64)
        hi = np.minimum(lo + 1, src - 1)
        return lo, hi, centers - lo

    ylo, yhi, fy = axis_coords(src_h, dst_h)
    xlo, xhi, fx = axis_coords(src_w, dst_w)
    # Column indices and weights repeated per channel, over the (W*C) rows.
    channel = np.arange(c)
    xlo = (xlo[:, None] * c + channel).reshape(-1)
    xhi = (xhi[:, None] * c + channel).reshape(-1)
    fx = np.repeat(fx, c)

    def lerp_columns(rows):
        rows = rows.reshape(dst_h, src_w * c).astype(np.float64, copy=False)
        # np.take, not rows[:, xlo]: its result is C-ordered, so every
        # lerp and the final reshape stay on contiguous rows.
        left = np.take(rows, xlo, axis=1)
        return left + fx * (np.take(rows, xhi, axis=1) - left)

    top = lerp_columns(img[ylo])
    bot = lerp_columns(img[yhi])
    return (top + fy[:, None] * (bot - top)).reshape(dst_h, dst_w, c)


# A decoded byte ``u`` is the model input ``u / PIXEL_SCALE``.
PIXEL_SCALE = 255.0


def model_input(x: np.ndarray) -> np.ndarray:
    """Scale decoder bytes into [0, 1]; a float array is model input already.

    The dtype decides: ``uint8`` means decoder bytes, float means scaled
    pixels, which pass through unchanged. At equal sizes this is exactly
    what ``preprocess`` computes, as ``bilinear_resize`` then only widens.
    """
    if x.dtype == np.uint8:
        return np.divide(x, PIXEL_SCALE, dtype=np.float64)
    return x


def preprocess(raw: np.ndarray, target) -> Tensor:
    """Bilinear-resize a decoded grid to ``target`` and scale into [0, 1]."""
    pixels = bilinear_resize(raw, target)
    pixels /= PIXEL_SCALE
    h, w = target
    return Tensor(pixels.reshape(1, h, w, 3))


def stratified_split(manifest: DatasetManifest, seed: int):
    """Per-class round(0.2 * n) holdout (minimum 1), seeded per class.

    Returns sorted (train_indices, test_indices); together they cover
    every entry exactly once.
    """
    by_class: dict = {name: [] for name in manifest.class_names}
    for i, (_, label) in enumerate(manifest.entries):
        by_class[label].append(i)
    rng = np.random.default_rng(seed)
    test = []
    for name in manifest.class_names:
        members = np.array(by_class[name])
        if members.size < 2:
            raise SplitError(f"class {name!r} has {members.size} entry; needs >= 2")
        n_test = max(1, round(0.2 * members.size))
        order = rng.permutation(members.size)
        test.extend(members[order[:n_test]])
    test_set = set(test)
    train = [i for i in range(len(manifest.entries)) if i not in test_set]
    return np.array(train, dtype=np.int64), np.array(sorted(test), dtype=np.int64)


def batch_iterator(indices, batch_size: int, shuffle_seed: int, epoch: int):
    """Seeded epoch-dependent shuffle; the final partial batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    indices = np.asarray(indices)
    order = np.random.default_rng([shuffle_seed, epoch]).permutation(indices.size)
    shuffled = indices[order]
    for start in range(0, shuffled.size, batch_size):
        yield shuffled[start:start + batch_size]


def load_pixels(manifest: DatasetManifest, indices, image_size):
    """Decode entries into one stacked (n, H, W, 3) array, plus int64 ids.

    Returns (x, y). When every image already has ``image_size``, x holds
    the decoder's ``uint8`` bytes, one byte per value, for ``model_input``
    to scale a batch at a time. Otherwise every image goes through
    ``preprocess`` and x is float64 model input in [0, 1].
    """
    h, w = image_size
    xs = np.empty((len(indices), h, w, 3), dtype=np.uint8)
    ys = np.empty(len(indices), dtype=np.int64)
    for row, idx in enumerate(indices):
        raw = decode_image(manifest.resolve(idx))
        if xs.dtype == np.uint8 and raw.shape[:2] != (h, w):
            # Every row so far is at size, where preprocess is model_input.
            xs = model_input(xs)
        xs[row] = (raw if xs.dtype == np.uint8
                   else preprocess(raw, image_size).data[0])
        ys[row] = manifest.label_id(idx)
    return xs, ys


def load_samples(manifest: DatasetManifest, indices, image_size):
    """Decode and preprocess entries into stacked arrays.

    Returns (x, y): x is (n, H, W, 3) float64 in [0, 1], y is int64 ids.
    """
    x, y = load_pixels(manifest, indices, image_size)
    return model_input(x), y


# Synthetic pattern constants. Hue separates classes, blob count and
# radius band add non-color structure; pixel noise and per-image hue
# jitter give adjacent classes genuine overlap so the task is learnable
# but not trivially separable.
_SYNTH_NOISE = 28.0
_SYNTH_BACKGROUND = 70.0
_SYNTH_HUE_JITTER = 0.35


def _hue_color(angle: float) -> np.ndarray:
    return np.array([
        0.5 + 0.5 * np.cos(angle),
        0.5 + 0.5 * np.cos(angle - 2.0 * np.pi / 3.0),
        0.5 + 0.5 * np.cos(angle + 2.0 * np.pi / 3.0),
    ])


def synth_image(k: int, classes: int, size, rng: np.random.Generator) -> np.ndarray:
    """Render one labelled pattern: class-coloured blobs over noise."""
    h, w = size
    img = np.full((h, w, 3), _SYNTH_BACKGROUND)
    img += rng.normal(0.0, _SYNTH_NOISE, size=(h, w, 3))
    angle = 2.0 * np.pi * k / classes + rng.normal(0.0, _SYNTH_HUE_JITTER)
    color = 255.0 * _hue_color(angle)
    blob_count = 1 + (k % 3)
    radius_lo = (0.10 + 0.05 * (k % 4)) * min(h, w)
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(blob_count):
        cy = rng.uniform(0.2 * h, 0.8 * h)
        cx = rng.uniform(0.2 * w, 0.8 * w)
        radius = rng.uniform(radius_lo, radius_lo * 1.5)
        dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
        coverage = np.clip(1.0 - (dist - radius) / max(1.0, 0.25 * radius), 0.0, 1.0)
        jitter = rng.uniform(0.75, 1.0)
        img += coverage[:, :, None] * (jitter * color - img) * 0.85
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def synth_generate(out_dir, classes: int, per_class: int, size,
                   seed: int) -> Path:
    """Write a deterministic labelled PPM dataset plus its manifest.

    Each image gets its own generator seeded from (seed, class, index),
    so identical seeds yield bit-identical directories. Returns the
    manifest path.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    out_dir = Path(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    rows = ["path,label"]
    for k in range(classes):
        label = f"class{k:02d}"
        for i in range(per_class):
            rng = np.random.default_rng([seed, k, i])
            name = f"{label}_{i:04d}.ppm"
            write_ppm(out_dir / name, synth_image(k, classes, size, rng))
            rows.append(f"{name},{label}")
    manifest_path = out_dir / "manifest.csv"
    manifest_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return manifest_path
