"""Convolutional backbone, attention insertion point, and dense head.

The network is a stack of 3x3 same-padded conv blocks, each conv → ReLU
or, where the block pools, conv → 2x2 max pool → ReLU: the same function
as VGG's conv → ReLU → pool, since ReLU is monotone, with the ReLU run on
a quarter of the elements. The final feature map is reduced to its
channel means, which pass through the channel-attention block and a
two-layer dense classifier: the block's gate is one scalar per image and
channel, so gating the means is gating the map and then averaging it, up
to rounding.
Per-parameter trainable flags realize backbone freezing for transfer
learning.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import stat
import struct
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .attention import fab_forward, fab_init, glorot_uniform, he_uniform
from .data import model_input
from .errors import ConfigError, FormatError, ShapeError, decode_utf8
from .tensor import Tape, Tensor, dense, mean_spatial, relu, _emit

CHECKPOINT_MAGIC = b"FABN"
CHECKPOINT_VERSION = 1
# Largest input height or width a config or checkpoint may declare: well
# above VGG's 224x224, and it holds one preprocessed image to 24 MiB, so a
# size read from a file cannot ask for arrays of many GiB.
MAX_INPUT_EXTENT = 1024


@dataclass(frozen=True)
class ConvBlockSpec:
    """One backbone block: 3x3 conv, stride 1, same padding, ReLU."""

    out_channels: int
    pool: bool = True   # 2x2 max pool, stride 2, between conv and ReLU


@dataclass(frozen=True)
class ModelConfig:
    input_size: tuple = (32, 32)        # (height, width)
    in_channels: int = 3
    blocks: tuple = (ConvBlockSpec(16), ConvBlockSpec(32), ConvBlockSpec(64))
    use_fab: bool = True
    fab_ratio: int = 8
    head_hidden: int = 64
    num_classes: int = 5
    freeze_backbone: bool = False


def feature_map_size(cfg: ModelConfig) -> tuple:
    """Spatial size after all blocks; raises ConfigError on underflow."""
    h, w = cfg.input_size
    for i, blk in enumerate(cfg.blocks):
        if blk.pool:
            if h % 2 or w % 2:
                raise ConfigError(f"block {i}: cannot pool odd extent {h}x{w}")
            h, w = h // 2, w // 2
        if h < 1 or w < 1:
            raise ConfigError(f"block {i}: feature map underflows to {h}x{w}")
    return h, w


def validate_config(cfg: ModelConfig) -> None:
    if max(cfg.input_size) > MAX_INPUT_EXTENT:
        h, w = cfg.input_size
        raise ConfigError(f"input size {h}x{w} exceeds {MAX_INPUT_EXTENT} "
                          f"per side")
    if cfg.num_classes < 2:
        raise ConfigError("num_classes must be >= 2")
    if not cfg.blocks:
        raise ConfigError("at least one conv block is required")
    if any(b.out_channels < 1 for b in cfg.blocks):
        raise ConfigError("block channel counts must be >= 1")
    if cfg.in_channels < 1 or cfg.head_hidden < 1:
        raise ConfigError("in_channels and head_hidden must be >= 1")
    if cfg.use_fab:
        c = cfg.blocks[-1].out_channels
        if cfg.fab_ratio < 1 or c % cfg.fab_ratio != 0:
            raise ConfigError(f"fab_ratio {cfg.fab_ratio} must divide "
                              f"final channel count {c}")
    feature_map_size(cfg)


class Model:
    """Named parameter tensors plus the config that wires them together."""

    def __init__(self, config: ModelConfig, class_names, params: dict,
                 trainable: dict):
        self.config = config
        self.class_names = list(class_names)
        self.params = params          # name -> Tensor, insertion-ordered
        self.trainable = trainable    # name -> bool

    def watch_trainable(self, tape: Tape) -> Model:
        """This model with each trainable parameter a fresh leaf of ``tape``.

        The leaves share their arrays with this model's tensors, so an
        optimizer step on them updates this model in place; frozen entries
        are this model's own tensors. No tensor of this model is bound to
        ``tape``, so the tape dies with the returned model.
        """
        params = dict(self.params)
        for name, t in trainable_parameters(self):
            params[name] = leaf = Tensor(t.data)
            tape.watch(leaf)
        return Model(self.config, self.class_names, params, self.trainable)


def _param_rng(seed: int, name: str) -> np.random.Generator:
    # Per-name streams keep paired configs (e.g. with/without the
    # attention block) bit-identical on their shared parameters.
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed,
                               spawn_key=(zlib.crc32(name.encode("utf-8")),)))


def param_table(cfg: ModelConfig) -> dict:
    """Ordered ``name -> (shape, trainable)`` of every parameter ``cfg`` wires.

    This is the one source of parameter names, shapes, order and trainable
    flags: ``build_model`` fills it by drawing, ``load_checkpoint`` from a
    file. Raises ConfigError if ``cfg`` is invalid.
    """
    validate_config(cfg)
    table: dict = {}
    backbone = not cfg.freeze_backbone
    c_in = cfg.in_channels
    for i, blk in enumerate(cfg.blocks):
        c_out = blk.out_channels
        table[f"block{i}.conv.weight"] = ((3, 3, c_in, c_out), backbone)
        table[f"block{i}.conv.bias"] = ((1, 1, 1, c_out), backbone)
        c_in = c_out
    if cfg.use_fab:
        mid = c_in // cfg.fab_ratio
        table["fab.reduce.weight"] = ((1, 1, mid, c_in), True)
        table["fab.reduce.bias"] = ((1, 1, 1, mid), True)
        table["fab.expand.weight"] = ((1, 1, c_in, mid), True)
        table["fab.expand.bias"] = ((1, 1, 1, c_in), True)
    hidden, classes = cfg.head_hidden, cfg.num_classes
    table["head.hidden.weight"] = ((1, 1, hidden, c_in), True)
    table["head.hidden.bias"] = ((1, 1, 1, hidden), True)
    table["head.out.weight"] = ((1, 1, classes, hidden), True)
    table["head.out.bias"] = ((1, 1, 1, classes), True)
    return table


def _check_class_names(cfg: ModelConfig, class_names) -> list:
    if class_names is None:
        return [f"class{i:02d}" for i in range(cfg.num_classes)]
    if len(class_names) != cfg.num_classes:
        raise ConfigError(f"{len(class_names)} class names for "
                          f"{cfg.num_classes} classes")
    for name in class_names:
        # The checkpoint header joins the names with ',' on one line.
        if "," in name or len(f"{name}.".splitlines()) > 1:
            raise ConfigError(f"class name {name!r} holds ',' or a line break")
    return list(class_names)


def _model_from_table(cfg: ModelConfig, class_names, table: dict,
                      values: dict) -> Model:
    """A Model whose parameters follow ``table``'s order, from ``values``."""
    return Model(cfg, class_names,
                 {name: Tensor(values[name]) for name in table},
                 {name: trainable for name, (_, trainable) in table.items()})


def build_model(cfg: ModelConfig, seed: int, class_names=None) -> Model:
    """Deterministically initialize a model for ``cfg``.

    Conv and hidden dense weights are He-uniform, the output layer is
    Glorot-uniform, the attention block comes from ``fab_init``, and all
    biases start at zero. Each weight group draws from its own stream.
    """
    table = param_table(cfg)
    class_names = _check_class_names(cfg, class_names)
    values = {name: np.zeros(shape) for name, (shape, _) in table.items()}
    for i in range(len(cfg.blocks)):
        name = f"block{i}.conv.weight"
        shape = table[name][0]
        values[name] = he_uniform(_param_rng(seed, f"block{i}"),
                                  shape[0] * shape[1] * shape[2], shape)
    if cfg.use_fab:
        fab = fab_init(cfg.blocks[-1].out_channels, cfg.fab_ratio,
                       _param_rng(seed, "fab"))
        values.update((name, t.data) for name, t in fab.items())
    shape = table["head.hidden.weight"][0]
    values["head.hidden.weight"] = he_uniform(
        _param_rng(seed, "head.hidden"), shape[3], shape)
    shape = table["head.out.weight"][0]
    values["head.out.weight"] = glorot_uniform(
        _param_rng(seed, "head.out"), shape[3], shape[2], shape)
    return _model_from_table(cfg, class_names, table, values)


# Output pixels per conv2d column block. The cap bounds the im2col
# workspace at 256 * KH*KW*Cin items whatever the image size: an untracked
# 224x224 forward at the default widths peaked (tracemalloc, batch 1) at
# 7.8 MiB against 20.0 MiB under the former rule of 1024 pixels in whole
# images, and the benchmark's 100-image predict set-up at 41.5 against
# 44.1 MB (VmHWM; 2-vCPU Xeon, OpenBLAS SkylakeX kernel, one BLAS thread).
_BLOCK_PIXELS = 256


def _block_shape(h: int, w: int) -> tuple:
    """(images, rows) of each conv2d column block at output extent h x w.

    Whole images while one fits in ``_BLOCK_PIXELS``; otherwise a band of
    ``max(1, _BLOCK_PIXELS // w)`` rows of one image, the last band of an
    image taking the rows left over.
    """
    if h * w <= _BLOCK_PIXELS:
        return _BLOCK_PIXELS // (h * w), h
    return 1, max(1, _BLOCK_PIXELS // w)


def _windows(padded: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H, W, KH, KW, Cin) read-only view of each output pixel's window.

    One ``as_strided`` call builds the view that ``sliding_window_view``
    plus a transpose would, without their argument checks on every call.
    """
    n, hp, wp, cin = padded.shape
    sn, sh, sw, sc = padded.strides
    return as_strided(padded, (n, hp - kh + 1, wp - kw + 1, kh, kw, cin),
                      (sn, sh, sw, sh, sw, sc), writeable=False)


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlation with zero same-padding, stride 1.

    ``kernels`` is (KH, KW, Cin, Cout) with odd KH/KW; output spatial
    size equals input size. The forward pass multiplies im2col columns,
    laid out (KH, KW, Cin) per output pixel (Chellapilla, Puri & Simard,
    2006), by the kernel matrix, one block (``_block_shape``) at a time
    through one workspace sized to the largest block, each matmul writing
    straight into the output. A block changes the matmul's row count,
    which can move bytes on some BLAS kernels and shapes: the output
    bytes equal one whole-batch matmul's at the shapes
    ``test_bytes_match_whole_batch_im2col`` checks, on the kernels CI
    runs. The chunked forward of ``model_forward`` equals the whole-batch
    forward because its chunks start on block boundaries, so it runs
    the same matmuls.

    The backward rule keeps the padded input, a ninth of the columns'
    size (Chen et al., arXiv:1604.06174): it rebuilds the columns for
    the weight gradient and frees them before it builds the input
    gradient from one matmul per kernel tap, added into a padded buffer
    at the tap's offset; that leg is skipped when ``x`` is untracked.
    """
    n, h, w, cin = x.shape
    kh, kw, kcin, cout = kernels.shape
    if kcin != cin:
        raise ShapeError(f"conv2d: kernel expects {kcin} channels, input has {cin}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv2d: kernel extent must be odd, got {kh}x{kw}")
    if bias.shape != (1, 1, 1, cout):
        raise ShapeError(f"conv2d: bias {bias.shape} does not match "
                         f"{cout} output channels")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    # Zero border, interior copied in: the bytes of np.pad at lower cost.
    padded = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=x.data.dtype)
    padded[:, ph:ph + h, pw:pw + w, :] = x.data
    kdata = kernels.data
    ncol = kh * kw * cin   # entries per column
    wmat = kdata.reshape(ncol, cout)
    out = np.empty((n, h, w, cout),
                   dtype=np.result_type(padded, kdata, bias.data))
    images, rows = _block_shape(h, w)
    windows = _windows(padded, kh, kw)
    workspace = np.empty((min(images, n), rows) + windows.shape[2:],
                         dtype=padded.dtype)
    pixels = out.reshape(-1, cout)
    for start in range(0, n, images):
        for top in range(0, h, rows):
            # Either whole images or rows of one image: both are one
            # contiguous run of the workspace and of the output's pixels.
            src = windows[start:start + images, top:top + rows]
            block = workspace[:src.shape[0], :src.shape[1]]
            np.copyto(block, src)
            first = (start * h + top) * w
            np.matmul(block.reshape(-1, ncol), wmat,
                      out=pixels[first:first + block.size // ncol])
    out += bias.data.reshape(cout)
    need_x = x.tracked

    def back(g):
        cols = np.ascontiguousarray(_windows(padded, kh, kw)).reshape(-1, ncol)
        grad_w = (cols.T @ g.reshape(-1, cout)).reshape(kdata.shape)
        del cols
        grad_b = g.sum(axis=(0, 1, 2)).reshape(1, 1, 1, cout)
        if not need_x:
            return (None, grad_w, grad_b)
        grad_padded = np.zeros_like(padded)
        for i in range(kh):
            for j in range(kw):
                grad_padded[:, i:i + h, j:j + w, :] += g @ kdata[i, j].T
        return (grad_padded[:, ph:ph + h, pw:pw + w, :], grad_w, grad_b)

    return _emit("conv2d", (x, kernels, bias), out, back)


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; requires even spatial extents.

    The backward rule routes each window's gradient to its first maximum
    in row-major window order. A tracked ``x`` marks those maxima in a
    one-byte mask during the forward, so the rule keeps neither ``x``
    nor the output alive; an untracked one records no rule.
    """
    n, h, w, c = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2x2: extents must be even, got {h}x{w}")
    h2, w2 = h // 2, w // 2
    windows = x.data.reshape(n, h2, 2, w2, 2, c)
    out = np.maximum(windows[:, :, 0, :, 0], windows[:, :, 0, :, 1])
    np.maximum(out, windows[:, :, 1, :, 0], out=out)
    np.maximum(out, windows[:, :, 1, :, 1], out=out)
    if not x.tracked:
        return Tensor(out)

    hit = windows == out[:, :, None, :, None, :]
    # Keep only each window's first maximum in row-major order.
    seen = hit[:, :, 0, :, 0].copy()
    for i, j in ((0, 1), (1, 0), (1, 1)):
        tap = hit[:, :, i, :, j]
        tap &= ~seen
        seen |= tap

    def back(g):
        # g at the winners and +0.0 elsewhere, by ANDing g's bits with
        # all-ones or all-zeros masks of g's width (int32 for float32): the
        # bytes of np.where(hit, g, 0.0) at about half its cost.
        ints = np.dtype(f"i{g.itemsize}")
        bits = np.negative(hit.view(np.int8), dtype=ints)
        bits &= g.view(ints)[:, :, None, :, None, :]
        return (bits.view(g.dtype).reshape(n, h, w, c),)

    return _emit("maxpool2x2", (x,), out, back)


def _chunk_images(cfg: ModelConfig) -> int:
    """Images per chunk of an untracked forward's depth-first backbone.

    The least common multiple, over the convs, of the images in one
    ``_block_shape`` block at the conv's input extent. A conv that runs
    in row bands has one image per block, so any chunk lines up with it.
    Every chunk then starts on a block boundary of every conv, so its
    GEMMs are GEMMs the whole-batch forward runs too, and its bytes are
    theirs.
    """
    h, w = cfg.input_size
    chunk = 1
    for blk in cfg.blocks:
        chunk = math.lcm(chunk, _block_shape(h, w)[0])
        if blk.pool:
            h, w = h // 2, w // 2
    return chunk


def _backbone(m: Model, t: Tensor) -> Tensor:
    """Every conv block in order: conv, then 2x2 pool if the block pools, ReLU."""
    for i, blk in enumerate(m.config.blocks):
        t = conv2d(t, m.params[f"block{i}.conv.weight"],
                   m.params[f"block{i}.conv.bias"])
        if blk.pool:
            t = maxpool2x2(t)
        t = relu(t)
    return t


def _tail(m: Model, pooled: Tensor) -> Tensor:
    """Attention block, then hidden, ReLU, out, on (N,1,1,C) channel means.

    The dense layers are not bit-stable across row blocks, so they see
    the whole batch, for a held-out sweep the whole split.
    """
    if m.config.use_fab:
        pooled = fab_forward(pooled, m.params)
    t = dense(pooled, m.params["head.hidden.weight"],
              m.params["head.hidden.bias"])
    return dense(relu(t), m.params["head.out.weight"], m.params["head.out.bias"])


def _streamed_forward(m: Model, x: np.ndarray, chunk: int) -> Tensor:
    """Untracked logits of ``x`` with the tracked forward's bytes.

    Each chunk of ``x`` is scaled (``model_input``), run through the
    backbone and reduced to its channel means before the next is, and
    ``_tail`` runs once over the batch's means. Every op before the
    dense layers is bit-stable across images, so the bytes are the
    whole-batch forward's. An empty batch runs one empty chunk.
    """
    chunks = (Tensor(model_input(x[start:start + chunk]))
              for start in range(0, max(len(x), 1), chunk))
    pooled = np.concatenate([mean_spatial(_backbone(m, t)).data for t in chunks])
    return _tail(m, Tensor(pooled))


def model_forward(m: Model, x: Tensor) -> Tensor:
    """Logits (N,1,1,num_classes) for a batch of (N,H,W,3) images.

    ``x`` holds model input, or ``uint8`` decoder bytes that it scales
    with ``model_input``, as ``SplitData`` allows.

    A pooling block runs conv → pool → ReLU, the same function as VGG's
    conv → ReLU → pool (``relu(maxpool(y)) == maxpool(relu(y))`` bit for
    bit) at a quarter of the ReLU work. Gradients differ at most in the
    sign of exact zeros, which the following sums erase.

    An untracked forward (``x`` and every parameter untracked), of any
    batch size, streams depth-first a chunk of images (``_chunk_images``)
    at a time (Alwani et al., "Fused-Layer CNN Accelerators", MICRO 2016):
    it holds one chunk of float input and of feature maps, and only the
    channel means, C values per image, reach ``_tail`` for the whole batch
    (``_streamed_forward``). A tracked forward scales a byte input once
    and runs ``_backbone``, ``mean_spatial`` and ``_tail`` over the whole
    batch, so backward sees one node per op; both give the same bytes.
    """
    _, h, w, c = x.shape
    if (h, w) != tuple(m.config.input_size) or c != m.config.in_channels:
        raise ShapeError(f"input {x.shape} does not match configured "
                         f"size {m.config.input_size} x {m.config.in_channels}")
    if not any(v.tracked for v in (x, *m.params.values())):
        return _streamed_forward(m, x.data, _chunk_images(m.config))
    if x.data.dtype == np.uint8:
        x = Tensor(model_input(x.data))
    return _tail(m, mean_spatial(_backbone(m, x)))


def trainable_parameters(m: Model) -> list:
    """Ordered (name, tensor) pairs of the parameters the optimizer may touch."""
    return [(name, t) for name, t in m.params.items() if m.trainable[name]]


def parse_blocks(text: str) -> tuple:
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError("empty block entry")
        chan, colon, suffix = part.partition(":")
        if colon and suffix != "pool":
            raise ConfigError(f"unknown block suffix {suffix!r}")
        try:
            channels = int(chan)
        except ValueError as exc:
            raise ConfigError(f"bad block channel count {chan!r}") from exc
        specs.append(ConvBlockSpec(channels, pool=bool(colon)))
    return tuple(specs)


def parse_bool(value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"expected true/false, got {value!r}")


def read_settings(lines, parsers: dict, what: str) -> dict:
    """``key=value`` lines -> ``{key: parsers[key](value)}``.

    Skips blank lines and splits each line on its first ``=``. A line
    without ``=``, an unknown or repeated key, or a value its parser
    rejects raises ConfigError starting ``<line number>: ``; ``what``
    names the settings in that message.
    """
    settings: dict = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{lineno}: expected key=value")
        parse = parsers.get(key)
        if parse is None:
            raise ConfigError(f"{lineno}: unknown {what} key {key!r}")
        if key in settings:
            raise ConfigError(f"{lineno}: repeated {what} key {key!r}")
        try:
            settings[key] = parse(value)
        except ValueError as exc:   # from int()/float(): name the key
            raise ConfigError(f"{lineno}: invalid {what} {key}: {exc}") from exc
        except ConfigError as exc:
            raise ConfigError(f"{lineno}: invalid {what}: {exc}") from exc
    return settings


# The checkpoint header, one ``key=value`` line per key in this order: key ->
# (parser of the value, its text for a config and class names). Every key
# but the input size's and the class names' names a ModelConfig field.
_HEADER_FIELDS = {
    "input_height": (int, lambda cfg, names: str(cfg.input_size[0])),
    "input_width": (int, lambda cfg, names: str(cfg.input_size[1])),
    "in_channels": (int, lambda cfg, names: str(cfg.in_channels)),
    "blocks": (parse_blocks, lambda cfg, names: ",".join(
        f"{b.out_channels}:pool" if b.pool else str(b.out_channels)
        for b in cfg.blocks)),
    "use_fab": (parse_bool, lambda cfg, names: str(cfg.use_fab).lower()),
    "fab_ratio": (int, lambda cfg, names: str(cfg.fab_ratio)),
    "head_hidden": (int, lambda cfg, names: str(cfg.head_hidden)),
    "num_classes": (int, lambda cfg, names: str(cfg.num_classes)),
    "freeze_backbone": (parse_bool, lambda cfg, names: str(cfg.freeze_backbone).lower()),
    "class_names": (lambda text: text.split(","), lambda cfg, names: ",".join(names)),
}
_HEADER_PARSERS = {key: parse for key, (parse, _) in _HEADER_FIELDS.items()}


def _config_text(cfg: ModelConfig, class_names) -> str:
    return "".join(f"{key}={text(cfg, class_names)}\n"
                   for key, (_, text) in _HEADER_FIELDS.items())


def _config_from_text(text: str) -> tuple:
    """Checkpoint header -> (config, class names, parameter table).

    Read verbatim, since class names may hold ``#`` and spaces.
    """
    try:
        fields = read_settings(text.splitlines(), _HEADER_PARSERS,
                               "checkpoint config")
    except ConfigError as exc:
        raise FormatError(f"checkpoint config line {exc}") from exc
    for key in _HEADER_FIELDS:
        if key not in fields:
            raise FormatError(f"missing checkpoint config key {key!r}")
    size = (fields.pop("input_height"), fields.pop("input_width"))
    names = fields.pop("class_names")
    try:
        cfg = ModelConfig(input_size=size, **fields)
        class_names = _check_class_names(cfg, names)
        table = param_table(cfg)
    except ConfigError as exc:
        raise FormatError(f"invalid checkpoint config: {exc}") from exc
    return cfg, class_names, table


def save_checkpoint(m: Model, path) -> None:
    """Write the model as little-endian binary; round trips are bit-exact.

    The bytes go to a temporary file next to ``path`` that replaces it
    only once complete and synced, so a failed write leaves any previous
    checkpoint as it was and no partial file behind; the directory is
    synced after the rename, so the new entry survives a crash too.
    """
    text = _config_text(m.config, m.class_names).encode("utf-8")
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(text)))
            fh.write(text)
            for name, t in m.params.items():
                nb = name.encode("utf-8")
                fh.write(struct.pack("<I", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<4Q", *t.shape))
                fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by ``save_checkpoint``; FormatError if faulty.

    Each parameter's values are read from the file straight into their
    own array, so every byte is copied once and no copy of the whole file
    is held. Each read is checked against the file's size before anything
    is read or allocated, so a declared length cannot ask for more than
    the file holds. A file whose size is unknown up front (a pipe) is
    read whole first, once its first four bytes are the magic.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode):
            return _read_checkpoint(fh, info.st_size)
        blob = fh.read(4)
        if blob == CHECKPOINT_MAGIC:
            blob += fh.read()
    return _read_checkpoint(io.BytesIO(blob), len(blob))


def _read_checkpoint(fh, size: int) -> Model:
    """The model in the ``size`` bytes that ``fh`` reads from its start."""
    offset = 0

    def read(n, what):
        """The next ``n`` bytes of ``fh``, which must exist."""
        nonlocal offset
        chunk = fh.read(n) if offset + n <= size else b""
        if len(chunk) != n:
            raise FormatError(f"truncated checkpoint while reading {what}")
        offset += n
        return chunk

    if read(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    (version,) = struct.unpack("<I", read(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (text_len,) = struct.unpack("<I", read(4, "config length"))
    cfg, class_names, table = _config_from_text(
        decode_utf8(read(text_len, "config"), "checkpoint config", FormatError))

    # Every record must match the table by name and shape and hold only
    # finite values; the model is then assembled in table order, so
    # nothing is drawn and a load -> save round trip is byte-identical.
    loaded: dict = {}
    while offset < size:
        (name_len,) = struct.unpack("<I", read(4, "name length"))
        name = decode_utf8(read(name_len, "name"), "parameter name", FormatError)
        if name in loaded:
            raise FormatError(f"duplicate parameter record {name!r}")
        if name not in table:
            raise FormatError(f"parameter table mismatch: {[name]}")
        shape = struct.unpack("<4Q", read(32, "shape"))
        if shape != table[name][0]:
            raise FormatError(f"shape table mismatch for {name}")
        count = math.prod(shape)
        data = np.empty(shape, "<f8") if offset + count * 8 <= size else None
        if data is None or fh.readinto(data) != count * 8:
            raise FormatError(f"truncated checkpoint while reading values of {name}")
        offset += count * 8
        if not np.isfinite(data).all():
            raise FormatError(f"non-finite value in {name}")
        loaded[name] = data
    if len(loaded) != len(table):
        raise FormatError(f"parameter table mismatch: {sorted(table.keys() - loaded)}")
    return _model_from_table(cfg, class_names, table, loaded)
