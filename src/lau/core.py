"""Rank-4 tensor plumbing, label maps, binary dumps, and a deterministic RNG.

Feature maps are plain float64 numpy arrays in (batch, channel, row, column)
order, C-contiguous, so their flat layout matches the on-disk dump format
byte for byte. All numeric code in this package runs in double precision;
the finite-difference checks depend on it.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IGNORE",
    "ShapeError",
    "ConfigError",
    "Rng",
    "LabelMap",
    "as_tensor4",
    "atomic_write",
    "read_tensor",
    "write_tensor",
]

_MASK64 = (1 << 64) - 1

# SplitMix64's increment and output mix, as Python ints for the scalar step and
# as np.uint64 for array draws. Every operand of a uint64 array operation is a
# np.uint64: mixed with a Python int or an int64, older numpy promotes to
# float64 and drops bits.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64_GAMMA, _U64_MIX1, _U64_MIX2 = (np.uint64(v) for v in (_GAMMA, _MIX1, _MIX2))
_U64_SHIFT = {bits: np.uint64(bits) for bits in (11, 27, 30, 31)}

# Label of pixels that carry no supervision.
IGNORE = -1


class ShapeError(ValueError):
    """Raised when tensor shapes do not satisfy an operation's contract."""


class ConfigError(ValueError):
    """Raised for invalid run configuration, naming the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def as_tensor4(a) -> np.ndarray:
    """Validate and return `a` as a C-contiguous float64 (n, c, h, w) array."""
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 4:
        raise ShapeError(f"expected a rank-4 tensor, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ShapeError(f"all dims must be >= 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor contains non-finite values")
    return arr


@dataclass
class LabelMap:
    """Integer class assignments per pixel; IGNORE marks unsupervised pixels."""

    labels: np.ndarray  # (n, h, w) integer array
    num_classes: int

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 3:
            raise ShapeError(f"labels must be (n, h, w), got shape {self.labels.shape}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        bad = (self.labels != IGNORE) & ((self.labels < 0) | (self.labels >= self.num_classes))
        if bad.any():
            raise ValueError(f"labels must be {IGNORE} (ignored) or in [0, num_classes)")

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def h(self) -> int:
        return self.labels.shape[1]

    @property
    def w(self) -> int:
        return self.labels.shape[2]

    @property
    def valid(self) -> np.ndarray:
        """Boolean (n, h, w) mask, False where the label is ignored."""
        return self.labels != IGNORE


class Rng:
    """SplitMix64 stream with uniform and Box-Muller Gaussian draws.

    Pure 64-bit integer arithmetic, so sequences are bit-identical across
    platforms for a given seed. The state is a Weyl sequence, seed + i*gamma
    mod 2^64, so `uniforms` and `normals` compute a whole array of draws at
    once; they equal the same number of scalar draws byte for byte and leave
    the same state. Single-owner: not safe to share between concurrent tasks.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Next float in [0, 1): the high 53 bits of one u64 over 2^53."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; consumes two uniforms per call."""
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log1p(-u1))
        return mean + std * (r * math.cos(2.0 * math.pi * u2))

    def uniforms(self, shape) -> np.ndarray:
        """`uniform()` drawn prod(shape) times, in C order, as one array."""
        count = _size(shape)
        # uint64 array arithmetic wraps mod 2^64, as the scalar step's mask does
        z = np.uint64(self.state) + np.arange(1, count + 1, dtype=np.uint64) * _U64_GAMMA
        self.state = (self.state + count * _GAMMA) & _MASK64
        z ^= z >> _U64_SHIFT[30]
        z *= _U64_MIX1
        z ^= z >> _U64_SHIFT[27]
        z *= _U64_MIX2
        z ^= z >> _U64_SHIFT[31]
        return ((z >> _U64_SHIFT[11]).astype(np.float64) * 2.0**-53).reshape(shape)

    def normals(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """`normal(mean, std)` drawn prod(shape) times, in C order, as one array.

        log1p and cos are the C library's, called per element as the scalar
        draw calls them (numpy's own can differ in the last bit); the other
        steps are correctly rounded, so they run as array operations in the
        scalar expression's order.
        """
        count = _size(shape)
        u = self.uniforms((count, 2))
        log = np.fromiter(map(math.log1p, (-u[:, 0]).tolist()), np.float64, count)
        cos = np.fromiter(map(math.cos, (2.0 * math.pi * u[:, 1]).tolist()), np.float64, count)
        r = np.sqrt(-2.0 * log)
        return (mean + std * (r * cos)).reshape(shape)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi); rejection-free via 53-bit floats."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        return lo + int(self.uniform() * (hi - lo))

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i + 1)
            items[i], items[j] = items[j], items[i]


def _size(shape) -> int:
    """Element count of shape; a negative dimension is a ValueError, as in np.empty."""
    dims = [int(d) for d in (shape if np.iterable(shape) else (shape,))]
    if any(d < 0 for d in dims):
        raise ValueError(f"negative dimensions are not allowed, got shape {shape}")
    return math.prod(dims)


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent stream seed from (seed, index), order-free."""
    r = Rng(seed & _MASK64)
    base = r.next_u64()
    r2 = Rng((base ^ (index & _MASK64)) & _MASK64)
    return r2.next_u64()


# Binary dump: 16-byte header of four little-endian u32 dims (n, c, h, w),
# then n*c*h*w little-endian float64 values in row-major order.

_HEADER = struct.Struct("<4I")


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temp file beside `path` for writing; on success rename it onto `path`.

    os.replace makes the swap atomic, so a reader sees the old file or the
    whole new one, never a partial write. If the body raises, the temp file
    is removed and `path` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_tensor(path, u: np.ndarray) -> None:
    u = as_tensor4(u)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(*u.shape))
        fh.write(u.astype("<f8", copy=False).tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a dump whose file size matches the dims in its header.

    The size is checked before the payload is read, so a corrupt or hostile
    header can never make the reader ask for more bytes than the file has.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise IOError(f"{path}: truncated header")
        dims = _HEADER.unpack(raw)
        want = _HEADER.size + 8 * math.prod(dims)
        size = os.fstat(fh.fileno()).st_size
        if size != want:
            problem = "truncated payload" if size < want else "trailing bytes"
            raise IOError(f"{path}: {problem}: dims {dims} need {want} bytes, file has {size}")
        payload = fh.read(want - _HEADER.size)
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)

