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
    platforms for a given seed. Single-owner: not safe to share between
    concurrent tasks.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.size):
            out[i] = self.uniform()
        return out.reshape(shape)

    def normals(self, shape, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        out = np.empty(int(np.prod(shape)), dtype=np.float64)
        for i in range(out.size):
            out[i] = self.normal(mean, std)
        return out.reshape(shape)

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

