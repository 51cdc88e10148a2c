"""Symmetric power-of-two fixed-point quantization.

A tensor group is quantized with a single scheme: a signed integer level
in [-(2^(b-1)-1), +(2^(b-1)-1)] times a power-of-two step. The symmetric
range keeps negation exact, and power-of-two steps make every rescaling
an exact binary shift, so the whole fixed-point datapath can be evaluated
without rounding surprises.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantScheme",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "search_step",
    "round_half_away",
    "rescale_levels",
]


def round_half_away(x):
    """Round to the nearest integer, ties away from zero.

    np.round ties to even, which is neither symmetric under negation in the
    way we need nor what a carry-propagate rounder in hardware does. Adding
    half with the sign of x and truncating equals sign(x) * floor(|x| + 0.5)
    for every finite x, in fewer passes over the array.
    """
    return np.trunc(x + np.copysign(0.5, x))


def _is_power_of_two(step: float) -> bool:
    if not math.isfinite(step) or step <= 0.0:
        return False
    mantissa, _ = math.frexp(step)
    return mantissa == 0.5


@dataclass(frozen=True)
class QuantScheme:
    """Bit width plus power-of-two step size for one tensor group."""

    bits: int
    step: float

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError(f"bit width must be >= 2, got {self.bits}")
        if not _is_power_of_two(self.step):
            raise ValueError(f"step must be a positive power of two, got {self.step}")

    @property
    def max_level(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @functools.cached_property
    def step_exp(self) -> int:
        """Base-2 exponent e with step == 2**e."""
        return int(round(math.log2(self.step)))

    @property
    def max_value(self) -> float:
        return self.max_level * self.step


@dataclass
class QuantizedTensor:
    """Integer levels plus the scheme that maps them back to reals."""

    levels: np.ndarray
    scheme: QuantScheme
    shape: tuple

    def values(self) -> np.ndarray:
        return self.levels.astype(np.float64) * self.scheme.step


def quantize(values, scheme: QuantScheme) -> QuantizedTensor:
    """Round-to-nearest (ties away from zero) then saturate to the scheme range.

    Raises ValueError naming the offending element for non-finite input.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        idx = np.argwhere(~finite)[0]
        pos = tuple(int(i) for i in idx)
        raise ValueError(f"non-finite value {arr[pos]!r} at index {pos}")
    lev = round_half_away(arr / scheme.step)
    m = scheme.max_level
    lev = np.clip(lev, -m, m)
    return QuantizedTensor(levels=lev.astype(np.int32), scheme=scheme, shape=arr.shape)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.values()


def search_step(values, bits: int) -> QuantScheme:
    """Pick the power-of-two step minimizing total squared quantization error.

    Candidate exponents cover [max|v| / 2^(bits+2), 4 * max|v|]; ties go to
    the smallest step (finest resolution). An all-zero tensor has no scale
    information, so it falls back to 2^-(bits-1) with a warning.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot search a step for an empty tensor")
    max_abs = float(np.max(np.abs(arr)))
    if max_abs == 0.0:
        warnings.warn("all-zero tensor, using default step", stacklevel=2)
        return QuantScheme(bits=bits, step=2.0 ** -(bits - 1))

    lo = math.floor(math.log2(max_abs)) - (bits + 2)
    hi = math.ceil(math.log2(max_abs)) + 2
    m = (1 << (bits - 1)) - 1
    # The error of v is minus the error of -v, exactly: the levels are
    # symmetric and rounding is half away from zero. So each candidate's SSE
    # is computed on |v|, where rounding is floor(+0.5), in one buffer.
    a = np.abs(arr)
    err = np.empty_like(a)
    best_exp = None
    best_sse = math.inf
    for e in range(lo, hi + 1):
        step = 2.0**e
        np.divide(a, step, out=err)
        err += 0.5
        np.floor(err, out=err)
        np.minimum(err, m, out=err)
        err *= step
        np.subtract(a, err, out=err)
        sse = float(np.dot(err, err))
        if sse < best_sse:
            best_sse = sse
            best_exp = e
    return QuantScheme(bits=bits, step=2.0**best_exp)


def rescale_levels(levels, from_exp: int, scheme: QuantScheme):
    """Re-quantize integer levels at scale 2**from_exp into another scheme.

    With from_exp 0 this quantizes real values, e.g. a feature frame.

    The scale change is an exact power-of-two multiply in float64; the result
    is rounded half away from zero and saturated. Safe as long as all
    intermediate magnitudes stay below 2^53, which callers guarantee by
    construction (see rnn.QuantizedLstmLayer).
    """
    scaled = np.asarray(levels, dtype=np.float64) * 2.0 ** (from_exp - scheme.step_exp)
    m = scheme.max_level
    return np.clip(round_half_away(scaled), -m, m)
