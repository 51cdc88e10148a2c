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
    "round_saturate",
]

# the largest float below 1/2, by dtype (see round_saturate)
_FLOATS = (np.float16, np.float32, np.float64)
_BELOW_HALF = {np.dtype(t): np.nextafter(t(0.5), t(0)) for t in _FLOATS}


def round_saturate(x, m):
    """Round to the nearest integer, ties away from zero, then saturate to
    +-m, in place on the float array x; returns x. The one requantizer:
    quantization (quantize), the activation tables and the datapath's cell
    and output all round here.

    np.round ties to even, which is neither symmetric under negation in the
    way we need nor what a carry-propagate rounder in hardware does. Adding
    the largest float below 1/2 in x's dtype with the sign of x, then
    truncating, is sign(x) * floor(|x| + 1/2) exactly for every finite x;
    adding 1/2 itself rounds 0.49999999999999994 + 0.5 up to 1.
    """
    x += np.copysign(_BELOW_HALF[x.dtype], x)
    np.trunc(x, out=x)
    np.maximum(x, -m, out=x)
    return np.minimum(x, m, out=x)


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
        return self.levels * self.scheme.step


def quantize(values, scheme: QuantScheme) -> QuantizedTensor:
    """Round-to-nearest (ties away from zero) then saturate to the scheme
    range: the one real-to-level quantizer. The levels are float64, exact
    integers at every width up to 53 bits; dividing by the power-of-two step
    is exact.

    Raises ValueError naming the offending element for non-finite input.
    """
    arr = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        idx = np.argwhere(~finite)[0]
        pos = tuple(int(i) for i in idx)
        raise ValueError(f"non-finite value {arr[pos]!r} at index {pos}")
    lev = round_saturate(np.asarray(arr / scheme.step), scheme.max_level)
    return QuantizedTensor(levels=lev, scheme=scheme, shape=arr.shape)


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
    # is computed on |v|, with round_saturate's addend, in one buffer.
    a = np.abs(arr)
    err = np.empty_like(a)
    best_exp = None
    best_sse = math.inf
    for e in range(lo, hi + 1):
        step = 2.0**e
        np.divide(a, step, out=err)
        err += _BELOW_HALF[err.dtype]
        np.trunc(err, out=err)
        np.minimum(err, m, out=err)
        err *= step
        np.subtract(a, err, out=err)
        sse = float(np.dot(err, err))
        if sse < best_sse:
            best_sse = sse
            best_exp = e
    return QuantScheme(bits=bits, step=2.0**best_exp)

