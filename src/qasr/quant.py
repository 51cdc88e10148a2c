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


# values per chunk of the step search: a chunk of |v| and its two work
# buffers (3 x 256 KB) stay in a core's L2 cache while every candidate runs
SEARCH_CHUNK = 1 << 15

# the exponents of the finite positive float64 powers of two
_MIN_EXP, _MAX_EXP = -1074, 1023


def search_step(values, bits: int) -> QuantScheme:
    """Pick the power-of-two step minimizing total squared quantization error.

    Candidate exponents cover [max|v| / 2^(bits+2), 4 * max|v|], less any
    whose step is not a finite positive float; ties go to the smallest step
    (finest resolution). An all-zero tensor has no scale information, so it
    falls back to 2^-(bits-1) with a warning. ValueError names the largest
    magnitude when it is not finite, or when every candidate's squared
    error overflows.

    The error of v is minus the error of -v, exactly: the levels are
    symmetric and rounding is half away from zero. So candidates are scored
    on |v|. The pick is the one of _reference_sse (one full pass over |v|
    per operation and candidate), bit for bit, found from cheaper sums:

    - Chunk order. |v| is taken in chunks of SEARCH_CHUNK values, and every
      candidate runs over a chunk, in two chunk-sized work buffers, before
      the next chunk is taken, so the passes stay in cache.
    - Scaled domain. At a normal step 2^e, t = |v| * 2^-e is exact, and
      t - min(round(t), m) is the reference error times 2^-e bit for bit, so
      its sum of squares times 4^e is the SSE. Rounding t half to even, not
      away from zero, changes only the sign of an error of exactly 1/2.
      Candidates at which every value rounds to 0 share one sum of |v|^2;
      where no value rounds past m, the saturation pass is skipped.
    - Slack. A chunked sum and the reference dot add the same n squares in
      other orders, each within a relative (n + 1) * 2^-53 of the exact
      sum, plus what underflow takes. So only a candidate within a relative
      8 * (n + 2) * 2^-53 of the smallest chunked SSE, plus an absolute
      allowance for underflow, can be the reference pick: a contender.
    - Fallback. One contender is the pick. Several are scored again by
      _reference_sse and picked by its rule: lowest SSE, then smallest step.
      Where a step is subnormal or a sum leaves the float range, every
      candidate is.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("cannot search a step for an empty tensor")
    max_abs = float(np.maximum(arr.max(), -arr.min()))  # NaN propagates
    if max_abs == 0.0:
        warnings.warn("all-zero tensor, using default step", stacklevel=2)
        return QuantScheme(bits=bits, step=2.0 ** -(bits - 1))
    if not math.isfinite(max_abs):
        raise ValueError(f"no step quantizes a tensor whose largest magnitude is {max_abs}")

    lo = max(math.floor(math.log2(max_abs)) - (bits + 2), _MIN_EXP)
    hi = min(math.ceil(math.log2(max_abs)) + 2, _MAX_EXP)
    m = (1 << (bits - 1)) - 1
    exps = list(range(lo, hi + 1))
    if lo >= -1022:  # every step is normal
        exps = _contenders(arr, max_abs, exps, m)
    best = exps[0]
    if len(exps) > 1:
        a = np.abs(arr)
        err = np.empty_like(a)
        with np.errstate(over="ignore"):
            sse = [_reference_sse(a, e, m, err) for e in exps]
        if not math.isfinite(min(sse)):
            raise ValueError(f"no {bits}-bit step quantizes a tensor whose largest magnitude is "
                             f"{max_abs}: every candidate's squared error overflows")
        best = exps[sse.index(min(sse))]
    return QuantScheme(bits=bits, step=2.0**best)


def _reference_sse(a, e, m, err):
    """The SSE of the magnitudes a at the step 2^e and largest level m, one
    full pass over a per operation, in the buffer err."""
    step = 2.0**e
    np.divide(a, step, out=err)
    err += _BELOW_HALF[err.dtype]
    np.trunc(err, out=err)
    np.minimum(err, m, out=err)
    err *= step
    np.subtract(a, err, out=err)
    return float(np.dot(err, err))


def _contenders(arr, max_abs, exps, m):
    """The exponents of exps, normal steps, whose _reference_sse on |arr|
    may be the smallest, from chunked sums in the scaled domain (see
    search_step); all of exps where a sum leaves the float range."""
    scales = [2.0**-e for e in exps]
    # the largest level before saturation, rounded half to even as np.rint
    tops = [round(max_abs * s) for s in scales]
    live = sum(top > 0 for top in tops)  # the candidates after these round every value to 0
    scaled = np.zeros(live)
    sumsq = 0.0
    u = np.empty(min(arr.size, SEARCH_CHUNK))
    t = np.empty_like(u)
    d = np.empty_like(u)
    with np.errstate(over="ignore"):
        for start in range(0, arr.size, SEARCH_CHUNK):
            v = arr[start : start + SEARCH_CHUNK]
            chunk = np.abs(v, out=u[: v.size])
            tc, dc = t[: chunk.size], d[: chunk.size]
            for i in range(live):
                np.multiply(chunk, scales[i], out=tc)
                np.rint(tc, out=dc)
                if tops[i] > m:
                    np.minimum(dc, m, out=dc)
                np.subtract(tc, dc, out=dc)
                scaled[i] += np.dot(dc, dc)
            if live < len(exps):
                sumsq += np.dot(chunk, chunk)
        sse = np.append(np.ldexp(scaled, 2 * np.array(exps[:live])), [sumsq] * (len(exps) - live))
    slack = 8 * (arr.size + 2) * 2.0**-53
    # four times what underflow can take from a sum of arr.size squares, at 2^exps[-1]
    allowance = math.ldexp(arr.size, max(2 * exps[-1], 0) - 1071)
    limit = float(sse.min()) * (1 + slack) + allowance
    if not (np.isfinite(scaled).all() and limit < 2.0**1023):
        return exps
    return [e for e, s in zip(exps, sse) if s <= limit]
