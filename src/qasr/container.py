"""Binary model container: quantized tensors with their schemes, the network
shape and alphabet, and optional float shadow copies.

Layout: magic, version, a canonical-JSON header describing every tensor
(name, shape, bits, step exponent, payload offset), then the payload blobs,
then a CRC32 trailer over everything before it. Levels are bit-packed, so
fifteen 6-bit values occupy ceil(15*6/8) = 12 bytes. Writing is fully
deterministic: write -> read -> write reproduces the bytes. Reading
unpacks the levels from views of the file's bytes and keeps the float
shadow as its float32 values until the first use decodes it.

The header's formats table has the keys of rnn.FORMATS; quantization
starts from FORMATS. Quantization (quantize_parts) and reading alike build
the layers' formats from the table with rnn.layer_formats, and the
quantized parts from their levels in one step, _assemble.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .decoder import Alphabet
from .quant import QuantScheme, quantize, search_step
from .rnn import (
    FORMATS,
    LAYER_GROUPS,
    ONE_HOT_SIG_IN_EXP,
    LstmLayerParams,
    OutputLayerParams,
    QuantizedLstmLayer,
    QuantizedOutputLayer,
    layer_formats,
    network_shapes,
    width_key,
)

__all__ = [
    "ContainerError",
    "FloatModel",
    "ModelContainer",
    "quantize_model",
    "quantize_parts",
    "pack_levels",
    "unpack_levels",
    "save_float_model",
    "load_float_model",
]

MAGIC = b"QRNN"
VERSION = 1

class ContainerError(ValueError):
    pass


def _quantize_tensors(tensors, widths) -> dict:
    """name -> (levels, step_exp) of each name -> values at its own searched
    step and widths[width_key(name)] bits; a non-finite value, and a tensor
    no step quantizes, are refused by name."""
    out = {}
    for name, values in tensors.items():
        values = np.asarray(values, dtype=np.float64)
        try:
            scheme = search_step(values, widths[width_key(name)])
            out[name] = (quantize(values, scheme).levels, scheme.step_exp)
        except ValueError as exc:  # the search refuses a non-finite value; name the first
            bad = values[~np.isfinite(values)]
            raise ContainerError(f"tensor {name} holds the non-finite value {bad[0]}" if bad.size
                                 else f"tensor {name}: {exc}") from None
    return out


def _flatten(parts) -> dict:
    """The tensors of a network's parts, LSTM layers then an optional output
    layer, by network name."""
    return dict(_tensor_items(parts))


def _tensor_items(parts):
    """(network name, tensor) of every tensor of _flatten(parts), in order,
    taking each part's tensors() only when the one before is done: a
    quantized layer makes its weight levels on each read, so a writer that
    goes through them in turn holds one layer's levels at a time."""
    n_layers = sum(isinstance(p, (LstmLayerParams, QuantizedLstmLayer)) for p in parts)
    names = [f"layer{li}" for li in range(n_layers)] + ["output"]
    for pn, p in zip(names, parts):
        for n, t in p.tensors().items():
            yield f"{pn}.{n}", t


def _split(tensors) -> list:
    """The inverse of _flatten, for tensors in network_shapes order."""
    parts = {}
    for name, t in tensors.items():
        part, base = name.split(".", 1)
        parts.setdefault(part, {})[base] = t
    return list(parts.values())


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------


def pack_levels(levels, bits: int) -> bytes:
    """Pack signed levels into a little-endian bitstream, offset-binary.
    Levels are symmetric, within +-(2^(bits-1) - 1), so the all-ones code
    is never written.

    Byte k holds stream bits 8k to 8k + 7. They begin inside value
    8k // bits, and at most ceil((bits + 7) / bits) values reach into the
    byte, so each byte is those values shifted into place; up to 57 bits."""
    lev = np.asarray(levels, dtype=np.int64).ravel()
    offset = (1 << (bits - 1)) - 1
    vals = (lev + offset).astype(np.uint64)
    if np.any(vals >= (1 << bits) - 1):
        raise ContainerError(f"level out of the symmetric {bits}-bit range +-{offset}")
    span = -(-(bits + 7) // bits)
    vals = np.concatenate([vals, np.zeros(span, dtype=np.uint64)])
    at = 8 * np.arange(-(-lev.size * bits // 8), dtype=np.int64)
    first, skip = np.divmod(at, bits)
    out = vals[first] >> skip.astype(np.uint64)
    for j in range(1, span):
        out |= vals[first + j] << (j * bits - skip).astype(np.uint64)
    return out.astype(np.uint8).tobytes()


def unpack_levels(data, count: int, bits: int) -> np.ndarray:
    """The count levels of pack_levels' bitstream in data (bytes or any
    buffer), as float64; up to 57 bits.

    The stream is read group by group: lcm(bits, 8) bits hold 8 / gcd(bits,
    8) whole values, in bits / gcd(bits, 8) bytes. Each value of a group is
    shifted out of the little-endian 8-byte word at a byte of the group, and
    one word serves every value that ends inside it; a 6-bit group is 3
    bytes, so one word and four shifts. Each value slot is one strided
    pass over all the groups. Bits missing past the end of data read as
    zeros."""
    common = math.gcd(bits, 8)
    size, per = bits // common, 8 // common  # bytes and values per group
    groups = -(-count // per)
    # zero tail: the last value's word, and groups the data stops short of
    raw = np.zeros((groups + 1) * size + 8, dtype=np.uint8)
    have = min(len(data), groups * size)
    raw[:have] = np.frombuffer(data, dtype=np.uint8, count=have)
    vals = np.empty((groups, per), dtype=np.uint64)
    mask = np.uint64((1 << bits) - 1)
    at = None  # the byte of the group where the current word starts
    for j in range(per):
        first = j * bits
        if at is None or first + bits > 8 * at + 64:
            at = first >> 3
            word = np.ndarray((groups,), dtype="<u8", buffer=raw, offset=at, strides=(size,))
        col = vals[:, j]
        np.right_shift(word, np.uint64(first - 8 * at), out=col)
        col &= mask
    out = np.empty(count, dtype=np.float64)
    offset = (1 << (bits - 1)) - 1
    # in int64, then to float64, as values past 2^53 round once
    np.subtract(vals.reshape(-1)[:count].view(np.int64), offset, out=out, casting="unsafe")
    return out


# ---------------------------------------------------------------------------
# Float model
# ---------------------------------------------------------------------------


@dataclass
class FloatModel:
    """Unquantized network plus its alphabet, the input to quantization."""

    kind: str  # "am" | "lm"
    alphabet: Alphabet
    layers: list
    output: OutputLayerParams

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def hidden(self):
        return [p.hidden for p in self.layers]

    @property
    def labels(self) -> int:
        return self.output.labels

    def check(self):
        expect = self.alphabet.posterior_dim if self.kind == "am" else self.alphabet.n_labels
        if self.labels != expect:
            raise ContainerError(
                f"{self.kind} output dim {self.labels} does not match alphabet ({expect})"
            )

    def tensors(self) -> dict:
        """name -> values of every tensor, in network_shapes order."""
        return _flatten([*self.layers, self.output])

    @classmethod
    def from_tensors(cls, kind: str, alphabet: Alphabet, tensors) -> "FloatModel":
        """The model of the tensors, name -> values for every name of a
        network_shapes table."""
        *layers, output = _split(tensors)
        layers = [LstmLayerParams(**t) for t in layers]
        return cls(kind, alphabet, layers, OutputLayerParams(**output))


def _alphabet_record(alphabet: Alphabet) -> dict:
    """The JSON record of an alphabet, as both file formats store it."""
    return {"symbols": list(alphabet.symbols), "delimiter": alphabet.delimiter,
            "eos": alphabet.eos}


def _read_alphabet(path, kind, record, kind_key: str, prefix: str) -> Alphabet:
    """The alphabet of an _alphabet_record read from path, for a model of
    the kind read at kind_key. ContainerError names the file and the key
    (kind_key, or prefix + the record's key) of a kind other than am or lm,
    of a value of the wrong JSON type, or of an index the alphabet refuses."""
    if kind not in ("am", "lm"):
        raise ContainerError(f"{path}: {kind_key} {kind!r:.60} is not 'am' or 'lm'")
    symbols = record["symbols"]
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise ContainerError(f"{path}: {prefix}symbols {symbols!r:.60} is not a list of strings")
    for key in ("delimiter", "eos"):
        index = record[key]
        if index is not None and (not isinstance(index, int) or isinstance(index, bool)):
            raise ContainerError(f"{path}: {prefix}{key} {index!r:.60} is not an index or null")
    try:
        return Alphabet(tuple(symbols), record["delimiter"], record["eos"])
    except ValueError as exc:  # its message starts with the key
        raise ContainerError(f"{path}: {prefix}{exc}") from None


def save_float_model(model: FloatModel, path):
    meta = {"kind": model.kind, "n_layers": len(model.layers), **_alphabet_record(model.alphabet)}
    np.savez(path, _meta=json.dumps(meta, sort_keys=True), **model.tensors())


def load_float_model(path) -> FloatModel:
    """The model of a save_float_model file. ContainerError names the file
    when it is not an .npz archive, and the first unreadable array, missing
    or bad _meta key, missing or misshapen tensor (_check_shapes, with the
    width most of each layer's tensors agree on), or tensor of other than
    real numbers."""
    try:
        z = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
        z = None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise ContainerError(f"{path}: not an .npz float model file")
    arrays = {}
    with z:
        for name in z.files:
            try:
                arrays[name] = z[name]
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise ContainerError(f"{path}: array {name} cannot be read ({exc})") from None
            if not isinstance(arrays[name], np.ndarray):  # a member without the .npy magic
                raise ContainerError(f"{path}: array {name} cannot be read (not .npy data)")
    try:
        meta = json.loads(str(arrays.pop("_meta", "null")))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: _meta is missing or not a JSON object")
    for key in ("kind", "n_layers", "symbols", "delimiter", "eos"):
        if key not in meta:
            raise ContainerError(f"{path}: _meta is missing key {key!r}")
    n_layers = meta["n_layers"]
    if not isinstance(n_layers, int) or n_layers < 1:
        raise ContainerError(f"{path}: _meta n_layers {n_layers!r} is not a positive integer")
    alphabet = _read_alphabet(path, meta["kind"], meta, "_meta kind", "_meta ")
    got = {name: a.shape for name, a in arrays.items()}
    hidden = [
        _most_common((s or [None])[0] for n, s in got.items() if n.startswith(f"layer{li}."))
        for li in range(n_layers)
    ]
    shapes = _check_shapes(path, got, hidden, f"a network of layer widths {hidden}")
    for name in shapes:
        if arrays[name].dtype.kind not in "iuf":
            raise ContainerError(
                f"{path}: tensor {name} holds {arrays[name].dtype} values, not real numbers"
            )
    model = FloatModel.from_tensors(meta["kind"], alphabet, {n: arrays[n] for n in shapes})
    model.check()
    return model


# ---------------------------------------------------------------------------
# Quantized container
# ---------------------------------------------------------------------------


@dataclass
class ModelContainer:
    kind: str
    alphabet: Alphabet
    formats: dict
    qlayers: list
    qoutput: QuantizedOutputLayer
    # the float shadow: a FloatModel, or as read, name -> float32 values in
    # network_shapes order, decoded into one on first use; None without one
    _shadow: Union[FloatModel, dict, None] = field(default=None, repr=False)

    @property
    def input_dim(self) -> int:
        return self.qlayers[0].input_dim

    @property
    def hidden(self):
        return [q.hidden for q in self.qlayers]

    @property
    def labels(self) -> int:
        return self.qoutput.w_lev.shape[0]

    @property
    def layer_dims(self):
        return [self.input_dim] + self.hidden

    @property
    def feature_scheme(self) -> QuantScheme:
        return self.qlayers[0].fmt.sig_in

    def has_float(self) -> bool:
        return self._shadow is not None

    def float_model(self) -> FloatModel:
        """The float shadow, its parts linked to their quantized twins. A
        read container decodes its float32 copies to float64 here, on the
        first call, and keeps only the result."""
        if not self.has_float():
            raise ContainerError("container carries no float shadow copies")
        if isinstance(self._shadow, dict):
            floats = {n: a.astype(np.float64) for n, a in self._shadow.items()}
            self._shadow = FloatModel.from_tensors(self.kind, self.alphabet, floats)
            twins = [*self.qlayers, self.qoutput]
            for p, q in zip([*self._shadow.layers, self._shadow.output], twins):
                p.quantized = q
        return self._shadow

    @property
    def float_layers(self) -> Optional[list]:
        """The float shadow's LSTM layers (float_model), or None."""
        return self.float_model().layers if self.has_float() else None

    # -- serialization -------------------------------------------------

    def write(self, path):
        # (name, array, bits, step_exp): the quantized parts' levels, a part
        # at a time, then the float shadow's values as float.<name>, with no
        # bits or step
        tensors = (
            (name, lev, self.formats[width_key(name)], exp)
            for name, (lev, exp) in _tensor_items([*self.qlayers, self.qoutput])
        )
        if self.has_float():
            floats = self.float_model().tensors()
            tensors = itertools.chain(
                tensors, ((f"float.{n}", a, None, None) for n, a in floats.items()))
        records = []
        payload = bytearray()
        for name, arr, bits, step_exp in tensors:
            if bits is None:
                blob = np.asarray(arr, dtype="<f4").tobytes()
            else:
                blob = pack_levels(arr, bits)
            records.append(
                {
                    "name": name,
                    "shape": list(np.asarray(arr).shape),
                    "bits": bits,
                    "step_exp": step_exp,
                    "offset": len(payload),
                    "nbytes": len(blob),
                    "dtype": "f32" if bits is None else "levels",
                }
            )
            payload.extend(blob)

        header = {
            "kind": self.kind,
            "alphabet": _alphabet_record(self.alphabet),
            "dims": {
                "input": self.input_dim,
                "hidden": self.hidden,
                "labels": self.labels,
            },
            "formats": self.formats,
            "tensors": records,
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        body = MAGIC + struct.pack("<HI", VERSION, len(head)) + head + bytes(payload)
        crc = zlib.crc32(body) & 0xFFFFFFFF
        with open(path, "wb") as fh:
            fh.write(body + struct.pack("<I", crc))

    @classmethod
    def read(cls, path) -> "ModelContainer":
        with open(path, "rb") as fh:
            blob = fh.read()
        if len(blob) < 14 or blob[:4] != MAGIC:
            raise ContainerError(f"{path}: not a model container")
        body = memoryview(blob)[:-4]  # its slices are views, not copies
        (crc,) = struct.unpack_from("<I", blob, len(body))
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise ContainerError(f"{path}: checksum mismatch")
        version, head_len = struct.unpack_from("<HI", blob, 4)
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported version {version}")
        try:
            header = json.loads(bytes(body[10 : 10 + head_len]).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
            raise ContainerError(f"{path}: header is not JSON ({exc})") from None
        payload = body[10 + head_len :]
        shapes, fmts = _check_header(path, header, len(payload))
        alphabet = _read_alphabet(path, header["kind"], header["alphabet"], "kind", "alphabet.")

        # the network's levels, none of them the all-ones code, and its
        # float32 shadow, all finite, left undecoded; _check_header has
        # matched every byte count to its shape and bits
        tensors, floats = {}, {}
        for rec in header["tensors"]:
            name, shape = rec["name"], tuple(rec["shape"])
            raw = payload[rec["offset"] : rec["offset"] + rec["nbytes"]]
            if name in shapes:
                levels = unpack_levels(raw, math.prod(shape), rec["bits"])
                top = (1 << (rec["bits"] - 1)) - 1  # levels are exact in float64 up to 53 bits
                if levels.size and levels.max() > top:
                    raise ContainerError(
                        f"{path}: tensor {name} holds the all-ones {rec['bits']}-bit code, "
                        f"outside the symmetric level range +-{top}"
                    )
                tensors[name] = (levels.reshape(shape), rec["step_exp"])
            elif name.removeprefix("float.") in shapes:
                values = np.frombuffer(raw, "<f4")
                if not np.isfinite(values).all():
                    bad = values[~np.isfinite(values)]
                    raise ContainerError(
                        f"{path}: tensor {name} holds the non-finite value {bad[0]}")
                floats[name.removeprefix("float.")] = values.reshape(shape)
        shadow = {n: floats[n] for n in shapes} if floats else None  # all or none
        try:
            *qlayers, qoutput = _assemble({n: tensors[n] for n in shapes}, header["formats"], fmts)
        except ValueError as exc:  # a range guard
            raise ContainerError(f"{path}: {exc}") from None
        return cls(header["kind"], alphabet, header["formats"], qlayers, qoutput, shadow)


# what ModelContainer.read uses of a header, checked before any of it is used
HEADER_KEYS = {
    "kind": None,
    "alphabet": ("symbols", "delimiter", "eos"),
    "dims": ("hidden",),
    "formats": tuple(FORMATS),
    "tensors": None,
}
TENSOR_KEYS = ("name", "shape", "bits", "step_exp", "offset", "nbytes", "dtype")


def _check_header(path, header, payload_bytes: int) -> tuple:
    """The header's network_shapes table and the layer_formats of its
    formats, which bound the level widths. Raise ContainerError naming the
    first missing header key, the first tensor record whose name is not a
    string, the first tensor whose bytes do not fit its
    record or the payload, the first missing or misshapen tensor
    (_check_shapes, on dims.hidden), or the first tensor not stored at its
    width, formats[width_key] levels, or f32 for a float shadow copy, or
    whose levels' step_exp is not an integer, then the first bad
    formats.<key> (rnn.layer_formats)."""
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    for key, inner in HEADER_KEYS.items():
        if key not in header:
            raise ContainerError(f"{path}: header is missing key {key!r}")
        for sub in inner or ():
            if not isinstance(header[key], dict) or sub not in header[key]:
                raise ContainerError(f"{path}: header is missing key {key}.{sub}")
    if not isinstance(header["tensors"], list):
        raise ContainerError(f"{path}: header key 'tensors' is not a list")
    records = {}
    for rec in header["tensors"]:
        missing = [k for k in TENSOR_KEYS if not isinstance(rec, dict) or k not in rec]
        if missing:
            raise ContainerError(f"{path}: tensor record {rec!r:.60} is missing {missing[0]!r}")
        name, shape, offset, nbytes = rec["name"], rec["shape"], rec["offset"], rec["nbytes"]
        if not isinstance(name, str):
            raise ContainerError(f"{path}: tensor record {rec!r:.60}: name is not a string")
        sizes = (shape if isinstance(shape, list) else [None]) + [offset, nbytes]
        if not all(isinstance(v, int) and v >= 0 for v in sizes):
            raise ContainerError(
                f"{path}: tensor {name}: shape, offset and nbytes must be non-negative integers"
            )
        count = int(np.prod(shape, dtype=np.int64))
        bits = 32 if rec["dtype"] == "f32" else rec["bits"]
        if rec["dtype"] not in ("f32", "levels") or not isinstance(bits, int) or bits < 1:
            raise ContainerError(f"{path}: tensor {name}: bad dtype/bits {rec['dtype']}/{bits}")
        if offset + nbytes > payload_bytes:
            raise ContainerError(
                f"{path}: tensor {name}: bytes {offset}..{offset + nbytes} lie outside "
                f"the {payload_bytes}-byte payload"
            )
        if -(-count * bits // 8) != nbytes:
            raise ContainerError(
                f"{path}: tensor {name}: {count} values of {bits} bits take "
                f"{-(-count * bits // 8)} bytes, the header says {nbytes}"
            )
        records[name] = rec
    hidden = header["dims"]["hidden"]  # its widths are checked against the tensor shapes
    if not isinstance(hidden, list) or not hidden:
        raise ContainerError(f"{path}: dims.hidden {hidden!r:.60} is not a non-empty list")
    got = {name: rec["shape"] for name, rec in records.items()}
    shapes = _check_shapes(path, got, hidden, f"dims.hidden {hidden}")
    formats = header["formats"]
    for name, rec in records.items():
        key = width_key(name)
        if name in shapes and (rec["dtype"], rec["bits"]) != ("levels", formats[key]):
            width = f"formats.{key} is {formats[key]}"
        elif name.startswith("float.") and rec["dtype"] != "f32":
            width = "a float shadow copy is f32"
        elif name in shapes and type(rec["step_exp"]) is not int:  # JSON true is no step
            raise ContainerError(
                f"{path}: tensor {name}: step_exp {rec['step_exp']!r:.40} is not an integer"
            )
        else:
            continue
        raise ContainerError(
            f"{path}: tensor {name} holds {rec['bits']}-bit {rec['dtype']}, {width}"
        )
    try:
        return shapes, layer_formats(formats, len(hidden))
    except ValueError as exc:  # formats.<key>
        raise ContainerError(f"{path}: {exc}") from None


def _most_common(values):
    """The value most of values agree on, the first of them on a tie."""
    values = list(values)
    return max(values, key=values.count, default=None)


def _check_shapes(path, got, hidden, widths: str) -> dict:
    """The network_shapes table for the tensor shapes got (name -> shape)
    and the layer widths hidden, which widths names; the input width and
    label count are those most tensors carrying them agree on. Raise
    ContainerError naming the first table tensor, or float. copy when got
    has any, that got lacks, then the first tensor of got beyond the last
    layer or not of its table shape."""
    d = _most_common((got.get(f"layer0.{n}") or [None])[-1] for n in LAYER_GROUPS["wx"])
    labels = _most_common((got.get(n) or [None])[0] for n in ("output.W", "output.b"))
    shapes = network_shapes(d, hidden, labels)
    shadow = any(name.startswith("float.") for name in got)
    for name in [*shapes, *(f"float.{n}" for n in shapes if shadow)]:
        if name not in got:
            raise ContainerError(f"{path}: tensor {name} is missing")
    for name, shape in got.items():
        base = name.removeprefix("float.")
        if base not in shapes:
            if base.startswith("layer"):
                raise ContainerError(f"{path}: tensor {name} lies beyond the {len(hidden)} layers")
            continue
        if tuple(shape) != shapes[base]:
            raise ContainerError(
                f"{path}: tensor {name} has shape {list(shape)}, {widths} "
                f"makes it {list(shapes[base])}"
            )
    return shapes


def quantize_model(
    model: FloatModel,
    weight_bits: int = FORMATS["weight_bits"],
    bias_bits: Optional[int] = None,
    signal_bits: int = FORMATS["signal_bits"],
    cell_bits: int = FORMATS["cell_bits"],
    include_float: bool = True,
) -> ModelContainer:
    """Direct quantization of a float model into a container (quantize_parts).

    Every matrix, peephole and bias gets its own power-of-two step from
    search_step; the other formats are those of FORMATS. Biases default to
    the weight width. The input step follows the kind: 2^ONE_HOT_SIG_IN_EXP
    for one-hot LM inputs, so 1.0 is exact, else FORMATS' sig_in_exp.
    """
    model.check()
    sig_in_exp = ONE_HOT_SIG_IN_EXP if model.kind == "lm" else FORMATS["sig_in_exp"]
    fmts = dict(FORMATS, weight_bits=weight_bits, signal_bits=signal_bits,
                cell_bits=cell_bits, sig_in_exp=sig_in_exp)
    fmts["bias_bits"] = weight_bits if bias_bits is None else bias_bits
    *qlayers, qoutput = quantize_parts([*model.layers, model.output], fmts)
    shadow = model if include_float else None
    return ModelContainer(model.kind, model.alphabet, fmts, qlayers, qoutput, shadow)


def quantize_parts(parts, formats) -> list:
    """The quantized twins of parts, LSTM layers then an optional output
    layer, on a formats table keyed like FORMATS; each part links its twin
    as part.quantized. Each tensor is quantized at its own searched step
    (_quantize_tensors), each layer put on its rnn.layer_formats format and
    the output layer on the last layer's output scheme (_assemble). The
    formats are checked first: a bad formats.<key> raises ValueError naming
    it before any step is searched."""
    n_layers = sum(isinstance(p, LstmLayerParams) for p in parts)
    fmts = layer_formats(formats, n_layers)
    twins = _assemble(_quantize_tensors(_flatten(parts), formats), formats, fmts)
    for p, q in zip(parts, twins):
        p.quantized = q
    return twins


def _assemble(tensors, formats, fmts) -> list:
    """The quantized parts of tensors, name -> (levels, step_exp) by network
    name in network_shapes order, on the formats table and its layer_formats
    fmts: the LSTM layers, then the output layer, when tensors hold one, on
    the last layer's output scheme."""
    builds = [(QuantizedLstmLayer, f) for f in fmts] + [(QuantizedOutputLayer, fmts[-1].sig_out)]
    try:
        return [
            cls.from_tensors(t, formats["weight_bits"], formats["bias_bits"], f)
            for (cls, f), t in zip(builds, _split(tensors))
        ]
    except OverflowError:  # a power of two past float64, from steps far apart
        raise ValueError("the steps of the formats and tensors make a scale past "
                         "the float64 range") from None
