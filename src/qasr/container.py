"""Binary model container: quantized tensors with their schemes, the network
shape and alphabet, and optional float shadow copies.

Layout: magic, version, a canonical-JSON header describing every tensor
(name, shape, bits, step exponent, payload offset), then the payload blobs,
then a CRC32 trailer over everything before it. Levels are bit-packed, so
fifteen 6-bit values occupy ceil(15*6/8) = 12 bytes. Writing is fully
deterministic: write -> read -> write reproduces the bytes.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .decoder import Alphabet
from .quant import QuantScheme, quantize, search_step
from .rnn import (
    LAYER_GROUPS,
    LayerFixedFormat,
    LstmLayerParams,
    OutputLayerParams,
    QuantizedLstmLayer,
    QuantizedOutputLayer,
    build_lut,
    layer_shapes,
)

__all__ = [
    "ContainerError",
    "FloatModel",
    "ModelContainer",
    "quantize_model",
    "quantize_layer",
    "quantize_output",
    "pack_levels",
    "unpack_levels",
    "save_float_model",
    "load_float_model",
]

MAGIC = b"QRNN"
VERSION = 1

LAYER_TENSORS = tuple(name for names in LAYER_GROUPS.values() for name in names)

DEFAULT_FORMATS = {
    "weight_bits": 6,
    "bias_bits": 6,
    "signal_bits": 8,
    "cell_bits": 16,
    "sig_in_exp": -4,   # feature inputs; one-hot LM inputs use -6
    "sig_exp": -7,      # hidden-layer signals
    "cell_exp": -8,
    "pre_exp": -8,
    "act_exp": -8,
    "lut_resolution": 1024,
    "lut_lo": -8.0,
    "lut_hi": 8.0,
}


class ContainerError(ValueError):
    pass


def _bits_key(name: str) -> str:
    """The formats key, and quantized-layer attribute, of a tensor's width."""
    return "bias_bits" if name.split(".")[-1] in LAYER_GROUPS["bias"] + ("b",) else "weight_bits"


def _quantize_tensor(values, bits: int):
    """(levels, step_exp) of a tensor at its own searched step."""
    scheme = search_step(values, bits)
    return quantize(values, scheme).levels.astype(np.float64), scheme.step_exp


# ---------------------------------------------------------------------------
# Bit packing
# ---------------------------------------------------------------------------


def pack_levels(levels, bits: int) -> bytes:
    """Pack signed levels into a little-endian bitstream, offset-binary."""
    lev = np.asarray(levels, dtype=np.int64).ravel()
    offset = (1 << (bits - 1)) - 1
    vals = (lev + offset).astype(np.uint64)
    if np.any(vals >= (1 << bits)):
        raise ContainerError("level out of range for the declared bit width")
    bit_matrix = ((vals[:, None] >> np.arange(bits, dtype=np.uint64)) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel(), bitorder="little").tobytes()


def unpack_levels(data: bytes, count: int, bits: int) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8)
    bit_stream = np.unpackbits(raw, bitorder="little", count=count * bits)
    bit_matrix = bit_stream.reshape(count, bits).astype(np.int64)
    vals = (bit_matrix << np.arange(bits, dtype=np.int64)).sum(axis=1)
    offset = (1 << (bits - 1)) - 1
    return (vals - offset).astype(np.float64)


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


def save_float_model(model: FloatModel, path):
    arrays = {}
    for li, p in enumerate(model.layers):
        for name in LAYER_TENSORS:
            arrays[f"layer{li}.{name}"] = getattr(p, name)
    arrays["output.W"] = model.output.W
    arrays["output.b"] = model.output.b
    meta = {
        "kind": model.kind,
        "n_layers": len(model.layers),
        "symbols": list(model.alphabet.symbols),
        "delimiter": model.alphabet.delimiter,
        "eos": model.alphabet.eos,
    }
    np.savez(path, _meta=json.dumps(meta, sort_keys=True), **arrays)


def load_float_model(path) -> FloatModel:
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["_meta"]))
        layers = []
        for li in range(meta["n_layers"]):
            kw = {name: z[f"layer{li}.{name}"] for name in LAYER_TENSORS}
            layers.append(LstmLayerParams(**kw))
        output = OutputLayerParams(W=z["output.W"], b=z["output.b"])
    alphabet = Alphabet(
        symbols=tuple(meta["symbols"]), delimiter=meta["delimiter"], eos=meta["eos"]
    )
    model = FloatModel(kind=meta["kind"], alphabet=alphabet, layers=layers, output=output)
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
    float_layers: Optional[list] = None
    float_output: Optional[OutputLayerParams] = None

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
        return self.float_layers is not None

    def float_model(self) -> FloatModel:
        if not self.has_float():
            raise ContainerError("container carries no float shadow copies")
        return FloatModel(
            kind=self.kind,
            alphabet=self.alphabet,
            layers=self.float_layers,
            output=self.float_output,
        )

    # -- serialization -------------------------------------------------

    def write(self, path):
        records = []
        payload = bytearray()

        def add(name, arr, bits=None, step_exp=None):
            if bits is None:
                blob = np.asarray(arr, dtype="<f4").tobytes()
                dtype = "f32"
            else:
                blob = pack_levels(arr, bits)
                dtype = "levels"
            records.append(
                {
                    "name": name,
                    "shape": list(np.asarray(arr).shape),
                    "bits": bits,
                    "step_exp": step_exp,
                    "offset": len(payload),
                    "nbytes": len(blob),
                    "dtype": dtype,
                }
            )
            payload.extend(blob)

        for li, q in enumerate(self.qlayers):
            for name, (lev, exp) in q.tensors().items():
                add(f"layer{li}.{name}", lev, getattr(q, _bits_key(name)), exp)
        add("output.W", self.qoutput.w_lev, self.qoutput.weight_bits, self.qoutput.w_exp)
        add("output.b", self.qoutput.b_lev, self.qoutput.bias_bits, self.qoutput.b_exp)
        if self.float_layers is not None:
            for li, p in enumerate(self.float_layers):
                for name in LAYER_TENSORS:
                    add(f"float.layer{li}.{name}", getattr(p, name))
            add("float.output.W", self.float_output.W)
            add("float.output.b", self.float_output.b)

        header = {
            "kind": self.kind,
            "alphabet": {
                "symbols": list(self.alphabet.symbols),
                "delimiter": self.alphabet.delimiter,
                "eos": self.alphabet.eos,
            },
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
        body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise ContainerError(f"{path}: checksum mismatch")
        version, head_len = struct.unpack("<HI", body[4:10])
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported version {version}")
        header = json.loads(body[10 : 10 + head_len].decode("utf-8"))
        payload = body[10 + head_len :]
        _check_header(path, header, len(payload))

        tensors = {}
        for rec in header["tensors"]:
            raw = payload[rec["offset"] : rec["offset"] + rec["nbytes"]]
            # _check_header has matched the byte count to the shape and bits
            shape = tuple(rec["shape"])
            if rec["dtype"] == "levels":
                arr = unpack_levels(raw, int(np.prod(shape)), rec["bits"]).reshape(shape)
            else:
                arr = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
            tensors[rec["name"]] = (arr, rec["step_exp"])

        fmts = header["formats"]
        alphabet = Alphabet(
            symbols=tuple(header["alphabet"]["symbols"]),
            delimiter=header["alphabet"]["delimiter"],
            eos=header["alphabet"]["eos"],
        )
        luts = _luts_from_formats(fmts)
        n_layers = len(header["dims"]["hidden"])
        qlayers = []
        for li in range(n_layers):
            fmt = _layer_format(fmts, first=(li == 0), luts=luts)
            layer = {n: tensors[f"layer{li}.{n}"] for n in LAYER_TENSORS}
            qlayers.append(
                QuantizedLstmLayer.from_tensors(layer, fmts["weight_bits"], fmts["bias_bits"], fmt)
            )
        ow, w_exp = tensors["output.W"]
        ob, b_exp = tensors["output.b"]
        qoutput = QuantizedOutputLayer(
            w_lev=ow,
            b_lev=ob,
            w_exp=w_exp,
            b_exp=b_exp,
            weight_bits=fmts["weight_bits"],
            bias_bits=fmts["bias_bits"],
            sig_in=qlayers[-1].fmt.sig_out,
        )
        float_layers = float_output = None
        if "float.output.W" in tensors:
            float_layers = []
            for li in range(n_layers):
                kw = {n: tensors[f"float.layer{li}.{n}"][0] for n in LAYER_TENSORS}
                float_layers.append(LstmLayerParams(**kw))
            float_output = OutputLayerParams(
                W=tensors["float.output.W"][0], b=tensors["float.output.b"][0]
            )
            for p, q in zip(float_layers, qlayers):
                p.quantized = q
            float_output.quantized = qoutput
        return cls(
            kind=header["kind"],
            alphabet=alphabet,
            formats=fmts,
            qlayers=qlayers,
            qoutput=qoutput,
            float_layers=float_layers,
            float_output=float_output,
        )


# what ModelContainer.read uses of a header, checked before any of it is used
HEADER_KEYS = {
    "kind": None,
    "alphabet": ("symbols", "delimiter", "eos"),
    "dims": ("hidden",),
    "formats": tuple(DEFAULT_FORMATS),
    "tensors": None,
}
TENSOR_KEYS = ("name", "shape", "bits", "step_exp", "offset", "nbytes", "dtype")


def _check_header(path, header, payload_bytes: int):
    """Raise ContainerError naming the first missing header key or tensor,
    or the first tensor whose bytes do not fit its record or the payload,
    or whose bits or shape do not fit the formats and dims (_check_layers)."""
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
    needed = [f"layer{li}.{t}" for li in range(len(hidden)) for t in LAYER_TENSORS]
    for name in needed + ["output.W", "output.b"]:
        if name not in records:
            raise ContainerError(f"{path}: tensor {name} is missing")
    _check_layers(path, hidden, header["formats"], records)


def _check_layers(path, hidden, formats, records):
    """Raise ContainerError naming the first layer or output tensor, or
    float shadow copy, that lies beyond the last layer or whose shape does
    not fit dims.hidden and the layer before it (layer 0 reads what its
    first input matrix reads); or the first level tensor whose bits are not
    its group's width in formats."""
    d = (records[f"layer0.{LAYER_GROUPS['wx'][0]}"]["shape"] or [None])[-1]
    shapes = {}
    for li, h in enumerate(hidden):
        shapes.update({f"layer{li}.{n}": s for n, s in layer_shapes(d, h).items()})
        d = h
    labels = (records["output.W"]["shape"] or [None])[0]
    shapes["output.W"], shapes["output.b"] = (labels, d), (labels,)
    for name, rec in records.items():
        base = name.removeprefix("float.")
        if base not in shapes:
            if base.startswith("layer"):
                raise ContainerError(f"{path}: tensor {name} lies beyond the {len(hidden)} layers")
            continue
        if tuple(rec["shape"]) != shapes[base]:
            raise ContainerError(
                f"{path}: tensor {name} has shape {rec['shape']}, dims.hidden {hidden} "
                f"makes it {list(shapes[base])}"
            )
        key = _bits_key(name)
        if base == name and (rec["dtype"] != "levels" or rec["bits"] != formats[key]):
            raise ContainerError(
                f"{path}: tensor {name} holds {rec['bits']}-bit {rec['dtype']}, "
                f"formats.{key} is {formats[key]}"
            )


def _luts_from_formats(fmts):
    rng = (fmts["lut_lo"], fmts["lut_hi"])
    return (
        build_lut("sigmoid", fmts["lut_resolution"], rng, fmts["act_exp"]),
        build_lut("tanh", fmts["lut_resolution"], rng, fmts["act_exp"]),
    )


def _layer_format(fmts, first: bool, luts) -> LayerFixedFormat:
    sig_in_exp = fmts["sig_in_exp"] if first else fmts["sig_exp"]
    return LayerFixedFormat(
        sig_in=QuantScheme(bits=fmts["signal_bits"], step=2.0**sig_in_exp),
        sig_out=QuantScheme(bits=fmts["signal_bits"], step=2.0 ** fmts["sig_exp"]),
        cell=QuantScheme(bits=fmts["cell_bits"], step=2.0 ** fmts["cell_exp"]),
        pre=QuantScheme(bits=16, step=2.0 ** fmts["pre_exp"]),
        lut_sigmoid=luts[0],
        lut_tanh=luts[1],
    )


def quantize_model(
    model: FloatModel,
    weight_bits: int = 6,
    bias_bits: Optional[int] = None,
    signal_bits: int = 8,
    cell_bits: int = 16,
    sig_in_exp: Optional[int] = None,
    include_float: bool = True,
) -> ModelContainer:
    """Direct quantization of a float model into a container.

    Every matrix, peephole and bias gets its own power-of-two step from
    search_step; signal/cell/pre-activation schemes come from the format
    block. One-hot LM inputs default to step 2^-6 so the 1.0 input is exact;
    feature inputs default to 2^-4.
    """
    model.check()
    fmts = dict(DEFAULT_FORMATS)
    fmts["weight_bits"] = weight_bits
    fmts["bias_bits"] = weight_bits if bias_bits is None else bias_bits
    fmts["signal_bits"] = signal_bits
    fmts["cell_bits"] = cell_bits
    if sig_in_exp is None:
        sig_in_exp = -6 if model.kind == "lm" else -4
    fmts["sig_in_exp"] = sig_in_exp

    luts = _luts_from_formats(fmts)
    qlayers = []
    for li, p in enumerate(model.layers):
        fmt = _layer_format(fmts, first=(li == 0), luts=luts)
        q = quantize_layer(p, fmt, weight_bits=fmts["weight_bits"], bias_bits=fmts["bias_bits"])
        p.quantized = q
        qlayers.append(q)
    qoutput = quantize_output(
        model.output,
        qlayers[-1].fmt.sig_out,
        weight_bits=fmts["weight_bits"],
        bias_bits=fmts["bias_bits"],
    )
    model.output.quantized = qoutput
    return ModelContainer(
        kind=model.kind,
        alphabet=model.alphabet,
        formats=fmts,
        qlayers=qlayers,
        qoutput=qoutput,
        float_layers=model.layers if include_float else None,
        float_output=model.output if include_float else None,
    )


def quantize_layer(
    params: LstmLayerParams,
    fmt: LayerFixedFormat,
    weight_bits: int = 6,
    bias_bits: Optional[int] = None,
) -> QuantizedLstmLayer:
    """Direct quantization of one layer: per-matrix step search, then rounding."""
    if bias_bits is None:
        bias_bits = weight_bits

    widths = {"weight_bits": weight_bits, "bias_bits": bias_bits}
    tensors = {n: _quantize_tensor(getattr(params, n), widths[_bits_key(n)]) for n in LAYER_TENSORS}
    return QuantizedLstmLayer.from_tensors(tensors, weight_bits, bias_bits, fmt)


def quantize_output(
    params: OutputLayerParams,
    sig_in: QuantScheme,
    weight_bits: int = 6,
    bias_bits: Optional[int] = None,
) -> QuantizedOutputLayer:
    """Direct quantization of the output layer; sig_in is the scheme of the
    last LSTM layer's output signal."""
    if bias_bits is None:
        bias_bits = weight_bits
    w_lev, w_exp = _quantize_tensor(params.W, weight_bits)
    b_lev, b_exp = _quantize_tensor(params.b, bias_bits)
    return QuantizedOutputLayer(
        w_lev=w_lev,
        b_lev=b_lev,
        w_exp=w_exp,
        b_exp=b_exp,
        weight_bits=weight_bits,
        bias_bits=bias_bits,
        sig_in=sig_in,
    )
