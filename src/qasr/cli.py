"""Command-line drivers.

asr-quantize builds model containers: either from a float model file or via
the toy generator (--gen-toy), which also emits a word list and a synthetic
feature stream so decoding is runnable from a cold clone.

asr-decode runs the pipeline on a feature file or a WAV, prints the
transcript to stdout and writes the key/value report next to it when asked.

Exit codes: 0 success, 2 input problems, 3 internal failures.
"""

from __future__ import annotations

import argparse
import sys

from .container import (
    ContainerError,
    ModelContainer,
    load_float_model,
    quantize_model,
)
from .engine import MODES, RunConfig, decode, write_report
from .frontend import extract_features, read_feature_file, read_wav
from .hwsim import HwConfig
from .rnn import FORMATS
from .toy import gen_toy
from .wordlm import ArpaParseError, parse_arpa_file

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_INPUT_ERRORS = (ContainerError, ArpaParseError, FileNotFoundError, ValueError, OSError)


def quantize_parser() -> argparse.ArgumentParser:
    """asr-quantize's flags; the width flags default to rnn.FORMATS."""
    ap = argparse.ArgumentParser(
        prog="asr-quantize", description="Build quantized model containers."
    )
    ap.add_argument("--float-model", help="float model .npz to quantize")
    ap.add_argument("--out", help="output container path")
    ap.add_argument("--gen-toy", metavar="SPEC",
                    help="generate toy models instead: tiny|small[,frames=N,seed=N]")
    ap.add_argument("--out-dir", default="toy", help="output directory for --gen-toy")
    ap.add_argument("--weight-bits", type=int, default=FORMATS["weight_bits"],
                    help="weight level width (default %(default)s)")
    ap.add_argument("--bias-bits", type=int, default=None,
                    help="bias level width (default: the weight width)")
    ap.add_argument("--signal-bits", type=int, default=FORMATS["signal_bits"],
                    help="signal level width (default %(default)s)")
    ap.add_argument("--cell-bits", type=int, default=FORMATS["cell_bits"],
                    help="cell level width (default %(default)s)")
    ap.add_argument("--no-float-shadow", action="store_true",
                    help="omit float copies (disables float-mode decoding)")
    return ap


def main_quantize(argv=None) -> int:
    ap = quantize_parser()
    args = ap.parse_args(argv)

    try:
        if args.gen_toy:
            paths = gen_toy(args.gen_toy, args.out_dir, include_float=not args.no_float_shadow)
            for k, v in paths.items():
                print(f"{k} {v}")
            return EXIT_OK
        if not args.float_model or not args.out:
            ap.error("need --float-model and --out (or --gen-toy)")
        model = load_float_model(args.float_model)
        container = quantize_model(
            model,
            weight_bits=args.weight_bits,
            bias_bits=args.bias_bits,
            signal_bits=args.signal_bits,
            cell_bits=args.cell_bits,
            include_float=not args.no_float_shadow,
        )
        container.write(args.out)
        print(f"wrote {args.out}")
        return EXIT_OK
    except _INPUT_ERRORS as exc:
        print(f"asr-quantize: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - report and map to the internal code
        print(f"asr-quantize: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main_decode(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="asr-decode", description="Decode audio or features to text."
    )
    ap.add_argument("--am", help="acoustic model container")
    ap.add_argument("--lm", help="character-LM container")
    ap.add_argument("--arpa", help="word-level ARPA file (optionally .gz)")
    ap.add_argument("--beam", type=int, default=RunConfig.beam_width)
    ap.add_argument("--alpha", type=float, default=RunConfig.alpha, help="character-LM weight")
    ap.add_argument("--lambda", dest="lam", type=float, default=RunConfig.lam,
                    help="word-LM weight")
    ap.add_argument("--beta", type=float, default=RunConfig.beta, help="word insertion bonus")
    ap.add_argument("--mode", choices=MODES, default=RunConfig.mode)
    ap.add_argument("--features", help="feature file input")
    ap.add_argument("--wav", help="16 kHz mono 16-bit WAV input")
    ap.add_argument("--report", help="write the key/value report here")
    ap.add_argument("--prune-period", type=int, default=RunConfig.prune_period,
                    help="frames between depth prunes (0 disables)")
    ap.add_argument("--pe-arrays", type=int, default=HwConfig.pe_arrays)
    ap.add_argument("--pes-per-array", type=int, default=HwConfig.pes_per_array)
    ap.add_argument("--gen-toy", metavar="SPEC",
                    help="generate toy inputs into --toy-dir and decode them")
    ap.add_argument("--toy-dir", default="toy")
    args = ap.parse_args(argv)

    try:
        # settings first: a bad flag exits before anything is read
        cfg = RunConfig(
            mode=args.mode,
            beam_width=args.beam,
            alpha=args.alpha,
            lam=args.lam,
            beta=args.beta,
            prune_period=args.prune_period,
            hw=HwConfig(pe_arrays=args.pe_arrays, pes_per_array=args.pes_per_array),
        )
        if args.gen_toy:
            paths = gen_toy(args.gen_toy, args.toy_dir)
            args.am = args.am or paths["am"]
            args.lm = args.lm or paths["lm"]
            args.arpa = args.arpa or paths["arpa"]
            args.features = args.features or paths["features"]
        if not args.am:
            ap.error("need --am (or --gen-toy)")
        if bool(args.features) == bool(args.wav):
            ap.error("need exactly one of --features or --wav")

        am = ModelContainer.read(args.am)
        lm = ModelContainer.read(args.lm) if args.lm else None
        arpa = parse_arpa_file(args.arpa) if args.arpa else None
        if args.wav:
            feats = extract_features(read_wav(args.wav))
        else:
            feats, _ = read_feature_file(args.features)
        # decode refuses a container of the other kind; a width error names both files
        if am.kind == "am" and len(feats) and feats.shape[1] != am.input_dim:
            raise ContainerError(f"{args.wav or args.features}: features are {feats.shape[1]}-dim, "
                                 f"the acoustic model {args.am} wants {am.input_dim}")
        result = decode(am, lm, arpa, feats, cfg)
        print(result.transcript)
        if args.report:
            write_report(result.report, args.report)
        return EXIT_OK
    except _INPUT_ERRORS as exc:
        print(f"asr-decode: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001
        print(f"asr-decode: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    """python -m qasr {decode|quantize} ..."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in ("decode", "quantize"):
        print("usage: python -m qasr {decode|quantize} [options]", file=sys.stderr)
        return EXIT_INPUT
    if argv[0] == "decode":
        return main_decode(argv[1:])
    return main_quantize(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
