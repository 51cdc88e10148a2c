"""Run the qasr benchmark.

    python3 perfbench/run.py --workload busy-hwsim-b128 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

Run it from the repository root. It imports qasr from ./src, writes its
inputs and results under ./.perfbench-work and prints, as the last line of
standard output, one JSON object: the end-to-end metrics (--trace 0) or
the per-layer metrics of a traced run (--trace 1), with the count of
requests and checks attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1  # the box has 2 cores; the matvecs are too small to gain from threads
WORKLOAD_TIMEOUT_S = 900


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """The thread count OpenBLAS reports, else the pinned setting."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def run_one(args) -> int:
    from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, run

    w = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = run(w, args.seed, args.seconds, bool(args.trace), Path(tmp))

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": out.metrics[name], "unit": unit} for name, unit in units.items()}
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "attempted": out.attempted,
        "failed": out.failed,
        "fail_ratio": out.failed / max(out.attempted, 1),
        "failures": out.failures,
        "metrics": metrics,
        "info": out.info,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if out.tracer is not None:
        out.tracer.write(results / f"{stem}.spans.json")

    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  machine {json.dumps(record['machine'])}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:>16.6g} failed/attempted "
          f"({out.failed}/{out.attempted})")
    info = out.info
    print(f"  requests {info['requests']} over a pool of {info['pool']}; rtf.tail is "
          f"p{info['rtf.tail.percentile']:g} with {info['rtf.tail.beyond']} beyond it")
    print(f"  digest {info['digest']}")
    if args.trace:
        print(f"  self times sum to {info['trace.self_sum_s']:.6f} s of "
              f"{info['trace.utterance_wall_s']:.6f} s traced utterance wall")
        for layer, share in info["trace.shares"].items():
            print(f"    {layer:28s} {share * 100:6.2f} %")
    for failure in out.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not json.loads(proc.stdout.splitlines()[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qasr" / "__init__.py").is_file():
        print(f"run.py: no qasr sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads BLAS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.workloads import WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
