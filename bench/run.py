"""Benchmark of the lemniscates package: one seeded, closed-loop workload per
process, every op checked against the acceptance suite's tolerances.

    python3 bench/run.py --workload d4_table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke            # one op per workload, with its check

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. With
--trace 0 the metrics are the end-to-end metrics; with --trace 1 the public
functions of each layer are wrapped and the metrics are the per-layer ones.
A full record (environment, op latencies, tail latency, fail ratio, accuracy
digits and, for traced runs, every span) is written to bench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
BLAS_THREADS = 1
SETUP_REPEATS = 3
END_TO_END = {"ops_per_s": "op/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_package() -> float:
    """Import the benchmark's workloads, and with them numpy, scipy and the
    lemniscates package of this checkout; return the time the imports took."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy loads BLAS
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import workloads  # noqa: F401  (numpy, scipy and every lemniscates module)
    elapsed = time.perf_counter() - t0
    import lemniscates

    found = Path(lemniscates.__file__).resolve().parent
    if found != SRC / "lemniscates":
        raise ImportError(f"lemniscates imported from {found}, not from {SRC}")
    return elapsed


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
    }


def tail_latency(latencies: list[float]) -> dict | None:
    """Latency at the highest percentile with at least 10 ops beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    rank = n - 10
    return {"value": sorted(latencies)[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


def measure(name, seed, seconds, trace, max_ops=None, setup_repeats=SETUP_REPEATS, import_s=0.0):
    """Set up `name` from `seed`, then run its ops back to back until their
    summed latency reaches `seconds` (or `max_ops` ops ran), checking each."""
    import numpy as np
    import spans
    from lemniscates.errors import LemniscateError
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    setup_times = []
    for _ in range(setup_repeats):
        t0 = time.perf_counter()
        cases = w.setup(np.random.default_rng(seed))
        setup_times.append(time.perf_counter() - t0)

    recorder = spans.Recorder() if trace else None
    latencies, checks, errors = [], [], []
    busy = 0.0
    with recorder.installed() if recorder else nullcontext():
        while (not latencies or busy < seconds) and (max_ops is None or len(latencies) < max_ops):
            i = len(latencies)
            t0 = time.perf_counter()
            try:
                with recorder.op(i) if recorder else nullcontext():
                    out = w.run(cases[i % len(cases)])
            except LemniscateError as err:
                out = err
            dt = time.perf_counter() - t0
            latencies.append(dt)
            busy += dt
            if isinstance(out, LemniscateError):
                errors.append(f"op {i}: {type(out).__name__}: {out}")
                continue
            try:
                check = w.verify(out)
            except LemniscateError as err:
                errors.append(f"op {i} check: {type(err).__name__}: {err}")
                continue
            checks.append(check)
            if not check.ok:
                errors.append(f"op {i}: check failed")

    attempted = len(latencies)
    failed = len(errors)
    digits = [c.digits for c in checks if c.ok and c.digits is not None]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "op": w.op,
        "check": w.check,
        "why": w.why,
        "environment": environment(),
        "load": "one process, one closed-loop client",
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "latencies_s": latencies,
        "op_tail_s": tail_latency(latencies),
        "fail_ratio": failed / attempted,
        "accuracy_digits": min(digits) if digits else None,
        "errors": errors,
        "summaries": [c.summary for c in checks],
    }
    if recorder:
        layer = spans.layer_metrics(recorder.spans)
        metrics = {n: {"value": layer[n], "unit": unit} for n, unit, _ in spans.METRICS}
        record["shares"] = spans.share_report(layer, name)
        record["spans"] = [
            [s.name, s.op, s.parent, s.start, s.end, s.error and s.error.__name__]
            for s in recorder.spans
        ]
    else:
        values = {
            "ops_per_s": attempted / busy,
            "op_p50_s": statistics.median(latencies),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": values[n], "unit": unit} for n, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def _print_report(result, record):
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    for key in ("op", "check", "why", "load"):
        print(f"  {key}: {record[key]}")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(f"  ops {result['attempted']}, failed {result['failed']}, fail_ratio {record['fail_ratio']:.4g}")
    for err in record["errors"]:
        print(f"  error: {err}")
    if record["op_tail_s"]:
        t = record["op_tail_s"]
        print(f"  op_tail_s {t['value']:.6g} s (p{t['percentile']:.1f} of {t['samples']} ops)")
    if record["accuracy_digits"] is not None:
        print(f"  accuracy_digits {record['accuracy_digits']:.4g} digits")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for row in record.get("shares", []):
        print(f"  share {row['share']:7.2%} {row['role']:5s} {row['layer']} (moves {row['moves']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one op per workload, with its check")
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    try:
        import_s = load_package()
    except ImportError as err:
        print(f"cannot import the lemniscates package of this checkout: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.smoke:
        names = [args.workload] if args.workload else list(WORKLOADS)
    elif args.workload:
        names = [args.workload]
    else:
        ap.error("--workload is required without --smoke")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}")

    if args.smoke:
        smoke = {}
        for name in names:
            result, record = measure(name, args.seed, 0.0, args.trace, max_ops=1, setup_repeats=1)
            _print_report(result, record)
            smoke[name] = {"correct": result["correct"], "op_s": record["latencies_s"][0]}
        print(json.dumps({"smoke": smoke}))
        return 0 if all(v["correct"] for v in smoke.values()) else 1

    result, record = measure(args.workload, args.seed, args.seconds, args.trace, import_s=import_s)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, **record}))
    _print_report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
