"""Seeded closed-loop benchmark of the whlaurent factorization engine.

    python3 perfbench/run.py --workload exact_low --seed 1 --seconds 20 --trace 0

One process, one client: each symbol is submitted after the previous one
returned.  Only the library call is timed; every output is then checked
against the closed form the generator implies, outside the timed region.
A run times a fixed number of symbols, about ``--seconds`` of work, and
scales each timing to a reference machine speed (``speed.py``).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
symbols untraced and then traced and prints the per-layer metrics.
``--workload all`` runs every workload in turn in this one process.  The
last line of standard output is the result as one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from spans import LAYER_UNITS, Tracer, layer_metrics
from speed import Calibrator

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = 1  # single client; also keeps BLAS from contending with neighbours
SETUP_REPEATS = 3   # corpus generations per run
SETUP_IMPORTS = 5   # imports per run: this process's own and fresh processes'
SETUP_CAL_REPS = 15   # calibration kernel calls around set-up
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
NAMES = ("exact_low", "exact_high", "complex_high", "middle_direct")
UNITS = {"symbols_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def tail_percentile(count: int) -> float:
    """Highest percentile with at least 10 samples beyond it in a run of
    ``count`` symbols; the count is fixed per workload and ``--seconds``,
    so runs stay comparable."""
    return max(p for p in PERCENTILES if count * (100.0 - p) / 100.0 >= 10.0)


def nearest_rank(values, p: float) -> float:
    ranked = sorted(values)
    k = max(1, -(-len(ranked) * p // 100))  # ceil(n p / 100)
    return ranked[int(k) - 1]


def run_loop(workload, symbols, calibrator=None, tracer=None):
    """Closed loop over ``symbols``, each once; the calibration kernel runs
    before each symbol and after the last."""
    from workloads import CheckFailed

    out = {"spans": [], "ok": [], "attempted": 0, "passed": 0, "wrong": 0,
           "failures": {}, "diffs": {}, "check_s": 0.0}
    call = workload.run if tracer is None else tracer.wrap_root(workload.run)
    for sym in symbols:
        if calibrator is not None:
            calibrator.mark()
        err = None
        t = time.perf_counter()
        try:
            res = call(sym.payload)
        except Exception as exc:  # the library raised: a failed symbol
            err = type(exc).__name__
        out["spans"].append((t, time.perf_counter()))
        out["attempted"] += 1
        if err is None:
            t = time.perf_counter()
            try:
                workload.check(sym, res, out["diffs"])
            except CheckFailed as exc:
                err = "check:%s" % exc
                out["wrong"] += 1
            out["check_s"] += time.perf_counter() - t
        out["ok"].append(err is None)
        if err is None:
            out["passed"] += 1
        else:
            out["failures"][err] = out["failures"].get(err, 0) + 1
    if calibrator is not None:
        calibrator.mark()
    return out


def child_import_s(src: Path) -> float:
    """Import time of numpy, whlaurent and the workloads in a fresh process."""
    code = ("import sys, time; t = time.perf_counter(); sys.path[:0] = [%r, %r]; "
            "import numpy, workloads; print(time.perf_counter() - t)"
            % (str(src), str(Path(__file__).resolve().parent)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.split()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool, import_s: list,
            setup_cal: Calibrator):
    from workloads import WORKLOADS, make_corpus

    workload = WORKLOADS[name]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        symbols = make_corpus(workload, seed, seconds / 2.0 if trace else seconds)
        gen_s.append(time.perf_counter() - t)
    setup_cal.mark()
    setup_raw = statistics.median(import_s) + statistics.median(gen_s)
    setup_factor = setup_cal.reference / statistics.median(setup_cal.cost)
    cal = Calibrator(workload.cal_reps)
    pct = tail_percentile(len(symbols))
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "numpy": sys.modules["numpy"].__version__, "threads": THREADS,
              "import_s": import_s, "generate_s": gen_s, "setup_raw_s": setup_raw,
              "setup_speed_factor": setup_factor, "corpus_size": len(symbols)}
    if not trace:
        r = run_loop(workload, symbols, cal)
        scaled = cal.scale(r["spans"])
        raw = [e - s for s, e in r["spans"]]
        lat_ms = [x * 1000.0 for x, ok in zip(scaled, r["ok"]) if ok]
        metrics = {
            "symbols_per_s": r["passed"] / sum(scaled),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": nearest_rank(lat_ms, pct),
            "setup_s": setup_raw * setup_factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": r["passed"] / r["attempted"],
        }
        raw_ms = [x * 1000.0 for x, ok in zip(raw, r["ok"]) if ok]
        factors = sorted(cal.reference / c for c in cal.cost)
        report.update({"tail_percentile": pct, "samples": len(lat_ms),
                       "beyond_tail": sum(x > metrics["latency_tail_ms"] for x in lat_ms),
                       "raw_symbols_per_s": r["passed"] / sum(raw),
                       "raw_latency_p50_ms": statistics.median(raw_ms),
                       "speed_factor_min_med_max": [factors[0], statistics.median(factors),
                                                    factors[-1]]})
        wall = sum(raw)
    else:
        # the same symbols untraced, then traced: the difference is the overhead
        base = run_loop(workload, symbols, cal)
        tracer = Tracer()
        tracer.install()
        try:
            r = run_loop(workload, symbols, cal, tracer)
        finally:
            tracer.uninstall()
        wall = sum(e - s for s, e in r["spans"])
        metrics, extra = layer_metrics(tracer, r["attempted"], wall)
        metrics["trace.overhead_frac"] = (sum(cal.scale(r["spans"]))
                                          / sum(cal.scale(base["spans"])) - 1.0)
        metrics["check.s"] = r["check_s"] / r["attempted"]
        metrics["check.max_oracle_diff"] = r["diffs"].get("oracle", 0.0)
        metrics["check.max_cross_diff"] = r["diffs"].get("cross", 0.0)
        report.update(extra)
        r["wrong"] += base["wrong"]
    report.update({"attempted": r["attempted"], "failed": r["attempted"] - r["passed"],
                   "fail_frac": 1.0 - r["passed"] / r["attempted"], "wrong": r["wrong"],
                   "failures": r["failures"], "max_diffs": r["diffs"], "timed_wall_s": wall})
    return metrics, report


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": units[k]}
                                   for k, v in metrics.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "whlaurent" / "__init__.py").is_file():
        print("error: library sources not found under %s" % src, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401  (timed as part of set-up)
    import workloads  # noqa: F401  (imports whlaurent and its cli)
    import_s = [time.perf_counter() - _T0]
    setup_cal = Calibrator(SETUP_CAL_REPS)
    setup_cal.mark()
    import_s += [child_import_s(src) for _ in range(SETUP_IMPORTS - 1)]

    units = LAYER_UNITS if args.trace else UNITS
    names = NAMES if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, report = measure(name, args.seed, args.seconds, bool(args.trace), import_s,
                                  setup_cal)
        print(json.dumps({"report": report}, default=str))
        for k, v in metrics.items():
            print("%-14s %-40s %.6g %s" % (name, k, v, units[k]))
        total["correct"] = total["correct"] and report["wrong"] == 0
        total["attempted"] += report["attempted"]
        total["failed"] += report["failed"]
        total["metrics"].update({(k if len(names) == 1 else "%s.%s" % (name, k)): v
                                 for k, v in metrics.items()})
    if len(names) > 1:
        units = {"%s.%s" % (n, k): u for n in names for k, u in units.items()}
    sys.stdout.flush()
    print(result_line(total["correct"], total["attempted"], total["failed"],
                      total["metrics"], units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
