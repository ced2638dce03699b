"""Smoke test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

For one symbol of each workload, the engine's output must pass the check,
and the same output with a perturbed ``pi_plus`` coefficient or a wrong
winding must be counted as a failed, wrong symbol by the run loop.
Exits 0 when every case behaves so, 1 otherwise.
"""

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import whlaurent as wl  # noqa: E402
from run import run_loop  # noqa: E402
from workloads import WORKLOADS, make_corpus, parse_coeff  # noqa: E402


def _bump(series: wl.LaurentSeries, n: int) -> wl.LaurentSeries:
    ring = series.ring
    step = Fraction(1, 7) if ring.is_exact else complex(1e-6)
    return series.add(wl.LaurentSeries.monomial(ring, n, step))


def _job_perturbations(out):
    code, payload = out
    plus = [dict(item) for item in payload["pi_plus"]]
    parts = [x + Fraction(1, 7) for x in parse_coeff(plus[-1]["c"])]
    plus[-1]["c"] = str(parts[0]) if len(parts) == 1 else "(%s|%s)" % tuple(parts)
    winding = (payload["winding"] or 0) + 1
    return {"pi_plus": (code, dict(payload, pi_plus=plus)),
            "winding": (code, dict(payload, winding=winding))}


def _result_perturbations(res):
    return {"pi_plus": dataclasses.replace(res, pi_plus=_bump(res.pi_plus, 1)),
            "winding": dataclasses.replace(res, winding=res.winding + 1)}


def _middle_perturbations(out):
    pm, derived, pp, direct, tail = out
    # the winding is the exponent of the middle factor
    return {"pi_plus": (pm, derived, _bump(pp, 1), direct, tail),
            "pi_tilde": (pm, derived.shift(1), pp, direct.shift(1), tail)}


PERTURB = {"exact_low": _job_perturbations, "exact_high": _result_perturbations,
           "complex_high": _result_perturbations, "middle_direct": _middle_perturbations}


def main() -> int:
    ok = True
    for name, workload in WORKLOADS.items():
        sym = make_corpus(workload, seed=0, seconds=0.0)[0]
        out = workload.run(sym.payload)
        cases = {"clean": out, **PERTURB[name](out)}
        for case, result in cases.items():
            stub = dataclasses.replace(workload, block=1, run=lambda _p, r=result: r)
            r = run_loop(stub, [sym])
            want = {} if case == "clean" else {"check:" + case: 1}
            good = r["failures"] == want and r["wrong"] == len(want)
            ok = ok and good
            print("%-4s %-14s %-9s failures=%s" % ("ok" if good else "FAIL", name, case,
                                                  r["failures"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
