"""Batch command-line front end.

Reads a JSON job description, runs the requested mode, prints a JSON
report on standard output.  Exit codes: 0 success, 2 validation error,
3 numerical failure (residual or tail estimate over tolerance, or a
triple that is not the factorization).  A job's half-``window`` is at
most :data:`MAX_WINDOW` (4096): the inverse is expanded over all of it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Tuple

from .rings import Ring, RingError, leaf_kind
from .series import (Antiholo, Holo, InvertiblePair, LaurentSeries, Mono, WindowError,
                     invert_from_factors, invert_numeric, laurent_ring)
from . import matrices as mx
from .corpus import random_complex_factors
from .factorization import (FactorizationError, NotOrthogonalError, certify, factorize,
                            orthogonal_decompose)
from .oracle import SAMPLES, OracleError, cepstral_factorize, compare, root_split_factorize
from .serialize import json_float, json_int, result_to_json, ring_from_json, series_from_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
MAX_WINDOW = 4096

MODES = ("factorize", "verify", "orthogonal", "oracle-compare", "matrix-dump")
DEFAULT_RING = {"kind": "rational"}


class JobError(ValueError):
    """Invalid job description."""


@contextmanager
def _field(name: str) -> Iterator[None]:
    """Report a malformed job field as a JobError.

    Wraps only the parsing of outside input, so that a KeyError, TypeError
    or ValueError raised by the computation itself stays an internal error.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise JobError("bad %r field: %s" % (name, exc)) from exc


def _parse_factor(ring: Ring, item: Dict[str, Any]):
    if not isinstance(item, dict):
        raise JobError("a factor must be a JSON object")
    kind = item.get("type")
    if kind == "antiholo":
        return Antiholo(ring.parse(str(item["alpha"])))
    if kind == "holo":
        return Holo(ring.parse(str(item["beta"])))
    if kind == "mono":
        return Mono(json_int(item.get("p", 0)), ring.parse(str(item.get("u", "1"))))
    raise JobError("unknown factor type: %r" % kind)


def _build_pair(job: Dict[str, Any], ring: Ring,
                window: Tuple[int, int]) -> InvertiblePair:
    has_factors = "factors" in job
    has_coeffs = "coefficients" in job
    if has_factors == has_coeffs:
        raise JobError("exactly one of 'factors' or 'coefficients' must be given")
    if has_factors:
        with _field("factors"):
            factors = [_parse_factor(ring, f) for f in job["factors"]]
        try:
            return invert_from_factors(ring, factors, window)
        except RingError as exc:
            # a factor that check_factors refuses, or a product of units
            # that each pass it and still do not invert
            raise JobError("bad 'factors' field: %s" % exc) from exc
    with _field("coefficients"):
        a = series_from_json(ring, job["coefficients"])
    if "inverse" in job:
        with _field("inverse"):
            b = series_from_json(ring, job["inverse"], window)
        return InvertiblePair.make(a, b)
    if ring.is_exact:
        raise JobError("exact rings need an explicit 'inverse'")
    with _field("samples"):
        samples = json_int(job.get("samples", SAMPLES))
        if samples < 1 or samples & (samples - 1):
            raise ValueError("not a power of two")
    return invert_numeric(a, samples)


def run_job(job: Dict[str, Any], dump_matrices: bool = False) -> Tuple[int, Dict[str, Any]]:
    """Execute one job; returns (exit_code, json_payload)."""
    mode = job.get("mode", "factorize")
    if mode not in MODES:
        raise JobError("unknown mode: %r" % mode)
    with _field("ring"):
        ring = ring_from_json(dict(job.get("ring", DEFAULT_RING)))
    with _field("window"):
        half = json_int(job.get("window", 16))
    if not 1 <= half <= MAX_WINDOW:
        raise JobError("'window' must be a positive size of at most %d" % MAX_WINDOW)
    window = (-half, half)

    if mode == "oracle-compare":
        return _run_oracle_compare(job, ring, window)

    pair = _build_pair(job, ring, window)

    if mode == "matrix-dump":
        return EXIT_OK, {"matrices": _matrix_dumps(pair, ring, window)}

    if mode == "orthogonal":
        try:
            dec = orthogonal_decompose(pair)
        except NotOrthogonalError as exc:
            raise JobError("orthogonal mode needs an orthogonal symbol") from exc
        return EXIT_OK, {
            "idempotents": [{"n": n, "c": ring.fmt(c)}
                            for n, c in sorted(dec.idempotents.items())],
            "unit": ring.fmt(dec.unit),
        }

    if mode == "verify":
        fac = job.get("factorization")
        if not isinstance(fac, dict):
            raise JobError("verify mode needs a 'factorization' object")
        with _field("factorization"):
            pm, pt, pp = [series_from_json(ring, fac[key])
                          for key in ("pi_minus", "pi_tilde", "pi_plus")]
        return EXIT_OK, {"residual": certify(pair, pm, pt, pp)}

    # factorize
    res = factorize(pair)
    payload = result_to_json(res)
    if dump_matrices:
        payload["matrices"] = _matrix_dumps(pair, ring, window)
    return EXIT_OK, payload


def _run_oracle_compare(job: Dict[str, Any], ring: Ring,
                        window: Tuple[int, int]) -> Tuple[int, Dict[str, Any]]:
    if leaf_kind(ring) is not complex or ring.components:
        raise JobError("oracle-compare requires the complex ring")
    with _field("compare_tolerance"):
        tol = json_float(job.get("compare_tolerance", 1e-8))
        if not tol > 0:
            raise ValueError("must be positive")
    cases = []
    if "factors" in job or "coefficients" in job:
        cases.append(_build_pair(job, ring, window))
    else:
        with _field("seed"):
            seed = json_int(job.get("seed", 0))
        with _field("count"):
            count = json_int(job.get("count", 20))
            if count < 1:
                raise ValueError("must be at least 1")
        rng = random.Random(seed)
        for _ in range(count):
            factors = random_complex_factors(rng)
            cases.append(invert_from_factors(ring, factors, window))
    worst = 0.0
    windings_agree = True
    for pair in cases:
        engine = factorize(pair)
        for orc in (cepstral_factorize(pair.a), root_split_factorize(pair.a)):
            rep = compare(engine, orc)
            worst = max(worst, rep.max_diff)
            windings_agree = windings_agree and rep.winding_equal
    code = EXIT_OK if (worst <= tol and windings_agree) else EXIT_NUMERICAL
    return code, {"cases": len(cases), "max_diff": worst,
                  "windings_agree": windings_agree}


def _matrix_dumps(pair: InvertiblePair, ring: Ring,
                  window: Tuple[int, int]) -> Dict[str, str]:
    lo, hi = window
    view = (max(lo, -6), min(hi, 6))
    ring_w = laurent_ring(ring, "w")
    w = LaurentSeries.monomial(ring, 1)
    u = mx.build_U(pair.a, mx.Lattice.INTEGER, view)
    f_plus = mx.build_F("R+", ring_w, ring_w.one, w, view)
    f_minus = mx.build_F("R-", ring_w, ring_w.one, w, view)
    utilde = mx.build_Utilde(pair.a, ring_w, w, ring_w.const, view)
    return {
        "U(a)": u.dump(),
        "F^{R+}(1,w)": f_plus.dump(),
        "F^{R-}(1,w)": f_minus.dump(),
        "Utilde(a,w)": utilde.dump(),
    }


def main(argv: Optional[list] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="whlaurent",
        description="Wiener-Hopf factorization of Laurent series over "
                    "commutative coefficient rings")
    ap.add_argument("--input", required=True, help="JSON job file ('-' for stdin)")
    ap.add_argument("--mode", choices=MODES, help="override the job's mode")
    ap.add_argument("--window", type=int, help="override the truncation window size")
    ap.add_argument("--seed", type=int, help="seed for generated corpora")
    ap.add_argument("--tolerance", type=float, help="override floating tolerance")
    ap.add_argument("--dump-matrices", action="store_true",
                    help="attach windowed-matrix dumps to factorize output")
    args = ap.parse_args(argv)

    try:
        if args.input == "-":
            job = json.load(sys.stdin)
        else:
            with open(args.input) as fh:
                job = json.load(fh)
        if not isinstance(job, dict):
            raise JobError("job must be a JSON object")
        # the flags override the job's fields, and --tolerance the ring spec's own
        job.update((key, getattr(args, key)) for key in ("mode", "window", "seed")
                   if getattr(args, key) is not None)
        if args.tolerance is not None:
            with _field("ring"):
                job["ring"] = dict(job.get("ring", DEFAULT_RING), tolerance=args.tolerance)
        code, payload = run_job(job, args.dump_matrices)
    except (json.JSONDecodeError, OSError, JobError, RingError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION
    except (FactorizationError, WindowError, OracleError) as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_NUMERICAL
    print(json.dumps(payload, indent=2, default=str))
    return code


if __name__ == "__main__":
    sys.exit(main())
