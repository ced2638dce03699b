"""Seeded symbol corpora, the timed call per symbol, and the output checks.

A workload is a ``Workload`` record: a corpus generator, the call that is
timed for one symbol, and a check that compares the call's output with the
closed form the generator implies.  Every corpus is built in blocks.  A
block fixes the symbol shapes (rings, factor kinds and counts, monomial
exponents and those of the orthogonal multipliers, complex moduli,
scalings) and the seed draws the rest (rational parameters, units, complex
phases): the cost of a symbol follows its shape, so runs with different
seeds load the engine alike.  A run times every symbol of its corpus once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import whlaurent as wl
from whlaurent import cli, corpus

Q = wl.rational_ring()
QQ = wl.product_ring(Q, 2)
C = wl.complex_ring()

COMPLEX_TOL = 1e-8        # closed-form and oracle agreement over C
CROSS_TOL = 1e-6          # criterion-8 bound on direct vs derived middle factor
MONO_UNITS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]


class CheckFailed(Exception):
    """The engine returned an output that disagrees with the reference."""


@dataclass
class Symbol:
    """One unit of work: the library input and the reference output.

    ``minus``/``tilde``/``plus`` map exponents to coefficients; over ``Q^2``
    a coefficient is a tuple of components.
    """

    payload: Any
    minus: Dict[int, Any]
    tilde: Dict[int, Any]
    plus: Dict[int, Any]
    winding: Optional[int]


@dataclass
class Workload:
    name: str
    block: int                       # symbols per corpus block
    min_blocks: int                  # a run times at least this many blocks
    rate: float                      # symbols per requested second
    cal_reps: int                    # kernel calls timed before each symbol
    make_block: Callable[[random.Random], List[Symbol]]
    run: Callable[[Any], Any]
    check: Callable[[Symbol, Any, Dict[str, float]], None]


# -- closed forms -----------------------------------------------------

def _poly_mul(p: Dict[int, Any], q: Dict[int, Any]) -> Dict[int, Any]:
    out: Dict[int, Any] = {}
    for i, x in p.items():
        for j, y in q.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v != 0}


def _closed_form(factors: list) -> Tuple[Dict[int, Any], Dict[int, Any], Dict[int, Any], int]:
    """(pi_minus, pi_tilde, pi_plus, winding) of a scalar factor list."""
    minus: Dict[int, Any] = {0: 1}
    plus: Dict[int, Any] = {0: 1}
    unit: Any = 1
    p = 0
    for f in factors:
        if isinstance(f, wl.Antiholo):
            minus = _poly_mul(minus, {0: 1, -1: -f.alpha})
        elif isinstance(f, wl.Holo):
            plus = _poly_mul(plus, {0: 1, 1: -f.beta})
        else:
            unit = unit * f.u
            p += f.p
    return minus, {p: unit}, plus, p


def _component(f: Any, i: int) -> Any:
    if isinstance(f, wl.Antiholo):
        return wl.Antiholo(f.alpha[i])
    if isinstance(f, wl.Holo):
        return wl.Holo(f.beta[i])
    return wl.Mono(f.p, f.u[i])


def _zip_components(parts: List[Dict[int, Any]]) -> Dict[int, tuple]:
    keys = set().union(*parts)
    return {n: tuple(Fraction(d.get(n, 0)) for d in parts) for n in keys}


def _half_window(factors: list, extra: int = 0) -> int:
    """Smallest symmetric inverse window the engine accepts, at least 32."""
    p = sum(f.p for f in factors if isinstance(f, wl.Mono))
    lo = p - sum(isinstance(f, wl.Antiholo) for f in factors)
    hi = p + sum(isinstance(f, wl.Holo) for f in factors)
    return max(32, 3 * (max(abs(lo), abs(hi)) + extra) + 1)


def _rational_factors(rng: random.Random, shape: list) -> list:
    """Factors of a fixed shape ("A" antiholomorphic, "H" holomorphic, an int
    p for a monomial z^p) with parameters and units drawn as
    ``corpus.random_rational_factors`` draws them."""
    out: list = []
    for kind in shape:
        if kind == "A":
            out.append(wl.Antiholo(corpus.random_rational_parameter(rng)))
        elif kind == "H":
            out.append(wl.Holo(corpus.random_rational_parameter(rng)))
        else:
            out.append(wl.Mono(kind, rng.choice(MONO_UNITS)))
    return out


# -- exact_low: small Q and Q^2 JSON jobs through cli.run_job ----------

def _fmt_q2(x: tuple) -> str:
    return "(%s|%s)" % x


def _factor_json(f: Any, fmt: Callable[[Any], str]) -> Dict[str, Any]:
    if isinstance(f, wl.Antiholo):
        return {"type": "antiholo", "alpha": fmt(f.alpha)}
    if isinstance(f, wl.Holo):
        return {"type": "holo", "beta": fmt(f.beta)}
    return {"type": "mono", "p": f.p, "u": fmt(f.u)}


def _q2_factors(rng: random.Random, base: list) -> list:
    """Pair each scalar factor with an independent second component."""
    out = []
    for f in base:
        if isinstance(f, wl.Antiholo):
            out.append(wl.Antiholo((f.alpha, corpus.random_rational_parameter(rng))))
        elif isinstance(f, wl.Holo):
            out.append(wl.Holo((f.beta, corpus.random_rational_parameter(rng))))
        else:
            out.append(wl.Mono(f.p, (f.u, rng.choice(MONO_UNITS))))
    return out


def _orthogonal_multiplier(rng: random.Random, exps: Tuple[int, int]) -> wl.InvertiblePair:
    """Orthogonal Q^2 series with component exponents ``exps`` (distinct, so
    a true idempotent sum); the units come from the seed.  The exponents set
    the cost of the job, so they are fixed per slot."""
    while True:
        o = corpus.random_orthogonal_pair(2, rng)
        if all(o.a.coeffs.get(e, (0, 0))[i] != 0 for i, e in enumerate(exps)):
            return o


def _exact_low_symbol(rng: random.Random, ring: str, shape: list,
                      exps: Tuple[int, int]) -> Symbol:
    base = _rational_factors(rng, shape)
    if ring == "Q":
        minus, tilde, plus, p = _closed_form(base)
        job = {"ring": {"kind": "rational"}, "window": _half_window(base),
               "factors": [_factor_json(f, str) for f in base]}
        return Symbol(job, _zip_components([minus]), _zip_components([tilde]),
                      _zip_components([plus]), p)
    fs = _q2_factors(rng, base)
    forms = [_closed_form([_component(f, i) for f in fs]) for i in range(2)]
    minus = _zip_components([fm[0] for fm in forms])
    plus = _zip_components([fm[2] for fm in forms])
    job: Dict[str, Any] = {"ring": {"kind": "product", "arity": 2}}
    if ring == "Q2":
        job["window"] = _half_window(fs)
        job["factors"] = [_factor_json(f, _fmt_q2) for f in fs]
        return Symbol(job, minus, _zip_components([fm[1] for fm in forms]), plus,
                      forms[0][3])
    # Q^2 times an orthogonal multiplier, submitted as coefficients + inverse
    o = _orthogonal_multiplier(rng, exps)
    half = _half_window(fs, extra=3)
    a = wl.factors_to_series(QQ, fs).mul(o.a)
    b = wl.invert_from_factors(QQ, fs, (-half - 3, half + 3)).b.mul(o.b)
    job["window"] = half
    job["coefficients"] = [{"n": n, "c": _fmt_q2(c)} for n, c in sorted(a.coeffs.items())]
    job["inverse"] = [{"n": n, "c": _fmt_q2(c)} for n, c in sorted(b.coeffs.items())
                      if -half <= n <= half]
    tilde_parts = []
    for i, fm in enumerate(forms):
        (p, u), = fm[1].items()
        (e, v), = ((n, c[i]) for n, c in o.a.coeffs.items() if c[i] != 0)
        tilde_parts.append({p + e: u * v})
    return Symbol(job, minus, _zip_components(tilde_parts), plus, None)


def _low_shape(count: int, slot: int) -> list:
    """Rotate the factor kinds and monomial exponents -2..2 over the slots."""
    return [("A", "H", (slot + 2 * j) % 5 - 2)[(slot + j) % 3] for j in range(count)]


# component exponents of the orthogonal multipliers, one pair per shape
ORTHOGONAL_EXPS = [(0, 3), (1, -1), (3, 1), (-3, -2), (-1, 2),
                   (0, -2), (2, -3), (3, 0), (-2, 1), (-1, -3)]

# Q : Q^2 : Q^2 x orthogonal = 3 : 2 : 1, each with 1..5 factors in two shapes
EXACT_LOW_SLOTS = [(ring, _low_shape(count, 10 * min(r, 3) + 2 * count + rot),
                    ORTHOGONAL_EXPS[2 * count - 2 + rot])
                   for r, ring in enumerate(("Q", "Q", "Q", "Q2", "Q2", "Q2orth"))
                   for count in range(1, 6) for rot in (0, 1)]


def _exact_low_block(rng: random.Random) -> List[Symbol]:
    return [_exact_low_symbol(rng, ring, shape, exps) for ring, shape, exps in EXACT_LOW_SLOTS]


def _run_job(job: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    # looked up at call time, so that the traced run sees its wrapper
    return cli.run_job(job)


def parse_coeff(s: str) -> tuple:
    s = s.strip()
    if s.startswith("("):
        return tuple(Fraction(x) for x in s[1:-1].split("|"))
    return (Fraction(s),)


def _check_job(sym: Symbol, out: Tuple[int, Dict[str, Any]], diffs: Dict[str, float]) -> None:
    code, payload = out
    if code != 0:
        raise CheckFailed("exit code %d" % code)
    for key, want in (("pi_minus", sym.minus), ("pi_tilde", sym.tilde),
                      ("pi_plus", sym.plus)):
        got = {int(item["n"]): parse_coeff(item["c"]) for item in payload[key]}
        if got != want:
            raise CheckFailed(key)
    if payload["winding"] != sym.winding:
        raise CheckFailed("winding")
    if payload["residual"] != 0:
        raise CheckFailed("residual")


# -- exact_high: Q symbols of 7..11 geometric factors plus a monomial ---

# (antiholomorphic, holomorphic, monomial exponent): the split sets the
# block sizes and so the cost, which would otherwise swing with the seed.
EXACT_HIGH_SHAPES = [(g // 3, g - g // 3, 2 - i % 5) for i, g in enumerate(range(7, 12))] + \
                    [(g - g // 3, g // 3, -2 + i % 5) for i, g in enumerate(range(7, 12))]


def _exact_high_block(rng: random.Random) -> List[Symbol]:
    out = []
    for anti, holo, exp in EXACT_HIGH_SHAPES:
        fs = _rational_factors(rng, ["A"] * anti + ["H"] * holo + [exp])
        minus, tilde, plus, p = _closed_form(fs)
        out.append(Symbol((Q, fs, _half_window(fs)), minus, tilde, plus, p))
    return out


def _run_factorize(payload: Tuple[wl.Ring, list, int]) -> wl.FactorizationResult:
    ring, fs, half = payload
    pair = wl.invert_from_factors(ring, fs, (-half, half))
    return wl.factorize(pair)


def _check_exact(sym: Symbol, res: wl.FactorizationResult, diffs: Dict[str, float]) -> None:
    for key, got, want in (("pi_minus", res.pi_minus, sym.minus),
                           ("pi_tilde", res.pi_tilde, sym.tilde),
                           ("pi_plus", res.pi_plus, sym.plus)):
        if got.coeffs != want:
            raise CheckFailed(key)
    if res.winding != sym.winding:
        raise CheckFailed("winding")
    if res.residual != 0:
        raise CheckFailed("residual")


# -- complex_high: C symbols of 8..14 factors, half of them rescaled ----

GOLDEN = 0.6180339887498949


def _complex_factors(rng: random.Random, anti: int, holo: int, monos: List[int],
                     offset: int) -> list:
    """Geometric factors with moduli spread over [0.1, 0.6] by a golden-ratio
    sequence starting at ``offset``, and random phases.  The sampling cost
    follows the largest modulus, so only the phases are left to the seed."""
    rs = [0.1 + 0.5 * ((offset + j) * GOLDEN % 1.0) for j in range(anti + holo)]
    fs: list = [wl.Antiholo(corpus.random_complex_parameter(rng, (r, r))) for r in rs[:anti]]
    fs += [wl.Holo(corpus.random_complex_parameter(rng, (r, r))) for r in rs[anti:]]
    fs += [wl.Mono(p, complex(1.0)) for p in monos]
    rng.shuffle(fs)
    return fs


# (antiholomorphic, holomorphic, monomial exponents, k of the Mono(0, 10^k)
# on the scaled copy): 8..14 factors, each count once plain and once scaled.
# The shapes cost about 0.08, 0.08, 0.2, 0.2, 0.45, 0.45 and 0.8 s; the
# failing k = 3 and k = 2 copies sit on the 0.45 s shapes, so that the
# median of the passed symbols stays inside the 0.2 s group.
COMPLEX_HIGH_SHAPES = [(4, 3, [1], 0), (4, 3, [1, -1], -1), (5, 4, [1], 1),
                       (4, 5, [1, -1], -2), (6, 5, [1], 3), (5, 6, [1, -1], 2),
                       (7, 6, [1], -3)]


def _complex_high_block(rng: random.Random) -> List[Symbol]:
    out = []
    for scaled in (False, True):
        for i, (anti, holo, monos, k) in enumerate(COMPLEX_HIGH_SHAPES):
            fs = _complex_factors(rng, anti, holo, monos, 16 * i)
            if scaled:
                fs.append(wl.Mono(0, complex(10.0 ** k)))
            minus, tilde, plus, p = _closed_form(fs)
            out.append(Symbol((C, fs, _half_window(fs)), minus, tilde, plus, p))
    return out


def _sup_diff(got: Dict[int, Any], want: Dict[int, Any]) -> float:
    return max((abs(complex(got.get(n, 0)) - complex(want.get(n, 0)))
                for n in set(got) | set(want)), default=0.0)


def _check_closed_complex(sym: Symbol, minus: wl.LaurentSeries, tilde: wl.LaurentSeries,
                          plus: wl.LaurentSeries, diffs: Dict[str, float]) -> None:
    for key, got, want in (("pi_minus", minus, sym.minus), ("pi_tilde", tilde, sym.tilde),
                           ("pi_plus", plus, sym.plus)):
        d = _sup_diff(got.coeffs, want)
        diffs["closed_form"] = max(diffs.get("closed_form", 0.0), d)
        if not d <= COMPLEX_TOL:
            raise CheckFailed(key)


def _check_complex(sym: Symbol, res: wl.FactorizationResult, diffs: Dict[str, float]) -> None:
    _check_closed_complex(sym, res.pi_minus, res.pi_tilde, res.pi_plus, diffs)
    if res.winding != sym.winding:
        raise CheckFailed("winding")
    a = wl.factors_to_series(C, sym.payload[1])
    for name, oracle in (("cepstral", wl.cepstral_factorize),
                         ("root_split", wl.root_split_factorize)):
        rep = wl.compare(res, oracle(a))
        diffs["oracle"] = max(diffs.get("oracle", 0.0), rep.max_diff)
        if not rep.max_diff <= COMPLEX_TOL:
            raise CheckFailed(name)
        if not rep.winding_equal:
            raise CheckFailed(name + "_winding")


# -- middle_direct: the criterion-8 cross-check route -------------------

# every mix of three antiholomorphic, holomorphic and monomial factors
MIDDLE_SHAPES = [(3, 0, []), (2, 1, []), (1, 2, []), (0, 3, []), (2, 0, [1]),
                 (1, 1, [-1]), (0, 2, [1]), (1, 0, [1, 1]), (0, 1, [-1, -1]),
                 (0, 0, [1, -1, 1])]


def _middle_block(rng: random.Random) -> List[Symbol]:
    out = []
    for i, (anti, holo, monos) in enumerate(MIDDLE_SHAPES):
        fs = _complex_factors(rng, anti, holo, monos, 3 * i)
        minus, tilde, plus, p = _closed_form(fs)
        out.append(Symbol(fs, minus, tilde, plus, p))
    return out


def _run_middle(fs: list) -> tuple:
    pair = wl.invert_from_factors(C, fs, (-48, 48))
    pp = wl.pi_plus(pair)
    pm = wl.pi_minus(pair)
    derived = wl.pi_tilde_derived(pair, pm, pp, (-12, 12))
    direct, tail = wl.pi_tilde_direct(pair, windows=(24, 32))
    return pm, derived, pp, direct, tail


def _check_middle(sym: Symbol, out: tuple, diffs: Dict[str, float]) -> None:
    pm, derived, pp, direct, tail = out
    _check_closed_complex(sym, pm, derived, pp, diffs)
    d = direct.sup_diff(derived)
    diffs["cross"] = max(diffs.get("cross", 0.0), d)
    if not (d <= max(tail, 1e-9) and d <= CROSS_TOL):
        raise CheckFailed("cross")


# rates: about 0.8 of the symbols a second the seed's engine does at the
# reference speed of speed.py, so that a run takes about --seconds
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("exact_low", len(EXACT_LOW_SLOTS), 4, 21.0, 1,
             _exact_low_block, _run_job, _check_job),
    Workload("exact_high", len(EXACT_HIGH_SHAPES), 2, 1.3, 6,
             _exact_high_block, _run_factorize, _check_exact),
    Workload("complex_high", 2 * len(COMPLEX_HIGH_SHAPES), 4, 4.9, 3,
             _complex_high_block, _run_factorize, _check_complex),
    Workload("middle_direct", len(MIDDLE_SHAPES), 2, 0.6, 12,
             _middle_block, _run_middle, _check_middle),
)}


def corpus_blocks(wl_: Workload, seconds: float) -> int:
    return max(wl_.min_blocks, round(seconds * wl_.rate / wl_.block))


def make_corpus(wl_: Workload, seed: int, seconds: float) -> List[Symbol]:
    """The symbols of one run: ``corpus_blocks`` whole blocks.  The count
    depends only on ``seconds``, so a seed always gives the same symbols
    and the same failures."""
    rng = random.Random("%s:%d" % (wl_.name, seed))
    out: List[Symbol] = []
    for _ in range(corpus_blocks(wl_, seconds)):
        out.extend(wl_.make_block(rng))
    return out
