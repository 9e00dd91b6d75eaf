"""Seeded workload definitions: the CLI calls of one round, and their checks.

A workload is a fixed sequence of `nilflow` CLI calls (a round), built from
a seed.  The seed draws the free rationals of the configs; the shape of each
config is fixed, so every seed does the same kind and amount of work.  Each
workload also names a small warm-up call for set-up and knows how to check
the outputs of its calls without calling back into the library.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

# test-7 setup of demos/demo_heisenberg_joining.json, scaled to n = 10^5
HEIS_SAMPLES = 10**5
HEIS_DT = "0.1"
HEIS_T_GRID = [5, 10]
HEIS_FUNCTIONS = [
    {"kind": "heis_vertical", "freq": [1, 0, 1]},
    {"kind": "heis_vertical", "freq": [0, 0, 1]},
    {"kind": "heis_abelian", "freq": [1, 1]},
]

TORUS_SAMPLES = 1000
TORUS_DT = "0.02"
TORUS_T_GRID = [1, 10, 500, 1000]

PET_MAX_DEPTH = 128
PET_A2_TRIPLES = 3


@dataclass
class Call:
    """One CLI invocation: command, config document, and its output check."""

    name: str
    command: str
    config: dict
    # work units of this call: certified PET steps or sample-steps
    work: Callable[[Dict[str, bytes]], int]
    check: Callable[[Dict[str, bytes]], List[str]]
    # a later call may build its config from this call's outputs
    then: Optional[Callable[[Dict[str, bytes]], "Call"]] = None


@dataclass
class Workload:
    name: str
    work_unit: str
    calls: List[Call]
    warmup: Call


# ----------------------------------------------------------------------
# seeded draws


def _small_rational(rng: random.Random) -> Fraction:
    """Nonzero p/q with |p| <= 5 and 1 <= q <= 4."""
    p = 0
    while p == 0:
        p = rng.randint(-5, 5)
    return Fraction(p, rng.randint(1, 4))


def _distinct_rationals(rng: random.Random, count: int) -> List[Fraction]:
    out: List[Fraction] = []
    while len(out) < count:
        r = _small_rational(rng)
        if r not in out:
            out.append(r)
    return out


# ----------------------------------------------------------------------
# output parsing shared by the checks


def _csv_rows(files: Dict[str, bytes]) -> List[List[str]]:
    return list(csv.reader(io.StringIO(files["report.csv"].decode())))


def _json(files: Dict[str, bytes], name: str) -> dict:
    return json.loads(files[name])


# ----------------------------------------------------------------------
# pet_descent


def _pet_work(files: Dict[str, bytes]) -> int:
    return len(_csv_rows(files)) - 1


def _check_pet(files: Dict[str, bytes]) -> List[str]:
    """Re-verify the descent certificate document step by step."""
    errors: List[str] = []
    cert = _json(files, "certificate.json")
    if cert.get("command") != "pet" or cert.get("certified") is not True:
        return ["certificate is not a certified pet trace"]
    trace = cert["trace"]
    steps = trace["steps"]
    if trace["depth"] != len(steps) or len(_csv_rows(files)) != len(steps) + 1:
        errors.append("depth, step list and report rows disagree")
    if sum(m["multiplicity"] for m in trace["final_family"]) > 1:
        errors.append("final family has more than one member")
    for i, step in enumerate(steps):
        c = step["certificate"]
        if c["kind"] == "weight_descent":
            if not c["after"] < c["before"]:
                errors.append(f"step {i}: weight count does not drop")
        elif c["kind"] == "class_size_descent":
            strict = False
            for _, _, after, before in c["per_weight"]:
                a = sorted(after, reverse=True)
                b = sorted(before, reverse=True)
                if len(a) != len(b) or any(x > y for x, y in zip(a, b)):
                    errors.append(f"step {i}: class sizes do not match")
                strict = strict or sum(a) < sum(b)
            if not strict:
                errors.append(f"step {i}: class sizes do not shrink")
        else:
            errors.append(f"step {i}: unknown certificate kind {c['kind']!r}")
        total = sum(m["multiplicity"] for m in step["family"])
        if total != sum(step["class_cardinalities"]) or total < 2:
            errors.append(f"step {i}: class cardinalities do not cover the family")
        if i + 1 < len(steps):
            nxt = steps[i + 1]
            kept = [m for m in step["derived"] if _is_nonconstant(m["map"])]
            if kept != nxt["family"]:
                errors.append(f"step {i}: derived family is not the next step's family")
    return errors


def _is_nonconstant(polymap: dict) -> bool:
    return any(coord for coord in polymap["coords"])


def _pet_call(name: str, algebra: dict, family: List[dict]) -> Call:
    config = {"algebra": algebra, "family": family, "max_depth": PET_MAX_DEPTH}
    return Call(name, "pet", config, _pet_work, _check_pet)


def pet_descent(seed: int) -> Workload:
    rng = random.Random(seed)
    a, b, c, d, e = (_small_rational(rng) for _ in range(5))
    h3 = {"builtin": "heisenberg", "dim": 3}
    calls = [
        _pet_call(
            "h3_triple",
            h3,
            [
                {"coords": {"x1": {"t": str(a)}}},
                {"coords": {"x1": {"t": str(b)}, "y1": {"t": str(c)}}},
                {"coords": {"z": {"t^2": str(d), "t": str(e)}}},
            ],
        )
    ]
    a2 = {"builtin": "abelian", "dim": 2}
    for k in range(PET_A2_TRIPLES):
        lin = _distinct_rationals(rng, 3)
        calls.append(
            _pet_call(
                f"a2_triple_{k}",
                a2,
                [
                    {"coords": {"e1": {"t^3": 1, "t": str(u)}, "e2": {"t": str(_small_rational(rng))}}}
                    for u in lin
                ],
            )
        )
    warmup = _pet_call(
        "warmup", h3, [{"coords": {"x1": {"t": str(a)}}}, {"coords": {"x1": {"t^2": str(d)}}}]
    )
    return Workload("pet_descent", "certified PET steps", calls, warmup)


# ----------------------------------------------------------------------
# averages shared by heis_joining and torus_dichotomy


def _steps(t_max, dt: str) -> int:
    steps = Fraction(str(t_max)) / Fraction(dt)
    assert steps.denominator == 1
    return int(steps)


def _estimates(files: Dict[str, bytes]) -> List[float]:
    return [float(row[1]) for row in _csv_rows(files)[1:]]


# Estimates are checked against oracles that share no code with the library.
# Acceptance test 7's Cauchy rule (gap <= 5 x max std error) is not used: it
# holds only at test 7's horizons (T >= 250), while at the horizons a run can
# afford, the deterministic O(1/T) transient is larger than the Monte Carlo
# error, so the rule fails on correct output.
#
# Heisenberg coordinates stay below 20, so float roundoff is ~1e-14.  The
# torus flow carries a t^3 term up to ~5e9 at T = 1000, whose float spacing
# is ~1e-6; the library floats it whole while the oracle reduces exactly.
HEIS_TOLERANCE = 1e-9
TORUS_TOLERANCE = 1e-5


def _check_estimates(got: Sequence[float], want: Sequence[float], what: str, tol: float) -> List[str]:
    if len(got) != len(want):
        return [f"{len(got)} {what}s where the oracle has {len(want)}"]
    return [
        f"{what} {g!r} differs from the oracle {w!r}"
        for g, w in zip(got, want)
        if not abs(g - w) <= tol
    ]


# ----------------------------------------------------------------------
# heis_joining


def _heis_config(g: Sequence[Fraction], n: int, t_grid: List, seed: int) -> dict:
    gs = [str(v) for v in g]
    return {
        "systems": [{"kind": "heisenberg3"}] * 3,
        "joining": "diagonal",
        "algebra": {"builtin": "heisenberg", "dim": 3},
        "family": [{"coords": {"x1": {"t": 1}}}, {"coords": {"y1": {"t": 1}}}],
        "functions": HEIS_FUNCTIONS,
        "t_grid": t_grid,
        "dt": HEIS_DT,
        "n_samples": n,
        "seed": seed,
        "invariance": {
            "tuples": [
                [gs, gs, gs],
                [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
            ]
        },
    }


def _heis_work(config: dict) -> Callable[[Dict[str, bytes]], int]:
    passes = 2 + len(config["invariance"]["tuples"])
    acted = len(config["systems"]) - 1
    steps = _steps(config["t_grid"][-1], config["dt"])
    total = config["n_samples"] * steps * acted * passes
    return lambda files: total


def _heis_mul(g: Sequence[Fraction], h: Sequence[Fraction]) -> tuple:
    """Exact product in H3 exponential coordinates, with [x1, y1] = z."""
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + (g[0] * h[1] - g[1] * h[0]) / 2)


def _heis_value(fn: dict, g: Sequence[Fraction], pts: np.ndarray) -> np.ndarray:
    """Test function at the fundamental-domain representative of g x, row-wise.

    x, y are reduced mod 1; clearing their integer parts fx, fy by a right
    lattice translation moves the central coordinate by
    X Y / 2 - X fy - xr yr / 2, which is then reduced mod 1 as well.
    """
    a, b, c = (float(v) for v in g)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    X, Y = a + x, b + y
    fx, fy = np.floor(X), np.floor(Y)
    xr, yr = X - fx, Y - fy
    Z = c + z + 0.5 * (a * y - b * x) + X * Y / 2 - X * fy - xr * yr / 2
    freq = fn["freq"]
    phase = freq[0] * xr + freq[1] * yr
    if fn["kind"] == "heis_vertical":
        phase = phase + freq[2] * (Z - np.floor(Z))
    return np.cos(2 * math.pi * phase)


def _heis_oracle(config: dict):
    """Scan estimates and invariance deviations of a heis_joining config.

    The family is fixed to x1 = t, y1 = t, so factor i's flow at time t is
    t e_i; a translation tuple (g_0, g_1, g_2) turns it into g_i (t e_i) g_0^-1.
    """
    dt = Fraction(config["dt"])
    n = config["n_samples"]
    pts = np.random.default_rng(config["seed"]).random((n, 3))
    f0, *fns = config["functions"]
    base = _heis_value(f0, (0, 0, 0), pts)
    snaps = [_steps(T, config["dt"]) for T in config["t_grid"]]
    unit = [(1, 0, 0), (0, 1, 0)]

    def estimates(tup) -> List[float]:
        g0_inv = tuple(-v for v in tup[0])
        acc = np.zeros(n)
        out = []
        for j in range(snaps[-1]):
            t = Fraction(2 * j + 1, 2) * dt
            vals = base.copy()
            for i, fn in enumerate(fns):
                flow = tuple(t * u for u in unit[i])
                vals *= _heis_value(fn, _heis_mul(_heis_mul(tup[i + 1], flow), g0_inv), pts)
            acc += vals
            if j + 1 in snaps:
                out.append(float((acc / (j + 1)).mean()))
        return out

    zero = (Fraction(0),) * 3
    scan = estimates((zero, zero, zero))
    deviations = []
    for tup in config["invariance"]["tuples"]:
        shifted = estimates([tuple(Fraction(v) for v in el) for el in tup])
        deviations.append([abs(u - v) for u, v in zip(shifted, scan)])
    return scan, deviations


def _check_heis(config: dict) -> Callable[[Dict[str, bytes]], List[str]]:
    def check(files: Dict[str, bytes]) -> List[str]:
        scan, deviations = _heis_oracle(config)
        errors = _check_estimates(_estimates(files), scan, "estimate", HEIS_TOLERANCE)
        got = _json(files, "certificate.json")["invariance"]["deviations"]
        for row, want in zip(got, deviations):
            errors += _check_estimates(row, want, "deviation", HEIS_TOLERANCE)
        return errors

    return check


def _heis_call(name: str, g, n: int, t_grid: List, seed: int) -> Call:
    config = _heis_config(g, n, t_grid, seed)
    return Call(name, "average", config, _heis_work(config), _check_heis(config))


def heis_joining(seed: int) -> Workload:
    rng = random.Random(seed)
    g = [Fraction(rng.randint(1, 4), rng.randint(5, 9)) for _ in range(2)] + [Fraction(0)]
    mc_seed = rng.randint(0, 2**31 - 1)
    calls = [_heis_call("joining", g, HEIS_SAMPLES, HEIS_T_GRID, mc_seed)]
    return Workload("heis_joining", "sample-steps", calls, threads_probe(seed))


def threads_probe(seed: int) -> Call:
    """A reduced heis_joining call, small enough to rerun at several thread counts."""
    rng = random.Random(seed)
    g = [Fraction(rng.randint(1, 4), rng.randint(5, 9)) for _ in range(2)] + [Fraction(0)]
    return _heis_call("threads_probe", g, 4000, [1, 2], rng.randint(0, 2**31 - 1))


# ----------------------------------------------------------------------
# torus_dichotomy
#
# The family is e1 = a t^3 + h1 t + c h1 h2 t^2, e2 = a t^3 + h2 t + c s^2 t^2
# in the variables (t, h1, h2).  Under the functional [1, -1] it becomes
#   (h1 - h2) t + c (h1 h2 - s^2) t^2,
# whose vanishing variety {h1 = h2, h1 h2 = s^2} holds the exceptional
# point (s, s).  With s not an integer, the generic sampler's first integer
# draw already avoids it.


def _torus_family(a: Fraction, c: Fraction, s: Fraction) -> List[dict]:
    return [
        {
            "coords": {
                "e1": {"t^3": str(a), "h1 t": 1, "h1 h2 t^2": str(c)},
                "e2": {"t^3": str(a), "h2 t": 1, "t^2": str(c * s * s)},
            }
        }
    ]


def _torus_phase(c: Fraction, s: Fraction, h: Sequence[Fraction]) -> Callable[[Fraction], Fraction]:
    h1, h2 = h
    lin = h1 - h2
    quad = c * (h1 * h2 - s * s)
    return lambda t: lin * t + quad * t * t


def _torus_oracle(config: dict, phase: Callable[[Fraction], Fraction]) -> List[float]:
    """Estimates the average must reproduce, by a route that avoids the library.

    With theta = 2 pi (x1 - x2) per Haar draw and psi(t) the functional
    applied to the flow, each sample's time average of
    cos(theta) cos(theta + psi(t)) is cos^2(theta) C - cos(theta) sin(theta) S,
    where C, S are midpoint averages of cos psi and sin psi.  psi is reduced
    mod 1 exactly before it is floated.
    """
    dt = Fraction(config["dt"])
    draws = np.random.default_rng(config["seed"]).random((config["n_samples"], 2))
    theta = 2 * math.pi * (draws[:, 0] - draws[:, 1])
    steps = _steps(config["t_grid"][-1], config["dt"])
    phases = np.empty(steps)
    for j in range(steps):
        v = phase(Fraction(2 * j + 1, 2) * dt)
        phases[j] = float(v - math.floor(v))
    cos_sum = np.cumsum(np.cos(2 * math.pi * phases))
    sin_sum = np.cumsum(np.sin(2 * math.pi * phases))
    out = []
    for T in config["t_grid"]:
        m = _steps(T, config["dt"])
        C, S = cos_sum[m - 1] / m, sin_sum[m - 1] / m
        out.append(float(np.mean(np.cos(theta) ** 2 * C - np.cos(theta) * np.sin(theta) * S)))
    return out


def _torus_average_call(
    name: str, family, h: Sequence[Fraction], phase, seed: int,
    t_grid: List = TORUS_T_GRID, n: int = TORUS_SAMPLES,
) -> Call:
    config = {
        "systems": [{"kind": "torus", "dim": 2}] * 2,
        "joining": "diagonal",
        "algebra": {"builtin": "abelian", "dim": 2},
        "vars": ["t", "h1", "h2"],
        "family": family,
        "h": [str(v) for v in h],
        "functions": [{"kind": "torus_character", "freq": [1, -1]}] * 2,
        "t_grid": t_grid,
        "dt": TORUS_DT,
        "n_samples": n,
        "seed": seed,
    }
    total = n * _steps(t_grid[-1], TORUS_DT)

    def check(files: Dict[str, bytes]) -> List[str]:
        return _check_estimates(_estimates(files), _torus_oracle(config, phase), "estimate", TORUS_TOLERANCE)

    return Call(name, "average", config, lambda files: total, check)


def torus_dichotomy(seed: int) -> Workload:
    rng = random.Random(seed)
    a, c = _small_rational(rng), _small_rational(rng)
    s = Fraction(2 * rng.randint(1, 4) + 1, 2)
    mc_seed = rng.randint(0, 2**31 - 1)
    family = _torus_family(a, c, s)

    def generic_check(files: Dict[str, bytes]) -> List[str]:
        cert = _json(files, "certificate.json")
        h = [Fraction(cert["point"][name]) for name in ("h1", "h2")]
        if _torus_phase(c, s, h)(Fraction(1)) == 0 and _torus_phase(c, s, h)(Fraction(2)) == 0:
            return [f"certified point {h} lies on the vanishing variety"]
        return []

    def at_generic(files: Dict[str, bytes]) -> Call:
        point = _json(files, "certificate.json")["point"]
        h = [Fraction(point["h1"]), Fraction(point["h2"])]
        return _torus_average_call("generic_average", family, h, _torus_phase(c, s, h), mc_seed)

    generic = Call(
        "generic",
        "generic",
        {
            "algebra": {"builtin": "abelian", "dim": 2},
            "vars": ["t", "h1", "h2"],
            "family": family,
            "functionals": [[1, -1]],
            "seed": mc_seed,
        },
        lambda files: 0,
        generic_check,
        then=at_generic,
    )
    exceptional = _torus_average_call(
        "exceptional_average", family, (s, s), _torus_phase(c, s, (s, s)), mc_seed
    )
    warmup = _torus_average_call(
        "warmup", family, (s, s), _torus_phase(c, s, (s, s)), mc_seed, t_grid=[5, 10], n=200
    )
    return Workload("torus_dichotomy", "sample-steps", [generic, exceptional], warmup)


WORKLOADS = {
    "pet_descent": pet_descent,
    "heis_joining": heis_joining,
    "torus_dichotomy": torus_dichotomy,
}
