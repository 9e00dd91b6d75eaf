"""Monte Carlo time averages over joinings, with convergence and invariance diagnostics.

Every estimator follows the same discipline: flows are evaluated exactly
along the arithmetic time grid (midpoints for the averages, half steps for
correlation trajectories) and each coordinate is floated once, the
composite midpoint rule handles the time integral, and each estimate carries
the Monte Carlo standard error of its per-sample time averages.  Fixed seed
and draw order make every number bit-reproducible.

Each flow enters as `_pinned(sys, phi, h)`: pushed into its system's own
algebra (`dynamics.pushed`) and pinned at the parameter point h, a map of t
alone.  One integer Horner pass (`_horner`) gives each of its coordinates at
every grid time as N_j / den, and `_flow_floats` floats it straight from
there: N_j / den is a correctly rounded int division, equal to
float(Fraction(N_j, den)) bit for bit.  An invariance tuple's flows take
the same path: each is the pinned map g_i phi_i g_0^{-1}, built once by BCH
on polynomial coordinates in the system's algebra, so no exact group
element is built per grid time.

The time loop runs over blocks of samples.  Each `dynamics.step_values`
call computes one factor on a slab of consecutive time steps, and a slab
holds at most BLOCK_ROWS samples x steps; each sample's arithmetic is the
same whatever the blocks, slabs and threads.

Every estimator first runs `_check_factors`: each test function must fit
its system (`dynamics.check_function`) and each flow act on its system
(`dynamics.acting_rows`).  `scan_with_invariance` also refuses, before any
draw, a translation tuple of the wrong arity or with an element outside its
factor's algebra.  `_joint_pass` is the one pass over the draws.
`scan_with_invariance` makes it once for the report, which is also the
baseline of every invariance deviation, and once per tuple.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import (
    NilSystem,
    TestFunction,
    act_array,
    acting_rows,
    check_function,
    eval_fn_array,
    functional,
    haar_array,
    pushed,
    step_values,
)
from .errors import ConfigError
from .lie_core import GroupElement, bch_coords, group_inverse
from .multipoly import MultiPoly, as_fraction
from .pet import PolyFamily
from .poly_maps import PolyMap
from .zariski import MeagreSet, generic_sample, is_proper, vanishing_variety

Rational = Union[int, str, Fraction]

# samples x time steps per slab of the time loop: a slab's arrays stay in
# cache
BLOCK_ROWS = 8192


# ----------------------------------------------------------------------
# joinings


class JoiningSpec:
    """A coupling of k+1 component systems, sampled rather than represented.

    diagonal: one Haar draw copied to every factor; requires identical systems.
    product: independent Haar draws, factor i seeded with base_seed + i.
    graph: a diagonal draw pushed forward by fixed elements g_0..g_k; such a
    pushforward need not stay invariant under the diagonal flow, which is
    exactly what the invariance diagnostics are meant to exhibit.
    """

    __slots__ = ("systems", "kind", "elements")

    def __init__(
        self,
        systems: Sequence[NilSystem],
        kind: str = "diagonal",
        elements: Sequence[GroupElement] | None = None,
    ):
        systems = tuple(systems)
        if not systems:
            raise ValueError("a joining needs at least the base factor")
        if kind not in ("diagonal", "product", "graph"):
            raise ValueError(f"unknown joining kind {kind!r}")
        if kind in ("diagonal", "graph"):
            for sys in systems[1:]:
                if sys != systems[0]:
                    raise ValueError(f"{kind} joinings require identical component systems")
        if kind == "graph":
            if elements is None or len(elements) != len(systems):
                raise ValueError("graph joinings take one push element per factor")
            elements = tuple(elements)
            for g, sys in zip(elements, systems):
                if g.algebra != sys.algebra:
                    raise ValueError("push element algebra does not match its factor")
        else:
            if elements is not None:
                raise ValueError(f"{kind} joinings take no push elements")
            elements = None
        self.systems = systems
        self.kind = kind
        self.elements = elements


def _draw_factors(joining: JoiningSpec, n: int, seed: int) -> List[np.ndarray]:
    if joining.kind == "product":
        return [haar_array(sys, seed + i, n) for i, sys in enumerate(joining.systems)]
    base = haar_array(joining.systems[0], seed, n)
    if joining.kind == "diagonal":
        return [base for _ in joining.systems]
    return [
        act_array(sys, g, base)
        for sys, g in zip(joining.systems, joining.elements)
    ]


# ----------------------------------------------------------------------
# time grids and flow evaluation


def _step_count(T: Rational, dt: Fraction, name: str = "T") -> int:
    T = as_fraction(T)
    if T <= 0:
        raise ConfigError(f"horizon {name} must be positive")
    steps = T / dt
    if steps.denominator != 1:
        raise ConfigError(f"dt={dt} does not divide {name}={T}")
    return int(steps)


def _positive_dt(dt: Rational) -> Fraction:
    dt = as_fraction(dt)
    if dt <= 0:
        raise ConfigError("dt must be positive")
    return dt


def _scan_steps(t_grid: Sequence[Rational], dt: Rational) -> Tuple[Fraction, List[int]]:
    """Exact dt and the midpoint step count of every horizon, validated."""
    dt = _positive_dt(dt)
    if not t_grid:
        raise ConfigError("horizon grid is empty")
    snapshots = [_step_count(T, dt) for T in t_grid]
    if any(b <= a for a, b in zip(snapshots, snapshots[1:])):
        raise ConfigError("horizon grid must be strictly increasing")
    return dt, snapshots


def _pinned(sys: NilSystem, phi: PolyMap, h: Sequence[Rational]) -> PolyMap:
    """The flow u o phi(t, h) on sys, in sys's algebra, as a map of t alone."""
    params = phi.vars[1:]
    h = tuple(as_fraction(v) for v in h)
    if len(h) != len(params):
        raise ConfigError(f"parameter point has arity {len(h)}, map needs {len(params)}")
    point = {name: (value, {}) for name, value in zip(params, h)}
    coords = [c.substitute(phi.vars, point) for c in pushed(sys, phi).coords]
    for name in params:  # each parameter now has degree 0, so this drops it exactly
        coords = [c.coefficient_of(name, 0) for c in coords]
    return PolyMap(sys.algebra, phi.vars[:1], coords, domain=[v for v in phi.domain if v not in params])


def _horner(
    coefs: Dict[int, Fraction], start: Fraction, step: Fraction, count: int
) -> Tuple[List[int], int]:
    """Integers N_j and one denominator den with sum_k coefs[k] t_j^k = N_j / den.

    With t_j = start + j*step = (a + j*b)/q and the coefficients scaled to
    integers over a common denominator D, N_j is an integer Horner sum over
    den = D*q^d, so each value costs d integer multiply-adds.
    """
    if not coefs:
        return [0] * count, 1
    q = math.lcm(start.denominator, step.denominator)
    a = start.numerator * (q // start.denominator)
    b = step.numerator * (q // step.denominator)
    d = max(coefs)
    D = math.lcm(*(c.denominator for c in coefs.values()))
    # N(x) = sum_k D*c_k * x^k * q^(d-k), from the top coefficient down
    scaled = [
        coefs[k].numerator * (D // coefs[k].denominator) * q ** (d - k) if k in coefs else 0
        for k in range(d, -1, -1)
    ]
    den = D * q**d
    nums = []
    for x in range(a, a + count * b, b):
        n = 0
        for c in scaled:
            n = n * x + c
        nums.append(n)
    return nums, den


def _flow_floats(phi: PolyMap, start: Fraction, step: Fraction, count: int) -> np.ndarray:
    """Float coordinates of the pinned map phi at start + j*step, one row per j.

    Equal to the floats of the exact elements phi.eval gives, bit for bit:
    each float is N_j / den, which Python rounds correctly, as it does
    float(Fraction(N_j, den)).
    """
    out = np.empty((count, len(phi.coords)))
    for i, poly in enumerate(phi.coords):
        nums, den = _horner({exp[0]: c for exp, c in poly.terms.items()}, start, step, count)
        out[:, i] = np.fromiter((n / den for n in nums), dtype=float, count=count)
    return out


def _translated(g: GroupElement, phi: PolyMap, g0: GroupElement) -> PolyMap:
    """The map g phi g0^{-1}: two BCH products on coordinate vectors, with
    g and g0^{-1} as constant polynomials in phi's variables."""
    zero = MultiPoly.zero(phi.vars)
    left, right = ([MultiPoly.const(phi.vars, c) for c in x.coords] for x in (g, group_inverse(g0)))
    coords = bch_coords(phi.algebra, bch_coords(phi.algebra, left, phi.coords, zero=zero), right, zero=zero)
    return PolyMap(phi.algebra, phi.vars, coords)


def _slab_steps(rows: int) -> int:
    """Time steps per `step_values` call for a block of `rows` samples, at most BLOCK_ROWS values."""
    return max(1, BLOCK_ROWS // rows)


# ----------------------------------------------------------------------
# core estimator


def _check_factors(systems: Sequence[NilSystem], maps: Sequence[PolyMap], fns: Sequence[TestFunction]) -> None:
    """Refuse factors that do not fit: one test function per system, one
    map per system after the base, each acting on its system."""
    k = len(systems) - 1
    if len(maps) != k:
        raise ConfigError(f"family has {len(maps)} maps for a {k + 1}-factor joining")
    if len(fns) != k + 1:
        raise ConfigError(f"need {k + 1} test functions, got {len(fns)}")
    for sys, f in zip(systems, fns):
        check_function(sys, f)
    for sys, phi in zip(systems[1:], maps):
        acting_rows(sys, phi.algebra)


def _check_sampling(n_samples: int, threads: int = 1) -> None:
    if n_samples < 1:
        raise ConfigError(f"n_samples must be at least 1, got {n_samples}")
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")


def _per_sample_averages(
    systems: Sequence[NilSystem],
    flows: Sequence[np.ndarray],
    fns: Sequence[TestFunction],
    factors: Sequence[np.ndarray],
    snapshot_steps: Sequence[int],
    threads: int = 1,
) -> Dict[int, np.ndarray]:
    """Per-sample time averages of f0(x0) * prod_i fi(flow_i(t) x_i).

    `flows` holds the float coordinates of each acting factor's flow, one
    row per time step.  Returns one n-vector per snapshot step.  Samples are
    split into row blocks, each run through the whole time loop with one
    `step_values` call per factor and slab of steps.  A slab ends at every
    snapshot step, and its products are added to the running sums in step
    order.  Every row's arithmetic is independent of the blocks, slabs and
    threads, so any thread count reproduces the same numbers.
    """
    n = factors[0].shape[0]
    snapshot_steps = sorted(set(int(s) for s in snapshot_steps))

    def run_block(lo: int, hi: int) -> Dict[int, np.ndarray]:
        steps = _slab_steps(hi - lo)
        base = eval_fn_array(fns[0], factors[0][lo:hi], systems[0])
        cols = [np.ascontiguousarray(pts[lo:hi].T) for pts in factors[1:]]
        sums = np.zeros(hi - lo)
        out: Dict[int, np.ndarray] = {}
        j = 0
        for stop in snapshot_steps:
            while j < stop:
                s = min(steps, stop - j)
                product = base
                for sys, f, c, flow in zip(systems[1:], fns[1:], cols, flows):
                    product = product * step_values(sys, f, c, flow[j : j + s].T)
                if product is base:  # no acting factor: each step adds the base values
                    product = np.broadcast_to(base, (s, hi - lo))
                for row in product:  # one add per step, in step order
                    sums += row
                j += s
            out[stop] = sums / stop
        return out

    size = min(BLOCK_ROWS, -(-n // threads))
    blocks = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if threads == 1 or len(blocks) == 1:
        chunks = [run_block(*b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(lambda b: run_block(*b), blocks))
    return {
        s: np.concatenate([c[s] for c in chunks]) for s in snapshot_steps
    }


def _joint_pass(
    systems: Sequence[NilSystem], pinned: Sequence[PolyMap], fns: Sequence[TestFunction],
    factors: Sequence[np.ndarray], dt: Fraction, snapshots: Sequence[int], threads: int,
) -> Dict[int, np.ndarray]:
    """Per-sample averages at each snapshot, the pinned maps flowing on the midpoint grid."""
    flows = [_flow_floats(phi, dt / 2, dt, snapshots[-1]) for phi in pinned]
    return _per_sample_averages(systems, flows, fns, factors, snapshots, threads)


# ----------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class AverageReport:
    t_grid: Tuple[float, ...]
    estimates: Tuple[float, ...]
    std_errors: Tuple[float, ...]
    cauchy_gap: float
    dt: float
    n_samples: int
    seed: int


def _average_report(
    t_grid: Sequence[Rational], dt: Fraction, n_samples: int, seed: int,
    estimates: Sequence[float], std_errors: Sequence[float],
) -> AverageReport:
    """The report of estimates along t_grid; its Cauchy gap is the spread of
    the last quarter of the estimates, and at least of the last two."""
    window = estimates[-max(2, math.ceil(len(estimates) / 4)):]
    return AverageReport(
        t_grid=tuple(float(as_fraction(T)) for T in t_grid),
        estimates=tuple(estimates),
        std_errors=tuple(std_errors),
        cauchy_gap=float(max(window) - min(window)) if len(estimates) > 1 else 0.0,
        dt=float(dt),
        n_samples=n_samples,
        seed=seed,
    )


# ----------------------------------------------------------------------
# joint averages


def scan_with_invariance(
    joining: JoiningSpec,
    family: PolyFamily,
    h: Sequence[Rational],
    fns: Sequence[TestFunction],
    t_grid: Sequence[Rational],
    g_list: Sequence[Sequence[GroupElement]] = (),
    dt: Rational = "0.05",
    n_samples: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> Tuple[AverageReport, List[List[float]]]:
    """Joint average per horizon, and its deviation under each translation tuple.

    One pass over the base flows gives the report and the baseline of every
    deviation; each tuple adds one pass over the same draws.  The estimate
    of the translated integral uses the Haar change of variables
    x -> g_0 x, which turns the tuple (g_0..g_k) into the modified flows
    g_i phi_i(t) g_0^{-1}.  Tuple elements are in each system's own
    algebra, and the flows they translate are pinned and pushed there once.
    Identity tuples therefore deviate by exactly zero, and abelian diagonal
    tuples cancel exactly.
    """
    systems = joining.systems
    _check_factors(systems, family, fns)
    dt_f, snapshots = _scan_steps(t_grid, dt)
    _check_sampling(n_samples, threads)
    for tup in g_list:
        if len(tup) != len(systems):
            raise ConfigError(f"translation tuple has arity {len(tup)}, need {len(systems)}")
        for i, (g, sys) in enumerate(zip(tup, systems)):
            if g.algebra != sys.algebra:
                raise ConfigError(f"translation tuple element g_{i} is not in its factor's algebra")
    if g_list and any(sys.algebra != systems[0].algebra for sys in systems):
        raise ConfigError("translation tuples need every factor on the base factor's group")
    pinned = [_pinned(sys, phi, h) for sys, phi in zip(systems[1:], family)]
    moved_families = [
        [_translated(g, phi, tup[0]) for g, phi in zip(tup[1:], pinned)] for tup in g_list
    ]
    factors = _draw_factors(joining, n_samples, seed)

    base = _joint_pass(systems, pinned, fns, factors, dt_f, snapshots, threads)
    estimates = [float(base[s].mean()) for s in snapshots]
    std_errors = [float(base[s].std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0 for s in snapshots]
    deviations = []
    for moved in moved_families:
        shifted = _joint_pass(systems, moved, fns, factors, dt_f, snapshots, threads)
        deviations.append(
            [abs(float(shifted[s].mean()) - e) for s, e in zip(snapshots, estimates)]
        )
    return _average_report(t_grid, dt_f, n_samples, seed, estimates, std_errors), deviations


# ----------------------------------------------------------------------
# van der Corput diagnostic


def _half_steps(T: Rational, S: Rational, dt: Fraction) -> int:
    """Number of half steps dt/2 from 0 to T+S."""
    return 2 * (_step_count(T, dt) + _step_count(S, dt, "S"))


def half_step_times(T: Rational, S: Rational, dt: Rational) -> np.ndarray:
    """Sampling times k*dt/2 covering [0, T+S], as floats for trajectory builders."""
    dt_f = _positive_dt(dt)
    return np.arange(_half_steps(T, S, dt_f) + 1) * (float(dt_f) / 2.0)


def vdc_check(trajectory: np.ndarray, S: Rational, T: Rational, dt: Rational = "0.05") -> dict:
    """Time-average magnitude versus averaged autocorrelation of a scalar signal.

    The trajectory must be sampled at half-step spacing dt/2 over [0, T+S]:
    midpoint samples (odd indices) feed the averages, integer samples (even
    indices) supply the shifted values a(t+s), which land between midpoints.
    """
    dt_f = _positive_dt(dt)
    count = _half_steps(T, S, dt_f)
    nt = _step_count(T, dt_f)
    ns = count // 2 - nt
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 1 or len(trajectory) < count + 1:
        raise ConfigError(
            f"trajectory too short: need {count + 1} half-step samples covering [0, T+S]"
        )
    u = trajectory[1::2][:nt]
    v = trajectory[0::2][: nt + ns + 1]
    lhs = abs(float(u.mean()))
    corr = np.correlate(v, u, mode="valid")
    rhs = float(corr[1 : ns + 1].sum() / (nt * ns))
    return {"lhs_norm": lhs, "rhs_corr": rhs}


def flow_correlation_trajectory(
    sys: NilSystem,
    phi: PolyMap,
    h: Sequence[Rational],
    f: TestFunction,
    T: Rational,
    S: Rational,
    dt: Rational = "0.05",
    n_samples: int = 1000,
    seed: int = 0,
) -> np.ndarray:
    """Empirical correlation a(t) = mean_x f(u^{phi(t)}x) f(x) on the half-step grid."""
    _check_factors([sys, sys], [phi], [f, f])
    _check_sampling(n_samples)
    dt_f = _positive_dt(dt)
    flow = _flow_floats(_pinned(sys, phi, h), Fraction(0), dt_f / 2, _half_steps(T, S, dt_f) + 1)
    pts = haar_array(sys, seed, n_samples)
    static = eval_fn_array(f, pts, sys)
    cols = np.ascontiguousarray(pts.T)
    steps = _slab_steps(n_samples)
    out = np.empty(len(flow))
    for j in range(0, len(flow), steps):
        vals = step_values(sys, f, cols, flow[j : j + steps].T)
        vals *= static
        out[j : j + len(vals)] = vals.mean(axis=1)
    return out


# ----------------------------------------------------------------------
# single-flow mean averages


@dataclass(frozen=True)
class MeanErgodicReport:
    """L2 statistics of the time-averaged orbit of one flow, with its prediction."""

    h: Tuple[Fraction, ...]
    classification: str
    report: AverageReport
    dist_to_f: Tuple[float, ...]
    generic_h: Optional[Tuple[Fraction, ...]] = None
    generic: Optional["MeanErgodicReport"] = None


def mean_ergodic_base(
    sys: NilSystem,
    phi: PolyMap,
    h: Sequence[Rational],
    f: TestFunction,
    t_grid: Sequence[Rational],
    dt: Rational = "0.05",
    n_samples: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> MeanErgodicReport:
    """L2 norm of A_T f and its distance to f, with the orbit-invariance prediction.

    The prediction is exact: the test function's frequency is a linear
    functional on the system's algebra (`dynamics.functional`), and the
    pushed flow is orbit-invariant for f at h exactly when h lies on the
    functional's vanishing variety.  When the map has parameters and the
    function a functional, the same report is produced at a certified
    generic parameter point on the same draw, so the generic and
    exceptional behaviors can be compared side by side.
    """
    systems = [sys, sys]
    fns = [TestFunction("torus_character", (0,) * sys.dim), f]
    _check_factors(systems, [phi], fns)
    dt_f, snapshots = _scan_steps(t_grid, dt)
    _check_sampling(n_samples, threads)
    ell = functional(sys, f)
    variety = None if ell is None else vanishing_variety(pushed(sys, phi), ell)
    pts = haar_array(sys, seed, n_samples)
    f_values = eval_fn_array(f, pts, sys)

    def report_at(point: Sequence[Rational]) -> MeanErgodicReport:
        point = tuple(as_fraction(v) for v in point)
        per_snap = _joint_pass(systems, [_pinned(sys, phi, point)], fns, [pts, pts], dt_f, snapshots, threads)
        norms, ses, dists = [], [], []
        for s in snapshots:
            vec = per_snap[s]
            sq = vec * vec
            norm = math.sqrt(float(sq.mean()))
            se_sq = float(sq.std(ddof=1)) / math.sqrt(len(sq)) if len(sq) > 1 else 0.0
            norms.append(norm)
            ses.append(se_sq / (2 * norm) if norm * norm > se_sq else math.sqrt(se_sq))
            dists.append(math.sqrt(float(((vec - f_values) ** 2).mean())))
        if variety is None:
            classification = "unknown"
        elif not is_proper(variety) or variety.contains(dict(zip(phi.vars[1:], point))):
            classification = "invariant"
        else:
            classification = "mean_zero"
        return MeanErgodicReport(
            h=point,
            classification=classification,
            report=_average_report(t_grid, dt_f, n_samples, seed, norms, ses),
            dist_to_f=tuple(dists),
        )

    out = report_at(h)
    params = phi.vars[1:]
    if not params or variety is None:
        return out
    meagre = MeagreSet([variety]) if is_proper(variety) else MeagreSet()
    generic_h = generic_sample(meagre, seed=seed + 7919, params=params)
    return replace(out, generic_h=generic_h, generic=report_at(generic_h))
