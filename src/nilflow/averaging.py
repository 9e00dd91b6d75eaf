"""Monte Carlo time averages over joinings, with convergence and invariance diagnostics.

Every estimator follows the same discipline: group elements are evaluated
exactly along the arithmetic time grid (midpoints for the averages, half
steps for correlation trajectories) and each coordinate is floated once, the
composite midpoint rule handles the time integral, and each estimate carries
the Monte Carlo standard error of its per-sample time averages.  Fixed seed
and draw order make every number bit-reproducible.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dynamics import (
    NilSystem,
    TestFunction,
    act_array,
    eval_fn_array,
    haar_array,
)
from .lie_core import GroupElement, bch_product, group_inverse, identity
from .pet import PolyFamily
from .poly_maps import PolyMap, substitute
from .zariski import MeagreSet, generic_sample, is_proper, vanishing_variety

Rational = Union[int, str, Fraction]


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


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

    @property
    def k(self) -> int:
        return len(self.systems) - 1


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


def _step_count(T: Rational, dt: Fraction) -> int:
    T = _to_fraction(T)
    if T <= 0:
        raise ValueError("horizon T must be positive")
    steps = T / dt
    if steps.denominator != 1:
        raise ValueError(f"dt={dt} does not divide T={T}")
    return int(steps)


def _scan_steps(t_grid: Sequence[Rational], dt: Rational) -> Tuple[Fraction, List[int]]:
    """Exact dt and the midpoint step count of every horizon, validated."""
    dt = _to_fraction(dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not t_grid:
        raise ValueError("horizon grid is empty")
    snapshots = [_step_count(T, dt) for T in t_grid]
    if any(b <= a for a, b in zip(snapshots, snapshots[1:])):
        raise ValueError("horizon grid must be strictly increasing")
    return dt, snapshots


def _flow_elements(
    phi: PolyMap, h: Sequence[Rational], start: Fraction, step: Fraction, count: int
) -> List[GroupElement]:
    """phi(start + j*step, h) for j = 0..count-1, exactly.

    The parameters are pinned once, leaving one polynomial in t per
    coordinate.  With t_j = (a + j*b)/q and a coordinate's coefficients
    scaled to integers over a common denominator D, the value at t_j is the
    integer Horner sum N_j over D*q^d, so each element costs d integer
    multiply-adds and one Fraction, and equals phi.eval at t_j exactly.
    """
    params = phi.vars[1:]
    h = tuple(_to_fraction(v) for v in h)
    if len(h) != len(params):
        raise ValueError(f"parameter point has arity {len(h)}, map needs {len(params)}")
    pinned = substitute(phi, dict(zip(params, h)), new_variables=phi.vars[:1])
    q = math.lcm(start.denominator, step.denominator)
    a = start.numerator * (q // start.denominator)
    b = step.numerator * (q // step.denominator)
    xs = range(a, a + count * b, b)
    columns = []
    for poly in pinned.coords:
        if poly.is_constant():
            columns.append([poly.constant_value()] * count)
            continue
        coefs = {exp[0]: coef for exp, coef in poly.terms.items()}
        d = max(coefs)
        D = math.lcm(*(c.denominator for c in coefs.values()))
        # N(x) = sum_k D*c_k * x^k * q^(d-k), from the top coefficient down
        scaled = [
            coefs[k].numerator * (D // coefs[k].denominator) * q ** (d - k) if k in coefs else 0
            for k in range(d, -1, -1)
        ]
        den = D * q**d
        column = []
        for x in xs:
            n = 0
            for c in scaled:
                n = n * x + c
            column.append(Fraction(n, den))
        columns.append(column)
    return [GroupElement(phi.algebra, coords) for coords in zip(*columns)]


# ----------------------------------------------------------------------
# core estimator


def _per_sample_averages(
    systems: Sequence[NilSystem],
    flows: Sequence[Sequence[GroupElement]],
    fns: Sequence[TestFunction],
    factors: Sequence[np.ndarray],
    snapshot_steps: Sequence[int],
    threads: int = 1,
) -> Dict[int, np.ndarray]:
    """Per-sample time averages of f0(x0) * prod_i fi(flow_i(t) x_i).

    Returns one n-vector per snapshot step.  Samples are chunked only for
    thread scheduling; values are independent of the chunking, so any thread
    count reproduces the same numbers.
    """
    n = factors[0].shape[0]
    snapshot_steps = sorted(set(int(s) for s in snapshot_steps))
    total = snapshot_steps[-1]
    wanted = set(snapshot_steps)

    def run_chunk(lo: int, hi: int) -> Dict[int, np.ndarray]:
        base = eval_fn_array(fns[0], factors[0][lo:hi])
        acc = np.zeros(hi - lo)
        out: Dict[int, np.ndarray] = {}
        for j in range(total):
            vals = base.copy()
            for i, flow in enumerate(flows, start=1):
                pts = act_array(systems[i], flow[j], factors[i][lo:hi])
                vals *= eval_fn_array(fns[i], pts)
            acc += vals
            if j + 1 in wanted:
                out[j + 1] = acc / (j + 1)
        return out

    workers = max(1, int(threads))
    if workers == 1 or n < 2 * workers:
        chunks = [run_chunk(0, n)]
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda b: run_chunk(*b), zip(bounds[:-1], bounds[1:])))
    return {
        s: np.concatenate([c[s] for c in chunks]) for s in snapshot_steps
    }


def _mean_and_se(vec: np.ndarray) -> Tuple[float, float]:
    est = float(vec.mean())
    se = float(vec.std(ddof=1) / math.sqrt(len(vec))) if len(vec) > 1 else 0.0
    return est, se


def _cauchy_gap(estimates: Sequence[float]) -> float:
    if len(estimates) < 2:
        return 0.0
    window = estimates[-max(2, math.ceil(len(estimates) / 4)):]
    return float(max(window) - min(window))


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

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
            raise ValueError("horizon grid must be strictly increasing")
        if any(se < 0 for se in self.std_errors):
            raise ValueError("standard errors cannot be negative")


def report_to_json_dict(report: AverageReport) -> dict:
    return {
        "t_grid": list(report.t_grid),
        "estimates": list(report.estimates),
        "std_errors": list(report.std_errors),
        "cauchy_gap": report.cauchy_gap,
        "dt": report.dt,
        "n_samples": report.n_samples,
        "seed": report.seed,
    }


# ----------------------------------------------------------------------
# joint averages


def _prepare_scan(joining, family, fns, t_grid, dt):
    k = joining.k
    if len(family) != k:
        raise ValueError(f"family has {len(family)} maps for a {k + 1}-factor joining")
    if len(fns) != k + 1:
        raise ValueError(f"need {k + 1} test functions, got {len(fns)}")
    for i, phi in enumerate(family, start=1):
        if phi.algebra != joining.systems[i].algebra:
            raise ValueError(f"family member {i - 1} does not match factor {i}'s algebra")
    return _scan_steps(t_grid, dt)


def convergence_scan(
    joining: JoiningSpec,
    family: PolyFamily,
    h: Sequence[Rational],
    fns: Sequence[TestFunction],
    t_grid: Sequence[Rational],
    dt: Rational = "0.05",
    n_samples: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> AverageReport:
    """Joint average per horizon in one pass, sharing draws and quadrature."""
    dt_f, snapshots = _prepare_scan(joining, family, fns, t_grid, dt)
    flows = [_flow_elements(phi, h, dt_f / 2, dt_f, snapshots[-1]) for phi in family]
    factors = _draw_factors(joining, n_samples, seed)
    per_snap = _per_sample_averages(joining.systems, flows, fns, factors, snapshots, threads)
    stats = [_mean_and_se(per_snap[s]) for s in snapshots]
    estimates = tuple(e for e, _ in stats)
    return AverageReport(
        t_grid=tuple(float(_to_fraction(T)) for T in t_grid),
        estimates=estimates,
        std_errors=tuple(se for _, se in stats),
        cauchy_gap=_cauchy_gap(estimates),
        dt=float(dt_f),
        n_samples=n_samples,
        seed=seed,
    )


def joining_average(
    joining: JoiningSpec,
    family: PolyFamily,
    h: Sequence[Rational],
    fns: Sequence[TestFunction],
    T: Rational,
    dt: Rational = "0.05",
    n_samples: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> Tuple[float, float]:
    report = convergence_scan(joining, family, h, fns, [T], dt, n_samples, seed, threads)
    return report.estimates[0], report.std_errors[0]


def invariance_check(
    joining: JoiningSpec,
    family: PolyFamily,
    h: Sequence[Rational],
    fns: Sequence[TestFunction],
    T: Union[Rational, Sequence[Rational]],
    g_list: Sequence[Sequence[GroupElement]],
    dt: Rational = "0.05",
    n_samples: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> List[List[float]]:
    """Deviation of the averaged joining under each translation tuple.

    The estimate of the translated integral reuses the base draws after the
    Haar change of variables x -> g_0 x, which turns the tuple (g_0..g_k)
    into the modified flows g_i phi_i(t) g_0^{-1}.  Identity tuples therefore
    deviate by exactly zero, and abelian diagonal tuples cancel exactly.
    Returns one list per tuple with the deviation at every horizon.
    """
    t_grid = list(T) if isinstance(T, (list, tuple)) else [T]
    dt_f, snapshots = _prepare_scan(joining, family, fns, t_grid, dt)
    base_flows = [_flow_elements(phi, h, dt_f / 2, dt_f, snapshots[-1]) for phi in family]
    factors = _draw_factors(joining, n_samples, seed)

    def estimates_for(flows: Sequence[Sequence[GroupElement]]) -> List[float]:
        per_snap = _per_sample_averages(joining.systems, flows, fns, factors, snapshots, threads)
        return [float(per_snap[s].mean()) for s in snapshots]

    base = estimates_for(base_flows)
    deviations = []
    for tup in g_list:
        if len(tup) != joining.k + 1:
            raise ValueError(f"translation tuple has arity {len(tup)}, need {joining.k + 1}")
        inv0 = group_inverse(tup[0])
        moved = [
            [bch_product(bch_product(tup[i], el), inv0) for el in base_flows[i - 1]]
            for i in range(1, joining.k + 1)
        ]
        shifted = estimates_for(moved)
        deviations.append([abs(a - b) for a, b in zip(shifted, base)])
    return deviations


# ----------------------------------------------------------------------
# van der Corput diagnostic


def half_step_times(T: Rational, S: Rational, dt: Rational) -> np.ndarray:
    """Sampling times k*dt/2 covering [0, T+S], as floats for trajectory builders."""
    dt_f = _to_fraction(dt)
    count = 2 * (_step_count(T, dt_f) + _step_count(S, dt_f))
    return np.arange(count + 1) * (float(dt_f) / 2.0)


def vdc_check(trajectory: np.ndarray, S: Rational, T: Rational, dt: Rational = "0.05") -> dict:
    """Time-average magnitude versus averaged autocorrelation of a scalar signal.

    The trajectory must be sampled at half-step spacing dt/2 over [0, T+S]:
    midpoint samples (odd indices) feed the averages, integer samples (even
    indices) supply the shifted values a(t+s), which land between midpoints.
    """
    dt_f = _to_fraction(dt)
    if dt_f <= 0:
        raise ValueError("dt must be positive")
    nt = _step_count(T, dt_f)
    ns = _step_count(S, dt_f)
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 1 or len(trajectory) < 2 * (nt + ns) + 1:
        raise ValueError(
            f"trajectory too short: need {2 * (nt + ns) + 1} half-step samples covering [0, T+S]"
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
    dt_f = _to_fraction(dt)
    count = 2 * (_step_count(T, dt_f) + _step_count(S, dt_f))
    flow = _flow_elements(phi, h, Fraction(0), dt_f / 2, count + 1)
    pts = haar_array(sys, seed, n_samples)
    static = eval_fn_array(f, pts)
    out = np.empty(len(flow))
    for j, g in enumerate(flow):
        out[j] = float((eval_fn_array(f, act_array(sys, g, pts)) * static).mean())
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
    generic_h: Optional[Tuple[Fraction, ...]]
    generic: Optional["MeanErgodicReport"]


def _functional_from_test_function(sys: NilSystem, f: TestFunction) -> Optional[List[int]]:
    if f.kind == "torus_character":
        return list(f.freq)
    if f.kind == "heis_abelian":
        return list(f.freq) + [0]
    return None


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
    _with_generic: bool = True,
) -> MeanErgodicReport:
    """L2 norm of A_T f and its distance to f, with the orbit-invariance prediction.

    The prediction is exact: the test function's frequency gives a linear
    functional, and the flow is orbit-invariant for f at h exactly when h
    lies on the functional's vanishing variety.  When the variety is proper
    the same report is produced at a certified generic parameter point, so
    the generic and exceptional behaviors can be compared side by side.
    """
    if phi.algebra != sys.algebra:
        raise ValueError("flow does not match system algebra")
    dt_f, snapshots = _scan_steps(t_grid, dt)
    h = tuple(_to_fraction(v) for v in h)
    flow = _flow_elements(phi, h, dt_f / 2, dt_f, snapshots[-1])
    pts = haar_array(sys, seed, n_samples)
    if sys.kind == "torus":
        constant_one = TestFunction("torus_character", (0,) * sys.dim)
    else:
        constant_one = TestFunction("heis_abelian", (0, 0))
    per_snap = _per_sample_averages([sys, sys], [flow], [constant_one, f], [pts, pts], snapshots, threads)
    f_values = eval_fn_array(f, pts)

    norms, ses, dists = [], [], []
    for s in snapshots:
        vec = per_snap[s]
        sq = vec * vec
        norm = math.sqrt(float(sq.mean()))
        se_sq = float(sq.std(ddof=1)) / math.sqrt(len(sq)) if len(sq) > 1 else 0.0
        if norm * norm > se_sq:
            se = se_sq / (2 * norm)
        else:
            se = math.sqrt(se_sq)
        norms.append(norm)
        ses.append(se)
        dists.append(math.sqrt(float(((vec - f_values) ** 2).mean())))

    report = AverageReport(
        t_grid=tuple(float(_to_fraction(T)) for T in t_grid),
        estimates=tuple(norms),
        std_errors=tuple(ses),
        cauchy_gap=_cauchy_gap(norms),
        dt=float(dt_f),
        n_samples=n_samples,
        seed=seed,
    )

    ell = _functional_from_test_function(sys, f)
    classification = "unknown"
    variety = None
    if ell is not None:
        variety = vanishing_variety(phi, ell)
        if not is_proper(variety):
            classification = "invariant"
        else:
            point = dict(zip(phi.vars[1:], h))
            classification = "invariant" if variety.contains(point) else "mean_zero"

    generic_h = None
    generic_report = None
    params = phi.vars[1:]
    if _with_generic and params and ell is not None:
        meagre = MeagreSet([variety]) if is_proper(variety) else MeagreSet()
        generic_h = generic_sample(meagre, seed=seed + 7919, params=params)
        generic_report = mean_ergodic_base(
            sys, phi, generic_h, f, t_grid, dt, n_samples, seed, threads, _with_generic=False
        )

    return MeanErgodicReport(
        h=h,
        classification=classification,
        report=report,
        dist_to_f=tuple(dists),
        generic_h=generic_h,
        generic=generic_report,
    )
