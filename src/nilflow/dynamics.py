"""Torus and Heisenberg nilmanifolds with exact actions and Haar sampling.

Points are the rows of float arrays, in the fundamental cube [0,1)^dim in
exponential coordinates.
Group elements stay exact rationals until the moment they act; the float
layer only ever adds, multiplies, and reduces mod 1, so no error compounds
across a time loop.

The translate, the reduction and a test function's phase are each written
once, as array expressions that broadcast over everything after the
coordinate axis.  `act_array` and `eval_fn_array` run them on coordinate
rows of shape (sample,).  `step_values`, which the time loops use, runs
them on a slab of consecutive time steps at once, on rows of shape (step,
sample); each value equals `eval_fn_array(f, act_array(sys, g, pts), sys)`
for its step bit for bit.  The phase is the sum of freq_k * coord_k in
coordinate order, not a BLAS product, so its bits do not depend on the BLAS
build.

Whether a flow and a test function fit a system is decided here once, by
`acting_rows` and `check_function`.  An acting matrix is applied in one
place, `acting_coords`: to an element's coordinates by `element_floats`, and
to a flow's coordinate polynomials by `pushed`, which turns phi into the
flow u o phi in the system's own algebra.  On a pushed flow a test
function's frequency is itself the functional (`functional`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .lie_core import GroupElement, LieAlgebraSpec, make_builtin
from .multipoly import as_fraction
from .poly_maps import PolyMap

TWO_PI = 2.0 * np.pi


class NilSystem:
    """A compact quotient of a torus or the 3-dim Heisenberg group.

    `acting_matrix`, when given, is an exact rational matrix mapping an
    auxiliary abelian parameter group into the algebra, so several distinct
    rotations can be driven by one parameter vector.  Only torus systems
    accept one; a linear map need not respect a nonabelian product.
    """

    __slots__ = ("kind", "algebra", "acting_matrix")

    def __init__(
        self,
        kind: str,
        dim: int | None = None,
        acting_matrix: Sequence[Sequence] | None = None,
    ):
        if kind == "torus":
            if dim is None or dim < 1:
                raise ValueError("torus systems need a positive dimension")
            self.algebra = make_builtin("abelian", dim=dim)
        elif kind == "heisenberg3":
            if dim not in (None, 3):
                raise ValueError(f"heisenberg3 systems have dimension 3, got {dim}")
            self.algebra = make_builtin("heisenberg", dim=3)
        else:
            raise ValueError(f"unknown system kind {kind!r}")
        self.kind = kind
        if acting_matrix is not None:
            if kind != "torus":
                raise ValueError("acting matrices are only supported on torus systems")
            rows = tuple(tuple(as_fraction(entry) for entry in row) for row in acting_matrix)
            if len(rows) != self.algebra.dim or len({len(row) for row in rows}) > 1:
                raise ValueError("acting matrix must have one row per algebra coordinate, all of one length")
            self.acting_matrix = rows
        else:
            self.acting_matrix = None

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NilSystem):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.algebra == other.algebra
            and self.acting_matrix == other.acting_matrix
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"NilSystem({self.kind!r}, dim={self.dim})"


def torus(dim: int, acting_matrix: Sequence[Sequence] | None = None) -> NilSystem:
    return NilSystem("torus", dim=dim, acting_matrix=acting_matrix)


def heisenberg3() -> NilSystem:
    return NilSystem("heisenberg3")


# ----------------------------------------------------------------------
# translate, reduction and phase
#
# The helpers take coordinate rows (one row per coordinate, the rest
# broadcast) and return fresh arrays.  They work in place only on arrays
# they allocated themselves, never on their inputs.  On the Heisenberg
# system the rows are a list, so that the x and y rows can be computed
# without the central one.


def _frac(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """v mod 1 in [0, 1), and floor(v)."""
    floor = np.floor(v)
    out = v - floor
    # roundoff can push x - floor(x) to exactly 1.0 for tiny negative x
    mask = out >= 1.0
    if mask.any():
        out[mask] -= 1.0
    return out, floor


def _translate(kind: str, g: np.ndarray, cols):
    """Rows of g x for the points x with coordinate rows `cols`.

    g holds one float per coordinate, or one column of floats per time step
    of a slab; it gains a trailing sample axis, so it broadcasts against
    `cols`.  On the Heisenberg system `cols` may hold only the x and y rows;
    the central row is then not computed.
    """
    g = g[..., None]
    if kind == "torus":
        return cols + g
    moved = [cols[0] + g[0], cols[1] + g[1]]
    if len(cols) == 3:
        a, b, c = g
        x, y, z = cols
        moved.append(z + c + (y * a - x * b) * 0.5)  # z' = c + z + (a y - b x) / 2
    return moved


def _reduce(kind: str, moved):
    """Fundamental-domain representative of the points with coordinate rows `moved`.

    For the Heisenberg system the representative of the right lattice coset
    is found by clearing the integer parts of x and y first and the central
    coordinate last; killing right cosets is what keeps the left action
    well-defined on the quotient.  Without a central row only x and y are
    reduced.
    """
    if kind == "torus":
        return _frac(moved)[0]
    (xr, _), (yr, fy) = _frac(moved[0]), _frac(moved[1])
    if len(moved) < 3:
        return [xr, yr]
    x, y, z = moved
    # offset = x y / 2 - x fy - xr yr / 2; on a row that is already reduced
    # (floor(x) = floor(y) = 0) it is exactly +0.0, so z keeps its bits
    offset = x * y * 0.5 - x * fy - xr * yr * 0.5
    return [xr, yr, _frac(z + offset)[0]]


def _phase(f: TestFunction, rows) -> np.ndarray:
    """cos or sin of 2 pi sum_k freq_k coord_k, summed over the coordinate rows in order.

    A frequency of +1 or -1 goes into the addition as the row itself or a
    subtraction, which gives the same bits as multiplying by it first.
    """
    phase = None
    for k, row in zip(f.freq, rows):
        if not k:
            continue
        if phase is None:
            phase = row if k == 1 else row * float(k)
        elif k == 1:
            phase = phase + row
        elif k == -1:
            phase = phase - row
        else:
            phase = phase + row * float(k)
    out = np.zeros(rows[0].shape) if phase is None else phase * TWO_PI
    if f.part == "cos":
        return np.cos(out, out=out)
    # a zero phase is +0.0, as in a dot product that starts from 0.0;
    # unlike cos, sin keeps the sign of a zero
    out += 0.0
    return np.sin(out, out=out)


# ----------------------------------------------------------------------
# group action


def acting_rows(sys: NilSystem, algebra: LieAlgebraSpec) -> Tuple[Tuple[Fraction, ...], ...] | None:
    """How elements of `algebra` act on `sys`: None when by their own
    coordinates, otherwise the acting matrix that maps them into sys's algebra.
    The one test of whether an element or a flow acts on a system."""
    if algebra == sys.algebra:
        return None
    if sys.acting_matrix is not None and algebra.step == 1:
        cols = len(sys.acting_matrix[0]) if sys.acting_matrix else 0
        if algebra.dim == cols:
            return sys.acting_matrix
    raise ConfigError(f"algebra mismatch: a {algebra.dim}-dim algebra does not act on {sys!r}")


def acting_coords(sys: NilSystem, algebra: LieAlgebraSpec, coords: Sequence) -> tuple:
    """Coordinates in sys's algebra of the element of `algebra` with `coords`:
    M coords through an acting matrix M, else `coords`.  Entries may be
    Fractions or MultiPolys; the one place an acting matrix is applied."""
    rows = acting_rows(sys, algebra)
    if rows is None:
        return tuple(coords)
    return tuple(sum((r * c for r, c in zip(row, coords)), Fraction(0)) for row in rows)


def pushed(sys: NilSystem, phi: PolyMap) -> PolyMap:
    """The flow u o phi that phi drives on `sys`, as a map into sys's algebra."""
    return PolyMap(sys.algebra, phi.vars, acting_coords(sys, phi.algebra, phi.coords), domain=phi.domain)


def element_floats(sys: NilSystem, elements: Sequence[GroupElement]) -> np.ndarray:
    """Float coordinates of each element as it acts on `sys`, one row per element."""
    count = len(elements) * sys.dim
    values = (float(c) for g in elements for c in acting_coords(sys, g.algebra, g.coords))
    return np.fromiter(values, dtype=float, count=count).reshape(len(elements), sys.dim)


def act_array(sys: NilSystem, g: GroupElement, pts: np.ndarray) -> np.ndarray:
    """Left translation by g applied to every row, then reduction."""
    pts = np.asarray(pts, dtype=float)
    moved = _translate(sys.kind, element_floats(sys, [g])[0], pts.T)
    return np.stack(_reduce(sys.kind, moved), axis=1)


# ----------------------------------------------------------------------
# Haar sampling


def haar_array(sys: NilSystem, seed: int, n: int) -> np.ndarray:
    """n i.i.d. Haar points as an (n, dim) array, deterministic per seed."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    return np.random.default_rng(seed).random((n, sys.dim))


# ----------------------------------------------------------------------
# test functions


_FN_KINDS = ("torus_character", "heis_abelian", "heis_vertical")


@dataclass(frozen=True)
class TestFunction:
    """A single sinusoid of the fundamental-domain coordinates, bounded by 1.

    The frequency pairs with all coordinates for a torus character, with the
    two abelianized coordinates for the Heisenberg kind, and with all three
    (central coordinate included) for the vertical kind.
    """

    kind: str
    freq: Tuple[int, ...]
    part: str = "cos"

    __test__ = False  # not a pytest class, despite the name

    def __post_init__(self) -> None:
        if self.kind not in _FN_KINDS:
            raise ValueError(f"unknown test-function kind {self.kind!r}")
        if self.part not in ("cos", "sin"):
            raise ValueError(f"part must be 'cos' or 'sin', got {self.part!r}")
        if any(isinstance(k, bool) or not isinstance(k, int) for k in self.freq):
            raise ValueError(f"frequency entries must be integers, got {list(self.freq)}")
        object.__setattr__(self, "freq", tuple(self.freq))
        if self.kind == "heis_abelian" and len(self.freq) != 2:
            raise ValueError("abelianized Heisenberg characters take a 2-vector frequency")
        if self.kind == "heis_vertical" and len(self.freq) != 3:
            raise ValueError("vertical Heisenberg functions take a 3-vector frequency")


def check_function(sys: NilSystem, f: TestFunction) -> None:
    """Refuse a test function that does not fit `sys`: a Heisenberg kind on
    a torus, or a frequency of the wrong arity.  A torus character reads
    every coordinate, a Heisenberg kind the three of the Heisenberg system."""
    if f.kind != "torus_character" and sys.kind != "heisenberg3":
        raise ConfigError(f"a {f.kind} test function needs a heisenberg3 system, not {sys!r}")
    need = len(f.freq) if f.kind == "torus_character" else 3
    if need != sys.dim:
        raise ConfigError(f"{f.kind} frequency {list(f.freq)} needs {need} coordinates, got {sys.dim}")


def functional(sys: NilSystem, f: TestFunction) -> list | None:
    """The frequency m of f as a functional on sys's algebra: along a flow
    pushed into that algebra (`pushed`), exp(v) fixes f exactly when m
    vanishes on v.  None when m reads a coordinate above layer 1, such as
    the Heisenberg central coordinate, which moves with the point."""
    check_function(sys, f)
    m = list(f.freq) + [0] * (sys.dim - len(f.freq))
    if any(k for k, layer in zip(m, sys.algebra.layers) if layer > 1):
        return None
    return m


def eval_fn_array(f: TestFunction, pts: np.ndarray, sys: NilSystem) -> np.ndarray:
    """f at every row of `pts`, points of `sys`."""
    check_function(sys, f)
    pts = np.asarray(pts, dtype=float)
    if pts.shape[1] != sys.dim:
        raise ValueError(f"points have {pts.shape[1]} coordinates, {sys!r} has {sys.dim}")
    return _phase(f, pts.T)


# ----------------------------------------------------------------------
# step kernel


def step_values(sys: NilSystem, f: TestFunction, cols: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f(g_s x) for the columns g_s of g, shape (dim, s), and fixed points x.

    `cols` holds the coordinate rows of the points, shape (dim, sample);
    callers that run many slabs on the same points make them contiguous once.
    Returns one row of values per column, shape (s, sample).  It runs the
    translate, reduction and phase helpers that `act_array` and
    `eval_fn_array` run, so each row is eval_fn_array(f, act_array(sys, g_s,
    pts), sys) for that step's g_s bit for bit.  An abelianized Heisenberg
    function does not read the central coordinate, so it is not computed.
    """
    check_function(sys, f)
    if sys.kind == "heisenberg3" and f.kind == "heis_abelian":
        cols = cols[:2]
    return _phase(f, _reduce(sys.kind, _translate(sys.kind, g, cols[:, None])))


# ----------------------------------------------------------------------
# serialization


def system_to_json_dict(sys: NilSystem) -> dict:
    out = {"kind": sys.kind, "dim": sys.dim}
    if sys.acting_matrix is not None:
        out["acting_matrix"] = [[str(e) for e in row] for row in sys.acting_matrix]
    return out


def function_to_json_dict(f: TestFunction) -> dict:
    return {"kind": f.kind, "freq": list(f.freq), "part": f.part}
