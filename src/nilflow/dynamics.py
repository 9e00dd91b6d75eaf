"""Torus and Heisenberg nilmanifolds with exact actions and Haar sampling.

Points live in the fundamental cube [0,1)^dim in exponential coordinates.
Group elements stay exact rationals until the moment they act; the float
layer only ever adds, multiplies, and reduces mod 1, so no error compounds
across a time loop.

The translate, the reduction and a test function's phase are each written
once, and each broadcasts over everything after the coordinate axis.
`act_array`, `reduce_array` and `eval_fn_array` run them on fresh arrays of
shape (coordinate, sample).  `StepKernel`, which the time loops use, runs
them on a slab of consecutive time steps at once, in buffers of shape
(coordinate, step, sample) that it allocates once per block of sample
points; each value equals `eval_fn_array(f, act_array(sys, g, pts))` for its
step bit for bit.  The phase is the sum of freq_k * coord_k in coordinate
order, not a BLAS product, so its bits do not depend on the BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Tuple

import numpy as np

from .lie_core import GroupElement, LieAlgebraSpec, make_builtin
from .multipoly import as_fraction

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
            self.algebra = make_builtin("heisenberg", dim=3)
        else:
            raise ValueError(f"unknown system kind {kind!r}")
        self.kind = kind
        if acting_matrix is not None:
            if kind != "torus":
                raise ValueError("acting matrices are only supported on torus systems")
            rows = tuple(tuple(as_fraction(entry) for entry in row) for row in acting_matrix)
            if len(rows) != self.algebra.dim:
                raise ValueError("acting matrix must have one row per algebra coordinate")
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


@dataclass(frozen=True)
class NilPoint:
    """A point of the nilmanifold in fundamental-domain coordinates."""

    coords: Tuple[float, ...]

    def __post_init__(self) -> None:
        for c in self.coords:
            if not (0.0 <= c < 1.0):
                raise ValueError(f"coordinate {c} outside the fundamental domain [0,1)")

    def as_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=float)


# ----------------------------------------------------------------------
# translate, reduction and phase
#
# The helpers work on coordinate rows (shape (rows, ...), one row per
# coordinate, the rest broadcast) and write into buffers the caller passes in.


class _Buffers:
    """Scratch space for the helpers, for `rows` coordinate rows of the given shape."""

    __slots__ = ("floor", "mask", "tmp", "tmp2")

    def __init__(self, floor: np.ndarray, mask: np.ndarray, tmp: np.ndarray, tmp2: np.ndarray):
        self.floor, self.mask, self.tmp, self.tmp2 = floor, mask, tmp, tmp2

    @classmethod
    def empty(cls, rows: int, shape: Tuple[int, ...]) -> "_Buffers":
        return cls(
            np.empty((rows, *shape)), np.empty((rows, *shape), dtype=bool), np.empty(shape), np.empty(shape)
        )

    def head(self, steps: int) -> "_Buffers":
        """Views of the first `steps` time steps of slab-shaped buffers."""
        return _Buffers(self.floor[:, :steps], self.mask[:, :steps], self.tmp[:steps], self.tmp2[:steps])


def _frac_into(v: np.ndarray, out: np.ndarray, floor: np.ndarray, mask: np.ndarray) -> None:
    """out = v mod 1 in [0, 1); floor keeps floor(v)."""
    np.floor(v, out=floor)
    np.subtract(v, floor, out=out)
    # roundoff can push x - floor(x) to exactly 1.0 for tiny negative x
    np.greater_equal(out, 1.0, out=mask)
    if mask.any():
        np.subtract(out, 1.0, out=out, where=mask)


def _translate_into(kind: str, g: np.ndarray, cols: np.ndarray, moved: np.ndarray, buf: _Buffers) -> None:
    """Rows of g x for the points x with coordinate rows `cols`.

    g holds one float per coordinate, or one column of floats per time step
    of a slab; it gains a trailing sample axis, so it broadcasts against
    `cols`.  On the Heisenberg system `moved` may hold only the x and y rows;
    the central row is then not computed.
    """
    g = g[..., None]
    if kind == "torus":
        np.add(cols, g, out=moved)
        return
    np.add(cols[:2], g[:2], out=moved[:2])
    if len(moved) == 3:
        a, b, c = g
        x, y, z = cols
        # z' = c + z + (a y - b x) / 2
        np.add(z, c, out=moved[2])
        np.multiply(y, a, out=buf.tmp)
        np.multiply(x, b, out=buf.tmp2)
        buf.tmp -= buf.tmp2
        buf.tmp *= 0.5
        moved[2] += buf.tmp


def _reduce_into(kind: str, moved: np.ndarray, out: np.ndarray, buf: _Buffers) -> None:
    """Fundamental-domain representative of the points with coordinate rows `moved`.

    For the Heisenberg system the representative of the right lattice coset
    is found by clearing the integer parts of x and y first and the central
    coordinate last; killing right cosets is what keeps the left action
    well-defined on the quotient.  Without a central row only x and y are
    reduced.
    """
    if kind == "torus":
        _frac_into(moved, out, buf.floor, buf.mask)
        return
    _frac_into(moved[:2], out[:2], buf.floor[:2], buf.mask[:2])
    if len(moved) < 3:
        return
    x, y, z = moved
    _, fy, fz = buf.floor
    xr, yr = out[0], out[1]
    offset, tmp = buf.tmp, buf.tmp2
    # offset = x y / 2 - x fy - xr yr / 2; on a row that is already reduced
    # (floor(x) = floor(y) = 0) it is exactly +0.0, so z keeps its bits
    np.multiply(x, y, out=offset)
    offset *= 0.5
    np.multiply(x, fy, out=tmp)
    offset -= tmp
    np.multiply(xr, yr, out=tmp)
    tmp *= 0.5
    offset -= tmp
    np.add(z, offset, out=offset)
    _frac_into(offset, out[2], fz, buf.mask[2])


def _phase_terms(f: TestFunction, rows: np.ndarray) -> list:
    """(frequency, coordinate row) pairs of the phase, zero frequencies dropped."""
    return [(float(k), row) for k, row in zip(f.freq, rows) if k]


def _phase_into(terms: list, part: str, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = cos or sin of 2 pi sum_k freq_k coord_k, summed in coordinate order.

    A frequency of +1 or -1 goes into the addition as the row itself or a
    subtraction, which gives the same bits as multiplying by it first.
    """
    phase = None
    for k, row in terms:
        if phase is None:
            if k == 1.0:
                phase = row
                continue
            np.multiply(row, k, out=out)
        elif k == 1.0:
            np.add(phase, row, out=out)
        elif k == -1.0:
            np.subtract(phase, row, out=out)
        else:
            np.multiply(row, k, out=tmp)
            np.add(phase, tmp, out=out)
        phase = out
    if phase is None:
        out.fill(0.0)
    else:
        np.multiply(phase, TWO_PI, out=out)
    if part == "cos":
        np.cos(out, out=out)
    else:
        # a zero phase is +0.0, as in a dot product that starts from 0.0;
        # unlike cos, sin keeps the sign of a zero
        out += 0.0
        np.sin(out, out=out)


# ----------------------------------------------------------------------
# fundamental-domain reduction


def reduce_array(sys: NilSystem, pts: np.ndarray) -> np.ndarray:
    """Canonical fundamental-domain representative, row-wise.

    When a row is already reduced the output is bitwise identical to the
    input, except that a -0.0 becomes +0.0.
    """
    pts = np.asarray(pts, dtype=float)
    out = np.empty(pts.shape)
    _reduce_into(sys.kind, pts.T, out.T, _Buffers.empty(pts.shape[1], pts.shape[:1]))
    return out


def reduce_point(sys: NilSystem, coords: Sequence[float]) -> NilPoint:
    row = reduce_array(sys, np.asarray(coords, dtype=float)[None, :])[0]
    return NilPoint(tuple(float(c) for c in row))


# ----------------------------------------------------------------------
# group action


def acting_rows(sys: NilSystem, algebra: LieAlgebraSpec) -> Tuple[Tuple[Fraction, ...], ...] | None:
    """How elements of `algebra` act on `sys`: None when by their own
    coordinates, otherwise the acting matrix that maps them into sys's algebra."""
    if algebra == sys.algebra:
        return None
    if sys.acting_matrix is not None and algebra.step == 1:
        cols = len(sys.acting_matrix[0]) if sys.acting_matrix else 0
        if algebra.dim == cols:
            return sys.acting_matrix
    raise ValueError("algebra mismatch between group element and system")


def _group_coords(sys: NilSystem, g: GroupElement) -> Tuple[Fraction, ...]:
    rows = acting_rows(sys, g.algebra)
    if rows is None:
        return tuple(g.coords)
    return tuple(sum((r * c for r, c in zip(row, g.coords)), Fraction(0)) for row in rows)


def element_floats(sys: NilSystem, elements: Sequence[GroupElement]) -> np.ndarray:
    """Float coordinates of each element as it acts on `sys`, one row per element."""
    count = len(elements) * sys.dim
    values = (float(c) for g in elements for c in _group_coords(sys, g))
    return np.fromiter(values, dtype=float, count=count).reshape(len(elements), sys.dim)


def act_array(sys: NilSystem, g: GroupElement, pts: np.ndarray) -> np.ndarray:
    """Left translation by g applied to every row, then reduction."""
    pts = np.asarray(pts, dtype=float)
    m = pts.shape[0]
    buf = _Buffers.empty(sys.dim, (m,))
    moved = np.empty((sys.dim, m))
    _translate_into(sys.kind, element_floats(sys, [g])[0], pts.T, moved, buf)
    out = np.empty((m, sys.dim))
    _reduce_into(sys.kind, moved, out.T, buf)
    return out


def act(sys: NilSystem, g: GroupElement, x: NilPoint) -> NilPoint:
    row = act_array(sys, g, x.as_array()[None, :])[0]
    return NilPoint(tuple(float(c) for c in row))


def fundamental_distance(sys: NilSystem, x: NilPoint, y: NilPoint) -> float:
    """Largest per-coordinate distance on the circle, accounting for wraparound."""
    gaps = np.abs(x.as_array() - y.as_array())
    return float(np.max(np.minimum(gaps, 1.0 - gaps)))


# ----------------------------------------------------------------------
# Haar sampling


def haar_array(sys: NilSystem, seed: int, n: int) -> np.ndarray:
    """n i.i.d. Haar points as an (n, dim) array, deterministic per seed."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    return np.random.default_rng(seed).random((n, sys.dim))


def sample_haar(sys: NilSystem, seed: int, n: int) -> list:
    return [NilPoint(tuple(float(c) for c in row)) for row in haar_array(sys, seed, n)]


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
        object.__setattr__(self, "freq", tuple(int(k) for k in self.freq))
        if self.kind == "heis_abelian" and len(self.freq) != 2:
            raise ValueError("abelianized Heisenberg characters take a 2-vector frequency")
        if self.kind == "heis_vertical" and len(self.freq) != 3:
            raise ValueError("vertical Heisenberg functions take a 3-vector frequency")

    @property
    def mean_zero(self) -> bool:
        return any(self.freq) or self.part == "sin"


def _fn_coord_slice(f: TestFunction, width: int) -> slice:
    if f.kind == "torus_character":
        if len(f.freq) != width:
            raise ValueError(f"frequency arity {len(f.freq)} != torus dimension {width}")
        return slice(0, width)
    return slice(0, len(f.freq))


def eval_fn_array(f: TestFunction, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    window = pts[:, _fn_coord_slice(f, pts.shape[1])]
    out = np.empty(pts.shape[0])
    _phase_into(_phase_terms(f, window.T), f.part, out, np.empty(pts.shape[0]))
    return out


def eval_fn(f: TestFunction, x: NilPoint) -> float:
    return float(eval_fn_array(f, x.as_array()[None, :])[0])


# ----------------------------------------------------------------------
# step kernel


class StepKernel:
    """f(g x) on fixed points x, for a slab of consecutive group elements g at a time.

    Set up once per block of rows, for slabs of up to `steps` time steps:
    the coordinates are copied into contiguous rows and every buffer, of
    shape (coordinate, step, sample), is allocated here; a call works in
    views of their first s steps.  A call runs the translate, reduction and phase
    helpers that `act_array` and `eval_fn_array` run, so each row of its
    result is eval_fn_array(f, act_array(sys, g, pts)) for that step's g bit
    for bit.  An abelianized Heisenberg function does not read the central
    coordinate, so its kernel does not compute it.
    """

    __slots__ = ("kind", "f", "cols", "moved", "reduced", "buf", "out")

    def __init__(self, sys: NilSystem, f: TestFunction, pts: np.ndarray, steps: int):
        pts = np.asarray(pts, dtype=float)
        _fn_coord_slice(f, pts.shape[1])  # rejects a frequency of the wrong arity
        shape = (steps, pts.shape[0])
        rows = 2 if sys.kind == "heisenberg3" and f.kind == "heis_abelian" else sys.dim
        self.kind = sys.kind
        self.f = f
        self.cols = np.ascontiguousarray(pts.T)[:, None]
        self.moved = np.empty((rows, *shape))
        self.reduced = np.empty((rows, *shape))
        self.buf = _Buffers.empty(rows, shape)
        self.out = np.empty(shape)

    def __call__(self, g: np.ndarray) -> np.ndarray:
        """Values at g_s x for the columns g_s of g, shape (dim, s) with s <= steps.

        Returns one row of values per column, shape (s, sample); the next call
        overwrites them.
        """
        s = g.shape[1]
        moved, reduced, out, buf = self.moved[:, :s], self.reduced[:, :s], self.out[:s], self.buf.head(s)
        _translate_into(self.kind, g, self.cols, moved, buf)
        _reduce_into(self.kind, moved, reduced, buf)
        _phase_into(_phase_terms(self.f, reduced), self.f.part, out, buf.tmp)
        return out


# ----------------------------------------------------------------------
# JSON configs


def system_to_json_dict(sys: NilSystem) -> dict:
    out = {"kind": sys.kind, "dim": sys.dim}
    if sys.acting_matrix is not None:
        out["acting_matrix"] = [[str(e) for e in row] for row in sys.acting_matrix]
    return out


def system_from_json_dict(data: Mapping) -> NilSystem:
    return NilSystem(data["kind"], dim=data.get("dim"), acting_matrix=data.get("acting_matrix"))


def function_to_json_dict(f: TestFunction) -> dict:
    return {"kind": f.kind, "freq": list(f.freq), "part": f.part}


def function_from_json_dict(data: Mapping) -> TestFunction:
    return TestFunction(data["kind"], tuple(data["freq"]), data.get("part", "cos"))
