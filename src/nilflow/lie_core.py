"""Graded nilpotent Lie algebras and their simply connected groups.

An algebra is given by rational structure constants on a finite basis plus a
layer grading; group elements live in exponential coordinates and multiply
through the exact Dynkin expansion of the Baker-Campbell-Hausdorff series,
truncated at the algebra's nilpotency step.  The bracket works on raw
coordinate vectors (`bracket_coords`) over any commutative ring, so BCH runs
on Fractions and on polynomial coordinates alike.  Everything is
Fraction-exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from inspect import signature
from itertools import product
from math import factorial
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

from .multipoly import as_fraction

MAX_BCH_STEP = 6

BracketRow = Dict[int, Fraction]
BracketTable = Dict[Tuple[int, int], BracketRow]

_F0 = Fraction(0)
_F1 = Fraction(1)


class LieAlgebraSpec:
    """Nilpotent Lie algebra defined by structure constants and a grading.

    `brackets` maps ordered index pairs (i, j) to sparse coefficient rows
    {k: c} meaning [e_i, e_j] = sum c * e_k.  Pairs may be given in either
    orientation; arithmetic uses the canonical i < j table, with the mirror
    entry filled in by antisymmetry when only one orientation is present.
    Construction keeps whatever table it is given so that verify_algebra
    can report violations instead of refusing to build the object.
    """

    __slots__ = ("dim", "labels", "step", "layers", "brackets", "_table", "_key")

    def __init__(
        self,
        labels: Sequence[str],
        layers: Sequence[int],
        brackets: Mapping[Tuple[int, int], Mapping[int, Union[int, str, Fraction]]],
        step: int | None = None,
    ):
        self.labels: Tuple[str, ...] = tuple(labels)
        self.dim: int = len(self.labels)
        if len(layers) != self.dim:
            raise ValueError("layer list length does not match basis size")
        self.layers: Tuple[int, ...] = tuple(layers)
        if any(l < 1 for l in self.layers):
            raise ValueError("layers must be positive integers")
        self.step: int = step if step is not None else max(self.layers, default=1)
        if self.step < 1:
            raise ValueError("step must be positive")

        raw: BracketTable = {}
        for (i, j), row in brackets.items():
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"bracket pair ({i},{j}) out of range for dim {self.dim}")
            clean: BracketRow = {}
            for k, coef in row.items():
                if not 0 <= k < self.dim:
                    raise ValueError(f"bracket target {k} out of range for dim {self.dim}")
                coef = as_fraction(coef)
                if coef != 0:
                    clean[k] = coef
            if clean:
                raw[(i, j)] = clean
        self.brackets: BracketTable = raw

        table: BracketTable = {}
        for (i, j), row in raw.items():
            if i < j:
                table[(i, j)] = dict(row)
        for (i, j), row in raw.items():
            if i > j and (j, i) not in table:
                table[(j, i)] = {k: -c for k, c in row.items()}
        self._table: BracketTable = table

        self._key = (
            self.labels,
            self.layers,
            self.step,
            tuple(sorted((p, tuple(sorted(row.items()))) for p, row in table.items())),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"LieAlgebraSpec(dim={self.dim}, step={self.step}, labels={list(self.labels)})"

    def basis_index(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"unknown basis label {label!r}; the algebra has {list(self.labels)}")
        return self.labels.index(label)


@dataclass(frozen=True)
class GroupElement:
    """Group element exp(X) recorded by the exponential coordinates of X.

    exp is a bijection on a simply connected nilpotent group, so the same
    coordinates also stand for the algebra element X.
    """

    algebra: LieAlgebraSpec
    coords: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        coords = tuple(as_fraction(c) for c in self.coords)
        if len(coords) != self.algebra.dim:
            raise ValueError(f"expected {self.algebra.dim} coordinates, got {len(coords)}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _make(cls, algebra: LieAlgebraSpec, coords: Tuple[Fraction, ...]) -> "GroupElement":
        """Unchecked constructor: `coords` must already be a tuple of
        `algebra.dim` Fractions."""
        out = object.__new__(cls)
        object.__setattr__(out, "algebra", algebra)
        object.__setattr__(out, "coords", coords)
        return out


def bracket_coords(alg: LieAlgebraSpec, a: Sequence, b: Sequence, zero=_F0) -> list:
    """[a, b] on raw coordinate vectors; entries may be any commutative ring
    whose elements are false exactly at zero (Fractions, MultiPolys)."""
    out = [zero] * alg.dim
    for (i, j), row in alg._table.items():
        d = a[i] * b[j] - a[j] * b[i]
        if not d:
            continue
        for k, c in row.items():
            out[k] = out[k] + d * c
    return out


@lru_cache(maxsize=None)
def _dynkin_words(step: int) -> Tuple[Tuple[Tuple[int, ...], Fraction], ...]:
    """BCH series as (word, coefficient) pairs up to total degree `step`.

    Letter 0 stands for the left factor, 1 for the right.  A word w encodes
    the right-nested bracket [w_1,[w_2,[...,[w_{m-1},w_m]...]]].  The Dynkin
    compositions give each word a coefficient; the table is then folded on
    the innermost bracket.  A word ending in a repeated letter vanishes and
    is dropped.  Since [b,a] = -[a,b], a word ending in (1,0) becomes the
    same word ending in (0,1) with its coefficient negated, so every word of
    length two or more ends in (0,1).  Equal words are merged and zero
    coefficients dropped: step 2 gives a + b + 1/2[a,b], and step 3 adds
    1/12[a,[a,b]] - 1/12[b,[a,b]].
    """
    coeffs: Dict[Tuple[int, ...], Fraction] = {}

    def extend(seq: List[Tuple[int, int]], used: int) -> None:
        n = len(seq)
        if n:
            denom = Fraction(1)
            letters: List[int] = []
            for p, q in seq:
                denom *= factorial(p) * factorial(q)
                letters.extend([0] * p + [1] * q)
            word = tuple(letters)
            coef = Fraction((-1) ** (n - 1), n) / (used * denom)
            coeffs[word] = coeffs.get(word, _F0) + coef
        for total in range(1, step - used + 1):
            for p in range(total + 1):
                extend(seq + [(p, total - p)], used + total)

    extend([], 0)
    folded: Dict[Tuple[int, ...], Fraction] = {}
    for word, coef in coeffs.items():
        if len(word) >= 2:
            if word[-1] == word[-2]:
                continue
            if word[-1] == 0:
                word, coef = word[:-2] + (0, 1), -coef
        folded[word] = folded.get(word, _F0) + coef
    table = [(word, coef) for word, coef in folded.items() if coef != 0]
    table.sort(key=lambda item: (len(item[0]), item[0]))
    return tuple(table)


def bch_coords(alg: LieAlgebraSpec, a: Sequence, b: Sequence, zero=_F0) -> list:
    """Coordinates of log(exp(a) exp(b)) over a ring as in `bracket_coords`.

    Each right-nested bracket is evaluated once: `nested` maps a word
    suffix to its bracket, or to None once it vanishes, so words sharing
    inner brackets reuse them.
    """
    if alg.step > MAX_BCH_STEP:
        raise ValueError(
            f"step {alg.step} exceeds the supported BCH truncation bound {MAX_BCH_STEP}"
        )
    out = [zero] * alg.dim
    nested: Dict[Tuple[int, ...], list | None] = {(0,): a, (1,): b}
    for word, coef in _dynkin_words(alg.step):
        i = len(word) - 1
        while i and word[i - 1 :] in nested:
            i -= 1
        vec = nested[word[i:]]
        while i and vec is not None:
            i -= 1
            vec = bracket_coords(alg, a if word[i] == 0 else b, vec, zero)
            if not any(vec):
                vec = None
            nested[word[i:]] = vec
        if vec is None:
            continue
        scale = coef != 1
        for k, v in enumerate(vec):
            if not v:
                continue
            out[k] = out[k] + (coef * v if scale else v)
    return out


def bch_product(x: GroupElement, y: GroupElement) -> GroupElement:
    """exp(x) * exp(y) in exponential coordinates, exact up to the step."""
    if x.algebra != y.algebra:
        raise ValueError("elements belong to different algebras")
    return GroupElement._make(x.algebra, tuple(bch_coords(x.algebra, x.coords, y.coords)))


def group_inverse(x: GroupElement) -> GroupElement:
    """exp(X)^{-1} = exp(-X)."""
    return GroupElement._make(x.algebra, tuple(-c for c in x.coords))


def identity(alg: LieAlgebraSpec) -> GroupElement:
    return GroupElement._make(alg, (_F0,) * alg.dim)


# ----------------------------------------------------------------------
# builtin algebras


def _abelian(dim: int) -> LieAlgebraSpec:
    if dim < 1:
        raise ValueError("abelian algebra needs dim >= 1")
    return LieAlgebraSpec([f"e{i+1}" for i in range(dim)], [1] * dim, {}, step=1)


def _heisenberg(dim: int) -> LieAlgebraSpec:
    if dim < 3 or dim % 2 == 0 or dim > 13:
        raise ValueError("heisenberg algebra needs odd dim between 3 and 13")
    m = (dim - 1) // 2
    labels = [f"x{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(m)] + ["z"]
    layers = [1] * (2 * m) + [2]
    brackets = {(i, m + i): {2 * m: _F1} for i in range(m)}
    return LieAlgebraSpec(labels, layers, brackets, step=2)


def _strictly_upper_triangular(n: int) -> LieAlgebraSpec:
    if not 2 <= n <= 6:
        raise ValueError("strictly_upper_triangular supports 2 <= n <= 6")
    positions = sorted(
        ((i, j) for i in range(n) for j in range(i + 1, n)),
        key=lambda p: (p[1] - p[0], p),
    )
    index = {p: k for k, p in enumerate(positions)}
    labels = [f"e{i+1}{j+1}" for i, j in positions]
    layers = [j - i for i, j in positions]
    brackets: Dict[Tuple[int, int], BracketRow] = {}
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            (i, j), (k, l) = positions[a], positions[b]
            row: BracketRow = {}
            if j == k:
                row[index[(i, l)]] = row.get(index[(i, l)], _F0) + 1
            if l == i:
                row[index[(k, j)]] = row.get(index[(k, j)], _F0) - 1
            row = {t: c for t, c in row.items() if c != 0}
            if row:
                brackets[(a, b)] = row
    return LieAlgebraSpec(labels, layers, brackets, step=n - 1)


# Free nilpotent algebras are built inside the free associative algebra,
# where [p, q] = pq - qp: a left-normed bracket word expands to a signed sum
# of monomials, and exact Gaussian elimination per degree picks the
# independent ones.

_AssocPoly = Dict[Tuple[int, ...], Fraction]


def _assoc_bracket(p: _AssocPoly, q: _AssocPoly) -> _AssocPoly:
    """pq - qp in the free associative algebra."""
    out: _AssocPoly = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            c = c1 * c2
            pq, qp = w1 + w2, w2 + w1
            out[pq] = out.get(pq, _F0) + c
            out[qp] = out.get(qp, _F0) - c
    return {w: c for w, c in out.items() if c != 0}


class _Echelon:
    """Per-degree echelon rows, each remembering its basis combination."""

    def __init__(self) -> None:
        self.rows: List[Tuple[Tuple[int, ...], _AssocPoly, Dict[int, Fraction]]] = []

    def reduce(self, vec: _AssocPoly) -> Tuple[_AssocPoly, Dict[int, Fraction]]:
        vec = dict(vec)
        combo: Dict[int, Fraction] = {}
        for pivot, row, rcombo in self.rows:
            c = vec.get(pivot)
            if not c:
                continue
            for w, rc in row.items():
                acc = vec.get(w, _F0) - c * rc
                if acc == 0:
                    vec.pop(w, None)
                else:
                    vec[w] = acc
            for idx, rc in rcombo.items():
                acc = combo.get(idx, _F0) + c * rc
                if acc == 0:
                    combo.pop(idx, None)
                else:
                    combo[idx] = acc
        return vec, combo

    def insert(self, residual: _AssocPoly, combo: Dict[int, Fraction]) -> None:
        pivot = min(residual)
        lead = residual[pivot]
        row = {w: c / lead for w, c in residual.items()}
        scaled = {idx: c / lead for idx, c in combo.items()}
        self.rows.append((pivot, row, scaled))


def _free_nilpotent(generators: int, step: int) -> LieAlgebraSpec:
    if not 1 <= generators <= 4:
        raise ValueError("free_nilpotent supports 1 to 4 generators")
    if not 1 <= step <= MAX_BCH_STEP:
        raise ValueError(f"free_nilpotent supports step 1 to {MAX_BCH_STEP}")

    labels: List[str] = []
    degrees: List[int] = []
    expansions: List[_AssocPoly] = []
    echelons: Dict[int, _Echelon] = {d: _Echelon() for d in range(1, step + 1)}

    def select(exp: _AssocPoly, degree: int, label: str) -> bool:
        residual, red = echelons[degree].reduce(exp)
        if not residual:
            return False
        index = len(labels)
        # residual = exp - sum(red * basis), so its basis combination is
        # the unit vector at the new index minus red.
        combo = {index: _F1}
        for idx, c in red.items():
            combo[idx] = combo.get(idx, _F0) - c
        echelons[degree].insert(residual, {k: v for k, v in combo.items() if v != 0})
        labels.append(label)
        degrees.append(degree)
        expansions.append(exp)
        return True

    for g in range(generators):
        select({(g,): _F1}, 1, f"x{g+1}")

    for degree in range(2, step + 1):
        for word in product(range(generators), repeat=degree):
            exp: _AssocPoly = {word[:1]: _F1}
            for letter in word[1:]:
                exp = _assoc_bracket(exp, {(letter,): _F1})
            if exp:
                select(exp, degree, "c" + "".join(str(l + 1) for l in word))

    brackets: Dict[Tuple[int, int], BracketRow] = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            d = degrees[i] + degrees[j]
            if d > step:
                continue
            comm = _assoc_bracket(expansions[i], expansions[j])
            if not comm:
                continue
            residual, combo = echelons[d].reduce(comm)
            if residual:
                raise RuntimeError("free Lie element escaped its degree basis")
            row = {k: c for k, c in combo.items() if c != 0}
            if row:
                brackets[(i, j)] = row

    real_step = max(degrees)
    return LieAlgebraSpec(labels, degrees, brackets, step=real_step)


_BUILTINS = {
    "abelian": _abelian,
    "heisenberg": _heisenberg,
    "strictly_upper_triangular": _strictly_upper_triangular,
    "free_nilpotent": _free_nilpotent,
}


def builtin_builder(kind: str, params: Mapping[str, object]) -> Callable[..., LieAlgebraSpec]:
    """The builder of a named algebra family, once the names of `params`
    fit it; their values are not looked at.  An unknown kind, or an unknown
    or missing parameter, is a ValueError that names the kind and the
    parameter."""
    if kind not in _BUILTINS:
        raise ValueError(f"unknown builtin algebra kind {kind!r}")
    build = _BUILTINS[kind]
    parameters = signature(build)
    try:  # an unknown parameter, then a missing one, named with the builtin rather than the builder
        parameters.bind_partial(**params)
        parameters.bind(**params)
    except TypeError as exc:
        raise ValueError(f"algebra builtin {kind!r}: {exc}") from None
    return build


def make_builtin(kind: str, **params) -> LieAlgebraSpec:
    """Construct a named algebra family member.

    Kinds: abelian(dim), heisenberg(dim odd), strictly_upper_triangular(n),
    free_nilpotent(generators, step).  Names are checked by `builtin_builder`.
    """
    return builtin_builder(kind, params)(**params)


# ----------------------------------------------------------------------
# diagnostics


def verify_algebra(alg: LieAlgebraSpec) -> List[str]:
    """Exhaustive invariant check; returns human-readable violations."""
    violations: List[str] = []

    for (i, j), row in alg.brackets.items():
        if i == j:
            for k in sorted(row):
                violations.append(f"antisymmetry violation at ({i},{j},{k})")
    seen = set()
    for (i, j), row in alg.brackets.items():
        if i == j or (j, i) in seen:
            continue
        seen.add((i, j))
        mirror = alg.brackets.get((j, i))
        if mirror is None:
            continue
        keys = set(row) | set(mirror)
        for k in sorted(keys):
            if row.get(k, _F0) != -mirror.get(k, _F0):
                violations.append(f"antisymmetry violation at ({min(i, j)},{max(i, j)},{k})")

    basis = [
        tuple(_F1 if t == s else _F0 for t in range(alg.dim)) for s in range(alg.dim)
    ]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                acc = [_F0] * alg.dim
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_coords(alg, basis[a], basis[b])
                    outer = bracket_coords(alg, inner, basis[c])
                    acc = [u + v for u, v in zip(acc, outer)]
                if any(v != 0 for v in acc):
                    violations.append(f"Jacobi violation at ({i},{j},{k})")

    for (i, j), row in alg._table.items():
        need = alg.layers[i] + alg.layers[j]
        for k in sorted(row):
            if alg.layers[k] < need:
                violations.append(f"grading violation at ({i},{j},{k})")

    present = set(alg.layers)
    expected = set(range(1, alg.step + 1))
    if present != expected:
        violations.append(
            f"layer values {sorted(present)} are not contiguous from 1 to step {alg.step}"
        )

    return violations


# ----------------------------------------------------------------------
# serialization


def algebra_to_json_dict(alg: LieAlgebraSpec) -> dict:
    rows = []
    for (i, j) in sorted(alg._table):
        row = alg._table[(i, j)]
        rows.append([i, j, [[k, str(row[k])] for k in sorted(row)]])
    return {
        "dim": alg.dim,
        "labels": list(alg.labels),
        "step": alg.step,
        "layers": list(alg.layers),
        "brackets": rows,
    }
