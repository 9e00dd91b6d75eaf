"""Independent oracles used by the test suite.

Group multiplication is cross-checked against faithful unitriangular matrix
models, where exp and log are finite polynomial sums and stay exact over
Fraction, and against the Dynkin form of the BCH series evaluated word by
word.  Free Lie algebra dimensions are cross-checked against the Witt
necklace-counting formula.  The float action and test functions are
cross-checked against whole-array formulas that make the same float
operations in the same order.  The PET order's class matching is
cross-checked against an exhaustive search over bijections.  Nothing here
imports the package under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from typing import List, Sequence, Tuple

import numpy as np

Matrix = Tuple[Tuple[Fraction, ...], ...]

F0 = Fraction(0)
F1 = Fraction(1)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c: Fraction) -> Matrix:
    return tuple(tuple(x * c for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    cols = list(zip(*b))
    return tuple(
        tuple(sum((a[i][k] * cols[j][k] for k in range(n)), F0) for j in range(n))
        for i in range(n)
    )


def mat_exp_nilpotent(n_mat: Matrix) -> Matrix:
    """exp of a strictly upper triangular matrix; the series terminates."""
    n = len(n_mat)
    result = mat_identity(n)
    power = mat_identity(n)
    fact = 1
    for k in range(1, n):
        power = mat_mul(power, n_mat)
        fact *= k
        result = mat_add(result, mat_scale(power, Fraction(1, fact)))
    return result


def mat_log_unitriangular(u: Matrix) -> Matrix:
    """log of a unitriangular matrix; the series terminates."""
    n = len(u)
    m = mat_add(u, mat_scale(mat_identity(n), Fraction(-1)))
    result = tuple(tuple(F0 for _ in range(n)) for _ in range(n))
    power = mat_identity(n)
    for k in range(1, n):
        power = mat_mul(power, m)
        sign = Fraction(1, k) if k % 2 == 1 else Fraction(-1, k)
        result = mat_add(result, mat_scale(power, sign))
    return result


# ----------------------------------------------------------------------
# coordinate embeddings


def heisenberg_to_matrix(coords: Sequence[Fraction]) -> Matrix:
    """Algebra coords (x_1..x_m, y_1..y_m, z) into (m+2)x(m+2) matrices."""
    dim = len(coords)
    m = (dim - 1) // 2
    n = m + 2
    rows = [[F0] * n for _ in range(n)]
    for i in range(m):
        rows[0][i + 1] = Fraction(coords[i])
        rows[i + 1][m + 1] = Fraction(coords[m + i])
    rows[0][m + 1] = Fraction(coords[2 * m])
    return tuple(tuple(r) for r in rows)


def heisenberg_from_matrix(mat: Matrix) -> Tuple[Fraction, ...]:
    n = len(mat)
    m = n - 2
    xs = [mat[0][i + 1] for i in range(m)]
    ys = [mat[i + 1][m + 1] for i in range(m)]
    return tuple(xs + ys + [mat[0][m + 1]])


def _ut_positions(labels: Sequence[str]) -> List[Tuple[int, int]]:
    # labels look like "e13": one-based row and column digits
    return [(int(l[1]) - 1, int(l[2]) - 1) for l in labels]


def ut_to_matrix(labels: Sequence[str], coords: Sequence[Fraction], n: int) -> Matrix:
    rows = [[F0] * n for _ in range(n)]
    for (i, j), c in zip(_ut_positions(labels), coords):
        rows[i][j] = Fraction(c)
    return tuple(tuple(r) for r in rows)


def ut_from_matrix(labels: Sequence[str], mat: Matrix) -> Tuple[Fraction, ...]:
    return tuple(mat[i][j] for i, j in _ut_positions(labels))


def matrix_bch(to_matrix, from_matrix, a: Sequence[Fraction], b: Sequence[Fraction]):
    """log(exp(A) exp(B)) computed entirely in the matrix model."""
    ea = mat_exp_nilpotent(to_matrix(a))
    eb = mat_exp_nilpotent(to_matrix(b))
    return from_matrix(mat_log_unitriangular(mat_mul(ea, eb)))


def dynkin_words_unfolded(step: int) -> Tuple[Tuple[Tuple[int, ...], Fraction], ...]:
    """The Dynkin form of the BCH series up to total degree `step`, unfolded.

    Letter 0 is the left factor, 1 the right; a word is the right-nested
    bracket [w_1,[w_2,[...,[w_{m-1},w_m]...]]].  Equal words are merged and
    words ending in a repeated letter dropped, but a word ending in (1, 0)
    is kept apart from its (0, 1) mirror.
    """
    coeffs = {}

    def extend(seq: List[Tuple[int, int]], used: int) -> None:
        n = len(seq)
        if n:
            denom = Fraction(1)
            letters: List[int] = []
            for p, q in seq:
                denom *= math.factorial(p) * math.factorial(q)
                letters.extend([0] * p + [1] * q)
            word = tuple(letters)
            coef = Fraction((-1) ** (n - 1), n) / (used * denom)
            coeffs[word] = coeffs.get(word, F0) + coef
        for total in range(1, step - used + 1):
            for p in range(total + 1):
                extend(seq + [(p, total - p)], used + total)

    extend([], 0)
    table = [
        (word, coef)
        for word, coef in coeffs.items()
        if coef != 0 and not (len(word) >= 2 and word[-1] == word[-2])
    ]
    table.sort(key=lambda item: (len(item[0]), item[0]))
    return tuple(table)


def dynkin_bch(bracket, step: int, a: Sequence, b: Sequence, zero=F0) -> list:
    """log(exp(a) exp(b)) word by word over the unfolded Dynkin table.

    `bracket(x, y)` returns the coordinates of [x, y]; every word's nested
    bracket is evaluated on its own and scaled by its coefficient.
    """
    out = [zero] * len(a)
    for word, coef in dynkin_words_unfolded(step):
        vec = list(a if word[-1] == 0 else b)
        dead = False
        for letter in reversed(word[:-1]):
            vec = bracket(a if letter == 0 else b, vec)
            if all(v == 0 for v in vec):
                dead = True
                break
        if dead:
            continue
        for k, v in enumerate(vec):
            if v == 0:
                continue
            out[k] = out[k] + coef * v
    return out


# ----------------------------------------------------------------------
# free Lie algebra dimensions


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(generators: int, degree: int) -> int:
    """Rank of the degree-d component of the free Lie algebra on g letters."""
    total = 0
    for e in range(1, degree + 1):
        if degree % e == 0:
            total += _mobius(e) * generators ** (degree // e)
    assert total % degree == 0
    return total // degree


# ----------------------------------------------------------------------
# float action and test functions, as whole-array formulas


def _frac(v: np.ndarray) -> np.ndarray:
    r = v - np.floor(v)
    return np.where(r >= 1.0, r - 1.0, r)


def act_reference(kind: str, g: Sequence[float], pts: np.ndarray) -> np.ndarray:
    """g x reduced to the fundamental domain, row-wise, for floated coordinates g.

    A Heisenberg row moves to (a + x, b + y, c + z + (a y - b x) / 2).
    Clearing the integer parts fx, fy of the new x, y by a right lattice
    translation moves its central coordinate by x y / 2 - x fy - xr yr / 2,
    except on rows that are already reduced (fx = fy = 0).
    """
    if kind == "torus":
        return _frac(pts + np.asarray(g, dtype=float))
    a, b, c = g
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    x, y, z = a + x, b + y, c + z + 0.5 * (a * y - b * x)
    fx, fy = np.floor(x), np.floor(y)
    xr, yr = _frac(x), _frac(y)
    offset = x * y / 2 - x * fy - xr * yr / 2
    offset = np.where((fx == 0) & (fy == 0), 0.0, offset)
    return np.stack([xr, yr, _frac(z + offset)], axis=1)


def character_reference(freq: Sequence[int], part: str, pts: np.ndarray) -> np.ndarray:
    """cos or sin of 2 pi sum_k freq_k x_k, the sum taken from 0.0 in order."""
    phase = 0.0
    for k, col in zip(freq, pts.T):
        phase = phase + float(k) * col
    phase = 2.0 * math.pi * phase
    return np.cos(phase) if part == "cos" else np.sin(phase)


# ----------------------------------------------------------------------
# class matching of the PET order


def weight_matching(f_sizes: Sequence[int], g_sizes: Sequence[int]) -> Tuple[bool, bool]:
    """Exhaustive search over bijections f -> g: (one has every f size <= its
    g size, one of those has some f size < its g size)."""
    if len(f_sizes) != len(g_sizes):
        return False, False
    valid = False
    for perm in permutations(range(len(g_sizes))):
        if all(a <= g_sizes[p] for a, p in zip(f_sizes, perm)):
            valid = True
            if any(a < g_sizes[p] for a, p in zip(f_sizes, perm)):
                return True, True
    return valid, False
