"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries an ordered tuple of variable names and a sparse term
map from exponent tuples to nonzero Fraction coefficients.  All arithmetic
is exact; nothing here touches floating point.
"""

from __future__ import annotations

from contextlib import suppress
from fractions import Fraction
from math import comb
from operator import add
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .errors import ConfigError

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]

# An affine expression c0 + sum(coeff * var) used by substitute().
Affine = Tuple[Fraction, Dict[str, Fraction]]


def as_fraction(value: Union[int, float, str, Fraction]) -> Fraction:
    """The exact rational of an int, a Fraction or a string such as "1/3".

    A float is read as its shortest decimal, so 0.1 gives 1/10.  Anything
    else (a bool, None, NaN, inf, "1/0", any other string) is a ConfigError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        with suppress(ValueError, ZeroDivisionError):
            return Fraction(repr(value) if isinstance(value, float) else value)
    raise ConfigError(f"expected an exact rational number, got {value!r}")


def _accumulate(terms: Dict[Exponent, Fraction], exp: Exponent, coef: Fraction) -> None:
    """terms[exp] += coef for a nonzero coef, dropping the term if it cancels."""
    acc = terms.get(exp)
    if acc is None:
        terms[exp] = coef
        return
    acc += coef
    if acc:
        terms[exp] = acc
    else:
        del terms[exp]


class MultiPoly:
    """Sparse exact polynomial in a fixed ordered variable list."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction] | None = None):
        self.vars: Tuple[str, ...] = tuple(variables)
        clean: Dict[Exponent, Fraction] = {}
        if terms:
            arity = len(self.vars)
            for exp, coef in terms.items():
                coef = as_fraction(coef)
                if coef == 0:
                    continue
                if len(exp) != arity or any(e < 0 for e in exp):
                    raise ValueError(f"exponent {exp} does not match variables {self.vars}")
                _accumulate(clean, exp, coef)
        self.terms: Dict[Exponent, Fraction] = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _make(cls, variables: Tuple[str, ...], terms: Dict[Exponent, Fraction]) -> "MultiPoly":
        """Unchecked constructor: `terms` must already be clean (right arity,
        nonnegative exponents, nonzero Fraction coefficients)."""
        out = cls.__new__(cls)
        out.vars = variables
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Sequence[str], value: Union[int, str, Fraction]) -> "MultiPoly":
        value = as_fraction(value)
        if value == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r} among {variables}")
        exp = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, {exp: Fraction(1)})

    # ------------------------------------------------------------------
    # predicates

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial (zero polynomial gives 0)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def depends_on(self, names: Iterable[str]) -> bool:
        """True if any term has a positive exponent on one of `names`."""
        idx = [self.vars.index(n) for n in names]
        return any(any(exp[i] for i in idx) for exp in self.terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_vars(other)
        terms = dict(self.terms)
        for exp, coef in other.terms.items():
            _accumulate(terms, exp, coef)
        return MultiPoly._make(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.vars, {exp: -coef for exp, coef in self.terms.items()})

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly(self.vars)
            other = as_fraction(other)
            return MultiPoly._make(self.vars, {exp: coef * other for exp, coef in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_vars(other)
        terms: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(terms, tuple(map(add, e1, e2)), c1 * c2)
        return MultiPoly._make(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            if not self.terms:
                return other == 0
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # evaluation and substitution

    def eval(self, point: Union[Sequence[Union[int, str, Fraction]], Mapping[str, Union[int, str, Fraction]]]) -> Fraction:
        """Exact evaluation at a rational point."""
        if isinstance(point, Mapping):
            values = [as_fraction(point[v]) for v in self.vars]
        else:
            if len(point) != len(self.vars):
                raise ValueError(f"point arity {len(point)} != {len(self.vars)} variables")
            values = [as_fraction(p) for p in point]
        total = Fraction(0)
        for exp, coef in self.terms.items():
            prod = coef
            for value, e in zip(values, exp):
                if e:
                    prod *= value ** e
            total += prod
        return total

    def _extension(self, new_vars: Sequence[str]) -> Tuple[str, ...]:
        """`new_vars` as a tuple, refused unless it extends the current list."""
        new_vars = tuple(new_vars)
        if new_vars[: len(self.vars)] != self.vars:
            raise ValueError(f"{new_vars} does not extend the variables {self.vars}")
        return new_vars

    def with_vars(self, new_vars: Sequence[str]) -> "MultiPoly":
        """The same polynomial over `new_vars`, which must extend the current variables."""
        new_vars = self._extension(new_vars)
        pad = (0,) * (len(new_vars) - len(self.vars))
        return MultiPoly._make(new_vars, {exp + pad: coef for exp, coef in self.terms.items()})

    def substitute(self, new_vars: Sequence[str], assignment: Mapping[str, Affine]) -> "MultiPoly":
        """Affine substitution var -> c0 + sum(coeff * new_var): each term's
        coefficient times each variable's image raised to its exponent.

        `new_vars` must extend the current variables, and every assigned
        name must be one of them.  Every variable keeps its place; a
        substituted one has degree 0 unless its image names it.
        """
        new_vars = self._extension(new_vars)
        for name in assignment:
            if name not in self.vars:
                raise ValueError(f"cannot substitute {name!r}: not among the variables {self.vars}")
        images = []
        for name in self.vars:
            if name not in assignment:
                images.append(MultiPoly.variable(new_vars, name))
                continue
            c0, linear = assignment[name]
            image = MultiPoly.const(new_vars, c0)
            for other, coeff in linear.items():
                image = image + MultiPoly.variable(new_vars, other) * as_fraction(coeff)
            images.append(image)
        total = MultiPoly(new_vars)
        for exp, coef in self.terms.items():
            term = MultiPoly.const(new_vars, coef)
            for image, e in zip(images, exp):
                if e:
                    term = term * image ** e
            total = total + term
        return total

    def shift(self, new_vars: Sequence[str], name: str, keep: bool = True, sign: int = 1) -> "MultiPoly":
        """`substitute` of x -> x + sign*k (x -> sign*k unless `keep`) for
        the variable x = `name` and the one variable k that `new_vars`
        appends, by exponent maps alone: x^d becomes
        sum C(d, j) sign^j x^(d-j) k^j, or sign^d k^d.  Distinct terms stay
        distinct, so nothing is collected."""
        new_vars = self._extension(new_vars)
        if len(new_vars) != len(self.vars) + 1 or name not in self.vars or sign not in (1, -1):
            raise ValueError(f"cannot shift {name!r} of {self.vars} by {sign} times one variable appended in {new_vars}")
        i = self.vars.index(name)
        odd = sign < 0  # j & odd is 1 exactly for an odd power of -1
        terms: Dict[Exponent, Fraction] = {}
        for exp, coef in self.terms.items():
            d, head, tail = exp[i], exp[:i], exp[i + 1:]
            for j in range(0 if keep else d, d + 1):
                c = coef * comb(d, j) if 0 < j < d else coef
                terms[head + (d - j,) + tail + (j,)] = -c if j & odd else c
        return MultiPoly._make(new_vars, terms)

    # ------------------------------------------------------------------
    # structure queries

    def degree_in(self, name: str) -> int:
        """Largest exponent of `name`; 0 for the zero polynomial."""
        i = self.vars.index(name)
        return max((exp[i] for exp in self.terms), default=0)

    def total_degree_in(self, names: Iterable[str]) -> int:
        idx = [self.vars.index(n) for n in names]
        return max((sum(exp[i] for i in idx) for exp in self.terms), default=0)

    def coefficient_of(self, name: str, degree: int) -> "MultiPoly":
        """Coefficient of name**degree as a polynomial in the other variables."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {exp[:i] + exp[i + 1:]: coef for exp, coef in self.terms.items() if exp[i] == degree}
        return MultiPoly._make(rest, terms)

    # ------------------------------------------------------------------
    # serialization and display

    def to_terms(self) -> list:
        """JSON-friendly term list [{"exp": [...], "coef": "p/q"}, ...]."""
        ordered = sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]))
        return [{"exp": list(exp), "coef": str(coef)} for exp, coef in ordered]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exp, coef in sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0])):
            factors = []
            if coef != 1 or not any(exp):
                factors.append(str(coef))
            for v, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars!r}, {self})"
