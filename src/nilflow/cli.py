"""Batch front end.

One JSON config per run, and one runner for every command.  `main` loads the
config, applies --seed and --threads, and reads the keys all commands share:
`command`, which must name the subcommand, and `threads`.  A `cmd_*` reads
its own keys, computes, and returns its `Outputs`; it writes and prints
nothing.  `main` then writes report.csv, certificate.json and sidecar.json
into the output directory, names the command in both JSON documents, and
prints the command's summary.  The sidecar holds the config with all
defaults materialized, so it alone reproduces the run.  Each file is moved
into place whole; the JSON files are streamed to disk in pieces.

Every config value is read in this module before the library sees it, by
`_typed`, or by `_rational` for a rational, and a refusal names its key; an
optional key that is absent or null takes its default (`_get`).

Exit codes: 0 success, 2 config error, 3 certificate failure, 4 truncation.
"""

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from csv import writer as csv_writer
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .averaging import (
    JoiningSpec,
    flow_correlation_trajectory,
    half_step_times,
    scan_with_invariance,
    vdc_check,
)
from .dynamics import NilSystem, TestFunction, function_to_json_dict, system_to_json_dict
from .errors import CertificateError, ConfigError, TruncationError
from .lie_core import (
    GroupElement,
    LieAlgebraSpec,
    algebra_to_json_dict,
    builtin_builder,
    verify_algebra,
)
from .multipoly import MultiPoly, as_fraction
from .pet import MAX_DEPTH, MemberDoc, PolyFamily, pet_trace, trace_to_json_dict
from .poly_maps import (
    PolyMap,
    check_time_origin,
    leading_term,
    polymap_to_json_dict,
    polynomial_degree,
)
from .zariski import (
    MeagreSet,
    generic_sample,
    is_proper,
    meagre_set_to_json_dict,
    nonvanishing_certificate,
    vanishing_variety,
)


# ----------------------------------------------------------------------
# config loading


_JSON_TYPES = {int: "an integer", str: "a string", list: "an array", dict: "an object"}


@contextmanager
def _reading_config():
    """The scope of a command's config reading: a malformed config met there is a ConfigError."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _typed(key: str, value, kind: type, least: int | None = None):
    """`value`, read for config key `key`: of JSON type `kind` (a bool is no int), and at least `least`."""
    if type(value) is not kind:
        raise ConfigError(f"{key} must be {_JSON_TYPES[kind]}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _rational(key: str, value):
    """`value`, read for config key `key`: an exact rational to `as_fraction`,
    such as an integer, a float or a string "1/3"."""
    try:
        as_fraction(value)
    except ConfigError:
        raise ConfigError(f"{key} must be an exact rational number, got {value!r}") from None
    return value


def _get(node: dict, key: str, default, kind: type | None = None, least: int | None = None):
    """The optional `node[key]`, read by `_typed` when `kind` is given; `default` if absent or null."""
    value = node.get(key)
    if value is None:
        return default
    return value if kind is None else _typed(key, value, kind, least)


def _known(key: str, node: dict, allowed: Sequence[str]) -> dict:
    """`node`, read for config key `key`, refused if it has a key outside `allowed`:
    a misspelt optional key would otherwise take its default without a word."""
    unknown = sorted(set(node).difference(allowed))
    if unknown:
        raise ConfigError(f"{key} has unknown key(s) {', '.join(map(repr, unknown))}")
    return node


def _items(key: str, value) -> list:
    """(key of the entry, entry) for each entry of the array `value`, read for config key `key`."""
    return [(f"{key}[{n}]", entry) for n, entry in enumerate(_typed(key, value, list))]


def _entries(key: str, value, kind: type) -> tuple:
    """`value`, read for config key `key`: an array whose entries each have the JSON type `kind`."""
    return tuple(_typed(name, entry, kind) for name, entry in _items(key, value))


def _rationals(key: str, value) -> Tuple[Fraction, ...]:
    """`value`, read for config key `key`: an array of exact rationals."""
    return tuple(as_fraction(_rational(name, entry)) for name, entry in _items(key, value))


def _load_algebra(cfg: dict) -> LieAlgebraSpec:
    node = _typed("algebra", cfg["algebra"], dict)
    if "builtin" in node:
        params = {key: value for key, value in node.items() if key != "builtin"}
        build = builtin_builder(_typed("builtin", node["builtin"], str), params)
        return build(**{key: _typed(key, value, int) for key, value in params.items()})
    _known("algebra", node, ("labels", "dim", "brackets", "layers", "step"))
    labels = _entries("labels", node["labels"], str)
    if _get(node, "dim", len(labels), int) != len(labels):
        raise ConfigError("dim field disagrees with label count")
    brackets = {}
    for key, entry in _items("brackets", _get(node, "brackets", [])):
        i, j, row = _typed(key, entry, list)
        row = [_typed(name, pair, list) for name, pair in _items(f"{key}[2]", row)]
        brackets[_typed(f"{key}[0]", i, int), _typed(f"{key}[1]", j, int)] = {
            _typed(f"{key}[2] index", k, int): coef for k, coef in row
        }
    layers = _entries("layers", node["layers"], int)
    algebra = LieAlgebraSpec(labels, layers, brackets, step=_get(node, "step", None, int))
    violations = verify_algebra(algebra)
    if violations:
        raise ConfigError("algebra is not a graded nilpotent Lie algebra: " + "; ".join(violations))
    return algebra


def _parse_monomial(text: str, variables: Sequence[str]) -> Tuple[int, ...]:
    exponents = [0] * len(variables)
    text = text.strip()
    if text in ("", "1"):
        return tuple(exponents)
    for factor in text.split():
        name, caret, power = factor.partition("^")
        if name not in variables:
            raise ConfigError(f"monomial {factor!r} uses unknown variable {name!r}")
        if caret and not power.isdecimal():
            raise ConfigError(f"monomial {text!r}: exponent {power!r} is not a nonnegative integer")
        exponents[variables.index(name)] += int(power) if power else 1
    return tuple(exponents)


def _poly_from_node(label: str, node, variables: Tuple[str, ...]) -> MultiPoly:
    """A coordinate written as an object of monomials, such as {"t^2": "1/2"}."""
    terms = {}
    for mono, coef in _typed(f"coordinate {label!r}", node, dict).items():
        exp = _parse_monomial(mono, variables)
        terms[exp] = terms.get(exp, Fraction(0)) + as_fraction(_rational(f"coordinate {label!r} term {mono!r}", coef))
    return MultiPoly(variables, terms)


def _poly_from_term_list(key: str, node, variables: Tuple[str, ...]) -> MultiPoly:
    """A coordinate in the sidecar's term-list form, [{"exp": [2], "coef": "1/2"}, ...]."""
    terms = [_known(name, _typed(name, term, dict), ("exp", "coef")) for name, term in _items(key, node)]
    return MultiPoly(variables, {_entries("exp", term["exp"], int): _rational("coef", term["coef"]) for term in terms})


def _load_members(cfg: dict, algebra: LieAlgebraSpec) -> List[PolyMap]:
    """The family; a member's coords are an object keyed by basis label, or the sidecar's term lists."""
    default_vars = _entries("vars", _get(cfg, "vars", ["t"]), str)
    members = []
    for i, node in enumerate(_typed("family", cfg["family"], list)):
        key = f"family[{i}]"
        node = _known(key, _typed(f"family member {i}", node, dict), ("vars", "domain", "coords"))
        variables = _entries(f"{key}.vars", _get(node, "vars", list(default_vars)), str)
        domain = None if node.get("domain") is None else _entries(f"{key}.domain", node["domain"], str)
        coords = node["coords"]
        if type(coords) is list:
            polys = [_poly_from_term_list(name, c, variables) for name, c in _items(f"{key}.coords", coords)]
            members.append(PolyMap(algebra, variables, polys, domain=domain))
            continue
        entries = {
            label: _poly_from_node(label, p, variables)
            for label, p in _typed(f"{key}.coords", coords, dict).items()
        }
        members.append(PolyMap.build(algebra, variables, entries, domain=domain))
    return members


def _load_system(key: str, node) -> NilSystem:
    node = _known(key, _typed(key, node, dict), ("kind", "dim", "acting_matrix"))
    rows = node.get("acting_matrix")
    if rows is not None:
        rows = [_rationals(name, row) for name, row in _items(f"{key}.acting_matrix", rows)]
    return NilSystem(_typed("kind", node["kind"], str), dim=_get(node, "dim", None, int), acting_matrix=rows)


def _load_function(key: str, node) -> TestFunction:
    node = _known(key, _typed(key, node, dict), ("kind", "freq", "part"))
    kind = _typed("kind", node["kind"], str)
    return TestFunction(kind, tuple(_typed("freq", node["freq"], list)), _get(node, "part", "cos", str))


def _load_factor_elements(key: str, nodes, systems) -> list:
    """One group element per factor, each in its factor's algebra, read for config key `key`."""
    items = _items(key, nodes)
    if len(items) != len(systems):
        raise ConfigError(f"{key} has {len(items)} elements, need one per factor ({len(systems)})")
    return [
        GroupElement(sys_i.algebra, _rationals(name, node)) for (name, node), sys_i in zip(items, systems)
    ]


# ----------------------------------------------------------------------
# output writers


@contextmanager
def _replacing(path: Path, newline: str | None = None):
    """A text file written as a temporary sibling of `path` and moved into its
    place whole; if writing fails, it is removed and `path` is left as it was."""
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", newline=newline) as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with _replacing(path, newline="") as fh:
        table = csv_writer(fh, lineterminator="\n")
        table.writerow(header)
        table.writerows(rows)


class _Memoized(tuple):
    """`(key, node)`: a piece of a member whose text is kept for one PET
    level, under its content key and its indent."""

    __slots__ = ()


def _level_view(node: dict) -> dict:
    """A member's `map` with its name lists and its terms marked for the
    memo; a term is keyed by its `coef` and `exp`, all that
    `MultiPoly.to_terms` writes."""
    view = dict(node)
    for name in ("vars", "domain"):
        if name in node:
            view[name] = _Memoized((tuple(node[name]), node[name]))
    view["coords"] = [[_Memoized(((t["coef"], tuple(t["exp"])), t)) for t in coord] for coord in node["coords"]]
    return view


def _json_chunks(node, indent: str = "\n") -> Iterator[str]:
    """The text `json.dumps(node, indent=2, sort_keys=True)` gives, in pieces.

    A `MemberDoc` is joined into one string from memoized pieces: the text
    of each term, keyed by its coefficient string and exponent tuple, and
    of its `vars` and `domain` lists, keyed by the tuple of names; each key
    also holds the indent, and what is kept is what `encode` returns.  The
    pieces of one PET level are kept until a member with another variable
    list arrives.  A member's whole text is kept until its next use at the
    same indent (a step's `derived` and the next step's `family`), then
    dropped.  So about one PET level is held as text at a time.

    Only a container that holds containers is streamed, item by item; any
    other node, such as a list of ints, is encoded whole, with plain `str`
    and `int` children written inline.  Keys must be strings: `_quote`
    raises TypeError on any other key.
    """
    texts: Dict[Tuple[int, str], str] = {}
    pieces: Dict[tuple, str] = {}
    level = None  # the variable list of the members whose pieces are kept

    def encode(node, indent: str) -> str:
        nonlocal level
        if type(node) is _Memoized:
            key = (node[0], indent)
            text = pieces.get(key)
            if text is None:
                text = pieces[key] = encode(node[1], indent)
            return text
        if type(node) is MemberDoc:
            key = (id(node), indent)
            text = texts.pop(key, None)
            if text is None:
                if node["map"]["vars"] != level:
                    pieces.clear()
                    level = node["map"]["vars"]
                text = texts[key] = encode({**node, "map": _level_view(node["map"])}, indent)
            return text
        if isinstance(node, dict):
            if not node:
                return "{}"
            inner = indent + "  "
            items = [
                _quote(k) + ": "
                + (_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else encode(v, inner))
                for k, v in sorted(node.items())
            ]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            inner = indent + "  "
            items = [
                _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else encode(v, inner)
                for v in node
            ]
            return "[" + inner + ("," + inner).join(items) + indent + "]"
        return _quote(node) if type(node) is str else json.dumps(node)  # TypeError if not JSON

    def streamed(node) -> bool:
        # a MemberDoc is no plain dict, so it is encoded whole
        if type(node) is dict:
            node = node.values()
        elif not isinstance(node, (list, tuple)):
            return False
        return any(isinstance(v, (dict, list, tuple)) for v in node)

    def chunks(node, indent: str) -> Iterator[str]:
        inner = indent + "  "
        if isinstance(node, dict):
            items, brackets = [(_quote(k) + ": ", v) for k, v in sorted(node.items())], "{}"
        else:
            items, brackets = [("", v) for v in node], "[]"
        separator = brackets[0] + inner
        for head, value in items:
            if streamed(value):
                yield separator + head
                yield from chunks(value, inner)
            else:
                yield separator + head + encode(value, inner)
            separator = "," + inner
        yield indent + brackets[1]

    return chunks(node, indent) if streamed(node) else iter((encode(node, indent),))


def _write_json(path: Path, doc) -> None:
    """`doc` as `json.dumps(doc, indent=2, sort_keys=True)` plus a newline,
    streamed to disk piece by piece and moved into place whole."""
    with _replacing(path) as fh:
        fh.writelines(_json_chunks(doc))
        fh.write("\n")


class Outputs(NamedTuple):
    """What a command returns: report.csv's header and rows, the certificate
    and the sidecar without their "command" key, and the summary lines."""

    header: Sequence[str]
    rows: list
    certificate: dict
    sidecar: dict
    summary: List[str]


def _emit(out_dir: Path, command: str, out: Outputs) -> None:
    """The three files of a run of `command` in `out_dir`, each JSON document naming the command."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "report.csv", out.header, out.rows)
    _write_json(out_dir / "certificate.json", {**out.certificate, "command": command})
    _write_json(out_dir / "sidecar.json", {**out.sidecar, "command": command})


def _family_doc(algebra: LieAlgebraSpec, members) -> dict:
    """The sidecar's `algebra` and `family` entries."""
    return {"algebra": algebra_to_json_dict(algebra), "family": [polymap_to_json_dict(phi) for phi in members]}


# ----------------------------------------------------------------------
# commands


def cmd_verify_poly(cfg: dict, threads: int) -> Outputs:
    with _reading_config():
        algebra = _load_algebra(cfg)
        members = _load_members(cfg, algebra)
        for idx, phi in enumerate(members):
            check_time_origin(phi, idx)

    rows = []
    for idx, phi in enumerate(members):
        if phi.is_constant_identity():
            rows.append([idx, 0, 0, 0, "0"])
            continue
        lt = leading_term(phi)
        coef = "; ".join(str(c) for c in lt.coefficient)
        rows.append([idx, polynomial_degree(phi), lt.internal_class, lt.leading_degree, coef])

    # a member's weight is (internal_class, leading_degree)
    header = ["member", "degree", "internal_class", "leading_degree", "leading_coefficient"]
    certificate = {"members": len(members), "well_formed": True}
    summary = ["  ".join(str(v) for v in row) for row in rows]
    return Outputs(header, rows, certificate, _family_doc(algebra, members), summary)


def cmd_pet(cfg: dict, threads: int) -> Outputs:
    with _reading_config():
        algebra = _load_algebra(cfg)
        family = PolyFamily(_load_members(cfg, algebra))
        max_depth = _get(cfg, "max_depth", MAX_DEPTH, int)

    trace = pet_trace(family, max_depth=max_depth)

    rows = [
        [depth, sum(mult for _, mult in step.family), len(step.classes), step.pivot_member, step.certificate["kind"]]
        for depth, step in enumerate(trace.steps)
    ]
    header = ["step", "family_size", "lt_classes", "pivot", "certificate"]
    certificate = {"certified": True, "trace": trace_to_json_dict(trace, algebra)}
    sidecar = {**_family_doc(algebra, family), "max_depth": max_depth}
    summary = [f"descent certified in {trace.depth} steps;"
               f" final family size {sum(m for _, m in trace.final_family)}"]
    return Outputs(header, rows, certificate, sidecar, summary)


def cmd_average(cfg: dict, threads: int) -> Outputs:
    with _reading_config():
        systems = [_load_system(key, node) for key, node in _items("systems", cfg["systems"])]
        kind = _get(cfg, "joining", "diagonal", str)
        elements = _get(cfg, "elements", None)
        if elements is not None:
            elements = _load_factor_elements("elements", elements, systems)
        joining = JoiningSpec(systems, kind, elements=elements)

        algebra = _load_algebra(cfg)
        family = PolyFamily(_load_members(cfg, algebra))
        h = _rationals("h", _get(cfg, "h", []))
        fns = [_load_function(key, node) for key, node in _items("functions", cfg["functions"])]
        t_grid = [_rational(name, T) for name, T in _items("t_grid", cfg["t_grid"])]
        dt = str(_rational("dt", _get(cfg, "dt", "0.05")))
        n_samples = _get(cfg, "n_samples", 1000, int)
        seed = _get(cfg, "seed", 0, int, least=0)

        tuples_node = _known("invariance", _get(cfg, "invariance", {"tuples": []}, dict), ("tuples",))["tuples"]
        g_list = [
            tuple(_load_factor_elements(key, tup, systems))
            for key, tup in _items("invariance.tuples", tuples_node)
        ]
    report, deviations = scan_with_invariance(
        joining, family, h, fns, t_grid, g_list,
        dt=dt, n_samples=n_samples, seed=seed, threads=threads,
    )

    certificate = {"report": asdict(report)}
    if tuples_node:
        certificate["invariance"] = {
            "tuples": [[[str(c) for c in el.coords] for el in tup] for tup in g_list],
            "deviations": deviations,
        }

    rows = [[T, est, se, report.cauchy_gap] for T, est, se in zip(report.t_grid, report.estimates, report.std_errors)]
    sidecar = {
        "systems": [system_to_json_dict(s) for s in systems],
        "joining": kind,
        "elements": None if elements is None else [[str(c) for c in el.coords] for el in elements],
        **_family_doc(algebra, family),
        "h": [str(v) for v in h],
        "functions": [function_to_json_dict(f) for f in fns],
        "t_grid": t_grid,
        "dt": dt,
        "n_samples": n_samples,
        "seed": seed,
        "threads": threads,
        "invariance": {"tuples": tuples_node} if tuples_node else None,
    }
    summary = [f"estimate at T={report.t_grid[-1]}: {report.estimates[-1]:.6f}"
               f" (se {report.std_errors[-1]:.2e}, cauchy gap {report.cauchy_gap:.2e})"]
    return Outputs(["T", "estimate", "std_error", "cauchy_gap"], rows, certificate, sidecar, summary)


def cmd_generic(cfg: dict, threads: int) -> Outputs:
    with _reading_config():
        algebra = _load_algebra(cfg)
        family = PolyFamily(_load_members(cfg, algebra))
        functionals = [_rationals(key, node) for key, node in _items("functionals", cfg["functionals"])]
        seed = _get(cfg, "seed", 0, int, least=0)

    varieties = []
    for phi in family:
        for ell in functionals:
            v = vanishing_variety(phi, ell)
            if not is_proper(v):
                raise CertificateError(
                    f"functional {[str(w) for w in ell]} vanishes along the whole"
                    " parameter space; no generic point exists"
                )
            varieties.append(v)
    meagre = MeagreSet(varieties)

    params = tuple(family[0].vars[1:]) if len(family) else None
    point = generic_sample(meagre, seed=seed, params=params)
    names = params if params is not None else meagre.params
    witnesses = nonvanishing_certificate(meagre, dict(zip(names, point)))

    rows = [[name, str(value)] for name, value in zip(names, point)]
    certificate = {
        "point": {name: str(value) for name, value in zip(names, point)},
        "witnesses": witnesses,
        "meagre_set": meagre_set_to_json_dict(meagre),
    }
    sidecar = {
        **_family_doc(algebra, family),
        "functionals": [[str(w) for w in ell] for ell in functionals],
        "seed": seed,
    }
    summary = ["generic point: " + (", ".join(f"{n}={v}" for n, v in rows) or "()")]
    return Outputs(["param", "value"], rows, certificate, sidecar, summary)


def cmd_vdc(cfg: dict, threads: int) -> Outputs:
    with _reading_config():
        T = _rational("T", _get(cfg, "T", 200))
        S = _rational("S", _get(cfg, "S", T))
        dt = str(_rational("dt", _get(cfg, "dt", "0.05")))
        signal = _typed("signal", cfg["signal"], dict)
        kind = _get(signal, "kind", "expr", str)
        if kind not in _SIGNAL_KEYS:
            raise ConfigError(f"unknown signal kind {kind!r}")
        _known("signal", signal, _SIGNAL_KEYS[kind])
        if kind == "flow":
            system = _load_system("system", signal["system"])
            algebra = _load_algebra(signal)
            [phi] = _load_members(signal, algebra)
            h = _rationals("h", _get(signal, "h", []))
            f = _load_function("function", signal["function"])
            n_samples = _get(signal, "n_samples", 1000, int)
            seed = _get(cfg, "seed", 0, int, least=0)
        elif _get(cfg, "seed", None) is not None:
            raise ConfigError("seed and --seed apply only to a flow signal; an expr signal draws nothing")
        else:
            expr = _get(signal, "expr", None, str)

    times = half_step_times(T, S, dt)
    if kind == "flow":
        trajectory = flow_correlation_trajectory(
            system, phi, h, f, T, S, dt, n_samples=n_samples, seed=seed
        )
    elif expr == "cos_2pi_t":
        trajectory = np.cos(2 * math.pi * times)
    elif expr == "cos_2pi_t2":
        trajectory = np.cos(2 * math.pi * times * times)
    elif expr == "one":
        trajectory = np.ones_like(times)
    else:
        raise ConfigError(f"unknown signal expression {expr!r}")

    out = vdc_check(trajectory, S, T, dt)
    lhs, rhs = out["lhs_norm"], out["rhs_corr"]
    certificate = {"lhs_norm": lhs, "rhs_corr": rhs, "contrapositive_C": lhs / math.sqrt(max(rhs, 1e-16))}
    sidecar = {"T": T, "S": S, "dt": dt, "signal": dict(signal)}
    if kind == "flow":  # only a flow signal draws
        sidecar["seed"] = seed
    return Outputs(["lhs_norm", "rhs_corr"], [[lhs, rhs]], certificate, sidecar, [f"lhs {lhs:.3e}  rhs {rhs:.3e}"])


# the keys each kind of vdc signal reads
_SIGNAL_KEYS = {
    "expr": ("kind", "expr"),
    "flow": ("kind", "system", "algebra", "family", "vars", "h", "function", "n_samples"),
}

# name: (command, the top-level config keys it reads, help text); a command
# that reads "seed" takes --seed, and main reads "command" and "threads",
# which every config may carry
_COMMANDS = {
    "verify-poly": (
        cmd_verify_poly,
        ("algebra", "family", "vars"),
        "report degree, leading term, and weight for each family member",
    ),
    "pet": (
        cmd_pet,
        ("algebra", "family", "vars", "max_depth"),
        "run the descent induction and write a step-by-step certificate",
    ),
    "average": (
        cmd_average,
        ("systems", "joining", "elements", "algebra", "family", "vars", "h", "functions", "t_grid", "dt",
         "n_samples", "seed", "invariance"),
        "Monte Carlo joint averages over a time grid, optional invariance check",
    ),
    "generic": (
        cmd_generic,
        ("algebra", "family", "vars", "functionals", "seed"),
        "sample a certified point off the family's vanishing varieties",
    ),
    "vdc": (cmd_vdc, ("T", "S", "dt", "signal", "seed"), "correlation bound check on a scalar trajectory"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilflow",
        description="polynomial flows on nilmanifolds: symbolic certificates and seeded experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        if "seed" in keys:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None, help="worker threads for sampling")
    args = parser.parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config root must be a JSON object", file=sys.stderr)
        return 2

    for key in ("seed", "threads"):  # a command-line value overrides the config's, and the sidecar records it
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    try:
        named = _get(cfg, "command", args.command, str)
        if named != args.command:
            raise ConfigError(f"command {named!r} does not match the subcommand {args.command!r}")
        command, keys, _ = _COMMANDS[args.command]
        _known("config", cfg, (*keys, "command", "threads"))
        # every subcommand reads threads; none may accept a count it cannot run
        out = command(cfg, _get(cfg, "threads", 1, int, least=1))
        _emit(Path(args.out), args.command, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"truncated: {exc}", file=sys.stderr)
        return 4
    for line in out.summary:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
