"""Batch front end.

One JSON config per run; every command writes report.csv, certificate.json,
and sidecar.json into the output directory.  The sidecar holds the config
with all defaults materialized, so it alone reproduces the run.

Every config value is read in this module, by `_typed`, before the library
sees it; an optional key that is absent or null takes its default (`_get`).

Exit codes: 0 success, 2 config error, 3 certificate failure, 4 truncation.
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager
from csv import writer as csv_writer
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import List, Sequence, Tuple

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
    make_builtin,
    verify_algebra,
)
from .multipoly import MultiPoly, as_fraction
from .pet import MAX_DEPTH, PolyFamily, pet_trace, trace_to_json_dict, weight
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


def _get(node: dict, key: str, default, kind: type | None = None, least: int | None = None):
    """The optional `node[key]`, read by `_typed` when `kind` is given; `default` if absent or null."""
    value = node.get(key)
    if value is None:
        return default
    return value if kind is None else _typed(key, value, kind, least)


def _items(key: str, value) -> list:
    """(key of the entry, entry) for each entry of the array `value`, read for config key `key`."""
    return [(f"{key}[{n}]", entry) for n, entry in enumerate(_typed(key, value, list))]


def _entries(key: str, value, kind: type) -> tuple:
    """`value`, read for config key `key`: an array whose entries each have the JSON type `kind`."""
    return tuple(_typed(name, entry, kind) for name, entry in _items(key, value))


def _load_algebra(cfg: dict) -> LieAlgebraSpec:
    node = _typed("algebra", cfg["algebra"], dict)
    if "builtin" in node:
        params = {key: _typed(key, value, int) for key, value in node.items() if key != "builtin"}
        return make_builtin(_typed("builtin", node["builtin"], str), **params)
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
        terms[exp] = terms.get(exp, Fraction(0)) + as_fraction(coef)
    return MultiPoly(variables, terms)


def _poly_from_term_list(key: str, node, variables: Tuple[str, ...]) -> MultiPoly:
    """A coordinate in the sidecar's term-list form, [{"exp": [2], "coef": "1/2"}, ...]."""
    terms = [_typed(name, term, dict) for name, term in _items(key, node)]
    return MultiPoly(variables, {_entries("exp", term["exp"], int): term["coef"] for term in terms})


def _load_members(cfg: dict, algebra: LieAlgebraSpec) -> List[PolyMap]:
    """The family; a member's coords are an object keyed by basis label, or the sidecar's term lists."""
    default_vars = _entries("vars", _get(cfg, "vars", ["t"]), str)
    members = []
    for i, node in enumerate(_typed("family", cfg["family"], list)):
        node = _typed(f"family member {i}", node, dict)
        key = f"family[{i}]"
        variables = _entries(f"{key}.vars", _get(node, "vars", list(default_vars)), str)
        coords = node["coords"]
        if type(coords) is list:
            domain = None if node.get("domain") is None else _entries(f"{key}.domain", node["domain"], str)
            polys = [_poly_from_term_list(name, c, variables) for name, c in _items(f"{key}.coords", coords)]
            members.append(PolyMap(algebra, variables, polys, domain=domain))
            continue
        entries = {
            label: _poly_from_node(label, p, variables)
            for label, p in _typed(f"{key}.coords", coords, dict).items()
        }
        members.append(PolyMap.build(algebra, variables, entries))
    return members


def _load_system(key: str, node) -> NilSystem:
    node = _typed(key, node, dict)
    rows = node.get("acting_matrix")
    if rows is not None:
        rows = [_typed(name, row, list) for name, row in _items(f"{key}.acting_matrix", rows)]
    return NilSystem(_typed("kind", node["kind"], str), dim=_get(node, "dim", None, int), acting_matrix=rows)


def _load_function(key: str, node) -> TestFunction:
    node = _typed(key, node, dict)
    kind = _typed("kind", node["kind"], str)
    return TestFunction(kind, tuple(_typed("freq", node["freq"], list)), _get(node, "part", "cos", str))


def _load_factor_elements(key: str, nodes, systems) -> list:
    """One group element per factor, each in its factor's algebra, read for config key `key`."""
    items = _items(key, nodes)
    if len(items) != len(systems):
        raise ConfigError(f"{key} has {len(items)} elements, need one per factor ({len(systems)})")
    return [
        GroupElement(sys_i.algebra, _typed(name, node, list)) for (name, node), sys_i in zip(items, systems)
    ]


# ----------------------------------------------------------------------
# output writers


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        table = csv_writer(fh, lineterminator="\n")
        table.writerow(header)
        table.writerows(rows)


def _encode_json(node, indent: str = "\n") -> str:
    """The text `json.dumps(node, indent=2, sort_keys=True)` gives.

    The standard encoder takes its pure-Python path whenever `indent` is
    set.  This one returns one string per container, joined once, and
    writes plain `str` and `int` children inline, since most nodes of a PET
    certificate are exponents and coefficients.  Keys must be strings:
    `_quote` raises TypeError on any other key.
    """
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = indent + "  "
        items = [
            _quote(k) + ": "
            + (_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _encode_json(v, inner))
            for k, v in sorted(node.items())
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        inner = indent + "  "
        items = [
            _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _encode_json(v, inner)
            for v in node
        ]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(node, str):
        return _quote(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    if isinstance(node, float):
        if node != node:
            return "NaN"
        if node == math.inf:
            return "Infinity"
        if node == -math.inf:
            return "-Infinity"
        return float.__repr__(node)
    raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(_encode_json(doc) + "\n")


def _emit(out_dir: Path, header, rows, certificate: dict, sidecar: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "report.csv", header, rows)
    _write_json(out_dir / "certificate.json", certificate)
    _write_json(out_dir / "sidecar.json", sidecar)


# ----------------------------------------------------------------------
# commands


def cmd_verify_poly(cfg: dict, args, out_dir: Path) -> int:
    with _reading_config():
        algebra = _load_algebra(cfg)
        members = _load_members(cfg, algebra)
        for idx, phi in enumerate(members):
            check_time_origin(phi, idx)

    rows = []
    for idx, phi in enumerate(members):
        if phi.is_constant_identity():
            rows.append([idx, 0, 0, 0, "0", 0, 0])
            continue
        lt = leading_term(phi)
        w = weight(phi)
        coef = "; ".join(str(c) for c in lt.coefficient)
        rows.append(
            [
                idx,
                polynomial_degree(phi),
                lt.internal_class,
                lt.leading_degree,
                coef,
                w.internal_class,
                w.leading_degree,
            ]
        )

    header = ["member", "degree", "internal_class", "leading_degree", "leading_coefficient", "weight_c", "weight_d"]
    certificate = {"command": "verify-poly", "members": len(members), "well_formed": True}
    sidecar = {
        "command": "verify-poly",
        "algebra": algebra_to_json_dict(algebra),
        "family": [polymap_to_json_dict(phi) for phi in members],
    }
    _emit(out_dir, header, rows, certificate, sidecar)
    for row in rows:
        print("  ".join(str(v) for v in row))
    return 0


def cmd_pet(cfg: dict, args, out_dir: Path) -> int:
    with _reading_config():
        algebra = _load_algebra(cfg)
        family = PolyFamily(_load_members(cfg, algebra))
        max_depth = _get(cfg, "max_depth", MAX_DEPTH, int)

    trace = pet_trace(family, max_depth=max_depth)

    rows = []
    for depth, step in enumerate(trace.steps):
        size = sum(mult for _, mult in step.family)
        rows.append(
            [depth, size, len(step.classes), step.pivot_member, step.certificate["kind"]]
        )
    header = ["step", "family_size", "lt_classes", "pivot", "certificate"]
    certificate = {"command": "pet", "certified": True, "trace": trace_to_json_dict(trace)}
    sidecar = {
        "command": "pet",
        "algebra": algebra_to_json_dict(algebra),
        "family": [polymap_to_json_dict(phi) for phi in family],
        "max_depth": max_depth,
    }
    _emit(out_dir, header, rows, certificate, sidecar)
    print(f"descent certified in {trace.depth} steps;"
          f" final family size {sum(m for _, m in trace.final_family)}")
    return 0


def cmd_average(cfg: dict, args, out_dir: Path) -> int:
    with _reading_config():
        systems = [_load_system(key, node) for key, node in _items("systems", cfg["systems"])]
        kind = _get(cfg, "joining", "diagonal", str)
        elements = _get(cfg, "elements", None)
        if elements is not None:
            elements = _load_factor_elements("elements", elements, systems)
        joining = JoiningSpec(systems, kind, elements=elements)

        algebra = _load_algebra(cfg)
        family = PolyFamily(_load_members(cfg, algebra))
        h = tuple(as_fraction(v) for v in _get(cfg, "h", [], list))
        fns = [_load_function(key, node) for key, node in _items("functions", cfg["functions"])]
        t_grid = _typed("t_grid", cfg["t_grid"], list)
        dt = str(_get(cfg, "dt", "0.05"))
        n_samples = _get(cfg, "n_samples", 1000, int)
        seed = _get(cfg, "seed", 0, int, least=0)
        threads = _get(cfg, "threads", 1, int, least=1)

        tuples_node = _get(cfg, "invariance", {"tuples": []}, dict)["tuples"]
        g_list = [
            tuple(_load_factor_elements(key, tup, systems))
            for key, tup in _items("invariance.tuples", tuples_node)
        ]
    report, deviations = scan_with_invariance(
        joining, family, h, fns, t_grid, g_list,
        dt=dt, n_samples=n_samples, seed=seed, threads=threads,
    )

    certificate = {"command": "average", "report": asdict(report)}
    if tuples_node:
        certificate["invariance"] = {
            "tuples": [[[str(c) for c in el.coords] for el in tup] for tup in g_list],
            "deviations": deviations,
        }

    rows = [
        [T, est, se, report.cauchy_gap]
        for T, est, se in zip(report.t_grid, report.estimates, report.std_errors)
    ]
    sidecar = {
        "command": "average",
        "systems": [system_to_json_dict(s) for s in systems],
        "joining": kind,
        "elements": None if elements is None else [[str(c) for c in el.coords] for el in elements],
        "algebra": algebra_to_json_dict(algebra),
        "family": [polymap_to_json_dict(phi) for phi in family],
        "h": [str(v) for v in h],
        "functions": [function_to_json_dict(f) for f in fns],
        "t_grid": t_grid,
        "dt": dt,
        "n_samples": n_samples,
        "seed": seed,
        "threads": threads,
        "invariance": {"tuples": tuples_node} if tuples_node else None,
    }
    _emit(out_dir, ["T", "estimate", "std_error", "cauchy_gap"], rows, certificate, sidecar)
    print(f"estimate at T={report.t_grid[-1]}: {report.estimates[-1]:.6f}"
          f" (se {report.std_errors[-1]:.2e}, cauchy gap {report.cauchy_gap:.2e})")
    return 0


def cmd_generic(cfg: dict, args, out_dir: Path) -> int:
    with _reading_config():
        algebra = _load_algebra(cfg)
        family = PolyFamily(_load_members(cfg, algebra))
        functionals = [
            [as_fraction(w) for w in _typed(key, node, list)]
            for key, node in _items("functionals", cfg["functionals"])
        ]
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
        "command": "generic",
        "point": {name: str(value) for name, value in zip(names, point)},
        "witnesses": witnesses,
        "meagre_set": meagre_set_to_json_dict(meagre),
    }
    sidecar = {
        "command": "generic",
        "algebra": algebra_to_json_dict(algebra),
        "family": [polymap_to_json_dict(phi) for phi in family],
        "functionals": [[str(w) for w in ell] for ell in functionals],
        "seed": seed,
    }
    _emit(out_dir, ["param", "value"], rows, certificate, sidecar)
    print("generic point:", ", ".join(f"{n}={v}" for n, v in rows) or "()")
    return 0


def cmd_vdc(cfg: dict, args, out_dir: Path) -> int:
    with _reading_config():
        T = _get(cfg, "T", 200)
        S = _get(cfg, "S", T)
        dt = str(_get(cfg, "dt", "0.05"))
        signal = _typed("signal", cfg["signal"], dict)
        kind = _get(signal, "kind", "expr", str)
        if kind == "flow":
            system = _load_system("system", signal["system"])
            algebra = _load_algebra(signal)
            [phi] = _load_members(signal, algebra)
            h = tuple(as_fraction(v) for v in _get(signal, "h", [], list))
            f = _load_function("function", signal["function"])
            n_samples = _get(signal, "n_samples", 1000, int)
            seed = _get(cfg, "seed", 0, int, least=0)
        elif kind != "expr":
            raise ConfigError(f"unknown signal kind {kind!r}")
        elif args.seed is not None:
            raise ConfigError("--seed applies only to a flow signal; an expr signal draws nothing")
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
    certificate = {
        "command": "vdc",
        "lhs_norm": lhs,
        "rhs_corr": rhs,
        "contrapositive_C": lhs / math.sqrt(max(rhs, 1e-16)),
    }
    sidecar = {"command": "vdc", "T": T, "S": S, "dt": dt, "signal": dict(signal)}
    if kind == "flow":  # only a flow signal draws
        sidecar["seed"] = seed
    _emit(out_dir, ["lhs_norm", "rhs_corr"], [[lhs, rhs]], certificate, sidecar)
    print(f"lhs {lhs:.3e}  rhs {rhs:.3e}")
    return 0


# name: (command, help text)
_COMMANDS = {
    "verify-poly": (cmd_verify_poly, "report degree, leading term, and weight for each family member"),
    "pet": (cmd_pet, "run the descent induction and write a step-by-step certificate"),
    "average": (cmd_average, "Monte Carlo joint averages over a time grid, optional invariance check"),
    "generic": (cmd_generic, "sample a certified point off the family's vanishing varieties"),
    "vdc": (cmd_vdc, "correlation bound check on a scalar trajectory"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nilflow",
        description="polynomial flows on nilmanifolds: symbolic certificates and seeded experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        if name in ("average", "generic", "vdc"):  # the ones that read a seed
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
        if args.threads is not None:  # every subcommand takes the flag; none may accept a count it cannot run
            _typed("threads", args.threads, int, least=1)
        return _COMMANDS[args.command][0](cfg, args, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except TruncationError as exc:
        print(f"truncated: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
