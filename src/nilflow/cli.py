"""Batch front end.

One JSON config per run; every command writes report.csv, certificate.json,
and sidecar.json into the output directory.  The sidecar holds the config
with all defaults materialized, so it alone reproduces the run.

Exit codes: 0 success, 2 config error, 3 certificate failure, 4 truncation.
"""

import argparse
import json
import math
import sys
from csv import writer as csv_writer
from dataclasses import asdict
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from .averaging import (
    JoiningSpec,
    flow_correlation_trajectory,
    half_step_times,
    scan_with_invariance,
    vdc_check,
)
from .dynamics import (
    function_from_json_dict,
    function_to_json_dict,
    system_from_json_dict,
    system_to_json_dict,
)
from .errors import CertificateError, ConfigError, TruncationError
from .lie_core import (
    GroupElement,
    LieAlgebraSpec,
    algebra_from_json_dict,
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
    polymap_from_json_dict,
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


def _require(cfg: Mapping, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _integer(key: str, value) -> int:
    """`value`, read for config key `key`, which must be a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _load_algebra(cfg: Mapping) -> LieAlgebraSpec:
    node = _require(cfg, "algebra")
    if "builtin" in node:
        params = {k: v for k, v in node.items() if k != "builtin"}
        return make_builtin(node["builtin"], **params)
    algebra = algebra_from_json_dict(node)
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
        name, _, power = factor.partition("^")
        if name not in variables:
            raise ConfigError(f"monomial {factor!r} uses unknown variable {name!r}")
        exponents[variables.index(name)] += int(power) if power else 1
    return tuple(exponents)


def _poly_from_node(node, variables: Tuple[str, ...]) -> MultiPoly:
    if isinstance(node, list):
        return MultiPoly.from_terms(variables, node)
    if isinstance(node, Mapping):
        terms = {}
        for mono, coef in node.items():
            exp = _parse_monomial(mono, variables)
            terms[exp] = terms.get(exp, Fraction(0)) + as_fraction(coef)
        return MultiPoly(variables, terms)
    return MultiPoly.const(variables, node)


def _load_members(cfg: Mapping, algebra: LieAlgebraSpec) -> List[PolyMap]:
    default_vars = tuple(cfg.get("vars", ("t",)))
    members = []
    for node in _require(cfg, "family"):
        coords = node.get("coords")
        if isinstance(coords, list):
            members.append(polymap_from_json_dict(node, algebra))
            continue
        variables = tuple(node.get("vars", default_vars))
        entries = {
            label: _poly_from_node(p, variables) for label, p in (coords or {}).items()
        }
        members.append(PolyMap.build(algebra, variables, entries))
    return members


def _load_factor_elements(nodes, systems, what: str) -> list:
    """One group element per factor, each in its factor's algebra."""
    if len(nodes) != len(systems):
        raise ConfigError(f"{what} has {len(nodes)} elements, need one per factor ({len(systems)})")
    return [GroupElement(sys_i.algebra, node) for node, sys_i in zip(nodes, systems)]


def _resolved(cfg: Mapping, args, key: str, default):
    override = getattr(args, key, None)
    if override is not None:
        return override
    return cfg.get(key, default)


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


def cmd_verify_poly(cfg: Mapping, args, out_dir: Path) -> int:
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


def cmd_pet(cfg: Mapping, args, out_dir: Path) -> int:
    algebra = _load_algebra(cfg)
    family = PolyFamily(_load_members(cfg, algebra))
    max_depth = _integer("max_depth", cfg.get("max_depth", MAX_DEPTH))

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


def cmd_average(cfg: Mapping, args, out_dir: Path) -> int:
    systems = [system_from_json_dict(node) for node in _require(cfg, "systems")]
    kind = cfg.get("joining", "diagonal")
    elements = None
    if cfg.get("elements") is not None:
        elements = _load_factor_elements(cfg["elements"], systems, "elements")
    joining = JoiningSpec(systems, kind, elements=elements)

    algebra = _load_algebra(cfg)
    family = PolyFamily(_load_members(cfg, algebra))
    h = tuple(as_fraction(v) for v in cfg.get("h", ()))
    fns = [function_from_json_dict(node) for node in _require(cfg, "functions")]
    t_grid = list(_require(cfg, "t_grid"))
    dt = str(cfg.get("dt", "0.05"))
    n_samples = _integer("n_samples", cfg.get("n_samples", 1000))
    seed = _integer("seed", _resolved(cfg, args, "seed", 0))
    threads = _integer("threads", _resolved(cfg, args, "threads", 1))

    tuples_node = (cfg.get("invariance") or {}).get("tuples")
    g_list = [
        tuple(_load_factor_elements(tup, systems, "invariance tuple"))
        for tup in tuples_node or ()
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


def cmd_generic(cfg: Mapping, args, out_dir: Path) -> int:
    algebra = _load_algebra(cfg)
    family = PolyFamily(_load_members(cfg, algebra))
    functionals = [
        [as_fraction(w) for w in node] for node in _require(cfg, "functionals")
    ]
    seed = _integer("seed", _resolved(cfg, args, "seed", 0))

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


def cmd_vdc(cfg: Mapping, args, out_dir: Path) -> int:
    T = cfg.get("T", 200)
    S = cfg.get("S", T)
    dt = str(cfg.get("dt", "0.05"))
    signal = _require(cfg, "signal")
    kind = signal.get("kind", "expr")

    times = half_step_times(T, S, dt)
    if kind == "expr":
        if args.seed is not None:
            raise ConfigError("--seed applies only to a flow signal; an expr signal draws nothing")
        expr = signal.get("expr")
        if expr == "cos_2pi_t":
            trajectory = np.cos(2 * math.pi * times)
        elif expr == "cos_2pi_t2":
            trajectory = np.cos(2 * math.pi * times * times)
        elif expr == "one":
            trajectory = np.ones_like(times)
        else:
            raise ConfigError(f"unknown signal expression {expr!r}")
    elif kind == "flow":
        system = system_from_json_dict(signal["system"])
        algebra = _load_algebra(signal)
        [phi] = _load_members(signal, algebra)
        h = tuple(as_fraction(v) for v in signal.get("h", ()))
        f = function_from_json_dict(signal["function"])
        n_samples = _integer("n_samples", signal.get("n_samples", 1000))
        seed = _integer("seed", _resolved(cfg, args, "seed", 0))
        trajectory = flow_correlation_trajectory(
            system, phi, h, f, T, S, dt, n_samples=n_samples, seed=seed
        )
    else:
        raise ConfigError(f"unknown signal kind {kind!r}")

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
    # every subcommand takes the flag; none may accept a count it cannot run
    if args.threads is not None and args.threads < 1:
        print(f"config error: threads must be at least 1, got {args.threads}", file=sys.stderr)
        return 2

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config root must be a JSON object", file=sys.stderr)
        return 2

    try:
        return _COMMANDS[args.command][0](cfg, args, Path(args.out))
    except TruncationError as exc:
        print(f"truncated: {exc}", file=sys.stderr)
        return 4
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
