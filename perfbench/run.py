"""End-to-end benchmark of the nilflow command line, one workload per process.

    python3 perfbench/run.py --workload pet_descent --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
`src/`, never from an installed copy.  The process sets up (imports, seeded
configs, a warm-up call; eleven times, reporting the median), then runs
rounds of the workload's CLI calls back to back through `nilflow.cli.main`
in-process with `--threads 1`, one client in a closed loop, until
`--seconds` have passed.  After the timed rounds it checks every output:
repeats must be byte-identical, each call's outputs must pass the
workload's oracle, the default seed must reproduce the digests recorded in
`reference.json`, and a reduced heis_joining call must give the same output
at `--threads 2` as at `--threads 1`.  `reference.json` also names a second,
held-out seed for confirming a claimed gain on inputs it was not tuned on.

With `--trace 1` one more round runs with timing wrappers installed
(see tracing.py) and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
OUTPUTS = ("report.csv", "certificate.json", "sidecar.json")
SETUP_REPEATS = 11

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def import_nilflow():
    """Fresh import of the library from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "nilflow" or m.startswith("nilflow.")]:
        del sys.modules[name]
    if not (SRC / "nilflow" / "cli.py").is_file():
        raise SystemExit(f"no nilflow sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import nilflow
    import nilflow.cli

    if Path(nilflow.__file__).resolve().parent != SRC / "nilflow":
        raise SystemExit(f"nilflow was imported from {nilflow.__file__}, not {SRC}")
    return nilflow


class Runner:
    """Makes CLI calls and counts the runs attempted and failed."""

    def __init__(self, work_dir: Path):
        self.nilflow = None
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str, runs: int = 1) -> None:
        self.failed += runs
        self.errors.append(message)

    def call(self, call, args=(), tracer=None):
        """One CLI run; returns (seconds, output bytes or None on failure)."""
        out = self.work_dir / call.name
        out.mkdir(parents=True, exist_ok=True)
        config = self.work_dir / f"{call.name}.json"
        config.write_text(json.dumps(call.config))
        argv = [call.command, "--config", str(config), "--out", str(out), "--threads", "1", *args]
        main = self.nilflow.cli.main
        self.attempted += 1
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = tracer.root(main, argv) if tracer else main(argv)
            except Exception:
                code = None
                sink.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        if code != 0:
            self.fail(f"{call.name}: exit {code}: {sink.getvalue().strip()[-500:]}")
            return seconds, None
        return seconds, {name: (out / name).read_bytes() for name in OUTPUTS}


def digest(files) -> dict:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def run_round(runner: Runner, workload, tracer=None):
    """All calls of one round; a call may queue a follow-up built from its outputs."""
    queue = list(workload.calls)
    wall = 0.0
    work = 0
    outputs = {}
    while queue:
        call = queue.pop(0)
        seconds, files = runner.call(call, tracer=tracer)
        wall += seconds
        if files is None:
            continue
        outputs[call.name] = (call, files)
        work += call.work(files)
        if call.then is not None:
            queue.append(call.then(files))
    return wall, work, outputs


class Outputs:
    """The first outputs of each call, kept for the checks; later repeats keep only a digest.

    Holding one copy per call keeps peak memory independent of the number of rounds.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.first = {}  # call name -> [call, files, digest, runs]

    def add(self, outputs) -> None:
        for name, (call, files) in outputs.items():
            d = digest(files)
            if name not in self.first:
                self.first[name] = [call, files, d, 1]
                continue
            self.first[name][3] += 1
            if d != self.first[name][2]:
                self.runner.fail(f"{name}: repeat is not byte-identical to the first run")

    def check(self, seed: int, workload_name: str) -> None:
        """Oracle checks, and the digests recorded for the default seed."""
        reference = REFERENCE["digests"][workload_name] if seed == REFERENCE["default_seed"] else None
        for name, (call, files, d, runs) in self.first.items():
            errors = call.check(files)
            if reference is not None and d != reference.get(name):
                errors.append("outputs differ from the digests recorded for the default seed")
            if errors:
                self.runner.fail(f"{name}: " + "; ".join(errors[:3]), runs)


def check_threads(runner: Runner, seed: int) -> None:
    """Threads may change only wall time: compare a reduced heis_joining call."""
    probe = workloads.threads_probe(seed)
    _, one = runner.call(probe)
    _, two = runner.call(probe, ("--threads", "2"))
    if one is None or two is None:
        return
    sidecars = [json.loads(f["sidecar.json"]) for f in (one, two)]
    for s in sidecars:
        s.pop("threads")
    if any(one[n] != two[n] for n in ("report.csv", "certificate.json")) or sidecars[0] != sidecars[1]:
        runner.fail("threads_probe: --threads 2 output differs from --threads 1", 2)


def lines_of_code() -> dict:
    return {p.stem: len(p.read_text().splitlines()) for p in sorted((SRC / "nilflow").glob("*.py"))}


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float, outputs, results) -> dict:
    t = tracer
    arith = t.get(*(f"multipoly.MultiPoly.{m}" for m in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")))
    bch = t.get("lie_core.bch_coords", "lie_core.bch_product")
    act = t.get("dynamics.act_array")
    eval_fn = t.get("dynamics.eval_fn_array")
    flow = t.get("poly_maps.PolyMap.eval")
    traces = results["pet_traces"]
    members = sum(len(step.family) for tr in traces for step in tr.steps)
    produced = sum(
        2 * len(step.family) - 1 + (step.family[step.pivot_index][1] > 1)
        for tr in traces for step in tr.steps
    )
    kept = sum(len(step.derived) for tr in traces for step in tr.steps)
    covered = sum(s.self_s for s in t.stats.values())
    out_bytes = sum(len(data) for _, files in outputs.values() for data in files.values())

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        ("multipoly.substitute.calls", "count"): t.get("multipoly.MultiPoly.substitute").calls,
        ("multipoly.substitute.self_s", "s"): t.get("multipoly.MultiPoly.substitute").self_s,
        ("multipoly.variable.calls", "count"): t.get("multipoly.MultiPoly.variable").calls,
        ("multipoly.variable.self_s", "s"): t.get("multipoly.MultiPoly.variable").self_s,
        ("multipoly.arith.calls", "count"): arith.calls,
        ("multipoly.arith.self_s", "s"): arith.self_s,
        ("multipoly.eval.calls", "count"): t.get("multipoly.MultiPoly.eval").calls,
        ("multipoly.eval.self_s", "s"): t.get("multipoly.MultiPoly.eval").self_s,
        ("lie_core.bch.calls", "count"): bch.calls,
        ("lie_core.bch.self_s", "s"): bch.self_s,
        ("poly_maps.product.calls", "count"): t.get("poly_maps.pointwise_product").calls,
        ("poly_maps.product.self_s", "s"): t.get("poly_maps.pointwise_product").self_s,
        ("poly_maps.substitute.self_s", "s"): t.get("poly_maps.substitute").self_s,
        ("poly_maps.leading_term.calls", "count"): t.get("poly_maps.leading_term").calls,
        ("poly_maps.leading_term.self_s", "s"): t.get("poly_maps.leading_term").self_s,
        ("poly_maps.eval.calls", "count"): flow.calls,
        ("poly_maps.eval.self_s", "s"): flow.self_s,
        ("poly_maps.flow_eval_ms_per_1e4", "ms"): ratio(flow.total_s, flow.calls) * 1e7,
        ("pet.self_s", "s"): t.layer("pet").self_s,
        ("pet.to_json.self_s", "s"): t.get("pet.trace_to_json_dict").self_s,
        ("pet.steps", "count"): sum(tr.depth for tr in traces),
        ("pet.vars_max", "count"): max(
            (len(phi.vars) for tr in traces for step in tr.steps for phi, _ in step.derived), default=0),
        ("pet.members_max", "count"): max(
            (len(step.family) for tr in traces for step in tr.steps), default=0),
        ("pet.lt_calls_per_member", "ratio"): ratio(results["pet_lt_calls"], members),
        ("pet.merge_ratio", "ratio"): ratio(kept, produced),
        ("zariski.calls", "count"): t.layer("zariski").calls,
        ("zariski.self_s", "s"): t.layer("zariski").self_s,
        ("dynamics.act.calls", "count"): act.calls,
        ("dynamics.act.self_s", "s"): act.self_s,
        ("dynamics.eval_fn.calls", "count"): eval_fn.calls,
        ("dynamics.eval_fn.self_s", "s"): eval_fn.self_s,
        ("dynamics.haar.self_s", "s"): t.get("dynamics.haar_array").self_s,
        ("dynamics.step_ms", "ms"): ratio(act.total_s + eval_fn.total_s, act.calls) * 1e3,
        ("dynamics.bytes_per_factor_step", "B_computed"): ratio(results["array_bytes"], act.calls),
        ("averaging.scan.total_s", "s"): t.get("averaging.convergence_scan").total_s,
        ("averaging.invariance.total_s", "s"): t.get("averaging.invariance_check").total_s,
        ("averaging.self_s", "s"): t.layer("averaging").self_s,
        ("averaging.sample_steps", "count"): results["sample_steps"],
        ("cli.self_s", "s"): t.layer("cli").self_s,
        ("cli.output_bytes", "B"): out_bytes,
        ("trace.overhead_s", "s"): traced_wall - untraced_wall,
        ("trace.unattributed_frac", "ratio"): ratio(traced_wall - covered, traced_wall),
    }
    return {name: {"value": value, "unit": unit} for (name, unit), value in m.items()}


def traced_round(runner: Runner, workload, untraced_wall: float):
    tracer = Tracer()
    results = {"pet_traces": [], "pet_lt_calls": 0, "array_bytes": 0, "sample_steps": 0}

    def on_pet_trace(args, trace):
        results["pet_traces"].append(trace)

    def on_act(args, moved):
        results["array_bytes"] += args[2].nbytes + moved.nbytes
        results["sample_steps"] += len(moved)

    def on_eval_fn(args, values):
        results["array_bytes"] += args[1].nbytes + values.nbytes

    tracer.observers.update({
        "pet.pet_trace": on_pet_trace,
        "dynamics.act_array": on_act,
        "dynamics.eval_fn_array": on_eval_fn,
    })
    tracer.install(runner.nilflow)
    try:
        wall, _, outputs = run_round(runner, workload, tracer)
    finally:
        tracer.uninstall()
    results["pet_lt_calls"] = tracer.get("poly_maps.leading_term").calls
    depths = sum(
        json.loads(files["certificate.json"])["trace"]["depth"]
        for call, files in outputs.values() if call.command == "pet"
    )
    if depths != sum(tr.depth for tr in results["pet_traces"]):
        runner.fail("traced pet steps differ from the certified depths")
    return layer_metrics(tracer, wall, untraced_wall, outputs, results), outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def measure(args, work_dir: Path) -> int:
    # set-up: process start (then the end of the previous set-up) to the
    # first timed call; each repeat imports nilflow afresh
    runner = Runner(work_dir)
    setups = []
    start = PROCESS_START
    for _ in range(SETUP_REPEATS):
        runner.nilflow = import_nilflow()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        runner.call(workload.warmup)
        setups.append(time.perf_counter() - start)
        start = time.perf_counter()

    outputs = Outputs(runner)
    rounds = []
    loop_start = time.perf_counter()
    while not rounds or time.perf_counter() - loop_start < args.seconds:
        wall, work, produced = run_round(runner, workload)
        outputs.add(produced)
        del produced
        rounds.append((wall, work))
    walls = [wall for wall, _ in rounds]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "work_per_s": {"value": statistics.median(w / s for s, w in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    if args.trace:
        metrics, traced = traced_round(runner, workload, statistics.median(walls))
        outputs.add(traced)
    outputs.check(args.seed, args.workload)
    check_threads(runner, args.seed)

    # a run can fail more than one check; count it once
    attempted, failed = runner.attempted, min(runner.failed, runner.attempted)
    work = rounds[0][1]

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(walls)}"
          f"  round walls {' '.join(f'{w:.3f}' for w in walls)} s")
    print(f"work per round {work} {workload.work_unit}; fail_frac {failed / attempted:.4f}"
          f" ({failed} of {attempted} runs)")
    for error in runner.errors:
        print(f"FAILED {error}")
    print("lines of code: " + " ".join(f"{k}={v}" for k, v in lines_of_code().items()))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
