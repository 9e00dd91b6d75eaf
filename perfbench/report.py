"""Run every workload, one process each, and print the end-to-end table.

    python3 perfbench/report.py [--seed 1] [--seconds 25] [--trace]

Prints, per workload, setup_s, wall_s, the throughput under its own name
(cert_steps_per_s for pet_descent, sample_steps_per_s for the averages),
peak_rss_mb and fail_frac, then the lines of code per src/nilflow module.
With --trace the per-layer metrics of a traced run follow.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
THROUGHPUT = {
    "pet_descent": "cert_steps_per_s",
    "heis_joining": "sample_steps_per_s",
    "torus_dichotomy": "sample_steps_per_s",
}


def run(workload: str, seed: int, seconds: float, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    reference = json.loads((HERE / "reference.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    print(f"{'workload':16} {'setup_s':>9} {'wall_s':>9} {'throughput':>30} {'peak_rss_mb':>12} {'fail_frac':>10}")
    loc = ""
    for workload, name in THROUGHPUT.items():
        notes, result = run(workload, args.seed, args.seconds, 0)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        fail_frac = result["failed"] / result["attempted"]
        rate = f"{name} {m['work_per_s']:.4g}"
        print(f"{workload:16} {m['setup_s']:9.4f} {m['wall_s']:9.3f} {rate:>30}"
              f" {m['peak_rss_mb']:12.1f} {fail_frac:10.4f}")
        for line in notes:
            if line.startswith("FAILED"):
                print(f"  {line}")
            elif line.startswith("lines of code"):
                loc = line
    print(loc)
    if args.trace:
        for workload in THROUGHPUT:
            _, result = run(workload, args.seed, args.seconds, 1)
            print(f"\n{workload} (traced)")
            for name, metric in result["metrics"].items():
                print(f"  {name:36} {metric['value']:14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
