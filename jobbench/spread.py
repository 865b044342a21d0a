"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 jobbench/spread.py --seeds 1-10 [--workloads algebra,spinor]
                               [--save pass.json] [--against earlier.json]

Run from the repository root.  Runs ``run.py --trace 0`` once per seed and
workload, one after the other, and prints for every end-to-end metric the
median, the quartiles and the quartile spread as a share of the median,
next to the metric's bound in BENCHMARK.json.  With --against, it also
compares each median with that of an earlier saved pass.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args(argv)

    runs: dict[str, dict[str, list[float]]] = {}
    for workload in args.workloads.split(","):
        runs[workload] = {}
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted="
                  f"{result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
                  flush=True)
            for name, m in result["metrics"].items():
                runs[workload].setdefault(name, []).append(m["value"])

    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)
    all_ok = True
    for workload, metrics in runs.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            med, q1, q3, frac = stats.spread(metrics[name])
            ok = name == "setup_s" or frac <= bound
            line = (f"{workload:<8} {name:<15} median={med:<10.4f} q1={q1:<10.4f} q3={q3:<10.4f}"
                    f" spread={frac:.4f} bound={bound} {'ok' if ok else 'TOO WIDE'}"
                    f"{' (<bound/3)' if frac < bound / 3 else ''}")
            if workload in earlier:
                before = stats.spread(earlier[workload][name])[0]
                change = (med - before) / before
                worse = change if metric["better"] == "lower" else -change
                line += f" vs earlier median {before:.4f}: {change:+.4f}"
                ok = ok and worse <= bound
            all_ok = all_ok and ok
            print(line)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
