"""Job-stream benchmark of the krein-clifford CLI verbs.

    python3 jobbench/run.py --workload algebra|spinor|lattice|all --seed N
                            [--seconds R] [--trace 0|1]

Run from the repository root.  Each workload is a seeded stream of CLI
requests (see streams.py) sent by one closed-loop client in one fresh
Python process (worker.py) with the BLAS pinned to one thread; every
payload is checked by the benchmark's own oracles (oracles.py).

--trace 0 measures the end-to-end metrics: set-up time over fresh
interpreters, then the untraced stream for at least R seconds in whole
blocks.  --trace 1 runs the untraced stream, replays the same blocks with
the per-layer tracer (tracer.py) installed, and reports the per-layer
metrics and the tracing overhead.  --workload all runs both for every
workload.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import streams  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SETUP_RUNS = 5
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
NOT_MEASURED = (
    "wick (6,0) N=3: a 5832^2 dense eigvals, 191 s",
    "garling (4,4): 4.1 s",
    "ko-table n=10: about 54 s",
)


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, root: str, deadline: float):
        self.deadline = deadline
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self.env.pop("KREIN_CLIFFORD_SEED", None)

    def worker(self, *args: str) -> subprocess.CompletedProcess:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {' '.join(args)} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc

    def setup_samples(self, workload: str) -> list[float]:
        """Wall time of fresh interpreters importing the CLI and finishing
        the workload's warm-ups."""
        samples = []
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            self.worker("setup", "--workload", workload)
            samples.append(time.perf_counter() - t0)
        return samples

    def stream(self, workload: str, seed: int, *args: str) -> dict:
        proc = self.worker("run", "--workload", workload, "--seed", str(seed), *args)
        return json.loads(proc.stdout.strip().splitlines()[-1])


def kinds_near(run: dict, value: float) -> str:
    """Request kinds with a latency within 20% of `value`."""
    return ", ".join(sorted({k for k, s in run["latencies"] if abs(s - value) <= 0.2 * value}))


def end_to_end(setup: list[float], run: dict) -> tuple[dict, list[str]]:
    lat = [s for _, s in run["latencies"]]
    n = len(lat)
    p50, p90 = stats.percentile(lat, 50), stats.percentile(lat, 90)
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": n / run["wall_s"],
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "jobs_per_s": f"{n} requests in {run['wall_s']:.2f} s, {run['blocks']} whole blocks",
        "latency_p50_ms": f"n={n}; near it: {kinds_near(run, p50)}",
        "latency_p90_ms": f"n={n}, {sum(s > p90 for s in lat)} beyond; near it: {kinds_near(run, p90)}",
        "peak_rss_mb": "1 process, ru_maxrss",
    }
    units = dict(END_TO_END)
    lines = [f"  {k:<16} {values[k]:>12.4f} {units[k]:<5} ({notes[k]})" for k, _ in END_TO_END]
    k = len(run["failures"])
    lines.append(f"  {'fail_frac':<16} {k / n:>12.4f} {'ratio':<5} ({k} of {n} failed)")
    return values, lines


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str], bool]:
    t = traced["trace"]
    values = dict(t["metrics"])
    values["cli.import_s"] = traced["import_s"]
    values["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    units = dict(PER_LAYER)
    lines = [f"  {k:<40} {values[k]:>14.6g} {units[k]}" for k, _ in PER_LAYER]

    layers = t["layer_self_s"]
    harness = traced["wall_s"] - t["request_s"]
    total = sum(layers.values()) + harness
    sum_ok = abs(total - traced["wall_s"]) <= 0.01 * traced["wall_s"]
    calls_ok = t["kernel_calls"] == t["nonempty_products"]
    top_layer = max((k for k in layers if k != "trace"), key=layers.get)
    top_stage = max(t["stage_s"], key=t["stage_s"].get)
    lines += [
        "  layer self times (s): "
        + ", ".join(f"{k}={v:.4f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        + f", harness={harness:.4f}",
        f"  largest layer self time: {top_layer}.self_s = {layers[top_layer]:.4f} s;"
        f" largest stage: {top_stage} = {t['stage_s'][top_stage]:.4f} s",
        f"  check kernel.calls == non-empty products: {t['kernel_calls']} vs"
        f" {int(t['nonempty_products'])} -> {'ok' if calls_ok else 'FAIL'}",
        f"  check layers + harness == traced wall: {total:.4f} s vs {traced['wall_s']:.4f} s"
        f" -> {'ok' if sum_ok else 'FAIL'}",
        "  one thread, one closed-loop client, no queues: no layer has wait time",
    ]
    return values, lines, sum_ok and calls_ok


def context_lines(run: dict) -> list[str]:
    env = run["env"]
    return [
        f"env: nproc={env['nproc']} blas={env['blas']} blas_threads={env['blas_threads']}"
        f" python={env['python']} numpy={env['numpy']} scipy={env['scipy']}"
        f" kernel_backend={env['backend']}",
        f"kernel backend {env['backend']!r}: a compiled-kernel speedup cannot be measured here"
        if env["backend"] == "python" else f"kernel backend {env['backend']!r}",
        "left out of the grids for cost, to add once the kernel, intertwiner and"
        " momentum-space work lands: " + "; ".join(NOT_MEASURED),
    ]


def failure_lines(run: dict) -> list[str]:
    fails = run["failures"]
    lines = [f"failed requests: {len(fails)} of {len(run['latencies'])}"]
    lines += [f"  {' '.join(f['argv'])}: {f['reason']}" for f in fails]
    return lines


def bench(runner: Runner, workload: str, seed: int, seconds: int, trace: bool, setup: bool):
    """Returns (metrics with units, lines, correct, attempted, failed)."""
    untraced = runner.stream(workload, seed, "--seconds", str(seconds))
    metrics, lines = {}, context_lines(untraced)
    correct, last = untraced["wrong"] == 0, untraced
    if setup:
        values, e2e = end_to_end(runner.setup_samples(workload), untraced)
        lines += ["end-to-end (untraced run):", *e2e]
        metrics.update((k, (values[k], u)) for k, u in END_TO_END)
    lines += failure_lines(untraced)
    if trace:
        traced = runner.stream(workload, seed, "--blocks", str(untraced["blocks"]), "--trace")
        values, pl, checks_ok = per_layer(untraced, traced)
        lines += ["per-layer (traced replay of the same blocks):", *pl]
        metrics.update((k, (values[k], u)) for k, u in PER_LAYER)
        correct = correct and checks_ok and traced["wrong"] == 0
        last = traced
    return metrics, lines, correct, len(last["latencies"]), len(last["failures"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*streams.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "krein_clifford", "cli.py")):
        print("error: run from the repository root (src/krein_clifford not found)", file=sys.stderr)
        return 2
    workloads = streams.WORKLOADS if args.workload == "all" else (args.workload,)
    limit = TIME_LIMIT_S * len(workloads)
    runner = Runner(root, time.monotonic() + limit)
    everything = args.workload == "all"
    metrics, correct, attempted, failed = {}, True, 0, 0
    try:
        for w in workloads:
            mode = "untraced and traced" if everything else f"trace={args.trace}"
            print(f"== {w}  seed={args.seed} seconds={args.seconds} {mode}")
            m, lines, ok, n, k = bench(
                runner, w, args.seed, args.seconds,
                trace=everything or args.trace == 1, setup=everything or args.trace == 0,
            )
            print("\n".join(lines), flush=True)
            prefix = f"{w}." if everything else ""
            metrics.update((prefix + name, vu) for name, vu in m.items())
            correct, attempted, failed = correct and ok, attempted + n, failed + k
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
