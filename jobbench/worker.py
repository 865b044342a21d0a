"""One workload process: a single closed-loop client of krein_clifford.

Imports ``krein_clifford.cli``, runs the workload's warm-up requests, then
sends the seeded stream through ``cli.main([..., "--format", "json"])``
one request at a time, each as soon as the last one returns.  Payloads are
checked against the oracles after the timed phase.  Prints one JSON object
as its last line of standard output.

    python3 worker.py setup --workload W
    python3 worker.py run --workload W --seed S (--seconds R | --blocks B) [--trace]

Run from the repository root with ``src`` on PYTHONPATH; ``run.py`` does
this and pins the BLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time

import streams

MIN_REQUESTS = 100  # so that at least ten samples lie beyond p90


def send(cli, req: streams.Request) -> dict:
    """Run one request; returns its latency and raw outcome."""
    if req.suite_seed is not None:
        os.environ["KREIN_CLIFFORD_SEED"] = str(req.suite_seed)
    out, err = io.StringIO(), io.StringIO()
    raised = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["--format", "json", *req.argv])
    except Exception as exc:  # a request that raises is a failure, not a crash
        rc, raised = None, f"raised {type(exc).__name__}: {exc}"
    except SystemExit as exc:  # argparse refusing the request
        rc = exc.code
    latency = time.perf_counter() - t0
    return {"req": req, "latency_s": latency, "rc": rc, "raised": raised,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def judge(rec: dict) -> tuple[str | None, bool]:
    """(failure reason or None, whether the output was a wrong answer)."""
    import oracles  # numpy; imported after the timed import of the CLI

    if rec["raised"]:
        return rec["raised"], False
    try:
        doc = json.loads(rec["stdout"])
    except ValueError:
        first = (rec["stderr"].strip().splitlines() or ["no output"])[0]
        return f"exit code {rec['rc']} without a payload: {first}", rec["rc"] == 0
    reason = oracles.check(rec["req"].argv, doc)
    if reason is None and rec["rc"] != 0:
        reason = f"exit code {rec['rc']} with status ok"
    return reason, reason is not None


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one is loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    from krein_clifford import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": _kernels.BACKEND,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", choices=streams.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--blocks", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    from krein_clifford import cli

    import_s = time.perf_counter() - t0
    for req in streams.warmups(args.workload):
        reason = judge(send(cli, req))[0]
        if reason:
            print(f"warm-up {' '.join(req.argv)} failed: {reason}", file=sys.stderr)
            return 1
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    records, blocks = [], 0
    t_start = time.perf_counter()
    while True:
        if args.blocks is not None and blocks >= args.blocks:
            break
        elapsed = time.perf_counter() - t_start
        if args.blocks is None and elapsed >= args.seconds and len(records) >= MIN_REQUESTS:
            break
        for req in streams.block(args.workload, args.seed, blocks):
            records.append(send(cli, req))
        blocks += 1
    wall_s = time.perf_counter() - t_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    failures, wrong = [], 0
    for rec in records:
        reason, is_wrong = judge(rec)
        wrong += is_wrong
        if reason:
            failures.append({"argv": list(rec["req"].argv), "reason": reason})
    result = {
        "blocks": blocks,
        "wall_s": wall_s,
        "import_s": import_s,
        "peak_rss_kb": peak_rss_kb,
        "latencies": [[rec["req"].kind, rec["latency_s"]] for rec in records],
        "failures": failures,
        "wrong": wrong,
        "env": environment(),
    }
    if tracer:
        result["trace"] = {
            "layer_self_s": dict(tracer.layer_self),
            "stage_s": dict(tracer.stage_s),
            "kernel_calls": tracer.calls["_blade_py.gp_dense"],
            "nonempty_products": tracer.count["clifford_core.nonempty_products"],
            "request_s": sum(rec["latency_s"] for rec in records),
            "metrics": tracer.metrics(len(records)),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
