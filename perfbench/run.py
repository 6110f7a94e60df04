"""suptail benchmark: a closed loop of one client sending CLI requests in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {verify-cov,verify-sample,bounds} \
        --seed N --seconds S --trace {0,1} [--short]

Each run is its own process.  It times ``import suptail.cli`` in fresh
interpreters (``setup_s``), builds the request list from the seed, sends one
discarded warm-up request, then sends the list through ``suptail.cli.main``,
writing each request's config just before it.  Outputs are checked by
independent oracles after the timed loop; a request that errors or fails its
check counts as failed.  Every reported time is scaled to a reference host
speed by reference work timed next to it (see ``hostspeed``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same list
untraced and then traced, and prints the per-layer metrics, including the
tracing overhead against the untraced pass.  ``--short`` sends one short
list and one timed import, for the benchmark's own tests.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Single-threaded BLAS/OpenMP, set before numpy loads here or in any child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracles  # noqa: E402  (loads numpy, so after the thread settings)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_IMPORTS = 3  # timed fresh-interpreter imports, after one discarded
IMPORT_MODULES = {"suptail.sim": "cli.import.suptail_sim_ms", "suptail.entropy": "cli.import.suptail_entropy_ms"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "sim.covariance_s": "s",
    "sim.kernel_evals": "count",
    "sim.kernel_us": "us",
    "sim.factor_s": "s",
    "sim.factor_dim": "count",
    "sim.sample_self_s": "s",
    "sim.normals": "count",
    "sim.tail_s": "s",
    "sim.covariance_frac": "ratio",
    "sim.sampling_frac": "ratio",
    "supbound.optimize_s": "s",
    "supbound.optimize_calls": "count",
    "supbound.entropy_evals": "count",
    "supbound.threshold_evals": "count",
    "entropy.c1_evals": "count",
    "growth.series_s": "s",
    "growth.series_terms": "count",
    "growth.optimize_s": "s",
    "growth.theta_sup_calls": "count",
    "heat.model_init_ms": "ms",
    "heat.envelope_s": "s",
    "metric.covering_oracle_ms": "ms",
    "cli.import.suptail_sim_ms": "ms",
    "cli.import.suptail_entropy_ms": "ms",
    "cli.io_ms": "ms",
    "cli.self_ms": "ms",
    "proc.cpu_s": "s",
    "proc.wait_s": "s",
    "trace.request_s": "s",
    "trace.overhead_frac": "ratio",
    "host.calib_ms": "ms",
}


# Times the import inside a fresh interpreter, then the reference import in
# the same interpreter, so both see the host phase the import ran in.
_IMPORT_CHILD = f"""
import time
t0 = time.perf_counter()
import suptail.cli
elapsed = time.perf_counter() - t0
t0 = time.perf_counter()
import {hostspeed.REFERENCE_IMPORTS}
print(elapsed, time.perf_counter() - t0)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _import_once(importtime: bool) -> tuple[float, float, str]:
    """(import seconds, reference import seconds, stderr) of one fresh interpreter."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", _IMPORT_CHILD]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import suptail.cli failed: {proc.stderr.strip()[-500:]}")
    elapsed, reference = (float(v) for v in proc.stdout.split())
    return elapsed, reference, proc.stderr


def _import_ms(stderr: str) -> dict[str, float]:
    """Cumulative import time per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if parts[-1] in IMPORT_MODULES:
            out[IMPORT_MODULES[parts[-1]]] = int(parts[1]) / 1000.0
    return out


def measure_setup(timed: int, importtime: bool) -> tuple[float, dict[str, float]]:
    """Median scaled time of ``import suptail.cli`` in fresh interpreters,
    after one discarded import that compiles the .pyc files; with importtime,
    the median scaled per-module cumulative import times too."""
    _import_once(importtime=False)
    times, per_module = [], {name: [] for name in IMPORT_MODULES.values()}
    for _ in range(timed):
        elapsed, reference, stderr = _import_once(importtime)
        scale = hostspeed.REFERENCE_IMPORT_S / reference
        times.append(elapsed * scale)
        for name, ms in _import_ms(stderr).items():
            per_module[name].append(ms * scale)
    medians = {name: statistics.median(v) for name, v in per_module.items() if v}
    return statistics.median(times), medians


def send(main, req: dict, workdir: Path, i: int) -> tuple[object, float, str]:
    """Write the request's config, call the CLI; (exit code, seconds, stderr)."""
    cfg_path = workdir / f"cfg{i}.json"
    cfg_path.write_text(json.dumps(req["config"]), encoding="utf-8")
    argv = [req["command"], "--config", str(cfg_path), "--out", str(workdir / f"out{i}"), *req["args"]]
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects arguments by exiting
        code = exc.code
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, time.perf_counter() - t0, err.getvalue()


def run_pass(main, requests: list[dict], workdir: Path, tracer: Tracer | None = None) -> dict:
    """Send every request once, between two calibration loops.

    Returns exit codes, stderr tails, raw and scaled latencies, the scaled
    wall time (sum of scaled request cycles: config write plus CLI call), the
    calibration times, and the raw wall and CPU time of the whole loop.
    """
    codes, errors, latencies, cycles, calib = [], [], [], [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for i, req in enumerate(requests):
        calib.append(hostspeed.calibrate())
        c0 = time.perf_counter()
        if tracer is not None:
            tracer.request_id = i
            span = tracer.open("request")
        code, elapsed, err = send(main, req, workdir, i)
        if tracer is not None:
            tracer.close(span)
        cycles.append(time.perf_counter() - c0)
        codes.append(code)
        latencies.append(elapsed)
        errors.append(err.strip().splitlines()[-1] if err.strip() else "")
    calib.append(hostspeed.calibrate())
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - t0
    scale = hostspeed.scales(calib)
    return {
        "codes": codes,
        "errors": errors,
        "latencies": latencies,
        "scaled": [lat * k for lat, k in zip(latencies, scale)],
        "wall": sum(c * k for c, k in zip(cycles, scale)),
        "scale": scale,
        "calib": calib,
        "raw_wall": wall,
        "cpu": cpu,
    }


def check_pass(requests: list[dict], sent: dict, workdir: Path) -> list[tuple[int, str, bool]]:
    """(index, reason, wrong) for each failed request of a pass; wrong means
    the request exited 0 but its output fails the oracle."""
    failures = []
    for i, (req, code, err) in enumerate(zip(requests, sent["codes"], sent["errors"])):
        reason = oracles.check(req, code, workdir / f"out{i}")
        if reason is not None:
            failures.append((i, f"{reason} {err}".strip(), code == 0))
    return failures


def layer_metrics(tracer: Tracer, traced: dict, requests: list[dict], workdir: Path) -> dict[str, float]:
    """Per-layer metrics of the traced pass; span times are scaled like the
    request they belong to."""
    n = len(requests)
    total, self_time = tracer.totals(traced["scale"])
    counts = tracer.counts
    request_s = total.get("request", 0.0)
    evals = counts["sim.kernel_evals"]
    sampling_s = self_time.get("sim.sample", 0.0) + total.get("sim.tail", 0.0)
    terms = 0
    for i, req in enumerate(requests):
        path = workdir / f"out{i}" / "bound_growth.json"
        if req["command"] == "bound-growth" and path.exists():
            series = json.loads(path.read_text(encoding="utf-8"))["series"]
            terms += series["c_tilde_terms"] + series["s_tilde_terms"]
    return {
        "sim.covariance_s": total.get("sim.covariance", 0.0),
        "sim.kernel_evals": evals,
        "sim.kernel_us": 1e6 * total.get("sim.kernel", 0.0) / evals if evals else 0.0,
        "sim.factor_s": total.get("sim.factor", 0.0),
        "sim.factor_dim": tracer.factor_dim,
        "sim.sample_self_s": self_time.get("sim.sample", 0.0),
        "sim.normals": counts["sim.normals"],
        "sim.tail_s": total.get("sim.tail", 0.0),
        "sim.covariance_frac": total.get("sim.covariance", 0.0) / request_s,
        "sim.sampling_frac": sampling_s / request_s,
        "supbound.optimize_s": total.get("supbound.optimize", 0.0),
        "supbound.optimize_calls": counts["supbound.optimize_calls"],
        "supbound.entropy_evals": counts["supbound.entropy_evals"],
        "supbound.threshold_evals": counts["supbound.threshold_evals"],
        "entropy.c1_evals": counts["entropy.c1_evals"],
        "growth.series_s": total.get("growth.series", 0.0),
        "growth.series_terms": terms,
        "growth.optimize_s": total.get("growth.optimize", 0.0),
        "growth.theta_sup_calls": counts["growth.theta_sup_calls"],
        "heat.model_init_ms": 1e3 * total.get("heat.model_init", 0.0) / n,
        "heat.envelope_s": total.get("heat.envelope", 0.0),
        "metric.covering_oracle_ms": 1e3 * total.get("metric.covering_oracle", 0.0) / n,
        "cli.io_ms": 1e3 * total.get("cli.io", 0.0) / n,
        "cli.self_ms": 1e3 * self_time.get("request", 0.0) / n,
        "trace.request_s": request_s,
    }


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, short: bool, workdir: Path) -> dict:
    setup_s, import_ms = measure_setup(1 if short else SETUP_IMPORTS, importtime=trace)

    sys.path.insert(0, str(SRC))
    from suptail import cli

    print("# environment " + json.dumps(environment(), sort_keys=True), flush=True)
    n = 10 if short else workloads.request_count(workload, seconds)
    requests = workloads.make_requests(workload, seed, n)
    warmup = workloads.make_requests(workload, f"{seed}/warm-up", 1)[0]
    warm_dir = workdir / "warm-up"
    warm_dir.mkdir()
    hostspeed.calibrate()  # its first call in a process runs slow
    send(cli.main, warmup, warm_dir, 0)

    plain_dir = workdir / "plain"
    plain_dir.mkdir()
    plain = run_pass(cli.main, requests, plain_dir)
    failures = check_pass(requests, plain, plain_dir)
    attempted = n

    if not trace:
        metrics = {
            "setup_s": setup_s,
            "wall_s": plain["wall"],
            "req_p50_ms": 1e3 * statistics.median(plain["scaled"]),
            "req_p90_ms": 1e3 * percentile(plain["scaled"], 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(failures) / n,
        }
        units = END_TO_END
    else:
        traced_dir = workdir / "traced"
        traced_dir.mkdir()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli.main, requests, traced_dir, tracer)
        finally:
            tracer.uninstall()
        failures += check_pass(requests, traced, traced_dir)
        attempted = 2 * n
        metrics = layer_metrics(tracer, traced, requests, traced_dir)
        metrics.update(import_ms)
        metrics["proc.cpu_s"] = plain["cpu"]
        metrics["proc.wait_s"] = plain["raw_wall"] - plain["cpu"]
        metrics["trace.overhead_frac"] = traced["wall"] / plain["wall"] - 1.0
        metrics["host.calib_ms"] = 1e3 * statistics.median(plain["calib"])
        units = PER_LAYER

    for i, reason, _ in failures:
        print(f"# failed request {i} ({requests[i]['command']}): {reason}", file=sys.stderr)
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]!r} {unit}")
    print(f"# fail_frac = {len(failures) / attempted!r} ratio")
    raw = plain["latencies"]
    print(
        f"# unscaled: loop wall {plain['raw_wall']!r} s, request p50 {1e3 * statistics.median(raw)!r} ms, "
        f"p90 {1e3 * percentile(raw, 90)!r} ms; calibration loop median "
        f"{1e3 * statistics.median(plain['calib'])!r} ms (reference {1e3 * hostspeed.REFERENCE_S!r} ms)"
    )
    return {
        "correct": not any(wrong for _, _, wrong in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="short list, one timed import")
    args = parser.parse_args(argv)

    if not (SRC / "suptail" / "cli.py").is_file():
        print(f"error: no suptail sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.short, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
