"""Benchmark of the lambda_cpt package, measured from outside.

    python3 perfbench/run.py --workload spectrum-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; it uses the package sources under ``src/`` next to this
directory and writes only under this directory. Workloads: spectrum-sweep,
pump-trace, cli-pipeline (see README.md here). One client runs ops in a
closed loop, whole rounds at a time, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs span
wrappers around the public calls into each module and reports the
per-layer metrics, plus the tracing overhead against an untraced replay of
the same ops. The last stdout line is the JSON result; the line before it
holds the run details (sample counts, input digest, machine facts), which
also go to ``results/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60.0
# Typical durations of calibrate() and spawn_calibrate() on the 2-vCPU Xeon
# KVM guest where the benchmark was defined. Never change them: reported
# times scale by them.
REF_S = 0.9e-3
REF_SPAWN_S = 0.17
_REF_MATRIX = np.exp(2j * np.pi * np.outer(np.arange(9), np.arange(9)) / 9) / 3.0

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "periods_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds a fixed kernel takes now, a reading of the machine's current speed.

    The kernel does what the engine's period loop does, 9x9 complex
    matrix-vector products with Python bookkeeping, 400 times, with a
    unitary matrix so values neither grow nor go subnormal. Median of three.
    """
    samples = []
    for _ in range(3):
        vec = np.ones(9, dtype=complex)
        acc = 0.0
        t0 = time.perf_counter()
        for _ in range(400):
            vec = _REF_MATRIX @ vec
            acc += float(vec.reshape(3, 3)[2, 2].real)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def spawn_calibrate() -> float:
    """Seconds a fresh interpreter takes to start and import numpy, from outside.

    The reading for work done in child processes (CLI commands, set-up
    probes), which tracks process start and imports where the in-process
    kernel does not. The package is not involved.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=PROBE_TIMEOUT_S)
    return time.perf_counter() - t0


class Phase:
    """Ops, latencies, failures and the input digest of one measured phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # scaled to the nominal machine speed
        self.raw_latencies: list[float] = []
        self.round_busy: list[tuple[int, int, float]] = []  # (ops, periods, seconds)
        self.kinds: dict[str, int] = {}
        self.attempted = self.failed = self.periods = self.rounds = 0
        self.errors: list[str] = []
        self.hasher = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()[:16]

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3


def measure(workload, tracer, seconds: float | None = None, rounds: int | None = None) -> Phase:
    """Run whole rounds until ``seconds`` have passed, or exactly ``rounds``.

    Each op's time is scaled to the nominal machine speed by the mean of
    two speed readings, right before and after it: calibrate() on the same
    thread for an in-process op, spawn_calibrate() for an op run in a child
    process. That takes out most of the machine's slow and fast spells,
    which last seconds to minutes on a shared host.
    """
    reading, nominal = (calibrate, REF_S) if workload.in_process else (spawn_calibrate, REF_SPAWN_S)
    phase = Phase()
    started = time.perf_counter()
    ref_before = reading()
    while (phase.rounds < rounds) if rounds is not None else (
        phase.rounds == 0 or time.perf_counter() - started < seconds
    ):
        ops = periods = busy = 0
        for op in workload.round(phase.rounds):
            phase.attempted += 1
            phase.kinds[op.kind] = phase.kinds.get(op.kind, 0) + 1
            phase.hasher.update(op.inputs.encode())
            if tracer is not None:
                tracer.op = phase.attempted
            t0 = time.perf_counter()
            try:
                try:
                    out = op.execute()
                finally:
                    elapsed = time.perf_counter() - t0
                    ref_after = reading()
                    ref, ref_before = (ref_before + ref_after) / 2, ref_after
                op.check(out)
                ops, periods = ops + 1, periods + op.periods
            except Exception as exc:  # a failed op is counted, the run goes on
                phase.failed += 1
                phase.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}"[:400])
            phase.raw_latencies.append(elapsed)
            phase.latencies.append(elapsed * nominal / ref)
            busy += phase.latencies[-1]
        phase.periods += periods
        phase.round_busy.append((ops, periods, busy))
        phase.rounds += 1
    return phase


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its setup is done.

    Returns the time scaled by spawn_calibrate() readings right before and
    after the probe, and the raw time.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "0", "--setup-probe"]
    ref = spawn_calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, stderr = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {stderr[-600:]}")
    return elapsed * 2 * REF_SPAWN_S / (ref + spawn_calibrate()), elapsed


def import_times() -> dict[str, float]:
    """Cumulative import ms of ``lambda_cpt.cli`` and scipy.optimize, from -X importtime."""
    from workloads import package_env

    env = package_env()
    code = "import sys; sys.stderr.write('@@start\\n'); import lambda_cpt.cli"
    samples: dict[str, list[float]] = {"cli.import_ms": [], "cli.import_scipy_optimize_ms": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        total = scipy_optimize = 0
        for line in proc.stderr.split("@@start\n", 1)[1].splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if not match:
                continue
            cumulative, indent, name = int(match.group(1)), len(match.group(2)), match.group(3)
            if indent == 1:
                total += cumulative
            if name == "scipy.optimize" and not scipy_optimize:
                scipy_optimize = cumulative
        samples["cli.import_ms"].append(total / 1e3)
        samples["cli.import_scipy_optimize_ms"].append(scipy_optimize / 1e3)
    return {key: statistics.median(values) for key, values in samples.items()}


def _blas() -> dict:
    """BLAS library numpy loaded and its thread count, read through ctypes."""
    import ctypes

    info = {"numpy_blas": np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name")}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted(set(re.findall(r"(/\S*(?:openblas|mkl_rt|blis)\S*\.so\S*)", handle.read())))
    info["libraries"] = libs
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads", "MKL_Get_Max_Threads", "bli_thread_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                info["threads"] = func()
                return info
    return info


def machine_facts() -> dict:
    import platform

    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            facts["cpu"] = re.search(r"model name\s*:\s*(.*)", handle.read()).group(1)
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(caches.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                facts[f"l{level}"] = (index / "size").read_text().strip()
    except (OSError, AttributeError):
        pass
    return facts


def _summary(phase: Phase) -> dict:
    return {"rounds": phase.rounds, "ops": phase.attempted, "kinds": phase.kinds,
            "failed": phase.failed, "input_digest": phase.digest, "errors": phase.errors[:5],
            "latencies_ms": [round(t * 1e3, 3) for t in phase.latencies],
            "raw_latencies_ms": [round(t * 1e3, 3) for t in phase.raw_latencies]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "lambda_cpt" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'lambda_cpt'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace}
        if args.trace:
            from tracer import UNITS as layer_units, Tracer, layer_metrics

            metrics = import_times()
            tracer = Tracer()
            workload.start_trace(tracer)
            traced = measure(workload, tracer, seconds=args.seconds / 2)
            workload.stop_trace(tracer)
            untraced = measure(workload, None, rounds=traced.rounds)
            if untraced.digest != traced.digest:
                raise RuntimeError("traced and untraced replay drew different inputs")
            metrics.update(layer_metrics(tracer.spans, traced.attempted))
            metrics["trace.overhead_ms"] = traced.p50_ms() - untraced.p50_ms()
            phases = [traced, untraced]
            units = layer_units
            detail.update(traced=_summary(traced), untraced=_summary(untraced),
                          untraced_op_p50_ms=untraced.p50_ms(), absent=tracer.absent,
                          bound=tracer.bound, spans=len(tracer.spans))
            RESULTS.mkdir(exist_ok=True)
            spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.json.gz"
            with gzip.open(spans_file, "wt", encoding="utf-8") as handle:
                json.dump({"fields": ["name", "layer", "start_ns", "end_ns", "parent", "op", "attrs"],
                           "spans": tracer.spans}, handle)
        else:
            phase = measure(workload, None, seconds=args.seconds)
            # Every round holds the same mix of op sizes, so throughput is the
            # median over rounds: a slow spell of the machine shifts one round.
            metrics = {
                "ops_per_s": statistics.median(o / t for o, _, t in phase.round_busy),
                "op_p50_ms": phase.p50_ms(),
                "periods_per_s": statistics.median(p / t for _, p, t in phase.round_busy),
                "peak_rss_mb": workload.peak_rss_mb(),
            }
            setup = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            metrics["setup_s"] = statistics.median(scaled for scaled, _ in setup)
            phases = [phase]
            units = UNITS
            detail.update(
                _summary(phase),
                latency_samples=len(phase.latencies),
                fail_ratio=phase.failed / phase.attempted,
                raw={
                    "op_p50_ms": statistics.median(phase.raw_latencies) * 1e3,
                    "ops_per_s": (phase.attempted - phase.failed) / sum(phase.raw_latencies),
                    "setup_s": statistics.median(raw for _, raw in setup),
                },
                setup_samples_s=setup,
            )
    finally:
        workload.close()

    detail["machine"] = machine_facts()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, metrics=metrics), indent=1) + "\n", encoding="utf-8")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
