"""Seeded inputs, ops and output checks of the three benchmark workloads.

A workload hands out rounds of ops. ``round(index)`` draws the inputs of one
round from ``(seed, index)`` alone, so a seed fixes the whole op stream, and
prepares them; call it right before running the round. Each op's
``execute`` is the timed call into the package and ``check`` validates its
output afterwards, raising ``CheckFailed`` on a wrong result. The package
only ever sees what the generators produce: INI text parsed by
``lambda_cpt.config`` for the in-process workloads, the shipped
``configs/*.ini`` for ``cli-pipeline``.

Sizes are stratified: a round takes one size from each equal slice of its
range, and from round to round the position inside each slice steps by the
golden ratio from a seeded start. Every round so holds the same mix of small
and large ops, a run of a few rounds covers each slice evenly, and medians
agree across seeds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lambda_cpt import config, experiments, fitting

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"

THETA = math.pi / 2
PHI = (1.6, 2.2)  # drive azimuth: pumping efficiency (1 + cos phi) / 2 in 0.21-0.49
ALPHA_DP = (0.06, 0.18)
DIP_POINTS = (101, 321)
DIP_SPAN = 0.06  # MHz, grid is +-DIP_SPAN around two-photon resonance
DIPS_PER_ROUND = 3
COMB_PERIODS = (10.0, 50.0)  # t_seq range, us
COMB_COUNT = 4
COMB_POINTS = 321  # multi_resonance_scan's own grid size per period
COMB_ALPHA_DP = (0.0, 0.06)
COMB_CENTER_TOL = 0.05  # of the tooth spacing 1/t_seq
PUMP_PERIODS = (2000, 20000)
PUMP_PER_ROUND = 4
PUMP_FIT_PERIODS = 40  # see README: fit_saturation on a whole long trace can go degenerate
PUMP_TOL = {"alpha_p_eff": 0.02, "alpha_dp": 0.002}
TRACE_TOL = 1e-9  # |p_up + p_down + p_excited - 1| per period
CSV_TOL = 1e-10  # absolute, golden CSV cells
REPORT_TOL = 1e-8  # relative and absolute, golden fit_report.json numbers

README_ORDER = (
    "esr_lines",
    "cpt_dip",
    "dip_tracking",
    "pump_steps",
    "composition",
    "multi_resonance",
    "comb_predict",
)
CLI_TIMEOUT_S = 150.0


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    periods: int  # simulated sequence periods, counted from the inputs
    inputs: str  # canonical text of the drawn inputs, hashed into the digest
    execute: Callable[[], object]
    check: Callable[[object], None]


def package_env() -> dict[str, str]:
    """Environment for a child interpreter that imports lambda_cpt from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0


def _strata(seed: int, stream: int, index: int, lo: float, hi: float, n: int) -> list[float]:
    """Round ``index``'s sizes: one from each of n equal slices of [lo, hi]."""
    start = np.random.default_rng([seed, 0, stream]).uniform(size=n)
    return [lo + (hi - lo) * (k + (start[k] + index * GOLDEN_STEP) % 1.0) / n for k in range(n)]


def _sequence_ini(phi: float, alpha_dp: float, t_mw: float, n_reps: int) -> str:
    return (
        "[drive]\npulse_area = 3.141592653589793\nratio = 1.0\n"
        f"theta = {THETA!r}\nphi = {phi!r}\n\n"
        f"[sequence]\nt_mw = {t_mw!r}\nalpha_dp = {alpha_dp!r}\nn_reps = {n_reps}\n"
    )


def _check_spectrum(spec, points: int) -> None:
    _require(len(spec.signal) == points, f"{len(spec.signal)} points, expected {points}")
    _require(bool(np.all(np.isfinite(spec.signal))), "non-finite signal")
    edge = 0.5 * (spec.signal[0] + spec.signal[-1])
    _require(abs(edge - 0.5) < 1e-9, f"edge mean {edge!r}, expected 0.5")


def _check_dips(fit, expected: np.ndarray, tol: float) -> None:
    _require(fit.converged, "dip fit did not converge")
    _require(not fit.no_dip, "dip fit found no dip")
    off = np.max(np.abs(fit.centers - expected))
    _require(off < tol, f"dip centres {fit.centers} off {expected} by {off:.3g}")


class InProcess:
    """Shared base of the two workloads that call the library in-process."""

    name = ""
    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Inputs and one warm-up op, as a fresh process pays them."""
        op = self.warmup_op(np.random.default_rng([self.seed, 0]))
        op.check(op.execute())

    def round(self, index: int) -> list[Op]:
        return self.draw(np.random.default_rng([self.seed, index + 1]), index)

    def start_trace(self, tracer) -> None:
        tracer.install()

    def stop_trace(self, tracer) -> None:
        tracer.uninstall()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class SpectrumSweep(InProcess):
    """Many short chains: one spectrum plus its fit per op, three dips per comb."""

    name = "spectrum-sweep"

    def warmup_op(self, rng) -> Op:
        return self._dip(rng, DIP_POINTS[0])

    def draw(self, rng, index: int) -> list[Op]:
        sizes = _strata(self.seed, 1, index, *DIP_POINTS, DIPS_PER_ROUND)
        sizes = [int(round(p)) for p in rng.permutation(sizes)]
        ops = [self._dip(rng, points) for points in sizes]
        periods = _strata(self.seed, 2, index, *COMB_PERIODS, COMB_COUNT)
        ops.insert(int(rng.integers(len(ops) + 1)), self._comb(rng, periods))
        return ops

    def _dip(self, rng, points: int) -> Op:
        ini = _sequence_ini(rng.uniform(*PHI), rng.uniform(*ALPHA_DP), 6.0, 40)
        seq = config.parse_config(ini).seq
        grid = np.linspace(-DIP_SPAN, DIP_SPAN, points)

        def execute():
            spec = experiments.cpt_spectrum(seq, 0.0, grid)
            return spec, fitting.fit_dips(spec, k=1)

        def check(out) -> None:
            spec, fit = out
            _check_spectrum(spec, points)
            _check_dips(fit, np.zeros(1), 0.1 * float(fit.fwhms[0]))

        return Op("dip", points * seq.n_reps, f"dip points={points}\n{ini}", execute, check)

    def _comb(self, rng, periods: list[float]) -> Op:
        ini = _sequence_ini(rng.uniform(*PHI), rng.uniform(*COMB_ALPHA_DP), 0.3, 80)
        seq = config.parse_config(ini).seq

        def execute():
            spectra = experiments.multi_resonance_scan(seq, periods)
            fits = [
                fitting.fit_dips(
                    spec,
                    k=3,
                    init_centers=experiments.comb_predict(seq.t_mw, t_seq, 1.8, 1).dip_centers,
                )
                for t_seq, spec in zip(periods, spectra)
            ]
            return spectra, fits

        def check(out) -> None:
            spectra, fits = out
            _require(len(spectra) == len(periods), "one spectrum per period expected")
            for t_seq, spec, fit in zip(periods, spectra, fits):
                _check_spectrum(spec, COMB_POINTS)
                teeth = np.arange(-1, 2) / t_seq
                _check_dips(fit, teeth, COMB_CENTER_TOL / t_seq)

        return Op(
            "comb",
            len(periods) * COMB_POINTS * seq.n_reps,
            f"comb t_seq={periods!r}\n{ini}",
            execute,
            check,
        )


class PumpTrace(InProcess):
    """One long chain per op: a pumping trace, its saturation fit and inversion."""

    name = "pump-trace"

    def warmup_op(self, rng) -> Op:
        return self._pump(rng, PUMP_PERIODS[0])

    def draw(self, rng, index: int) -> list[Op]:
        sizes = _strata(self.seed, 3, index, *PUMP_PERIODS, PUMP_PER_ROUND)
        return [self._pump(rng, int(round(n))) for n in rng.permutation(sizes)]

    def _pump(self, rng, periods: int) -> Op:
        phi, alpha_dp = rng.uniform(*PHI), rng.uniform(*ALPHA_DP)
        ini = _sequence_ini(phi, alpha_dp, 6.0, periods)
        seq = config.parse_config(ini).seq
        # Pumping efficiency of an equal-amplitude drive, in closed form.
        alpha_p = 0.5 * (1.0 + math.sin(THETA) * math.cos(phi))

        def execute():
            trace = experiments.pump_trace(seq)
            fit = fitting.fit_saturation(trace.p_dark_est[:PUMP_FIT_PERIODS])
            return trace, fit, fitting.recover_simplified(fit)

        def check(out) -> None:
            trace, fit, simplified = out
            steps = trace.trace
            _require(len(steps) == periods, f"{len(steps)} periods, expected {periods}")
            drift = float(np.max(np.abs(steps.p_up + steps.p_down + steps.p_excited - 1.0)))
            _require(drift < TRACE_TOL, f"population sum off 1 by {drift:.3g}")
            _require(fit.converged and fit.identifiable, "saturation fit failed")
            for key, want in (("alpha_p_eff", alpha_p), ("alpha_dp", alpha_dp)):
                got = getattr(simplified, key)
                _require(abs(got - want) < PUMP_TOL[key], f"{key} {got:.4f}, drawn {want:.4f}")

        return Op("pump", periods, f"pump\n{ini}", execute, check)


def _pipeline() -> list[tuple[str, list[str]]]:
    """(config name, argv) of every shipped config command, in README order."""
    configs = sorted((ROOT / "configs").glob("*.ini"))
    rank = {name: i for i, name in enumerate(README_ORDER)}
    configs.sort(key=lambda p: (rank.get(p.stem, len(rank)), p.stem))
    commands = []
    for path in configs:
        for line in path.read_text(encoding="utf-8").splitlines():
            match = re.match(r"#\s+lambda-cpt\s+(\S.*)$", line)
            if match:
                commands.append((path.name, match.group(1).split()))
    if not commands:
        raise RuntimeError("no lambda-cpt command lines found in configs/*.ini")
    return commands


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _cli_periods(cfg, command: str) -> int:
    """Sequence periods a command simulates, from its resolved config."""
    n_reps = cfg.seq.n_reps
    if command == "cpt-spectrum":
        return cfg.scan_grid[2] * n_reps
    if command == "pump-steps":
        return n_reps
    if command == "composition":
        return len(cfg.ratios) * cfg.composition_steps
    if command == "multi-resonance":
        explicit = {"delta_start", "delta_stop", "points"} & set(cfg.explicit.get("scan", {}))
        points = cfg.scan_grid[2] if explicit else COMB_POINTS
        return len(cfg.t_seq_list) * points * n_reps
    return 0


def _read_table(path: Path) -> dict[str, list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and not row[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _same_cell(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return a == b or abs(a - b) <= CSV_TOL


def _compare_csv(got_path: Path, want_path: Path) -> None:
    got, want = _read_table(got_path), _read_table(want_path)
    _require(list(got) == list(want), f"{got_path.name}: columns {list(got)} != {list(want)}")
    for name in want:
        _require(len(got[name]) == len(want[name]), f"{got_path.name}:{name}: row count differs")
        bad = [i for i, (g, w) in enumerate(zip(got[name], want[name])) if not _same_cell(g, w)]
        _require(not bad, f"{got_path.name}:{name}: {len(bad)} cells off golden, first row {bad[:1]}")


def _compare_report(got, want, where: str) -> None:
    if isinstance(want, dict):
        _require(isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ")
        for key in want:
            _compare_report(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want), f"{where}: length differs")
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_report(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool)
        ok = ok and math.isclose(got, want, rel_tol=REPORT_TOL, abs_tol=REPORT_TOL)
        _require(ok, f"{where}: {got!r} != golden {want!r}")
    else:
        _require(got == want, f"{where}: {got!r} != golden {want!r}")


class CliPipeline:
    """Every shipped config command as a fresh `lambda-cpt` process, golden-checked.

    Commands run from a work tree inside the benchmark directory that holds a
    copy of ``configs/`` and the ``out/`` tree the commands write, so each
    ``fit`` step reads the dataset its config names, just written.
    """

    name = "cli-pipeline"
    in_process = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.work = BENCH / f".work-{os.getpid()}"
        self.tracer = None

    def setup(self) -> None:
        """Cold ``import lambda_cpt.cli`` and the work tree; no op runs here."""
        import lambda_cpt.cli  # noqa: F401

        self.commands = _pipeline()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.copytree(ROOT / "configs", self.work / "configs")
        self.env = package_env()

    def round(self, index: int) -> list[Op]:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        return [self._command(ini, argv) for ini, argv in self.commands]

    def start_trace(self, tracer) -> None:
        """Each command process installs the wrappers and dumps its spans."""
        self.tracer = tracer

    def stop_trace(self, tracer) -> None:
        self.tracer = None
        dumps = sorted(self.work.glob("spans-*.json"), key=lambda p: int(p.stem.split("-")[1]))
        for path in dumps:
            tracer.absorb(path)
            path.unlink()

    def _command(self, ini: str, argv: list[str]) -> Op:
        argv = argv + ["--seed", str(self.seed)]
        config_path = self.work / _argv_value(argv, "--config")
        text = config_path.read_text(encoding="utf-8")
        periods = _cli_periods(config.parse_config(text), argv[0])
        out_dir = _argv_value(argv, "--out")
        golden = GOLDEN / Path(out_dir).relative_to("out")
        if argv[0] == "fit":
            expected = [golden / "fit_report.json"]
        else:
            expected = sorted(golden.glob("*.csv"))
        boot = [sys.executable, str(BENCH / "cli_boot.py")]

        def execute():
            cmd = list(boot)
            if self.tracer is not None:
                op = str(self.tracer.op)
                cmd += ["--trace-out", str(self.work / f"spans-{op}.json"), "--op", op]
            proc = subprocess.Popen(
                cmd + ["--"] + argv,
                cwd=self.work,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                errors="replace",
            )
            try:
                _, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            return proc.returncode, stderr

        def check(out) -> None:
            code, stderr = out
            _require(code == 0, f"exit {code}: {stderr.strip()[-300:]}")
            _require(bool(expected), f"no golden outputs under {golden}")
            for want in expected:
                got = self.work / out_dir / want.name
                _require(got.is_file(), f"{got.name} not written")
                if want.suffix == ".json":
                    got_report = json.loads(got.read_text(encoding="utf-8"))
                    want_report = json.loads(want.read_text(encoding="utf-8"))
                    _compare_report(got_report, want_report, f"{out_dir}/{want.name}")
                else:
                    _compare_csv(got, want)

        return Op(" ".join(argv[:1] + [ini]), periods, f"{' '.join(argv)}\n{text}", execute, check)

    def peak_rss_mb(self) -> float:
        """Largest command; read before any other child process has run."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SpectrumSweep, PumpTrace, CliPipeline)}
