"""Every run file the schema can express, under every command, ends cleanly.

A run ends in one of these ways, and no other:

- exit 0, with every CSV cell finite and every JSON file strict;
- exit 3, logging the ``section.key`` of a schema key;
- exit 1, with one of the three rules an accepted run can still break: a
  spectrum's baseline too small to calibrate, a composition pumped too
  shallow to invert, or a pump trace whose first readout is too small to
  calibrate against;
- exit 4, from ``fit`` alone, with a strict report that says converged false.

Runs stay small (n_reps and n_steps <= 6, points <= 7, n_max <= 6), so that a
few hundred of them take about two seconds in-process.
"""

import json
import logging
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lambda_cpt.cli import _HANDLERS, main
from lambda_cpt.config import _SCHEMA
from lambda_cpt.datasets import read_csv

GOLDEN = Path(__file__).resolve().parent / "golden"

ENGINE_RULES = (
    "too small to calibrate the spectrum",
    "too shallow to invert",
    "first readout too small to calibrate against",
)

# Values most keys take, drawn twice as often as the rest: numbers of every
# magnitude, either sign, the float range's ends, and texts no converter takes.
PLAUSIBLE = st.sampled_from(["0", "0.02", "0.05", "0.1", "0.5", "1", "2", "3", "10", "20"])
NUMBER = st.one_of(
    PLAUSIBLE,
    PLAUSIBLE,
    st.sampled_from(
        ["-1", "1e-320", "1e-150", "1e150", "1e300", "-1e300", "1e308", "nan", "inf", "-inf",
         "x", ""]
    ),
    st.builds(
        lambda mantissa, exponent: repr(mantissa * 2.0**exponent),
        st.floats(-2.0, 2.0, exclude_max=True),
        st.integers(-1074, 1023),
    ),
)
NUMBERS = st.lists(NUMBER.filter(bool), min_size=1, max_size=3).map(", ".join)
# A dataset and the fit kind it was written for.
FITS = [
    ("dip/spectrum.csv", "dips"),
    ("tracking/spectrum.csv", "dips"),
    ("comb/multi_resonance_T10.csv", "dips"),
    ("pump/pump_estimate.csv", "saturation"),
    ("pump/pump_steps.csv", "saturation"),
    ("composition/composition.csv", "contrast"),
]
# The size of every run, valid and small; drawn as a key, one that is rejected.
SIZES = {
    "sequence.n_reps": st.integers(1, 6).map(str),
    "composition.n_steps": st.integers(1, 6).map(str),
    "scan.points": st.integers(2, 7).map(str),
}
VALUES = {
    **{path: st.sampled_from(["-1", "0", "1.5", "1e300", "x", ""]) for path in SIZES},
    "scan.n_max": st.integers(-1, 6).map(str),
    "scan.t_seq_list": NUMBERS,
    "composition.ratios": NUMBERS,
    "fit.init_centers": st.one_of(st.just(""), NUMBERS),
    "fit.input": st.sampled_from(
        [str(GOLDEN / "missing.csv"), *sorted(str(path) for path in GOLDEN.glob("*/*.csv"))]
    ),
    "fit.kind": st.sampled_from(["dips", "saturation", "contrast", "wavelet"]),
    "fit.k": st.integers(0, 3).map(str),
}
KEYS = [f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys]


@st.composite
def runs(draw) -> tuple[str, str]:
    """A command and its INI text: the three size keys small, a fit's dataset
    and kind, and up to three keys set to anything."""
    command = draw(st.sampled_from(sorted(_HANDLERS)))
    chosen = {path: draw(values) for path, values in SIZES.items()}
    if command == "fit":
        dataset, kind = draw(st.sampled_from(FITS))
        chosen.update({"fit.input": str(GOLDEN / dataset), "fit.kind": kind})
    for path in draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
        chosen[path] = draw(VALUES.get(path, NUMBER))
    sections: dict[str, list[str]] = {}
    for path, value in chosen.items():
        section, key = path.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return command, "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n" for section, lines in sections.items()
    )


class Lines(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def strict_json(path: Path) -> dict:
    def reject(constant):
        raise AssertionError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def check_files(out: Path) -> None:
    for path in out.iterdir():
        if path.suffix == ".json":
            strict_json(path)
            continue
        for name, column in read_csv(path).items():
            cells = [cell for cell in column if not isinstance(cell, str)]
            assert all(math.isfinite(cell) for cell in cells), (path.name, name)


@seed(35)
@settings(max_examples=400, deadline=None, database=None)
@given(runs())
# Rules only a handler checks, which random draws seldom reach: each used to
# be logged by its bare field name.
@example(("pump-steps", "[drive]\ndelta_1 = 0.05\n"))
@example(("comb-predict", "[drive]\nomega_1 = 0.1\nomega_2 = 0.1\n[sequence]\nt_mw = 0\n"))
@example(("comb-predict", "[scan]\nn_s = 1e-320\n"))
@example(("composition", "[drive]\nomega_1 = 1e-150\nomega_2 = 0\n[composition]\nratios = 0.3\n"))
def test_every_run_file_ends_cleanly(run):
    command, text = run
    lines = Lines()
    logger = logging.getLogger("lambda_cpt")
    logger.addHandler(lines)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "run.ini").write_text(text)
            out = Path(tmp) / "out"
            code = main([command, "--config", str(Path(tmp) / "run.ini"), "--out", str(out)])
            if code in (0, 4):
                check_files(out)
            if code == 4:
                assert command == "fit" and not strict_json(out / "fit_report.json")["converged"]
    finally:
        logger.removeHandler(lines)
    log = "\n".join(lines.lines)
    if code == 3:
        match = re.search(r"(?:configuration|validation) rejected: (\w+)\.(\w+): ", log)
        assert match and match[2] in _SCHEMA.get(match[1], {}), log
    elif code == 1:
        assert "engine failure: " in log and any(rule in log for rule in ENGINE_RULES), log
    else:
        assert code in (0, 4), (code, log)
