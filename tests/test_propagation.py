"""The batched propagation kernel against single-point runs, its period maps,
and the exact map of each segment form they are built from.

Configs are drawn as INI text and resolved by ``parse_config``, so every
draw is one the run-file schema accepts. The draws switch every dissipative
channel on (laser dephasing, wait dephasing, finite electron T1) and stretch
the period, which is where a closed-form detuning shift could go wrong.
"""

import logging
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    OBSERVABLES,
    REAL,
    VEC,
    Recorded,
    dense,
    expectations,
    from_real,
    lindblad,
    period_maps,
    pulse_hamiltonian,
    recorded,
    scipy_expm,
    to_real,
    turn_maps,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_cpt import dynamics
from lambda_cpt.config import load_config, parse_config
from lambda_cpt.dynamics import (
    KERNEL_BUDGET,
    dark_bright_basis,
    kernel_bytes,
    kernel_layout,
    period_form,
    propagate_periods,
    pure_state,
    thermal_ground_state,
)
from lambda_cpt.experiments import cpt_spectrum, pump_trace
from lambda_cpt.lambda_system import polarization_efficiency
from lambda_cpt.spin_model import FieldError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# Tr rho = x . TRACE in the engine's real coordinates.
TRACE = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def run_files(
    draw,
    dissipative=True,
    stretch=floats(0.0, 12.0),
    t1_e=floats(5.0, 1000.0),
    t_laser=floats(0.05, 0.6),
    gamma_dp=floats(0.01, 2.0),
):
    """INI text of a drive and sequence; dissipative=False leaves only the laser.

    stretch draws the slack t_seq - packed duration in us, t_laser the laser
    duration, and t1_e and gamma_dp the wait T1 and laser dephasing of a
    dissipative draw.
    """
    t_mw = draw(floats(0.3, 8.0))
    t_laser = draw(t_laser)
    t_wait_pre = draw(floats(0.0, 0.5))
    t_wait_post = draw(floats(0.0, 2.0))
    stretch = draw(stretch)
    lines = [
        "[drive]",
        f"pulse_area = {draw(floats(0.5, 2.0 * math.pi))!r}",
        f"ratio = {draw(floats(0.2, 5.0))!r}",
        f"delta_1 = {draw(floats(-0.1, 0.1))!r}",
        f"psi = {draw(floats(0.0, 2.0 * math.pi))!r}",
        f"theta = {draw(floats(0.0, math.pi))!r}",
        f"phi = {draw(floats(0.0, 2.0 * math.pi))!r}",
        "[sequence]",
        f"t_mw = {t_mw!r}",
        f"t_wait_pre = {t_wait_pre!r}",
        f"t_laser = {t_laser!r}",
        f"t_wait_post = {t_wait_post!r}",
        f"t_seq = {t_mw + t_wait_pre + t_laser + t_wait_post + stretch!r}",
        f"n_reps = {draw(st.integers(1, 12))}",
        f"gamma = {draw(floats(5.0, 30.0))!r}",
    ]
    if dissipative:
        lines += [
            f"gamma_dp = {draw(gamma_dp)!r}",
            f"gamma_2n = {draw(floats(0.001, 0.2))!r}",
            f"t1_e = {draw(t1_e)!r}",
        ]
    return "\n".join(lines) + "\n"


detunings = st.lists(floats(-0.2, 0.2), min_size=1, max_size=6)


def segment_map(gen, duration):
    """9x9 map of one segment by scipy: expm(gen t), a 3x3 U lifted to U (x) U*."""
    p = scipy_expm(gen * duration)
    return np.kron(p, p.conj()) if len(p) == 3 else p


def single_point(seq, delta_1, delta_2):
    """Readout and final states of one point, four expm-ed segments per period."""
    point = replace(seq, lam=replace(seq.lam, delta_1=delta_1, delta_2=delta_2))
    props = [segment_map(gen[0], t) for gen, t in dense(period_form(point))]
    vec = thermal_ground_state().reshape(9)
    readout = []
    for _ in range(seq.n_reps):
        vec = props[1] @ (props[0] @ vec)
        readout.append(vec.reshape(3, 3))
        vec = props[3] @ (props[2] @ vec)
    return np.array(readout), vec.reshape(3, 3)


@settings(max_examples=40, deadline=None)
@given(text=run_files(), offsets=detunings)
def test_kernel_matches_single_point_runs(text, offsets):
    seq = parse_config(text).seq
    delta_1 = seq.lam.delta_1
    delta_2 = delta_1 + np.array(offsets)
    readouts, final = propagate_periods(
        period_form(seq, delta_2), thermal_ground_state(), range(seq.n_reps), OBSERVABLES
    )
    assert readouts.shape == (len(delta_2), seq.n_reps, 9)
    assert final.shape == (len(delta_2), 9)
    for i, d2 in enumerate(delta_2):
        states, last = single_point(seq, delta_1, d2)
        want = expectations(OBSERVABLES, states)
        np.testing.assert_allclose(readouts[i], want, rtol=0, atol=1e-12)
        # The nine observables fix the whole final state.
        np.testing.assert_allclose(final[i], expectations(OBSERVABLES, last), rtol=0, atol=1e-12)


def jump_generators(seq):
    """The pulse's H, and the Lindblad generators of the wait and the laser of seq.

    The frame is H = 2 pi diag(0, -(delta_1 - delta_2), -delta_1); the pulse
    adds the tones, 2 pi omega_1 / 2 between |up> and |->, and 2 pi
    (omega_2 / 2) e^{i psi} from |-> to |down>. The laser
    decays |-> into D at gamma alpha_p and into B at gamma (1 - alpha_p) and
    dephases the ground coherence at gamma_dp; the wait dephases it at
    gamma_2n. Electron T1 is left out: a wait's map applies it, its form
    does not hold it.
    """
    lam = seq.lam
    frame = 2.0 * math.pi * np.diag([0.0, -(lam.delta_1 - lam.delta_2), -lam.delta_1])
    tones = np.zeros((3, 3), dtype=complex)
    tones[0, 2] = 2.0 * math.pi * lam.omega_1 / 2.0
    tones[1, 2] = 2.0 * math.pi * lam.omega_2 / 2.0 * np.exp(1j * lam.psi)
    dark, bright = dark_bright_basis(lam)
    alpha_p = polarization_efficiency(lam)
    excited = np.eye(3)[2]

    def dephasing(rate):
        return math.sqrt(rate / 2.0) * np.diag([1.0, -1.0, 0.0])

    laser = [
        math.sqrt(seq.gamma * alpha_p) * np.outer(np.append(dark, 0.0), excited),
        math.sqrt(seq.gamma * (1.0 - alpha_p)) * np.outer(np.append(bright, 0.0), excited),
        dephasing(seq.gamma_dp),
    ]
    pulse = frame + tones + tones.conj().T
    return pulse, lindblad(frame, [dephasing(seq.gamma_2n)]), lindblad(frame, laser)


# The generator entries each form holds, at row-major vec slot 3i + j: a wait
# its six coherences (frame rotation and dephasing), a laser its diagonal and
# the feed of rho_ee (column 8) into rho_00, rho_11, rho_01 and rho_10.
COHERENCES = [1, 2, 3, 5, 6, 7]
WAIT_HELD = np.zeros((9, 9), dtype=bool)
WAIT_HELD[COHERENCES, COHERENCES] = True
FED = [0, 4, 1, 3]
LASER_HELD = np.eye(9, dtype=bool)
LASER_HELD[FED, 8] = True


@settings(max_examples=40, deadline=None)
@given(text=run_files(), offsets=detunings)
def test_segment_forms_are_the_lindblad_generators_of_their_jumps(text, offsets):
    """Every segment of a period, at seq's own detuning and stacked, slot by slot
    against its jumps' generator.

    Each entry a segment holds matches to 1e-14 relative; the laser column,
    where the dark and bright terms cancel off the diagonal, to 1e-14 gamma.
    Every entry a segment does not hold is zero in that generator.
    """
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    stack = period_form(seq, grid)
    runs = [(seq, period_form(seq), 0)] + [
        (replace(seq, lam=replace(seq.lam, delta_2=d2)), stack, i) for i, d2 in enumerate(grid)
    ]
    for point, period, i in runs:
        hamiltonian, wait, optical = jump_generators(point)
        np.testing.assert_allclose(pulse_hamiltonian(period)[i], hamiltonian, rtol=1e-14, atol=0)
        _, pre, (held, _), post = dense(replace(period, t1_e=math.inf))
        for form, _ in (pre, post):
            np.testing.assert_allclose(form[i][WAIT_HELD], wait[WAIT_HELD], rtol=1e-14, atol=0)
        assert not wait[~WAIT_HELD].any()
        np.testing.assert_allclose(held[i].diagonal(), optical.diagonal(), rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            held[i][FED, 8], optical[FED, 8], rtol=1e-14, atol=1e-14 * point.gamma
        )
        assert not optical[~LASER_HELD].any()


# Every dissipative channel on, off two-photon resonance, stretched period.
LONG_CHAIN = """
[drive]
pulse_area = 2.6
ratio = 1.7
delta_1 = 0.03
psi = 0.9
[sequence]
t_wait_pre = 0.2
t_laser = 0.15
t_wait_post = 0.7
t_seq = 11.3
gamma = 12.0
gamma_dp = 0.3
gamma_2n = 0.02
t1_e = 400.0
"""


def long_chain(g):
    """LONG_CHAIN stacked over g two-photon detunings."""
    seq = parse_config(LONG_CHAIN).seq
    return period_form(seq, seq.lam.delta_1 + np.linspace(-0.02, 0.01, g))


# LONG_CHAIN with a weak pulse, slow wait dephasing and a long T1: its one
# run at delta_2 = 0 still moves by 9e-6 over the three periods up to period
# 4096 (LONG_CHAIN's is steady to 1e-13 by period 64), so the powers that
# carry the last start show in its final state.
SLOW_CHAIN = (
    LONG_CHAIN.replace("pulse_area = 2.6", "pulse_area = 0.05")
    .replace("gamma_2n = 0.02", "gamma_2n = 0.001")
    .replace("t1_e = 400.0", "t1_e = 1e6")
)


def slow_chain(g):
    """SLOW_CHAIN, g copies of its run at delta_2 = 0."""
    return period_form(parse_config(SLOW_CHAIN).seq, np.zeros(g))


@pytest.mark.parametrize(
    "delta_1, delta_2", [(0.0, 0.0), (0.0, 0.02), (0.03, 0.0), (0.03, 0.03), (-0.05, 0.01)]
)
def test_default_forms_are_the_stack_at_the_sequence_detuning(delta_1, delta_2):
    """period_form(seq) is the G = 1 stack at seq.lam.delta_2, bit for bit.

    Every field is compared by shape, dtype and bytes, so that a zero of the
    other sign shows, as array_equal would not.
    """
    seq = parse_config(LONG_CHAIN).seq
    seq = replace(seq, lam=replace(seq.lam, delta_1=delta_1, delta_2=delta_2))
    default, stacked = period_form(seq), period_form(seq, [delta_2])
    for field in fields(default):
        got, want = getattr(default, field.name), getattr(stacked, field.name)
        if isinstance(want, np.ndarray):
            assert (got.shape, got.dtype) == (want.shape, want.dtype), field.name
            got, want = got.tobytes(), want.tobytes()
        assert got == want, field.name


def period_by_period(period, rho0, n_reps, observables):
    """Oracle: the kernel's own A and M, two matrix-vector products per period and run.

    It runs in extended precision (np.longdouble) on the real coordinates x
    of the state, and reads Tr(O rho) off rho = vec^-1(VEC x): in float64
    its own rounding would grow with the period count, to 1.8e-12 over
    20000 periods of PUMP. Returns those readouts and each run's final
    state, (G, 3, 3).
    """
    a, m = (x.astype(np.longdouble) for x in period_maps(period))
    basis = VEC.astype(np.clongdouble)
    readouts = np.empty((len(a), n_reps, len(observables)))
    finals = []
    for g, (a_g, m_g) in enumerate(zip(a, m)):
        x = (REAL @ rho0.reshape(9)).real.astype(np.longdouble)
        for i in range(n_reps):
            rho = (basis @ (a_g @ x)).reshape(3, 3)
            readouts[g, i] = expectations(observables, rho)
            x = m_g @ x
        finals.append((basis @ x).reshape(3, 3))
    return readouts, np.array(finals)


# The benchmark's pump draw: a pi pulse on a theta = pi/2 drive at phi = 1.9.
PUMP = """
[drive]
pulse_area = 3.141592653589793
ratio = 1.0
theta = 1.5707963267948966
phi = 1.9
[sequence]
t_mw = 6.0
alpha_dp = 0.1
"""


def pump(g):
    """PUMP, g copies of its one run on two-photon resonance."""
    seq = parse_config(PUMP).seq
    return period_form(seq, np.full(g, seq.lam.delta_2))


EXTENDED = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="the oracle needs an extended long double"
)
# Block lengths 1 to 64, full and partial blocks, at k = 1 (a spectrum's
# one observable) and more, with n_reps mod K = 1, 3, 6, 7 and 15, so that
# the powers that carry the last start skip a bit or run through every one,
# also in a G = 1 chain that is still moving at its last block; two long
# chains, 157 blocks of 128. Each reads every period. Then ranges
# that start mid-block (a spectrum's window of 40 or 4097 periods among
# them), on a block boundary, in a last block of one period, and the empty
# range at n_reps, after a full last block too.
BLOCK_CASES = (
    [
        pytest.param(long_chain, n_reps, g, k, 0, id=f"{k}-{g}-{n_reps}")
        for k in (0, 1, 5)
        for g in (1, 3)
        for n_reps in (1, 3, 4, 15, 16, 17, 63, 64, 65, 70, 127, 1023, 4097)
    ]
    + [
        pytest.param(slow_chain, n_reps, 1, k, 0, id=f"slow-{k}-1-{n_reps}")
        for k in (1, 5)
        for n_reps in (17, 65, 70, 127, 1023, 4097)
    ]
    + [
        pytest.param(long_chain, 20000, 1, 5, 0, id="5-1-20000", marks=EXTENDED),
        pytest.param(pump, 20000, 1, 5, 0, id="pump-5-1-20000", marks=EXTENDED),
    ]
    + [
        pytest.param(long_chain, n_reps, g, k, start, id=f"{k}-{g}-{n_reps}-from-{start}")
        for k, g, n_reps, start in (
            (1, 1, 40, 30),
            (5, 3, 65, 30),
            (5, 3, 65, 32),
            (5, 3, 65, 64),
            (5, 3, 65, 65),
            (5, 3, 64, 64),
            (1, 3, 4097, 3073),
            (5, 1, 4097, 4096),
            (5, 3, 1, 1),
        )
    ]
)


@pytest.mark.parametrize("chain, n_reps, g, k, start", BLOCK_CASES)
def test_blocked_kernel_matches_period_by_period(chain, n_reps, g, k, start):
    """The blocked kernel against the per-period oracle, reading periods start to n_reps.

    The readouts of the range are the same bits as that slice of every
    readout, and the final values the same bits as when every period is read.
    """
    period = chain(g)
    rho0 = 0.5 * thermal_ground_state() + 0.5 * pure_state(np.array([1.0, 1j, 1.0]) / math.sqrt(3))
    observables = OBSERVABLES[:k]
    readouts, final = propagate_periods(period, rho0, range(start, n_reps), observables)
    want, want_final = period_by_period(period, rho0, n_reps, observables)
    assert readouts.shape == (g, n_reps - start, k) and final.shape == (g, k)
    np.testing.assert_allclose(readouts, want[:, start:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(final, expectations(observables, want_final), rtol=0, atol=1e-12)
    every, every_final = propagate_periods(period, rho0, range(n_reps), observables)
    assert np.array_equal(readouts, every[:, start:]) and np.array_equal(final, every_final)
    # The nine observables fix the whole final state.
    _, whole = propagate_periods(period, rho0, range(start, n_reps), OBSERVABLES)
    np.testing.assert_allclose(whole, expectations(OBSERVABLES, want_final), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "periods", [range(0), range(5, 3), range(0, 10, 2), range(-1, 10), range(10, 0, -1), 10]
)
def test_kernel_rejects_a_read_range_it_cannot_read(periods):
    with pytest.raises(ValueError, match=r"periods must be a range\(start, n_reps\)"):
        propagate_periods(long_chain(1), thermal_ground_state(), periods, OBSERVABLES[:1])


def kernel_products():
    """The last two dimensions of each logged matmul's operands."""
    return [[s[-2:] for s in shapes] for name, shapes in Recorded.log if name == "matmul"]


def test_kernel_has_no_loop_over_blocks(monkeypatch):
    """20000 periods at G = 1: O(log n) products, one of them the readout.

    Every matrix product on the period's arrays is logged; all of them are
    the kernel's, on 9-slot operands (the maps take none). K = 128,
    so there are 157 blocks; the 157 starts of the 156 whole blocks and the
    last come by doubling, so no product advances one block's state to the
    next. Doubling i takes the first 2^i starts through P^(2^i), P =
    (M^128)^T, as one product of its own, and each doubling but the last
    then squares its power; the last takes the 29 starts it needs. With the
    squarings of M up to M^128, 14 products square a map. Four products take
    a single row through a map: R A, the first doublings of the readout rows
    and of the starts, and the one that carries the last start over the one
    set bit of the 32 periods after it. Two products of the block starts
    with the readout rows (neither operand a 9x9 map) give every readout,
    each one matrix product per observable: the first and the last block
    (9 x 2 x 128 multiply-adds), and the 155 blocks between them (9 x 155
    x 128), written straight into the readouts returned. One
    product of the final state with each observable's row gives the final
    values. Each observable's readouts come out contiguous, and the readouts
    returned own their 20000 periods alone.
    """
    n_reps, k, block = 20000, 5, 128
    blocks = -(-n_reps // block)
    rest = n_reps % block
    monkeypatch.setattr(Recorded, "log", [])
    period = recorded(long_chain(1))
    readouts, final = propagate_periods(
        period, thermal_ground_state(), range(n_reps), OBSERVABLES[:k]
    )
    products = kernel_products()
    reads = [shapes for shapes in products if (9, 9) not in shapes]
    assert reads == [[(2, 9), (9, block)], [(blocks - 2, 9), (9, block)], [(1, 9), (9, 1)]]
    stacks = [shapes for name, shapes in Recorded.log if name == "matmul" and (9, block) in
              [s[-2:] for s in shapes]]
    assert stacks == [[(1, 1, 2, 9), (1, k, 9, block)], [(1, 1, blocks - 2, 9), (1, k, 9, block)]]
    finals = [shapes for name, shapes in Recorded.log if name == "matmul" and (9, 1) in
              [s[-2:] for s in shapes]]
    assert finals == [[(1, 1, 1, 9), (k, 9, 1)]]
    starts = [shapes for name, shapes in Recorded.log if name == "matmul"
              and len(shapes[0]) == 3 and shapes[0][1] != 1 and shapes[0] != (1, 9, 9)]
    assert starts == [[(1, 1 << i, 9), (1, 9, 9)] for i in range(1, 7)] + [
        [(1, blocks - 128, 9), (1, 9, 9)]
    ]
    assert products.count([(9, 9), (9, 9)]) == 14
    assert products.count([(1, 9), (9, 9)]) == 3 + bin(rest).count("1")
    assert len(products) <= 2 * math.ceil(math.log2(n_reps)) + 4
    assert readouts.dtype == np.float64
    assert readouts.shape == (1, n_reps, k)
    assert all(readouts[0, :, c].flags.c_contiguous for c in range(k))
    assert final.dtype == np.float64 and final.shape == (1, k)
    buffer = owner(readouts)
    assert buffer.dtype == np.float64 and buffer.size == n_reps * k


def column_gains_trace(period):
    return replace(period, column=1.01 * period.column)


def one_wait_not_finite(period):
    """The last run's frame frequency of |down> is NaN; runs 0 and 1 stay finite."""
    frequencies = period.frequencies.copy()
    frequencies[1, -1] = np.nan
    return replace(period, frequencies=frequencies)


@pytest.mark.parametrize("corrupt", [column_gains_trace, one_wait_not_finite])
@pytest.mark.parametrize("n_reps", [1, 40])
def test_kernel_rejects_a_run_that_is_not_physical(corrupt, n_reps):
    period = corrupt(long_chain(3))
    # The NaN frequency also flags "invalid" in the pulse's complex division;
    # the final-state check has to catch the run all the same.
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match=r"must be finite, with trace within 1e-10 max"):
            propagate_periods(period, thermal_ground_state(), range(n_reps), OBSERVABLES[:1])


def test_kernel_rejects_a_trace_gain_of_1e_9_per_period():
    """A laser column 1e-9 too strong drifts the trace 1.9e-7 over 1000 periods."""
    period = long_chain(3)
    leaky = replace(period, column=(1.0 + 1e-9) * period.column)
    with pytest.raises(ValueError, match=r"trace within 1e-10 max.*largest drift 1.88e-07"):
        propagate_periods(leaky, thermal_ground_state(), range(1000), OBSERVABLES[:1])


@pytest.mark.parametrize("name, n_reps", [("cpt_dip", 100_000), ("pump_steps", 700_000)])
def test_long_shipped_runs_keep_the_trace_within_their_rounding(name, n_reps):
    """Rounding alone drifts the trace about linearly in the period count.

    The shipped spectrum over 1e5 periods and pump trace over 7e5 drift by
    1.2e-10 and 1.5e-10, past 1e-10 but within 64 eps n_reps.
    """
    cfg = load_config(CONFIGS / f"{name}.ini")
    seq = replace(cfg.seq, n_reps=n_reps)
    if name == "pump_steps":
        assert np.all(np.isfinite(pump_trace(seq).trace.p_dark))
    else:
        spectrum = cpt_spectrum(seq, seq.lam.delta_1, np.linspace(*cfg.scan_grid))
        assert np.all(np.isfinite(spectrum.signal))


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads Linux's VmHWM")
def test_long_spectrum_holds_only_its_window():
    """A 201-point cpt_dip.ini spectrum over 1e5 periods peaks below 120 MB, in a new interpreter.

    It reads only its last 25000 periods. Holding the readouts of every
    period, as the kernel once did for every protocol, peaked at 193 MB.
    """
    probe = (
        "from dataclasses import replace; import numpy as np; "
        "from lambda_cpt.config import load_config; "
        "from lambda_cpt.experiments import cpt_spectrum; "
        f"cfg = load_config({str(CONFIGS / 'cpt_dip.ini')!r}); "
        "seq = replace(cfg.seq, n_reps=100_000); "
        "grid = np.linspace(*cfg.scan_grid); "
        "signal = cpt_spectrum(seq, seq.lam.delta_1, grid).signal; "
        "assert len(grid) == 201 and np.isfinite(signal).all(); "
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    # The peak resident set of the new interpreter alone, in KiB: its
    # ru_maxrss also counts the test process it was spawned from.
    assert int(out.stdout) / 1024 < 120


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads Linux's VmRSS")
def test_wide_spectrum_holds_one_chunk_and_its_outputs():
    """A 200 001-point cpt_dip.ini spectrum, in a new interpreter, peaks within
    16 MiB of the resident set it held before cpt_spectrum plus what its one
    kernel call holds (kernel_bytes: one chunk's working set and the readouts
    and final values of its 141 793 distinct |delta_2|, 19.9 MiB). The 16 MiB
    cover what grows with the grid outside the kernel (the distinct values and
    their inverse, the period's frame frequencies: about 6 MiB), a chunk's
    map-build temporaries and the allocator's slack. Holding the working set
    of every run at once, as the kernel did before it streamed its runs in
    chunks, peaked 540 MB above that resident set.
    """
    probe = (
        "import numpy as np; "
        "from lambda_cpt.config import load_config; "
        "from lambda_cpt.dynamics import kernel_bytes, kernel_layout; "
        "from lambda_cpt.experiments import cpt_spectrum; "
        "status = lambda key: int(open('/proc/self/status').read().split(key)[1].split()[0]); "
        f"cfg = load_config({str(CONFIGS / 'cpt_dip.ini')!r}); "
        "seq = cfg.seq; grid = np.linspace(*cfg.scan_grid[:2], 200_001); "
        "runs = len(np.unique(np.abs(grid))); "
        "held = kernel_bytes(runs, 1, kernel_layout(seq.n_reps, 1, 30), 10); "
        "assert seq.n_reps == 40 and seq.lam.delta_1 == 0 and runs == 141_793; "
        "before = status('VmRSS:'); "
        "signal = cpt_spectrum(seq, seq.lam.delta_1, grid).signal; "
        "assert np.isfinite(signal).all(); "
        "print(before, status('VmHWM:'), held)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    before, peak, held = (int(x) for x in out.stdout.split())
    # VmRSS and VmHWM in KiB, of the new interpreter alone.
    assert (peak - before) * 1024 <= held + 16 * 2**20


def test_kernel_logs_one_debug_line_per_call(monkeypatch, caplog):
    monkeypatch.setattr(Recorded, "log", [])
    period = recorded(long_chain(3))
    with caplog.at_level(logging.DEBUG, logger="lambda_cpt.dynamics"):
        propagate_periods(period, thermal_ground_state(), range(65), OBSERVABLES[:5])
    # R A and the two readout products (the first and last of the 9 blocks,
    # and the 7 between them), 3 rows doublings and 3 squarings up to
    # M^8, 4 doublings of the starts and 3 squarings of their power, M for the
    # one period after the last whole block, and the final values.
    assert len(kernel_products()) == 18
    # The working set, 8 bytes per entry: the 3 powers M, M^2 and M^4, 8 x 5
    # readout rows, the power, 9 block starts, a slab of max(9, 8 x 5) rows
    # for the map build, the power's other slot and then the readout rows
    # transposed, and the 5 x 2 x 8 readouts of the first and the last block.
    work = 8 * 3 * (3 * 81 + 8 * 5 * 9 + 81 + 9 * 9 + 9 * max(9, 8 * 5) + 5 * 2 * 8)
    lines = [r.getMessage() for r in caplog.records if r.name == "lambda_cpt.dynamics"]
    assert lines == [
        f"propagate_periods: G=3 n_reps=65 read=65 K=8 blocks=9 products=18 work={work} chunks=1"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lambda_cpt.dynamics"):
        propagate_periods(period, thermal_ground_state(), range(65), OBSERVABLES[:5])
    assert not caplog.records


@pytest.mark.parametrize(
    "g, n_reps, k, start",
    [(1, 1, 5, 0), (3, 65, 5, 30), (3, 64, 5, 64), (321, 80, 1, 60), (1, 20000, 5, 0),
     (2, 4097, 3, 4097), (1, 40, 1, 30), (0, 65, 5, 30), (3, 70, 5, 0), (2, 127, 1, 100),
     (1, 1023, 5, 1000)],
)
def test_kernel_bytes_is_what_a_call_holds(caplog, g, n_reps, k, start):
    """The closed form the kernel holds a call to its budget by, against a
    kernel call: the working set of one chunk that its DEBUG line logs, plus
    the arrays its outputs own. A stack of no runs holds nothing and reads
    empty arrays."""
    with caplog.at_level(logging.DEBUG, logger="lambda_cpt.dynamics"):
        readouts, final = propagate_periods(
            long_chain(g), thermal_ground_state(), range(start, n_reps), OBSERVABLES[:k]
        )
    assert readouts.shape == (g, n_reps - start, k) and final.shape == (g, k)
    work = int(caplog.records[-1].getMessage().split("work=")[1].split()[0])
    held = kernel_bytes(g, k, kernel_layout(n_reps, k, start), n_reps - start)
    assert held == work + owner(readouts).nbytes + owner(final).nbytes


# A single run of 1e16 periods would hold 7.5e7 GiB, and 10^5 runs of a
# spectrum's window at 10^6 periods return 186 GiB of readouts, 2 MB a run.
@pytest.mark.parametrize(
    "field, g, periods",
    [("n_reps", 1, range(10**16)), ("points", 10**5, range(750_000, 10**6))],
)
def test_kernel_over_its_budget_raises_before_allocating(field, g, periods):
    period, rho0 = long_chain(g), thermal_ground_state()
    tracemalloc.start()
    try:
        with pytest.raises(FieldError, match=f"^{field} must be .* at most 1 GiB, not "):
            propagate_periods(period, rho0, periods, OBSERVABLES[:1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layout = kernel_layout(periods.stop, 1, periods.start)
    assert kernel_bytes(g, 1, layout, len(periods)) > KERNEL_BUDGET
    assert peak < 64 * 1024


@pytest.mark.parametrize("g, n_reps", [(1, 20000), (321, 80)])
def test_a_readout_does_not_depend_on_which_others_are_read(g, n_reps):
    """Each observable's readouts and final value are the same bits read alone as with four others.

    At G = 1 every period of 20000 is read; at G = 321, a comb spectrum's
    steady window of 20 of 80. Each observable's readout rows double in
    products of their own, and each has its own product with the block
    starts and with the final state, so no other observable's rows take
    part in them and no product's shape depends on how many are read.
    """
    seq = parse_config(LONG_CHAIN).seq
    period = period_form(seq, seq.lam.delta_1 + np.linspace(-0.06, 0.06, g))
    periods = range(n_reps) if g == 1 else range(n_reps - 20, n_reps)
    rho0 = thermal_ground_state()
    together, final = propagate_periods(period, rho0, periods, OBSERVABLES[:5])
    assert together.shape == (g, len(periods), 5)
    for c in range(5):
        alone, alone_final = propagate_periods(period, rho0, periods, OBSERVABLES[c : c + 1])
        assert alone[..., 0].tobytes() == together[..., c].tobytes(), c
        assert alone_final[:, 0].tobytes() == final[:, c].tobytes(), c


def test_runs_in_uneven_chunks_are_the_bits_of_one_call_per_run(monkeypatch, caplog):
    """G = 7 runs streamed in chunks of 3, 3 and 1 are the bytes of 7 calls of one run.

    The stack spans two sequence periods, so each chunk takes the pre-laser
    waits of its own runs, and rho0 has coherences, so each chunk turns its
    first start by the frame phases of its own runs. The call holds one
    chunk's working set and its outputs, as kernel_bytes states.
    """
    seq = parse_config(LONG_CHAIN).seq
    t_seq = np.repeat([seq.t_seq, 2.0 * seq.t_seq], [4, 3])
    period = period_form(seq, seq.lam.delta_1 + np.linspace(-0.02, 0.01, 7), t_seq)
    rho0 = 0.5 * thermal_ground_state() + 0.5 * pure_state(np.array([1.0, 1j, 1.0]) / math.sqrt(3))
    periods, k = range(50, 65), 5
    layout = kernel_layout(periods.stop, k, periods.start)
    run = 8 * sum(layout[3])
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 3 * run + run - 1)
    with caplog.at_level(logging.DEBUG, logger="lambda_cpt.dynamics"):
        readouts, final = propagate_periods(period, rho0, periods, OBSERVABLES[:k])
    assert caplog.records[-1].getMessage().endswith(f" work={3 * run} chunks=3")
    held = kernel_bytes(7, k, kernel_layout(periods.stop, k, periods.start), len(periods))
    assert held == 3 * run + owner(readouts).nbytes + owner(final).nbytes
    for g in range(7):
        alone = replace(
            period, frequencies=period.frequencies[:, g : g + 1], t_pre=period.t_pre[g : g + 1]
        )
        one, one_final = propagate_periods(alone, rho0, periods, OBSERVABLES[:k])
        assert one.tobytes() == readouts[g : g + 1].tobytes(), g
        assert one_final.tobytes() == final[g : g + 1].tobytes(), g


def map_products():
    """Each logged matmul whose result is a (..., 9, 9) map stack."""
    return [
        call
        for call in Recorded.log
        if call[0] == "matmul" and (call[1][0][-2], call[1][1][-1]) == (9, 9)
    ]


def test_kernel_working_set_does_not_grow_with_the_period_count(monkeypatch):
    """65 and 20000 periods at G = 3 make the same number of fresh 9x9 products.

    The powers of M up to M^K, and the powers of (M^K)^T that the doublings
    of the block starts take, square between slots of the working set, so
    of the 6 squarings at 65 periods (K = 8, 9 starts) and the 14 at 20000
    (K = 128, 157 starts), none makes a new map stack.
    """
    squarings, fresh = [], []
    for n_reps in (65, 20000):
        monkeypatch.setattr(Recorded, "log", [])
        period = recorded(long_chain(3))
        propagate_periods(period, thermal_ground_state(), range(n_reps), OBSERVABLES[:5])
        products = map_products()
        squarings.append(len(products))
        fresh.append(sum(not call.into for call in products))
    assert squarings == [6, 14]
    assert fresh[0] == fresh[1]


def numpy_bytes() -> int:
    """Bytes of array data tracemalloc traces now (numpy's own domain)."""
    snapshot = tracemalloc.take_snapshot()
    only_arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    return sum(trace.size for trace in snapshot.filter_traces([only_arrays]).traces)


def owner(array: np.ndarray) -> np.ndarray:
    """The array that owns a view's data."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_kernel_holds_its_working_set_once_and_keeps_only_its_outputs():
    """A comb spectrum's kernel call: G = 321, n_reps = 80, k = 1, its window of 20 periods.

    The working set is one buffer of 8 bytes per entry: the powers M, M^2
    and M^4 (3 x 81 per point), the readout rows (K k 9 = 72), a power
    (81), the starts of the 10 whole blocks and of the end (9 x 11), the
    slab of the map build and the power's other slot (9 x 9), and the
    readouts of the 3 blocks that hold the window (3 K k). The outputs
    are allocated beside it: the readouts of the window's 20 periods and
    the final values. The traced peak stays within both plus 2 map stacks
    of temporaries for the map build, the lift of U to rho -> U rho
    U^dagger holding three (3, 6, G) complex stacks at its largest. After
    the call, the only new array data is what the outputs own, and the
    readouts own their window alone.
    """
    g, k, block, blocks = 321, 1, 8, 10
    seq = parse_config(LONG_CHAIN).seq
    period = period_form(seq, seq.lam.delta_1 + np.linspace(-0.06, 0.06, g))
    window, excited = range(60, 80), [np.diag([0.0, 0.0, 1.0])]
    first = propagate_periods(period, thermal_ground_state(), window, excited)
    work = 8 * g * (3 * 81 + block * k * 9 + 81 + 9 * (blocks + 1) + 9 * 9 + 3 * block * k)
    returned = 8 * g * k * (len(window) + 1)
    tracemalloc.start()
    try:
        before = numpy_bytes()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        readouts, final = propagate_periods(period, thermal_ground_state(), window, excited)
        peak = tracemalloc.get_traced_memory()[1] - start
        kept = numpy_bytes() - before
    finally:
        tracemalloc.stop()
    assert work + returned <= peak <= work + returned + 2.0 * 8 * 81 * g
    assert owner(readouts).nbytes == 8 * g * len(window) * k
    outputs = {id(owner(x)): owner(x).nbytes for x in (readouts, final)}
    assert sorted(outputs.values()) == [8 * g * k, 8 * g * len(window) * k]
    assert kept == sum(outputs.values())
    assert np.array_equal(readouts, first[0]) and np.array_equal(final, first[1])


def test_period_maps_hand_off_c_contiguous_float64_maps():
    """A stack of G runs gives two (G, 9, 9) stacks, G = 1 included, both C-contiguous.

    The folded maps are written into the two stacks the kernel hands in,
    and the turn comes back as one factor of modulus 1 per coherence and
    run, (3, G).
    """
    seq = parse_config(LONG_CHAIN).seq
    for period, shape in ((period_form(seq), (1, 9, 9)), (long_chain(3), (3, 9, 9))):
        for maps in period_maps(period):
            assert maps.dtype == np.float64 and maps.shape == shape
            assert maps.flags.c_contiguous
        a, m = (np.full(shape, np.nan) for _ in range(2))
        turn = dynamics._write_maps(period, a, m, np.empty(shape).reshape(9, 9, -1))
        assert np.isfinite(a).all() and np.isfinite(m).all()
        assert turn.dtype == complex and turn.shape == (3, shape[0])
        np.testing.assert_allclose(np.abs(turn), 1.0, rtol=0, atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(text=run_files(), offsets=st.lists(floats(-0.2, 0.2), min_size=2, max_size=9))
def test_read_window_does_not_depend_on_batching(text, offsets):
    """A spectrum's window of readouts and the final values of a sweep, whole and split in two."""
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    half = len(grid) // 2
    n = seq.n_reps
    window = range(n - min(max(5, n // 4), n), n)

    def run(part):
        period = period_form(seq, part)
        return propagate_periods(period, thermal_ground_state(), window, OBSERVABLES)

    whole = run(grid)
    split = [run(part) for part in (grid[:half], grid[half:])]
    for i in (0, 1):
        assert np.array_equal(whole[i], np.concatenate([part[i] for part in split]))


def excited_at_mirrored_detunings(seq, delta_2):
    """The excited readouts of every period at +delta_2 and at -delta_2, each (G, n_reps)."""
    grid = np.concatenate((delta_2, -delta_2))
    readouts, _ = propagate_periods(
        period_form(seq, grid), thermal_ground_state(), range(seq.n_reps),
        [np.diag([0.0, 0.0, 1.0])],
    )
    return readouts[: len(delta_2), :, 0], readouts[len(delta_2) :, :, 0]


@settings(max_examples=40, deadline=None)
@given(text=run_files(), offsets=st.lists(floats(0.0, 0.3), min_size=1, max_size=6))
def test_excited_readout_is_even_in_delta_2_at_one_photon_resonance(text, offsets):
    """At delta_1 = 0 the frame frequencies flip with delta_2, and the period at
    -delta_2 is the one at +delta_2 conjugated by rho -> P rho* P^dagger, which
    keeps the populations: from the thermal state every period reads the same
    excited population at both, to rounding. cpt_spectrum folds its grid on this."""
    seq = parse_config(text).seq
    seq = replace(seq, lam=replace(seq.lam, delta_1=0.0))
    plus, minus = excited_at_mirrored_detunings(seq, np.array(offsets))
    np.testing.assert_allclose(plus, minus, rtol=0, atol=1e-13)


def test_excited_readout_is_not_even_in_delta_2_off_one_photon_resonance():
    """At delta_1 != 0 the frame frequency of |-> does not flip: the fold needs delta_1 = 0."""
    seq = replace(parse_config(LONG_CHAIN).seq, n_reps=12)
    assert seq.lam.delta_1 == 0.03
    plus, minus = excited_at_mirrored_detunings(seq, np.array([0.02]))
    assert np.abs(plus - minus).max() > 1e-3


def choi(m):
    """Choi matrix sum_ij |i><j| (x) M(|i><j|) of a row-major 9x9 map."""
    return m.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)


@settings(max_examples=30, deadline=None)
@given(text=run_files(), offsets=detunings)
def test_period_maps_are_physical(text, offsets):
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    for maps in period_maps(period_form(seq, grid)):
        # Hermiticity preservation: the map is real in real coordinates.
        assert maps.dtype == np.float64
        for m in maps:
            # Trace preservation: Tr M(rho) = Tr rho for every rho.
            np.testing.assert_allclose(TRACE @ m, TRACE, rtol=0, atol=1e-12)
            # Complete positivity: the Choi matrix has no negative eigenvalue.
            assert np.min(np.linalg.eigvalsh(choi(from_real(m)))) > -1e-10


@settings(max_examples=30, deadline=None)
@given(text=run_files(dissipative=False))
def test_dark_state_is_a_fixed_point_of_both_period_maps(text):
    seq = parse_config(text).seq
    dark = pure_state(np.append(dark_bright_basis(seq.lam)[0], 0.0)).reshape(9)
    dark = (REAL @ dark).real
    # delta_2 = delta_1: two-photon resonance at a nonzero one-photon detuning.
    for maps in period_maps(period_form(seq, [seq.lam.delta_1])):
        np.testing.assert_allclose(maps[0] @ dark, dark, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t1_e", [math.inf, 400.0])
@pytest.mark.parametrize("gamma_dp", [0.0, 0.3, 30.0])
def test_folded_maps_are_exact_off_resonance(t1_e, gamma_dp):
    """The turn folded into the next pulse, put back, gives the exact period map.

    Off two-photon resonance (delta_r from -0.2 to 0.15 MHz), the physical M
    of the folded A' and M' equals scipy's product of the four segment
    exponentials within 1e-13 times the largest norm of a segment's
    generator times its duration, with T1 on and off and with no laser
    dephasing, some, and more than the laser's decay (where rho_01's feed
    takes the turn's phase). At delta_2 = delta_1 the turn acts trivially
    on the ground block, so with no dissipation but the laser's decay the
    dark state is a fixed point of the folded A' and M' themselves.
    """
    seq = replace(parse_config(LONG_CHAIN).seq, t1_e=t1_e, gamma_dp=gamma_dp)
    period = period_form(seq, seq.lam.delta_1 + np.array([-0.2, -0.02, 0.01, 0.15]))
    _, maps = period_maps(period)
    segments = dense(period)
    for i, m in enumerate(maps):
        want, scale = np.eye(9), 1.0
        for gens, duration in segments:
            a = gens[i] * duration
            scale = max(scale, np.abs(a).sum(axis=0).max())
            step = scipy_expm(a)
            want = (np.kron(step, step.conj()) if len(a) == 3 else step) @ want
        np.testing.assert_allclose(m, to_real(want).real, rtol=0, atol=1e-13 * scale)
    still = replace(seq, gamma_dp=0.0, gamma_2n=0.0, t1_e=math.inf)
    dark = (REAL @ pure_state(np.append(dark_bright_basis(seq.lam)[0], 0.0)).reshape(9)).real
    a, m, work = (np.empty((1, 9, 9)) for _ in range(3))
    dynamics._write_maps(period_form(still, [seq.lam.delta_1]), a, m, work.reshape(9, 9, 1))
    for folded in (a[0], m[0]):
        np.testing.assert_allclose(folded @ dark, dark, rtol=0, atol=1e-13)


def pulse_map(period):
    """The engine's U of each run of a period stack, (G, 3, 3)."""
    return np.moveaxis(dynamics._pulse_unitary(period), -1, 0)


def form_map(period):
    """The engine's map of each run of a period stack, for each of its four segments:
    U for the pulse, else the real 9x9 its row operations make of the identity,
    composed with the segment's own frame turn, which the row operations fold out."""
    g = period.frequencies.shape[1]
    rows = (
        (dynamics._wait_rows(period, period.t_pre, identities(g)), period.t_pre),
        (dynamics._laser_rows(period, identities(g)), period.t_laser),
        (dynamics._wait_rows(period, period.t_post, identities(g)), period.t_post),
    )
    return [pulse_map(period), *(frame_turn(period, t) @ np.moveaxis(m, -1, 0) for m, t in rows)]


def frame_turn(period, t):
    """The real maps, (G, 9, 9), of the frame turn over a segment of duration t."""
    p = dynamics._phases(period.frequencies, t)
    return turn_maps(p[[0, 0, 1]] * p[[1, 2, 2]].conj())


def identities(g):
    """g writable 9x9 identities, stacked point-last as (9, 9, g), as the row helpers take them."""
    return np.repeat(np.eye(9)[..., None], g, axis=-1)


def assert_matches_scipy(period):
    for (gens, duration), maps in zip(dense(period), form_map(period)):
        for a, e in zip(gens * max(duration, 0.0), maps):
            scale = max(1.0, np.abs(a).sum(axis=0).max())
            want = scipy_expm(a) if len(a) == 3 else to_real(scipy_expm(a))
            np.testing.assert_allclose(e, want, rtol=0, atol=1e-13 * scale)


# Waits with finite and infinite T1, lasers with and without dephasing; a
# zero slack or laser gives a zero generator, a subnormal laser one whose
# phi1 argument is subnormal or zero, and a laser past 710/gamma one where
# e^{d_i - d_k} overflows; 50 us of slack gives waits of large norm.
@settings(max_examples=40, deadline=None)
@given(
    text=run_files(
        stretch=st.one_of(st.just(0.0), floats(0.0, 50.0)),
        t1_e=st.one_of(st.just(math.inf), floats(5.0, 1000.0)),
        t_laser=st.one_of(st.sampled_from([0.0, 5e-324]), floats(0.0, 0.6), floats(0.0, 150.0)),
        gamma_dp=st.one_of(st.just(0.0), floats(0.01, 2.0)),
    ),
    offsets=detunings,
)
def test_batched_expm_matches_scipy_per_matrix(text, offsets):
    """Each segment's map, per stack entry, against scipy's expm of its dense generator."""
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    period = period_form(seq, grid)
    # No frame turn and every decay set to that of rho_ee: a_i = a_e in every
    # laser row.
    still = np.zeros_like(period.frequencies)
    tied = replace(period, frequencies=still, decay=np.full(6, period.decay[2]))
    for each in (period, tied):
        assert_matches_scipy(each)
    # The pulse lifted to a 9x9 map, against the exponential of its Liouvillian.
    lifted, _ = period_maps(replace(period, t_pre=0.0, t_laser=0.0, t_post=0.0))
    for h, p in zip(pulse_hamiltonian(period), lifted):
        a = lindblad(h, []) * seq.t_mw
        scale = max(1.0, np.abs(a).sum(axis=0).max())
        np.testing.assert_allclose(p, to_real(scipy_expm(a)), rtol=0, atol=1e-13 * scale)


def take(period, runs):
    """The runs ``runs`` of a period stack: its frequencies, the one per-run array."""
    return replace(period, frequencies=period.frequencies[:, runs])


def assert_heads_and_tails_match(stack):
    whole = form_map(stack)
    for m in range(1, stack.frequencies.shape[1]):
        heads, tails = form_map(take(stack, slice(None, m))), form_map(take(stack, slice(m, None)))
        for maps, head, tail in zip(whole, heads, tails):
            assert np.array_equal(maps[:m], head) and np.array_equal(maps[m:], tail)


def test_batched_expm_of_a_matrix_does_not_depend_on_its_stack():
    """Every head and tail of a stack maps alone to the same bits, for every segment.

    Each stack runs over two-photon detunings from 0 to 1e3 MHz off
    delta_1, so the norms of its entries span four decades. Waits and
    lasers, with and without dephasing, last from zero up to 60 us, and
    pulses up to 1000 us; the waits go through the T1 block with t1_e
    finite and infinite.
    """
    seq = parse_config(LONG_CHAIN).seq
    grid = seq.lam.delta_1 + np.array([0.0, -0.2, 0.2, 3.0, -40.0, 1e3])
    period = period_form(seq, grid)
    undephased = period_form(replace(seq, gamma_dp=0.0), grid)
    for t, t_mw in zip((0.0, 0.5, 5.0, 20.0, 60.0), (0.0, 1.0, 60.0, 300.0, 1000.0)):
        for t1_e in (math.inf, seq.t1_e, 0.1):
            for stack in (period, undephased):
                durations = dict(t_mw=t_mw, t_pre=t, t_laser=t, t_post=t)
                assert_heads_and_tails_match(replace(stack, t1_e=t1_e, **durations))


def test_a_stack_varies_only_in_its_frequencies():
    """At G = 1 and G = 5, every array of a period but the frequencies is the same bytes.

    The frequencies are point-last, (3, G); every other coefficient is
    shared by the stack, in one shape, and no two arrays share memory.
    """
    seq = parse_config(LONG_CHAIN).seq
    single = period_form(seq)
    stack = period_form(seq, seq.lam.delta_1 + np.linspace(-0.2, 0.2, 5))
    shapes = dict(frequencies=(3, 5), couplings=(2,), dephasing=(3,), decay=(6,), column=(3,))
    arrays = {k: v for k, v in vars(stack).items() if isinstance(v, np.ndarray)}
    assert {k: v.shape for k, v in arrays.items()} == shapes
    assert single.frequencies.shape == (3, 1)
    for i, (name, array) in enumerate(arrays.items()):
        for other, held in list(arrays.items())[i + 1 :]:
            assert not np.shares_memory(array, held), (name, other)
        if name != "frequencies":
            value = getattr(single, name)
            assert value.shape == array.shape and value.tobytes() == array.tobytes(), name


def folded_maps(period):
    """The folded A', M' and turn factors that _write_maps gives a period stack, each (G, ...)."""
    g = period.frequencies.shape[1]
    a, m, work = (np.empty((g, 9, 9)) for _ in range(3))
    turn = dynamics._write_maps(period, a, m, work.reshape(9, 9, g))
    return a, m, turn.T


@pytest.mark.parametrize("t1_e", [math.inf, 400.0])
def test_a_stack_over_sequence_periods_maps_each_run_as_its_period_alone(t1_e):
    """Runs that differ in t_seq as well as delta_2 each get the bits of their period alone.

    With wait dephasing on and T1 off and on, each run's pre-laser wait is
    the bits of SequenceConfig.wait_pre_total at its own t_seq, down to a
    t_seq 1e-9 us short of the packed duration, where the wait is zero; and
    its folded maps and turn are the bytes of the G = 1 period at that t_seq
    and delta_2, whose wait the stack would share. Each t_seq comes twice,
    as the runs of one scan period do. There are 41 of them, so that wait
    factors taken by numpy's exp in place of math.exp would show: the two
    differ in the last bit for about 5% of these exponents.
    """
    seq = replace(parse_config(LONG_CHAIN).seq, t_wait_pre=0.0, t1_e=t1_e)
    t_seqs = np.repeat(np.append(seq.packed_duration - 1e-9, np.linspace(7.25, 60.0, 40)), 2)
    grid = seq.lam.delta_1 + np.tile([-0.02, 0.013], 41)
    stack = period_form(seq, grid, t_seqs)
    assert stack.t_pre.shape == (82,) and stack.t_pre[0] == 0.0
    maps = folded_maps(stack)
    for g, (t_seq, delta_2) in enumerate(zip(t_seqs.tolist(), grid.tolist())):
        alone = period_form(replace(seq, t_seq=t_seq), [delta_2])
        assert float(stack.t_pre[g]).hex() == alone.t_pre.hex()
        for got, want in zip(maps, folded_maps(alone)):
            assert got[g].tobytes() == want[0].tobytes()


def test_durations_at_or_below_zero_give_the_identity():
    """A zero duration maps as the identity, bit for bit, and a t_seq just
    short of the packed duration runs its pre-laser wait as one of zero."""
    seq = parse_config(LONG_CHAIN).seq
    grid = seq.lam.delta_1 + np.linspace(-0.2, 0.2, 3)
    period = period_form(seq, grid)
    maps = period_maps(replace(period, t_mw=0.0, t_pre=0.0, t_laser=0.0, t_post=0.0))
    for m in maps:
        assert np.array_equal(m, np.broadcast_to(np.eye(9), m.shape))
    packed = replace(seq, t_wait_pre=0.0, t_seq=None)
    short = replace(packed, t_seq=packed.t_seq - 1e-9)
    assert short.t_seq < packed.t_seq and short.wait_pre_total == 0.0
    for want, got in zip(
        period_maps(period_form(packed, grid)), period_maps(period_form(short, grid))
    ):
        assert np.array_equal(got, want)


def exponent(lo, hi):
    """10**x for x drawn from [lo, hi]."""
    return floats(lo, hi).map(lambda x: 10.0**x)


# Extreme norms through every segment: tones up to 1e6 MHz and pulses up to
# 1e4 us, wait dephasing up to 1e300 /us and electron T1 down to 1e-300 us.
# The schema accepts tones up to omega_eff = 1e150 MHz; the pulse map alone
# is checked there, by test_pulse_map_is_exact_over_the_whole_schema.
@settings(max_examples=60, deadline=None, derandomize=True)
@example(
    omega=(1e6, 1e6), t_mw=1e4, gamma_2n=1e300, t1_e=1e-300, slack=1e4, offsets=[0.0, 0.1]
)
@example(omega=(1e6, 1e-2), t_mw=1e4, gamma_2n=1e12, t1_e=5.0, slack=0.0, offsets=[0.0])
# A 10 ms wait: phases rounded one coherence at a time miss each other by
# 1.8e-12 rad there, which puts the wait and A 1.2e-12 outside the
# completely positive maps.
@example(omega=(1.0, 1.0), t_mw=1.0, gamma_2n=0.0, t1_e=math.inf, slack=1e4, offsets=[0.15])
@given(
    omega=st.tuples(exponent(-2, 6), exponent(-2, 6)),
    t_mw=exponent(-1, 4),
    gamma_2n=st.one_of(st.just(0.0), exponent(-3, 300)),
    t1_e=st.one_of(st.just(math.inf), exponent(-300, 3)),
    slack=st.one_of(st.just(0.0), exponent(-3, 4)),
    offsets=detunings,
)
def test_segment_maps_stay_exact_at_extreme_norms(omega, t_mw, gamma_2n, t1_e, slack, offsets):
    lines = [
        "[drive]",
        f"omega_1 = {omega[0]!r}",
        f"omega_2 = {omega[1]!r}",
        "delta_1 = 0.02",
        "psi = 0.7",
        "[sequence]",
        f"t_mw = {t_mw!r}",
        f"t_seq = {t_mw + 1.4 + slack!r}",
        "gamma_dp = 0.3",
        f"gamma_2n = {gamma_2n!r}",
        f"t1_e = {t1_e!r}",
    ]
    seq = parse_config("\n".join(lines) + "\n").seq
    period = period_form(seq, seq.lam.delta_1 + np.array(offsets))
    u, wait = form_map(period)[:2]
    unitarity = u @ u.conj().swapaxes(1, 2) - np.eye(3)
    assert np.abs(unitarity).max() <= 1e-14
    a, m = period_maps(period)
    for maps in (wait, a, m):
        assert np.all(np.isfinite(maps))
        assert np.abs(TRACE @ maps - TRACE).max() <= 1e-12
        for one in maps:
            assert np.min(np.linalg.eigvalsh(choi(from_real(one)))) >= -1e-12


# A 20 ms laser at gamma = 1e-9 /us turns its coherences for as long as a
# 20 ms wait: phases rounded one coherence at a time put its map, and M,
# 2.9e-12 outside the completely positive maps off two-photon resonance.
LONG_LASER = """
[drive]
omega_1 = 1
omega_2 = 1
delta_1 = 0.02
[sequence]
t_mw = 1
t_laser = 2e4
gamma = 1e-9
gamma_dp = 0
"""


def test_long_laser_maps_stay_completely_positive():
    seq = parse_config(LONG_LASER).seq
    period = period_form(seq, seq.lam.delta_1 + np.linspace(0.05, 0.3, 26))
    for maps in (form_map(period)[2], *period_maps(period)):
        assert np.abs(TRACE @ maps - TRACE).max() <= 1e-12
        for one in maps:
            assert np.min(np.linalg.eigvalsh(choi(from_real(one)))) >= -1e-12


def eigh_unitaries(period):
    """Oracle: exp(-i h t_mw) of each pulse of a stack, by a per-matrix eigh of its dense h."""
    unitaries = []
    for h in pulse_hamiltonian(period):
        w, v = np.linalg.eigh(h)
        unitaries.append(np.eye(3) + (v * np.expm1(-1j * w * period.t_mw)) @ v.conj().T)
    return np.array(unitaries)


def signed(magnitude):
    """magnitude, or its negative."""
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitude).map(lambda s: s[0] * s[1])


# Every drive the schema accepts: each tone 0 or from 1e-320 (subnormal) to
# 1e150 MHz, with omega_eff in [1e-150, 1e150]; a one-photon detuning 0 or up
# to 1e150 MHz either way; runs at delta_r = 0 and at offsets from 1e-300 to
# 1e150 MHz; pulses from 0 to 1e4 us. Each range also draws from the scale
# of the shipped runs, where ||H|| t is of order 1 and a wrong eigenbasis
# shows against the oracle.
tones = st.one_of(st.just(0.0), exponent(-2, 1), exponent(-320, 150))
detuning = st.one_of(signed(exponent(-3, 1)), signed(exponent(-6, 150)))


@settings(max_examples=150, deadline=None)
@example(omega=(0.0, 0.3), delta_1=0.02, psi=0.7, offsets=[0.05], t_mw=6.0)
@example(omega=(0.3, 0.0), delta_1=-0.02, psi=0.7, offsets=[-0.05], t_mw=6.0)
@example(omega=(1e-150, 1e150), delta_1=1e150, psi=2.0, offsets=[1e-300, -1e150], t_mw=1e4)
@example(omega=(0.2, 0.2), delta_1=0.0, psi=0.0, offsets=[1e-17], t_mw=0.0)
@example(omega=(1e-310, 0.3), delta_1=0.02, psi=1.0, offsets=[0.05], t_mw=6.0)
@example(omega=(0.3, 1e-310), delta_1=0.0, psi=1.0, offsets=[1e-320], t_mw=6.0)
@given(
    omega=st.tuples(tones, tones).filter(lambda o: 1e-150 <= math.hypot(*o) <= 1e150),
    delta_1=st.one_of(st.just(0.0), detuning),
    psi=floats(0.0, 2.0 * math.pi),
    offsets=st.lists(st.one_of(signed(exponent(-300, -6)), detuning), max_size=5),
    t_mw=st.one_of(st.just(0.0), exponent(-1, 1), exponent(-3, 4)),
)
def test_pulse_map_is_exact_over_the_whole_schema(omega, delta_1, psi, offsets, t_mw):
    """The closed-form U against a per-matrix eigh, at every norm the drive schema accepts.

    The first run sits at delta_r = 0. U is finite and unitary to 1e-14;
    the dark state maps to itself at delta_r = 0; a tone that is off leaves
    its level uncoupled, exactly (and |up> with no phase, f_0 being 0); t = 0
    gives the identity bit for bit; and where ||H|| t <= 1e4, U is within
    64 eps max(1, ||H|| t) of the oracle, ||H|| the largest absolute row sum.
    The frame-phase rule of a sequence keeps 2 pi |delta| t_seq below 2^33
    rad, so the drive is read with every duration 0, and the pulse runs
    past that rule for t_mw, set on the period.
    """
    lines = [
        "[drive]",
        f"omega_1 = {omega[0]!r}",
        f"omega_2 = {omega[1]!r}",
        f"delta_1 = {delta_1!r}",
        f"psi = {psi!r}",
        "[sequence]",
        *(f"{key} = 0" for key in ("t_mw", "t_wait_pre", "t_laser", "t_wait_post")),
    ]
    seq = parse_config("\n".join(lines) + "\n").seq
    period = replace(period_form(seq, seq.lam.delta_1 + np.array([0.0, *offsets])), t_mw=t_mw)
    u = pulse_map(period)
    assert np.all(np.isfinite(u))
    assert np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(3)).max() <= 1e-14
    dark = np.append(dark_bright_basis(seq.lam)[0], 0.0)
    np.testing.assert_allclose(u[0] @ dark, dark, rtol=0, atol=1e-14)
    for level in np.flatnonzero(np.array(omega) == 0.0):
        rest = [j for j in range(3) if j != level]
        assert not u[:, level, rest].any() and not u[:, rest, level].any()
    if omega[0] == 0.0:
        assert np.all(u[:, 0, 0] == 1.0)
    still = pulse_map(replace(period, t_mw=0.0))
    assert still.tobytes() == np.broadcast_to(np.eye(3, dtype=complex), still.shape).tobytes()
    norm = np.abs(pulse_hamiltonian(period)).sum(-1).max(-1) * t_mw
    kept = norm <= 1e4
    error = np.abs(u - eigh_unitaries(period)).max(axis=(1, 2))
    eps = np.finfo(float).eps
    assert np.all(error[kept] <= 64 * eps * np.maximum(1.0, norm[kept])), (error, norm)


def wait_rows_with_t1_block(period, t, m):
    """A wait's row operations with the T1 block run for every t1_e, infinite included."""
    relax, decay = dynamics._wait_decay(period, t)
    coherences = m[3:].reshape(2, 3, 9, -1)
    coherences *= decay
    up, down, excited = m[0], m[1], m[2]
    r = 0.5 * np.expm1(relax) * (excited - up - down)
    s = 0.5 * np.expm1(0.5 * relax) * (up - down)
    excited += r
    up += s - 0.5 * r
    down -= s + 0.5 * r
    return m


def test_waits_without_t1_skip_an_identity_block_bit_for_bit():
    """At t1_e = inf the wait skips its T1 block, and no bit of its map changes.

    Run there, the block adds zeros: the map of the identity and of a map
    with no zero entry are the same bytes either way. At finite t1_e the
    block runs, and the two agree there too.
    """
    seq = replace(parse_config(LONG_CHAIN).seq, t1_e=math.inf)
    grid = seq.lam.delta_1 + np.linspace(-0.2, 0.2, 3)
    rng = np.random.default_rng(7)
    period = period_form(seq, grid)
    for t in (period.t_pre, period.t_post):
        for m in (identities(len(grid)), rng.normal(size=(9, 9, len(grid)))):
            want = wait_rows_with_t1_block(period, t, m.copy())
            assert dynamics._wait_rows(period, t, m.copy()).tobytes() == want.tobytes()
    finite = period_form(replace(seq, t1_e=400.0), grid)
    m = rng.normal(size=(9, 9, len(grid)))
    got = dynamics._wait_rows(finite, finite.t_pre, m.copy())
    assert got.tobytes() == wait_rows_with_t1_block(finite, finite.t_pre, m.copy()).tobytes()
