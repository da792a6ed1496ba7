"""The batched propagation kernel against single-point runs, its period maps,
and the batched matrix exponential they are built from.

Configs are drawn as INI text and resolved by ``parse_config``, so every
draw is one the run-file schema accepts. The draws switch every dissipative
channel on (laser dephasing, wait dephasing, finite electron T1) and stretch
the period, which is where a closed-form detuning shift could go wrong.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import scipy_expm
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_cpt import dynamics
from lambda_cpt.config import parse_config
from lambda_cpt.dynamics import (
    detuned_segments,
    liouvillian,
    period_maps,
    propagate_periods,
    pure_state,
    segment_generators,
    thermal_ground_state,
)
from lambda_cpt.experiments import steady_readout
from lambda_cpt.lambda_system import dark_bright_basis

TRACE = np.eye(3).reshape(9)


def hermitian_basis() -> np.ndarray:
    """Nine Hermitian operators whose expectations fix a 3x3 density matrix."""
    ops = np.zeros((3, 3, 3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            if i == j:
                ops[i, j, i, i] = 1.0
            elif i < j:
                ops[i, j, i, j] = ops[i, j, j, i] = 1.0
            else:
                ops[i, j, i, j], ops[i, j, j, i] = 1j, -1j
    return ops.reshape(9, 3, 3)


OBSERVABLES = hermitian_basis()
# vec(X^T) = vec(X)[SWAP] in the row-major vectorization.
SWAP = np.arange(9).reshape(3, 3).T.reshape(9)


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
    props = [segment_map(gen, t) for gen, t in segment_generators(point)]
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
        detuned_segments(seq, delta_1, delta_2), thermal_ground_state(), seq.n_reps, OBSERVABLES
    )
    assert readouts.shape == (len(delta_2), seq.n_reps, 9)
    for i, d2 in enumerate(delta_2):
        states, want_final = single_point(seq, delta_1, d2)
        want = np.real(np.einsum("kji,nij->nk", OBSERVABLES, states))
        np.testing.assert_allclose(readouts[i], want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final[i], want_final, rtol=0, atol=1e-12)


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


def period_by_period(segments, rho0, n_reps, observables):
    """Oracle: one A and one B matrix-vector product per period and run."""
    a, b = (m.reshape(-1, 9, 9) for m in period_maps(segments))
    readouts = np.empty((len(a), n_reps, len(observables)))
    finals = []
    for g, (a_g, b_g) in enumerate(zip(a, b)):
        vec = rho0.reshape(9)
        for i in range(n_reps):
            vec = a_g @ vec
            readouts[g, i] = np.real(np.einsum("kji,ij->k", observables, vec.reshape(3, 3)))
            vec = b_g @ vec
        finals.append(vec.reshape(3, 3))
    return readouts, np.array(finals)


@pytest.mark.parametrize("n_reps", [0, 1, 3, 4, 15, 16, 17, 63, 64, 65, 4097])
@pytest.mark.parametrize("g", [1, 3])
@pytest.mark.parametrize("k", [0, 5])
def test_blocked_kernel_matches_period_by_period(n_reps, g, k):
    """Block lengths 1 to 64, full and partial blocks, against the per-period oracle."""
    seq = parse_config(LONG_CHAIN).seq
    delta_1 = seq.lam.delta_1
    segments = detuned_segments(seq, delta_1, delta_1 + np.linspace(-0.02, 0.01, g))
    rho0 = 0.5 * thermal_ground_state() + 0.5 * pure_state(np.array([1.0, 1j, 1.0]) / math.sqrt(3))
    observables = OBSERVABLES[:k]
    readouts, final = propagate_periods(segments, rho0, n_reps, observables)
    want, want_final = period_by_period(segments, rho0, n_reps, observables)
    assert readouts.shape == (g, n_reps, k)
    np.testing.assert_allclose(readouts, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(final, want_final, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(text=run_files(), offsets=st.lists(floats(-0.2, 0.2), min_size=2, max_size=9))
def test_steady_readout_does_not_depend_on_batching(text, offsets):
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    half = len(grid) // 2
    whole = steady_readout(seq, seq.lam.delta_1, grid)
    split = np.concatenate(
        [steady_readout(seq, seq.lam.delta_1, part) for part in (grid[:half], grid[half:])]
    )
    assert np.array_equal(whole, split)


def choi(m):
    """Choi matrix sum_ij |i><j| (x) M(|i><j|) of a row-major 9x9 map."""
    return m.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)


@settings(max_examples=30, deadline=None)
@given(text=run_files(), offsets=detunings)
def test_period_maps_are_physical(text, offsets):
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    for maps in period_maps(detuned_segments(seq, seq.lam.delta_1, grid)):
        # Hermiticity preservation: M(rho)^dagger = M(rho^dagger).
        np.testing.assert_allclose(maps[:, SWAP][:, :, SWAP].conj(), maps, rtol=0, atol=1e-12)
        for m in maps:
            # Trace preservation: Tr M(rho) = Tr rho for every rho.
            np.testing.assert_allclose(TRACE @ m, TRACE, rtol=0, atol=1e-12)
            # Complete positivity: the Choi matrix has no negative eigenvalue.
            assert np.min(np.linalg.eigvalsh(choi(m))) > -1e-10


@settings(max_examples=30, deadline=None)
@given(text=run_files(dissipative=False))
def test_dark_state_is_a_fixed_point_of_both_period_maps(text):
    seq = parse_config(text).seq
    dark = pure_state(np.append(dark_bright_basis(seq.lam).dark, 0.0)).reshape(9)
    # delta_2 = delta_1: two-photon resonance at a nonzero one-photon detuning.
    for maps in period_maps(detuned_segments(seq, seq.lam.delta_1, [seq.lam.delta_1])):
        np.testing.assert_allclose(maps[0] @ dark, dark, rtol=0, atol=1e-12)


# Waits with finite T1 and the 3x3 pulse take the Pade route, the laser
# (with or without dephasing) and waits with t1_e = inf the closed form; a
# zero slack or laser gives a zero generator, a subnormal laser one whose
# phi1 argument is subnormal or zero, and a laser past 710/gamma one where
# e^{d_i - d_k} overflows; 50 us of slack pushes the wait norms past
# theta_13, so the squaring runs.
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
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    segments = detuned_segments(seq, seq.lam.delta_1, grid)
    laser = segments[2][0] * seq.t_laser
    # Every diagonal entry set to that of rho_ee: d_i = d_k in every row.
    tied = laser.copy()
    tied[:, np.arange(8), np.arange(8)] = laser[:, 8:9, 8]
    stacks = [gens * max(duration, 0.0) for gens, duration in segments] + [tied]
    for stack in stacks:
        got = dynamics.expm(stack)
        for a, e in zip(stack, got):
            scale = max(1.0, np.abs(a).sum(axis=0).max())
            np.testing.assert_allclose(e, scipy_expm(a), rtol=0, atol=1e-13 * scale)
    # The pulse lifted to a 9x9 map, against the exponential of its Liouvillian.
    zero = np.zeros((len(grid), 9, 9))
    lifted, _ = period_maps([segments[0]] + [(zero, 0.0)] * 3)
    for gen, p in zip(segments[0][0], lifted):
        a = liouvillian(1j * gen, []) * seq.t_mw
        scale = max(1.0, np.abs(a).sum(axis=0).max())
        np.testing.assert_allclose(p, scipy_expm(a), rtol=0, atol=1e-13 * scale)


def assert_heads_and_tails_match(stack):
    whole = dynamics.expm(stack)
    for m in range(1, len(stack)):
        assert np.array_equal(whole[:m], dynamics.expm(stack[:m]))
        assert np.array_equal(whole[m:], dynamics.expm(stack[m:]))


def test_batched_expm_of_a_matrix_does_not_depend_on_its_stack():
    """Every head and tail of a stack exponentiates alone to the same bits.

    The 9x9 stack, in order of 1-norm, holds zero, diagonal (t1_e = inf) and
    dense (finite T1) waits, dense ones that need from 0 to 5 squarings,
    and one-column lasers with and without dephasing. The 3x3 stack holds
    pulses that need from 0 to 5 squarings.
    """
    seq = parse_config(LONG_CHAIN).seq
    grid = seq.lam.delta_1 + np.linspace(-0.2, 0.2, 3)
    segments = detuned_segments(seq, seq.lam.delta_1, grid)
    dense = segments[1][0]
    diagonal = detuned_segments(replace(seq, t1_e=math.inf), seq.lam.delta_1, grid)[1][0]
    assert not np.any(diagonal[:, ~np.eye(9, dtype=bool)])
    laser = segments[2][0]
    undephased = detuned_segments(replace(seq, gamma_dp=0.0), seq.lam.delta_1, grid)[2][0]
    off_diagonal = (laser != 0) & ~np.eye(9, dtype=bool)
    assert np.array_equal(np.flatnonzero(off_diagonal.any(axis=(0, 1))), [8])
    durations = (0.0, 0.5, 5.0, 20.0, 60.0)
    stack = np.concatenate(
        [gens * t for t in durations for gens in (diagonal, dense, laser, undephased)]
    )
    norms = np.abs(stack).sum(axis=1).max(axis=1)
    assert norms.max() > 2**4 * dynamics._THETA13  # some need five squarings
    assert_heads_and_tails_match(stack[np.argsort(norms, kind="stable")])
    pulses = np.concatenate([segments[0][0] * t for t in (0.0, 1.0, 60.0, 300.0, 1000.0)])
    norms = np.abs(pulses).sum(axis=1).max(axis=1)
    assert norms.max() > 2**4 * dynamics._THETA13
    assert_heads_and_tails_match(pulses[np.argsort(norms, kind="stable")])
