"""The batched propagation kernel against single-point runs, and its period maps.

Configs are drawn as INI text and resolved by ``parse_config``, so every
draw is one the run-file schema accepts. The draws switch every dissipative
channel on (laser dephasing, wait dephasing, finite electron T1) and stretch
the period, which is where a closed-form detuning shift could go wrong.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lambda_cpt.config import parse_config
from lambda_cpt.dynamics import (
    detuned_segments,
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
def run_files(draw, dissipative=True):
    """INI text of a drive and sequence; dissipative=False leaves only the laser."""
    t_mw = draw(floats(0.3, 8.0))
    t_laser = draw(floats(0.05, 0.6))
    t_wait_pre = draw(floats(0.0, 0.5))
    t_wait_post = draw(floats(0.0, 2.0))
    stretch = draw(floats(0.0, 12.0))
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
            f"gamma_dp = {draw(floats(0.01, 2.0))!r}",
            f"gamma_2n = {draw(floats(0.001, 0.2))!r}",
            f"t1_e = {draw(floats(5.0, 1000.0))!r}",
        ]
    return "\n".join(lines) + "\n"


detunings = st.lists(floats(-0.2, 0.2), min_size=1, max_size=6)


def single_point(seq, delta_1, delta_2):
    """Readout and final states of one point, four expm-ed segments per period."""
    point = replace(seq, lam=replace(seq.lam, delta_1=delta_1, delta_2=delta_2))
    props = [expm(gen * t) for gen, t in segment_generators(point)]
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
