"""The batched propagation kernel against single-point runs, its period maps,
and the exact map of each segment form they are built from.

Configs are drawn as INI text and resolved by ``parse_config``, so every
draw is one the run-file schema accepts. The draws switch every dissipative
channel on (laser dephasing, wait dephasing, finite electron T1) and stretch
the period, which is where a closed-form detuning shift could go wrong.
"""

import logging
import math
from dataclasses import replace

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
    recorded,
    scipy_expm,
    to_real,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_cpt import dynamics
from lambda_cpt.config import parse_config
from lambda_cpt.dynamics import (
    Laser,
    Pulse,
    Wait,
    period_maps,
    propagate_periods,
    pure_state,
    segment_generators,
    thermal_ground_state,
)
from lambda_cpt.experiments import steady_readout
from lambda_cpt.lambda_system import dark_bright_basis, polarization_efficiency

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
    props = [segment_map(*dense(s)) for s in segment_generators(point)]
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
        segment_generators(seq, delta_2), thermal_ground_state(), seq.n_reps, OBSERVABLES
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
    basis = dark_bright_basis(lam)
    alpha_p = polarization_efficiency(lam)
    excited = np.eye(3)[2]

    def dephasing(rate):
        return math.sqrt(rate / 2.0) * np.diag([1.0, -1.0, 0.0])

    laser = [
        math.sqrt(seq.gamma * alpha_p) * np.outer(np.append(basis.dark, 0.0), excited),
        math.sqrt(seq.gamma * (1.0 - alpha_p)) * np.outer(np.append(basis.bright, 0.0), excited),
        dephasing(seq.gamma_dp),
    ]
    pulse = frame + tones + tones.conj().T
    return pulse, lindblad(frame, [dephasing(seq.gamma_2n)]), lindblad(frame, laser)


# The generator entries each form holds: a wait its six coherences (frame
# rotation and dephasing), a laser its diagonal and rows 0-7 of column 8.
COHERENCES = [1, 2, 3, 5, 6, 7]
WAIT_HELD = np.zeros((9, 9), dtype=bool)
WAIT_HELD[COHERENCES, COHERENCES] = True
LASER_HELD = np.eye(9, dtype=bool)
LASER_HELD[:8, 8] = True


@settings(max_examples=40, deadline=None)
@given(text=run_files(), offsets=detunings)
def test_segment_forms_are_the_lindblad_generators_of_their_jumps(text, offsets):
    """Every form, single and stacked, slot by slot against its jumps' generator.

    Each entry a form holds matches to 1e-14 relative; the laser column,
    where the dark and bright terms cancel off the diagonal, to 1e-14 gamma.
    Every entry a form does not hold is zero in that generator.
    """
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    stack = segment_generators(seq, grid)
    runs = [(seq, segment_generators(seq), slice(None))] + [
        (replace(seq, lam=replace(seq.lam, delta_2=d2)), stack, i) for i, d2 in enumerate(grid)
    ]
    for point, (pulse, pre, laser, post), i in runs:
        hamiltonian, wait, optical = jump_generators(point)
        np.testing.assert_allclose(pulse.h[i], hamiltonian, rtol=1e-14, atol=0)
        for form in (pre, post):
            held, _ = dense(replace(form, t1_e=math.inf))
            np.testing.assert_allclose(held[i][WAIT_HELD], wait[WAIT_HELD], rtol=1e-14, atol=0)
        assert not wait[~WAIT_HELD].any()
        np.testing.assert_allclose(laser.diagonal[i], optical.diagonal(), rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            laser.column, optical[:8, 8], rtol=1e-14, atol=1e-14 * point.gamma
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
    return segment_generators(seq, seq.lam.delta_1 + np.linspace(-0.02, 0.01, g))


def period_by_period(segments, rho0, n_reps, observables):
    """Oracle: the kernel's own A and M, two matrix-vector products per period and run.

    It runs in extended precision (np.longdouble) on the real coordinates x
    of the state, and reads Tr(O rho) off rho = vec^-1(VEC x): in float64
    its own rounding would grow with the period count, to 1.8e-12 over
    20000 periods of PUMP. Returns those readouts and each run's final
    state, (G, 3, 3).
    """
    a, m = (x.reshape(-1, 9, 9).astype(np.longdouble) for x in period_maps(segments))
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
    return segment_generators(seq, np.full(g, seq.lam.delta_2))


EXTENDED = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="the oracle needs an extended long double"
)
# Block lengths 1 to 64, full and partial blocks, at k = 1 (a spectrum's
# one observable) and more; two long chains, 157 blocks of 128.
BLOCK_CASES = [
    pytest.param(long_chain, n_reps, g, k, id=f"{k}-{g}-{n_reps}")
    for k in (0, 1, 5)
    for g in (1, 3)
    for n_reps in (1, 3, 4, 15, 16, 17, 63, 64, 65, 4097)
] + [
    pytest.param(long_chain, 20000, 1, 5, id="5-1-20000", marks=EXTENDED),
    pytest.param(pump, 20000, 1, 5, id="pump-5-1-20000", marks=EXTENDED),
]


@pytest.mark.parametrize("chain, n_reps, g, k", BLOCK_CASES)
def test_blocked_kernel_matches_period_by_period(chain, n_reps, g, k):
    """The blocked kernel against the per-period oracle."""
    segments = chain(g)
    rho0 = 0.5 * thermal_ground_state() + 0.5 * pure_state(np.array([1.0, 1j, 1.0]) / math.sqrt(3))
    observables = OBSERVABLES[:k]
    readouts, final = propagate_periods(segments, rho0, n_reps, observables)
    want, want_final = period_by_period(segments, rho0, n_reps, observables)
    assert readouts.shape == (g, n_reps, k) and final.shape == (g, k)
    np.testing.assert_allclose(readouts, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(final, expectations(observables, want_final), rtol=0, atol=1e-12)
    # The nine observables fix the whole final state.
    _, whole = propagate_periods(segments, rho0, n_reps, OBSERVABLES)
    np.testing.assert_allclose(whole, expectations(OBSERVABLES, want_final), rtol=0, atol=1e-12)


def kernel_products():
    """The last two dimensions of each logged matmul's operands, skipping the pulse's 3x3."""
    return [
        [s[-2:] for s in shapes]
        for name, shapes in Recorded.log
        if name == "matmul" and shapes[0][-2:] != (3, 3)
    ]


def test_kernel_has_no_loop_over_blocks(monkeypatch):
    """20000 periods at G = 1: O(log n) products, one of them the readout.

    Every matrix product on the segments' arrays is logged; the kernel's are
    those on 9-slot operands (the pulse's 3x3 U is built before). K = 128,
    so there are 157 blocks; their starts come by doubling, so no product
    advances one block's state to the next. The one vector product besides
    the first doubling carries the last start over the one set bit of the
    last block's 32 periods. One product of the readout rows with the block
    starts (neither operand a 9x9 map) gives every readout, and one of the
    final state with the observable rows gives the final values.
    """
    n_reps, k, block = 20000, 5, 128
    blocks = -(-n_reps // block)
    last = n_reps - (blocks - 1) * block
    monkeypatch.setattr(Recorded, "log", [])
    segments = [recorded(s) for s in long_chain(1)]
    readouts, final = propagate_periods(segments, thermal_ground_state(), n_reps, OBSERVABLES[:k])
    products = kernel_products()
    reads = [shapes for shapes in products if (9, 9) not in shapes]
    assert reads == [[(blocks, 9), (9, block * k)], [(1, 9), (9, k)]]
    assert products.count([(1, 9), (9, 9)]) == 1 + bin(last).count("1")
    assert len(products) <= 2 * math.ceil(math.log2(n_reps)) + 4
    assert readouts.dtype == np.float64
    assert readouts.shape == (1, n_reps, k) and readouts[0].flags.c_contiguous
    assert final.dtype == np.float64 and final.shape == (1, k)
    buffer = readouts
    while isinstance(buffer.base, np.ndarray):
        buffer = buffer.base
    assert buffer.dtype == np.float64 and buffer.size <= blocks * block * k


def column_gains_trace(segments):
    pulse, pre, laser, post = segments
    return pulse, pre, replace(laser, column=1.01 * laser.column), post


def one_wait_not_finite(segments):
    pulse, pre, laser, post = segments
    frequencies = pre.frequencies.copy()
    frequencies[-1, 1] = np.nan
    return pulse, replace(pre, frequencies=frequencies), laser, post


@pytest.mark.parametrize("corrupt", [column_gains_trace, one_wait_not_finite])
@pytest.mark.parametrize("n_reps", [1, 40])
def test_kernel_rejects_a_run_that_is_not_physical(corrupt, n_reps):
    segments = corrupt(long_chain(3))
    with pytest.raises(ValueError, match=r"must be finite, with trace within 1e-10 max"):
        propagate_periods(segments, thermal_ground_state(), n_reps, OBSERVABLES[:1])


def test_kernel_logs_one_debug_line_per_call(monkeypatch, caplog):
    monkeypatch.setattr(Recorded, "log", [])
    segments = [recorded(s) for s in long_chain(3)]
    with caplog.at_level(logging.DEBUG, logger="lambda_cpt.dynamics"):
        propagate_periods(segments, thermal_ground_state(), 65, OBSERVABLES[:5])
    # R A and the readout, 3 rows and 3 squarings up to M^8, 4 doublings of
    # the starts with 3 squarings between them, M^1 for the last period, and
    # the final values.
    assert len(kernel_products()) == 17
    lines = [r.getMessage() for r in caplog.records if r.name == "lambda_cpt.dynamics"]
    assert lines == ["propagate_periods: G=3 n_reps=65 K=8 blocks=9 products=17"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lambda_cpt.dynamics"):
        propagate_periods(segments, thermal_ground_state(), 65, OBSERVABLES[:5])
    assert not caplog.records


def map_products():
    """Each logged matmul whose result is a (..., 9, 9) map stack."""
    return [
        call
        for call in Recorded.log
        if call[0] == "matmul" and (call[1][0][-2], call[1][1][-1]) == (9, 9)
    ]


def test_kernel_working_set_does_not_grow_with_the_period_count(monkeypatch):
    """65 and 20000 periods at G = 3 make the same number of fresh 9x9 products.

    The powers of M square between two buffers, so of the 3 + 3 squarings
    at 65 periods (K = 8, 9 blocks) and the 7 + 7 at 20000 (K = 128, 157
    blocks), none makes a new map stack.
    """
    squarings, fresh = [], []
    for n_reps in (65, 20000):
        monkeypatch.setattr(Recorded, "log", [])
        segments = [recorded(s) for s in long_chain(3)]
        propagate_periods(segments, thermal_ground_state(), n_reps, OBSERVABLES[:5])
        products = map_products()
        squarings.append(len(products))
        fresh.append(sum(not call.into for call in products))
    assert squarings == [6, 14]
    assert fresh[0] == fresh[1]


def test_period_maps_hand_off_c_contiguous_float64_maps():
    """A single run gives two 9x9 maps, a stack of G two (G, 9, 9) stacks, all C-contiguous."""
    seq = parse_config(LONG_CHAIN).seq
    for segments, shape in ((segment_generators(seq), (9, 9)), (long_chain(3), (3, 9, 9))):
        for maps in period_maps(segments):
            assert maps.dtype == np.float64 and maps.shape == shape
            assert maps.flags.c_contiguous


@settings(max_examples=20, deadline=None)
@given(text=run_files(), offsets=st.lists(floats(-0.2, 0.2), min_size=2, max_size=9))
def test_steady_readout_does_not_depend_on_batching(text, offsets):
    """The steady readout and the final values of a sweep, whole and split in two."""
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    half = len(grid) // 2
    parts = (grid[:half], grid[half:])
    whole = steady_readout(seq, seq.lam.delta_1, grid)
    split = np.concatenate([steady_readout(seq, seq.lam.delta_1, part) for part in parts])
    assert np.array_equal(whole, split)

    def final(part):
        segments = segment_generators(seq, part)
        return propagate_periods(segments, thermal_ground_state(), seq.n_reps, OBSERVABLES)[1]

    assert np.array_equal(final(grid), np.concatenate([final(part) for part in parts]))


def choi(m):
    """Choi matrix sum_ij |i><j| (x) M(|i><j|) of a row-major 9x9 map."""
    return m.reshape(3, 3, 3, 3).transpose(2, 0, 3, 1).reshape(9, 9)


@settings(max_examples=30, deadline=None)
@given(text=run_files(), offsets=detunings)
def test_period_maps_are_physical(text, offsets):
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    for maps in period_maps(segment_generators(seq, grid)):
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
    dark = pure_state(np.append(dark_bright_basis(seq.lam).dark, 0.0)).reshape(9)
    dark = (REAL @ dark).real
    # delta_2 = delta_1: two-photon resonance at a nonzero one-photon detuning.
    for maps in period_maps(segment_generators(seq, [seq.lam.delta_1])):
        np.testing.assert_allclose(maps[0] @ dark, dark, rtol=0, atol=1e-12)


def form_map(segment):
    """The engine's map of each entry of a segment stack: U for a pulse, else
    the real 9x9 its row operations make of the identity."""
    if isinstance(segment, Pulse):
        return dynamics._pulse_unitary(segment)
    rows, slots = (
        (dynamics._laser_rows, segment.diagonal)
        if isinstance(segment, Laser)
        else (dynamics._wait_rows, segment.frequencies)
    )
    stack = slots.shape[:-1]
    point_last = rows(segment, identities(math.prod(stack)))
    return np.moveaxis(point_last, -1, 0).reshape(stack + (9, 9))


def identities(g):
    """g writable 9x9 identities, stacked point-last as (9, 9, g), as the row helpers take them."""
    return np.repeat(np.eye(9)[..., None], g, axis=-1)


def assert_matches_scipy(segment):
    gens, duration = dense(segment)
    for a, e in zip(gens * max(duration, 0.0), form_map(segment)):
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
    """Each form's map, per stack entry, against scipy's expm of its dense generator."""
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    segments = segment_generators(seq, grid)
    laser = segments[2]
    # Every diagonal entry set to that of rho_ee: d_i = d_k in every row.
    tied = replace(laser, diagonal=np.repeat(laser.diagonal[:, 8:], 9, axis=1))
    for segment in (*segments, tied):
        assert_matches_scipy(segment)
    # The pulse lifted to a 9x9 map, against the exponential of its Liouvillian.
    zero = Wait(np.zeros(3), np.zeros(3), seq.t1_e, 0.0)
    lifted, _ = period_maps((segments[0], zero, replace(laser, duration=0.0), zero))
    for h, p in zip(segments[0].h, lifted):
        a = lindblad(h, []) * seq.t_mw
        scale = max(1.0, np.abs(a).sum(axis=0).max())
        np.testing.assert_allclose(p, to_real(scipy_expm(a)), rtol=0, atol=1e-13 * scale)


def take(segment, rows):
    """The entries ``rows`` of a segment stack whose arrays are all stacked."""
    arrays = {k: v[rows] for k, v in vars(segment).items() if isinstance(v, np.ndarray)}
    return replace(segment, **arrays)


def assert_heads_and_tails_match(stack):
    whole = form_map(stack)
    for m in range(1, len(whole)):
        assert np.array_equal(whole[:m], form_map(take(stack, slice(None, m))))
        assert np.array_equal(whole[m:], form_map(take(stack, slice(m, None))))


def test_batched_expm_of_a_matrix_does_not_depend_on_its_stack():
    """Every head and tail of a stack maps alone to the same bits, for every form.

    Each stack, in order of norm, holds entries from zero up to waits of 60
    us, lasers with and without dephasing, and pulses of up to 1000 times
    the pulse duration; the waits go through the T1 block with t1_e finite
    and infinite.
    """
    seq = parse_config(LONG_CHAIN).seq
    grid = seq.lam.delta_1 + np.linspace(-0.2, 0.2, 3)
    pulse, wait, laser, _ = segment_generators(seq, grid)
    undephased = segment_generators(replace(seq, gamma_dp=0.0), grid)[2]
    durations = np.array([0.0, 0.5, 5.0, 20.0, 60.0])
    scaled = np.repeat(durations, len(grid))
    frequencies = np.concatenate([wait.frequencies * t for t in durations])
    dephasing = np.outer(scaled, wait.dephasing)
    for t1_e in (math.inf, seq.t1_e, 0.1):
        assert_heads_and_tails_match(Wait(frequencies, dephasing, t1_e, 1.0))
    for gens in (laser, undephased):
        lasers = Laser(
            np.concatenate([gens.diagonal * t for t in durations]),
            np.outer(scaled, gens.column),
            1.0,
        )
        assert_heads_and_tails_match(lasers)
    pulses = Pulse(np.concatenate([pulse.h * t for t in (0.0, 1.0, 60.0, 300.0, 1000.0)]), 1.0)
    assert_heads_and_tails_match(pulses)


def test_durations_at_or_below_zero_give_the_identity():
    """A zero duration maps as the identity, bit for bit, and a t_seq just
    short of the packed duration runs its pre-laser wait as one of zero."""
    seq = parse_config(LONG_CHAIN).seq
    grid = seq.lam.delta_1 + np.linspace(-0.2, 0.2, 3)
    segments = segment_generators(seq, grid)
    maps = period_maps([replace(s, duration=0.0) for s in segments])
    for m in maps:
        assert np.array_equal(m, np.broadcast_to(np.eye(9), m.shape))
    packed = replace(seq, t_wait_pre=0.0, t_seq=None)
    short = replace(packed, t_seq=packed.t_seq - 1e-9)
    assert short.t_seq < packed.t_seq and short.wait_pre_total == 0.0
    for want, got in zip(
        period_maps(segment_generators(packed, grid)), period_maps(segment_generators(short, grid))
    ):
        assert np.array_equal(got, want)


def exponent(lo, hi):
    """10**x for x drawn from [lo, hi]."""
    return floats(lo, hi).map(lambda x: 10.0**x)


# The norms the schema accepts: tones up to 1e6 MHz and pulses up to 1e4 us,
# wait dephasing up to 1e300 /us and electron T1 down to 1e-300 us.
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
    segments = segment_generators(seq, seq.lam.delta_1 + np.array(offsets))
    u = dynamics._pulse_unitary(segments[0])
    unitarity = u @ u.conj().swapaxes(1, 2) - np.eye(3)
    assert np.abs(unitarity).max() <= 1e-14
    a, m = period_maps(segments)
    wait = form_map(segments[1])
    for maps in (wait, a, m):
        assert np.all(np.isfinite(maps))
        assert np.abs(TRACE @ maps - TRACE).max() <= 1e-12
        for one in maps:
            assert np.min(np.linalg.eigvalsh(choi(from_real(one)))) >= -1e-12
