"""The batched propagation kernel against single-point runs, its period maps,
and the exact map of each segment form they are built from.

Configs are drawn as INI text and resolved by ``parse_config``, so every
draw is one the run-file schema accepts. The draws switch every dissipative
channel on (laser dephasing, wait dephasing, finite electron T1) and stretch
the period, which is where a closed-form detuning shift could go wrong.
"""

import logging
import math
from dataclasses import fields, replace

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
    pulse_hamiltonian,
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
    dark_bright_basis,
    period_maps,
    propagate_periods,
    pure_state,
    segment_generators,
    thermal_ground_state,
)
from lambda_cpt.experiments import steady_readout
from lambda_cpt.lambda_system import polarization_efficiency

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
    props = [segment_map(gen[0], t) for gen, t in map(dense, segment_generators(point))]
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
    """Every form, at seq's own detuning and stacked, slot by slot against its jumps' generator.

    Each entry a form holds matches to 1e-14 relative; the laser column,
    where the dark and bright terms cancel off the diagonal, to 1e-14 gamma.
    Every entry a form does not hold is zero in that generator.
    """
    seq = parse_config(text).seq
    grid = seq.lam.delta_1 + np.array(offsets)
    stack = segment_generators(seq, grid)
    runs = [(seq, segment_generators(seq), 0)] + [
        (replace(seq, lam=replace(seq.lam, delta_2=d2)), stack, i) for i, d2 in enumerate(grid)
    ]
    for point, (pulse, pre, laser, post), i in runs:
        hamiltonian, wait, optical = jump_generators(point)
        np.testing.assert_allclose(pulse_hamiltonian(pulse)[i], hamiltonian, rtol=1e-14, atol=0)
        for form in (pre, post):
            held, _ = dense(replace(form, t1_e=math.inf))
            np.testing.assert_allclose(held[i][WAIT_HELD], wait[WAIT_HELD], rtol=1e-14, atol=0)
        assert not wait[~WAIT_HELD].any()
        held, _ = dense(laser)
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
    return segment_generators(seq, seq.lam.delta_1 + np.linspace(-0.02, 0.01, g))


@pytest.mark.parametrize(
    "delta_1, delta_2", [(0.0, 0.0), (0.0, 0.02), (0.03, 0.0), (0.03, 0.03), (-0.05, 0.01)]
)
def test_default_forms_are_the_stack_at_the_sequence_detuning(delta_1, delta_2):
    """segment_generators(seq) is the G = 1 stack at seq.lam.delta_2, bit for bit.

    Every field is compared by shape, dtype and bytes, so that a zero of the
    other sign shows, as array_equal would not.
    """
    seq = parse_config(LONG_CHAIN).seq
    seq = replace(seq, lam=replace(seq.lam, delta_1=delta_1, delta_2=delta_2))
    for default, stacked in zip(segment_generators(seq), segment_generators(seq, [delta_2])):
        for field in fields(default):
            got, want = getattr(default, field.name), getattr(stacked, field.name)
            if isinstance(want, np.ndarray):
                assert (got.shape, got.dtype) == (want.shape, want.dtype), field.name
                got, want = got.tobytes(), want.tobytes()
            assert got == want, field.name


def period_by_period(segments, rho0, n_reps, observables):
    """Oracle: the kernel's own A and M, two matrix-vector products per period and run.

    It runs in extended precision (np.longdouble) on the real coordinates x
    of the state, and reads Tr(O rho) off rho = vec^-1(VEC x): in float64
    its own rounding would grow with the period count, to 1.8e-12 over
    20000 periods of PUMP. Returns those readouts and each run's final
    state, (G, 3, 3).
    """
    a, m = (x.astype(np.longdouble) for x in period_maps(segments))
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
    """The last two dimensions of each logged matmul's operands."""
    return [[s[-2:] for s in shapes] for name, shapes in Recorded.log if name == "matmul"]


def test_kernel_has_no_loop_over_blocks(monkeypatch):
    """20000 periods at G = 1: O(log n) products, one of them the readout.

    Every matrix product on the segments' arrays is logged; all of them are
    the kernel's, on 9-slot operands (the maps take none). K = 128,
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
    frequencies[1, -1] = np.nan
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
    """A stack of G runs gives two (G, 9, 9) stacks, G = 1 included, both C-contiguous."""
    seq = parse_config(LONG_CHAIN).seq
    for segments, shape in ((segment_generators(seq), (1, 9, 9)), (long_chain(3), (3, 9, 9))):
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
        return np.moveaxis(dynamics._pulse_unitary(segment), -1, 0)
    rows = dynamics._laser_rows if isinstance(segment, Laser) else dynamics._wait_rows
    return np.moveaxis(rows(segment, identities(segment.frequencies.shape[1])), -1, 0)


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
    # No frame turn and every decay set to that of rho_ee: a_i = a_e in every row.
    still = np.zeros_like(laser.frequencies)
    tied = replace(laser, frequencies=still, decay=np.full(6, laser.decay[2]))
    for segment in (*segments, tied):
        assert_matches_scipy(segment)
    # The pulse lifted to a 9x9 map, against the exponential of its Liouvillian.
    zero = Wait(np.zeros((3, len(grid))), np.zeros(3), seq.t1_e, 0.0)
    lifted, _ = period_maps((segments[0], zero, replace(laser, duration=0.0), zero))
    for h, p in zip(pulse_hamiltonian(segments[0]), lifted):
        a = lindblad(h, []) * seq.t_mw
        scale = max(1.0, np.abs(a).sum(axis=0).max())
        np.testing.assert_allclose(p, to_real(scipy_expm(a)), rtol=0, atol=1e-13 * scale)


def take(segment, runs):
    """The entries ``runs`` of a segment stack: its frequencies, the one per-run array."""
    return replace(segment, frequencies=segment.frequencies[:, runs])


def assert_heads_and_tails_match(stack):
    whole = form_map(stack)
    for m in range(1, len(whole)):
        assert np.array_equal(whole[:m], form_map(take(stack, slice(None, m))))
        assert np.array_equal(whole[m:], form_map(take(stack, slice(m, None))))


def test_batched_expm_of_a_matrix_does_not_depend_on_its_stack():
    """Every head and tail of a stack maps alone to the same bits, for every form.

    Each stack runs over two-photon detunings from 0 to 1e3 MHz off
    delta_1, so the norms of its entries span four decades. Waits and
    lasers, with and without dephasing, last from zero up to 60 us, and
    pulses up to 1000 us; the waits go through the T1 block with t1_e
    finite and infinite.
    """
    seq = parse_config(LONG_CHAIN).seq
    grid = seq.lam.delta_1 + np.array([0.0, -0.2, 0.2, 3.0, -40.0, 1e3])
    pulse, wait, laser, _ = segment_generators(seq, grid)
    undephased = segment_generators(replace(seq, gamma_dp=0.0), grid)[2]
    for t in (0.0, 0.5, 5.0, 20.0, 60.0):
        for t1_e in (math.inf, seq.t1_e, 0.1):
            assert_heads_and_tails_match(replace(wait, t1_e=t1_e, duration=t))
        for gens in (laser, undephased):
            assert_heads_and_tails_match(replace(gens, duration=t))
    for t in (0.0, 1.0, 60.0, 300.0, 1000.0):
        assert_heads_and_tails_match(replace(pulse, duration=t))


def test_a_stack_varies_only_in_its_frequencies():
    """At G = 1 and G = 5, every array of every form but the frequencies is the same bytes.

    The frequencies are point-last, (3, G); every other coefficient is
    shared by the stack, in one shape.
    """
    seq = parse_config(LONG_CHAIN).seq
    one = segment_generators(seq)
    five = segment_generators(seq, seq.lam.delta_1 + np.linspace(-0.2, 0.2, 5))
    for single, stack in zip(one, five):
        assert single.frequencies.shape == (3, 1) and stack.frequencies.shape == (3, 5)
        shared = {k: v for k, v in vars(single).items() if isinstance(v, np.ndarray)}
        del shared["frequencies"]
        assert shared
        for name, value in shared.items():
            other = getattr(stack, name)
            assert other.shape == value.shape and other.tobytes() == value.tobytes(), name


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
    segments = segment_generators(seq, seq.lam.delta_1 + np.array(offsets))
    u = form_map(segments[0])
    unitarity = u @ u.conj().swapaxes(1, 2) - np.eye(3)
    assert np.abs(unitarity).max() <= 1e-14
    a, m = period_maps(segments)
    wait = form_map(segments[1])
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
    segments = segment_generators(seq, seq.lam.delta_1 + np.linspace(0.05, 0.3, 26))
    for maps in (form_map(segments[2]), *period_maps(segments)):
        assert np.abs(TRACE @ maps - TRACE).max() <= 1e-12
        for one in maps:
            assert np.min(np.linalg.eigvalsh(choi(from_real(one)))) >= -1e-12


def eigh_unitaries(pulse):
    """Oracle: exp(-i h t) of each pulse of a stack, by a per-matrix eigh of its dense h."""
    unitaries = []
    for h in pulse_hamiltonian(pulse):
        w, v = np.linalg.eigh(h)
        unitaries.append(np.eye(3) + (v * np.expm1(-1j * w * pulse.duration)) @ v.conj().T)
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
    """
    lines = [
        "[drive]",
        f"omega_1 = {omega[0]!r}",
        f"omega_2 = {omega[1]!r}",
        f"delta_1 = {delta_1!r}",
        f"psi = {psi!r}",
        "[sequence]",
        f"t_mw = {t_mw!r}",
    ]
    seq = parse_config("\n".join(lines) + "\n").seq
    pulse = segment_generators(seq, seq.lam.delta_1 + np.array([0.0, *offsets]))[0]
    u = form_map(pulse)
    assert np.all(np.isfinite(u))
    assert np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(3)).max() <= 1e-14
    dark = np.append(dark_bright_basis(seq.lam).dark, 0.0)
    np.testing.assert_allclose(u[0] @ dark, dark, rtol=0, atol=1e-14)
    for level in np.flatnonzero(np.array(omega) == 0.0):
        rest = [j for j in range(3) if j != level]
        assert not u[:, level, rest].any() and not u[:, rest, level].any()
    if omega[0] == 0.0:
        assert np.all(u[:, 0, 0] == 1.0)
    still = form_map(replace(pulse, duration=0.0))
    assert still.tobytes() == np.broadcast_to(np.eye(3, dtype=complex), still.shape).tobytes()
    norm = np.abs(pulse_hamiltonian(pulse)).sum(-1).max(-1) * t_mw
    kept = norm <= 1e4
    error = np.abs(u - eigh_unitaries(pulse)).max(axis=(1, 2))
    eps = np.finfo(float).eps
    assert np.all(error[kept] <= 64 * eps * np.maximum(1.0, norm[kept])), (error, norm)


def wait_rows_with_t1_block(wait, m):
    """The wait's row operations with the T1 block run for every t1_e, infinite included."""
    relax = -wait.duration / wait.t1_e
    exponent = (wait.dephasing * wait.duration + 0.5 * relax)[:, None]
    dynamics._turn(m, dynamics._frame(wait.frequencies, wait.duration, exponent)[1])
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
    for wait in segment_generators(seq, grid)[1::2]:
        for m in (identities(len(grid)), rng.normal(size=(9, 9, len(grid)))):
            want = wait_rows_with_t1_block(wait, m.copy())
            assert dynamics._wait_rows(wait, m.copy()).tobytes() == want.tobytes()
    finite = segment_generators(replace(seq, t1_e=400.0), grid)
    m = rng.normal(size=(9, 9, len(grid)))
    got = dynamics._wait_rows(finite[1], m.copy())
    assert got.tobytes() == wait_rows_with_t1_block(finite[1], m.copy()).tobytes()
