"""The lockstep paths against the scalar ones, bit for bit.

integrate_finite_many and the closed forms' _grid functions promise the
exact floats of integrate_finite and the scalar closed forms.  A failed
lockstep call raises the failure of its lowest failing owner, the one a
scalar loop over its integrals in owner order would raise first, named at
a point where the scalar closed form fails too.  Every comparison here is
`==` on floats (or on reprs), never approximate.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlharq import quadrature
from mlharq.closed_form import (
    _JOINT,
    _ONLY_M1,
    ScProbs,
    _g_max_cell,
    _kinks,
    _kinks_grid,
    _mlh_columns,
    _p1_bounds,
    _p1_window,
    _sc_columns,
    _slot2,
    g_max,
    prob_p0,
    prob_p1,
    prob_p2,
    prob_p3,
    prob_p4,
    prob_sc,
    vanishing_threshold,
)
from mlharq.model import SystemConfig
from mlharq.quadrature import (
    TAIL_SPAN,
    NonConvergence,
    QuadratureSettings,
    integrate_finite,
    integrate_finite_many,
)

SETTINGS = [QuadratureSettings(),
            QuadratureSettings(abs_tol=1e-13, rel_tol=1e-12),
            QuadratureSettings(abs_tol=1e-6, rel_tol=1e-4),
            QuadratureSettings(abs_tol=1e-9, rel_tol=1e-3)]
TINY = QuadratureSettings(abs_tol=1e-14, rel_tol=1e-14)


@st.composite
def owner(draw):
    """One integral: interval (possibly empty), kink, shape, breakpoints
    (possibly none, repeated or outside the interval)."""
    a = draw(st.floats(-2.0, 2.0))
    empty = draw(st.booleans()) and draw(st.booleans())
    b = a if empty else a + draw(st.floats(0.01, 5.0))
    kink = draw(st.floats(-3.0, 5.0))
    shape = (draw(st.floats(0.1, 30.0)), draw(st.floats(-1.0, 1.0)),
             draw(st.floats(-2.0, 2.0)))
    bps = draw(st.lists(st.floats(-4.0, 8.0), max_size=6))
    if draw(st.booleans()):
        bps.append(kink)
    return a, b, kink, shape, bps


def _family(owners):
    """The integrand f(x, i) of the owners: a peak, a jump and a kinked
    ramp at each owner's kink, plus an oscillation."""
    kink = np.array([o[2] for o in owners])
    scale, jump, ramp = (np.array([o[3][k] for o in owners]) for k in range(3))

    def f(x, i):
        d = x - kink[i]
        return (np.exp(-scale[i] * np.abs(d)) + jump[i] * (d > 0.0)
                + ramp[i] * np.maximum(0.0, d) ** 2 + np.sin(scale[i] * x))

    return f


def _scalar_loop(f, owners, quad):
    """integrate_finite over the owners in order: values, or the index and
    exception of the first failure."""
    values = []
    for i, (a, b, _, _, bps) in enumerate(owners):
        try:
            values.append(integrate_finite(lambda x: f(x, np.full((len(x), 1), i)),
                                           a, b, bps, quad))
        except NonConvergence as exc:
            return values, (i, exc)
    return values, None


def _bits(values):
    """Exact images of floats (float.hex tells -0.0 from 0.0)."""
    return [float.hex(v) for v in values]


def _padded(rows):
    """Ragged breakpoint lists as integrate_finite_many's (n, m) array,
    padded with NaN."""
    m = max(map(len, rows), default=0)
    return np.array([[*row, *[math.nan] * (m - len(row))] for row in rows],
                    dtype=float).reshape(len(rows), m)


def _sc_reprs(alphas, cfg, settings=None):
    """The reprs of the lockstep sc records, one per split, to hold
    against the reprs of prob_sc."""
    cols = _sc_columns(alphas, cfg, settings)
    return [repr(ScProbs(tp3=t3, tp4=t4, tp4p=t4p)) for t3, t4, t4p in
            zip(cols.tp3.tolist(), cols.tp4.tolist(), cols.tp4p.tolist())]


# CALL_PANELS budgets: the default, and tiny ones that admit integrals
# into rounds already under way and cut integrand calls inside and between
# the integrals of one round, as a round's children are not held to the
# budget; 1 admits one integral per idle round and makes one call per
# panel.
DEFAULT_BUDGET = quadrature.CALL_PANELS
TINY_BUDGETS = [1, 2, 5]
# the default and calls of 7 panels on coarse grids
GRID_BUDGETS = [DEFAULT_BUDGET, 7]


def _budget(budget):
    """The context in which integrate_finite_many runs on budget."""
    return mock.patch.object(quadrature, "CALL_PANELS", budget)


def _many(f, owners, quad, budget):
    with _budget(budget):
        return integrate_finite_many(f, [o[0] for o in owners],
                                     [o[1] for o in owners],
                                     _padded([o[4] for o in owners]), quad)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(owners=st.lists(owner(), min_size=1, max_size=12),
       quad=st.sampled_from(SETTINGS),
       budget=st.sampled_from([*TINY_BUDGETS, DEFAULT_BUDGET]), data=st.data())
def test_many_equals_scalar_loop_bit_for_bit(owners, quad, budget, data):
    f = _family(owners)
    want, failure = _scalar_loop(f, owners, quad)
    assert failure is None
    got = _many(f, owners, quad, budget)
    assert _bits(got.tolist()) == _bits(want)

    # an owner alone gets the value it gets among its batch-mates
    k = data.draw(st.integers(0, len(owners) - 1))
    alone = _many(lambda x, i: f(x, np.full((len(x), 1), k)), [owners[k]], quad,
                  budget)
    assert _bits(alone.tolist()) == _bits([want[k]])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(owners=st.lists(owner(), min_size=1, max_size=8), data=st.data())
def test_many_ignores_nan_inf_and_repeats_as_integrate_finite_does(owners, data):
    junk = st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=4)
    noisy = []
    for a, b, kink, shape, bps in owners:
        repeats = bps[:data.draw(st.integers(0, len(bps)))]
        row = data.draw(st.permutations(bps + repeats + data.draw(junk)))
        noisy.append((a, b, kink, shape, row))
    f = _family(owners)
    quad = QuadratureSettings()
    want, failure = _scalar_loop(f, owners, quad)
    assert failure is None
    assert _bits(_scalar_loop(f, noisy, quad)[0]) == _bits(want)
    assert _bits(_many(f, noisy, quad, DEFAULT_BUDGET).tolist()) == _bits(want)


def test_padding_and_non_finite_entries_are_ignored():
    def f(x, i):
        return np.exp(-3.0 * np.abs(x - 0.3))

    def g(x):
        return f(x, None)

    rows = [[0.3], [math.nan, 0.3, math.inf, 0.3, -math.inf, 0.3],
            [math.nan] * 6, [-math.inf, math.inf], []]
    kinked = integrate_finite(g, 0.0, 1.0, [0.3])
    plain = integrate_finite(g, 0.0, 1.0, [])
    want = [kinked, kinked, plain, plain, plain]
    assert _bits([integrate_finite(g, 0.0, 1.0, row) for row in rows]) == _bits(want)
    assert _bits(integrate_finite_many(f, 0.0, 1.0, _padded(rows)).tolist()) == \
        _bits(want)
    with pytest.raises(ValueError, match=r"\(n, m\) array"):
        integrate_finite_many(f, 0.0, 1.0, [0.3, 0.5])


def test_integrand_gets_node_rows_and_an_owner_column():
    """f(x, owner) sees a (P, 22) array of rule nodes, one row per panel,
    and the (P, 1) integer column of the panels' integrals, ascending."""
    calls = []

    def f(x, owner):
        assert x.ndim == 2 and x.shape[1] == 22
        assert owner.shape == (len(x), 1) and owner.dtype.kind == "i"
        assert (np.diff(owner[:, 0]) >= 0).all()
        calls.append(len(x))
        return np.exp(-(1.0 + owner) * np.abs(x - 0.3))

    got = integrate_finite_many(f, 0.0, [1.0, 2.0, 0.5], _padded([[0.3], [], [0.3]]))
    want = [integrate_finite(lambda x: f(x, np.full((len(x), 1), i)), 0.0, b, bps)
            for i, (b, bps) in enumerate([(1.0, [0.3]), (2.0, []), (0.5, [0.3])])]
    assert calls and _bits(got.tolist()) == _bits(want)


def test_slot2_kernels_broadcast_owner_columns(monkeypatch):
    """The grid kernels index their shares by the owner column, so each
    integrand call gets (P, 1) shares against (P, 22) gains."""
    from mlharq import closed_form

    shapes = []
    for name in ("_JOINT", "_ONLY_M1"):
        kernel = getattr(closed_form, name)

        def spy(g, alpha, beta, cfg, integrand=kernel.integrand):
            shapes.append((g.shape, np.shape(alpha), np.shape(beta)))
            return integrand(g, alpha, beta, cfg)

        monkeypatch.setattr(closed_form, name, kernel._replace(integrand=spy))
    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    _mlh_columns([], [], [0.3, 0.5], [0.6, 0.5], [], [], cfg)
    _mlh_columns([], [], [], [], [0.8, 0.9], [0.6, 0.5], cfg)
    assert shapes
    for g, alpha, beta in shapes:
        assert len(g) == 2 and g[1] == 22 and alpha == beta == (g[0], 1)


def _noisy_family(owners, noisy):
    """Like _family, but the flagged owners integrate an unmarked, rapidly
    oscillating spike at 0.37 that no panel budget resolves at TINY
    tolerances."""
    f = _family(owners)
    flag = np.array(noisy)

    def g(x, i):
        spike = np.sin(1000.0 * x) / (np.abs(x - 0.37) + 1e-9)
        return np.where(flag[i], spike, f(x, i))

    return g


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(owners=st.lists(owner(), min_size=1, max_size=6),
       data=st.data(), budget=st.sampled_from([*TINY_BUDGETS, DEFAULT_BUDGET]))
def test_many_raises_the_first_failure_of_the_scalar_loop(owners, data, budget):
    first = data.draw(st.integers(0, len(owners) - 1))
    noisy = [False] * first + [True] + data.draw(
        st.lists(st.booleans(), min_size=len(owners) - first - 1,
                 max_size=len(owners) - first - 1))
    owners = [(0.0, 1.0, *rest) if flag else (a, b, *rest)
              for (a, b, *rest), flag in zip(owners, noisy)]
    f = _noisy_family(owners, noisy)
    want, failure = _scalar_loop(f, owners, TINY)
    assert failure is not None
    index, expected = failure
    with pytest.raises(NonConvergence) as info:
        _many(f, owners, TINY, budget)
    got = info.value
    assert (got.owner, got.integral) == (index, f"integral {index}")
    assert (got.estimate, got.error, got.panels) == \
        (expected.estimate, expected.error, expected.panels)


@pytest.mark.parametrize("budget", [2, DEFAULT_BUDGET], ids=["budget0", "budget1"])
def test_a_later_failure_in_an_earlier_round_is_not_raised(budget):
    """Integral 1 (fast noise) fails after 11 rounds, integral 0 (the
    unmarked spike) after 22, and both enter in the first round.  A loop of
    integrate_finite raises integral 0's failure, and so must the lockstep
    run, though it records integral 1's failure first."""
    def f(x, owner):
        calls.append(set(owner[:, 0].tolist()))
        spike = np.sin(1000.0 * x) / (np.abs(x - 0.37) + 1e-9)
        return np.where(owner == 0, spike,
                        np.where(owner == 1, np.sin(1e7 * x * x), np.exp(-x)))

    def alone(i):
        return lambda x: f(x, np.full((len(x), 1), i))

    owners = [(0.0, 1.0, None, None, [])] * 3
    rounds = []
    # with no look-ahead, integrate_finite calls f once a round
    with mock.patch.object(quadrature, "_LOOKAHEAD_CHILDREN", 0):
        for i in (0, 1):
            calls = []
            with pytest.raises(NonConvergence):
                integrate_finite(alone(i), 0.0, 1.0, [], TINY)
            rounds.append(len(calls))
    assert rounds == [22, 11]
    _, (index, expected) = _scalar_loop(f, owners, TINY)
    assert index == 0

    calls = []
    with pytest.raises(NonConvergence) as info:
        _many(f, owners, TINY, budget)
    got = info.value
    assert (got.owner, str(got)) == (0, str(expected.named("integral 0")))
    assert (got.estimate, got.error, got.panels) == \
        (expected.estimate, expected.error, expected.panels)
    # integral 1 ran in the first round and stopped long before integral 0
    last = {i: max(k for k, seen in enumerate(calls) if i in seen) for i in (0, 1)}
    assert 1 in calls[0] and last[1] < last[0]


def test_fallback_split_is_np_argmax_of_each_owner():
    """An owner over tolerance with no panel over its share splits the
    panel np.argmax picks from its errors, its first NaN, else its first
    largest, whatever the other owners hold.  The panels here have width
    1 and the owners width 1, so with tol = 1 every share is 1: errors of
    0, 0.25 and 0.5 (ties are common) and NaN force the fallback, 2.0 is
    over its share and 0.25 alone converges.  QuadratureSettings refuses a
    tolerance of 1, so the settings here are a plain namespace, which is
    all that _split_round reads."""
    rng = np.random.default_rng(19)
    quad = SimpleNamespace(abs_tol=1.0, rel_tol=1e-300)
    for _ in range(200):
        count = rng.integers(1, 7, size=int(rng.integers(1, 12)))
        own = np.repeat(np.arange(len(count)), count)
        errs = rng.choice([0.0, 0.25, 0.5, math.nan, 2.0], size=len(own),
                          p=[0.2, 0.3, 0.3, 0.1, 0.1])
        lo = np.arange(len(own), dtype=float)
        keep, c_lo, _, _, failure = quadrature._split_round(
            lo, lo + 1.0, np.zeros(len(own)), errs, own, np.ones(len(count)),
            quad, np.zeros(len(count)), None)
        assert failure is None
        split = {x for x in c_lo.tolist() if x == int(x)}   # the left halves
        for o in range(len(count)):
            mine = np.flatnonzero(own == o)
            e = errs[mine]
            done = e.sum() <= 1.0
            if done:
                want = set()
            elif (e > 1.0).any():
                want = set(lo[mine][e > 1.0].tolist())
            else:
                want = {float(lo[mine][np.argmax(e)])}
            assert {x for x in split if own[int(x)] == o} == want
            assert keep[mine].tolist() == [not done and x not in want
                                           for x in lo[mine].tolist()]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(owners=st.lists(owner(), min_size=1, max_size=6), data=st.data(),
       budget=st.sampled_from([*TINY_BUDGETS, DEFAULT_BUDGET]))
def test_nan_errors_split_and_fail_as_the_scalar_loop(owners, data, budget):
    """Owners whose integrand is NaN at the 7-point nodes past a cut have
    finite values and NaN errors: they never converge, and each round
    splits the first NaN panel.  The lowest one's failure (its estimate
    depends on which panels were split) is the scalar loop's."""
    cuts = np.array([data.draw(st.floats(a - 0.5, b + 0.5)) for a, b, *_ in owners])
    f = _family(owners)

    def g(x, i):
        y = f(x, i)
        y[:, :7] = np.where(x[:, :7] > cuts[i], math.nan, y[:, :7])
        return y

    with mock.patch.object(quadrature, "MAX_SUBDIVISIONS", 40):
        want, failure = _scalar_loop(g, owners, QuadratureSettings())
        if failure is None:   # every cut lies past its interval
            got = _many(g, owners, QuadratureSettings(), budget)
            assert _bits(got.tolist()) == _bits(want)
            return
        with pytest.raises(NonConvergence) as info:
            _many(g, owners, QuadratureSettings(), budget)
    index, expected = failure
    assert info.value.owner == index
    assert _bits([info.value.estimate, info.value.error]) == \
        _bits([expected.estimate, expected.error])
    assert info.value.panels == expected.panels


def test_reversed_interval_raises_after_earlier_integrals():
    def decay(x, i):
        return np.exp(-x)

    def noisy(x, i):
        return np.sin(1000.0 * x) / (np.abs(x - 0.37) + 1e-9)

    with pytest.raises(ValueError, match=r"need a <= b, .* \(integral 1\)"):
        integrate_finite_many(decay, [0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [[], [], []])
    # the loop would fail on integral 0 before it reaches the reversed one
    with pytest.raises(NonConvergence) as info:
        integrate_finite_many(noisy, [0.0, 1.0], [1.0, 0.0], [[], []], TINY)
    assert info.value.owner == 0


# ---------------------------------------------------------------------------
# Grid forms of the closed forms
# ---------------------------------------------------------------------------

@st.composite
def kink_cases(draw):
    rate = draw(st.floats(0.05, 12.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    t = vanishing_threshold(cfg)
    edges = [0.0, 1.0, t, math.nextafter(t, 2.0), 5e-324, 1e-320]
    share = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
    points = draw(st.lists(st.tuples(share, share), min_size=1, max_size=8))
    return cfg, points


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=kink_cases())
def test_array_kink_candidates_equal_the_scalar_lists(case):
    cfg, points = case
    alpha = np.array([a for a, _ in points])
    beta = np.array([b for _, b in points])
    for kernel, width in ((_JOINT, 9), (_ONLY_M1, 5)):
        rows = _kinks_grid(kernel.terms, alpha, beta, cfg)
        assert rows.shape == (len(points), width)
        for (a, b), row in zip(points, rows.tolist()):
            want = [p for p in _kinks(kernel.terms, a, b, cfg)
                    if not math.isnan(p)]
            assert _bits([p for p in row if not math.isnan(p)]) == _bits(want)


def _p3_p4(p3_alphas, p3_betas, p4_alphas, p4_betas, cfg, settings=None):
    """The p3 and p4 arrays of _mlh_columns with no rows."""
    return _mlh_columns([], [], p3_alphas, p3_betas, p4_alphas, p4_betas, cfg,
                        settings)[1:]


@st.composite
def grid_cases(draw):
    rate = draw(st.floats(0.05, 12.0))
    snr_db = draw(st.floats(-5.0, 40.0))
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    t = vanishing_threshold(cfg)
    edges = [t, math.nextafter(t, 2.0), 1.0 - t, 0.0, 1.0, 0.5]
    share = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))
    points = draw(st.lists(st.tuples(share, share), min_size=1, max_size=8))
    return cfg, points


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=grid_cases())
@example(case=(SystemConfig.from_snr_db(3.0, 0.8), [(0.39, 0.39), (0.61, 0.61)]))
def test_grid_forms_equal_scalar_closed_forms(case):
    cfg, points = case
    alphas = [a for a, _ in points]
    betas = [b for _, b in points]
    p3 = _bits([prob_p3(a, b, cfg) for a, b in points])
    p4 = _bits([prob_p4(a, b, cfg) for a, b in points])
    assert _bits(_p3_p4(alphas, betas, [], [], cfg)[0].tolist()) == p3
    assert _bits(_p3_p4([], [], alphas, betas, cfg)[1].tolist()) == p4
    both = _p3_p4(alphas, betas, alphas[::-1], betas[::-1], cfg)
    assert [_bits(v.tolist()) for v in both] == [p3, p4[::-1]]
    assert _sc_reprs(alphas, cfg) == [repr(prob_sc(a, cfg)) for a in alphas]


def _sc_failure_names_its_first_owner(alphas, cfg, quad):
    """Run _sc_columns, which must fail, and return the split it names.

    Its owners are tp3 at each split in order, then tp4 at each distinct
    share of the splits and their mirrors, ascending.  The error must be
    the first failure of a loop of the scalar kernels over them, named "sc"
    at that owner's split; prob_sc must fail at that split, and a second
    run must raise the same message."""
    upper = cfg.sigma2 * TAIL_SPAN
    shares = sorted({*alphas, *(1.0 - a for a in alphas)})
    owners = [(_JOINT, a) for a in alphas] + [(_ONLY_M1, s) for s in shares]
    for index, (kernel, split) in enumerate(owners):
        try:
            _slot2(kernel, split, split, upper, cfg, quad)
        except NonConvergence as exc:
            expected = exc
            break
    else:
        raise AssertionError("no owner fails")
    messages = []
    for _ in range(2):
        with pytest.raises(NonConvergence) as info:
            _sc_columns(alphas, cfg, quad)
        messages.append(str(info.value))
    got = info.value
    assert messages[0] == messages[1]
    assert got.owner == index
    assert got.integral == f"sc at alpha={split!r}, {cfg!r}"
    assert (got.estimate, got.error, got.panels) == \
        (expected.estimate, expected.error, expected.panels)
    with pytest.raises(NonConvergence):
        prob_sc(split, cfg, quad)
    return split


def _first_scalar_failure(call, args):
    for arg in args:
        try:
            call(*arg)
        except NonConvergence as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("rate", [0.8, 2.0])
def test_grid_forms_name_the_first_failure_of_the_scalar_loop(rate):
    cfg = SystemConfig.from_snr_db(3.0, rate)
    quad = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
    # each kernel first fails at a different point: p3 and p4 skip or
    # resolve the early ones, and sc's first failing owner is tp3 at
    # alpha = 0.9 at R = 0.8 and 0.5 at R = 2, not the tp4p where prob_sc
    # fails first (alpha = 0.3 and 0)
    points = [(0.0, 0.0), (0.5, 0.5), (0.3, 0.7), (0.9, 0.1)]
    alphas = [a for a, _ in points]
    betas = [b for _, b in points]
    cases = [
        (lambda a, b: prob_p3(a, b, cfg, quad),
         lambda a, b, c, q: _p3_p4(a, b, [], [], c, q)[0], "p3"),
        (lambda a, b: prob_p4(a, b, cfg, quad),
         lambda a, b, c, q: _p3_p4([], [], a, b, c, q)[1], "p4"),
    ]
    for scalar, grid, kernel in cases:
        want = _first_scalar_failure(scalar, points)
        assert want is not None and f" in {kernel} at alpha=" in want
        assert repr(cfg) in want
        with pytest.raises(NonConvergence) as info:
            grid(alphas, betas, cfg, quad)
        assert str(info.value) == want
    # p3 and p4 in one quadrature: the first failure of the p3 loop, then
    # the p4 loop, though a p4 integral may fail in an earlier round
    want = _first_scalar_failure(lambda k, a, b: cases[k][0](a, b),
                                 [(0, a, b) for a, b in points[1:]]
                                 + [(1, a, b) for a, b in points])
    assert " in p3 at alpha=" in want
    with pytest.raises(NonConvergence) as info:
        _p3_p4(alphas[1:], betas[1:], alphas, betas, cfg, quad)
    assert str(info.value) == want
    assert _sc_failure_names_its_first_owner(alphas, cfg, quad) == \
        {0.8: 0.9, 2.0: 0.5}[rate]


def _slot1_bits(alphas, mirrors, cfg, settings=None):
    """The slot-1 columns of _mlh_columns, from the scalar closed forms."""
    return [_bits([prob_p0(a, cfg) for a in alphas]),
            _bits([prob_p1(a, cfg, settings) for a in alphas]),
            _bits([prob_p1(m, cfg, settings) for m in mirrors]),
            _bits([prob_p2(a, cfg, settings) for a in alphas]),
            _bits([prob_p2(m, cfg, settings) for m in mirrors])]


def _columns_bits(alphas, mirrors, cfg, settings=None):
    slot1, _, _ = _mlh_columns(alphas, mirrors, [], [], [], [], cfg, settings)
    return [_bits(getattr(slot1, name).tolist())
            for name in ("p0", "p1", "p1p", "p2", "p2p")]


def _shares_at_the_edges(cfg):
    t = vanishing_threshold(cfg)
    return [t, math.nextafter(t, 2.0), 1.0 - t, 0.0, 1.0, 0.5,
            math.nextafter(1.0, 0.0)]


# Configs at which p1's window takes each branch of _p1_window and
# _p1_value at a share listed with it, besides the edges of every config,
# which hold a share at the vanishing threshold (None) and shares with a
# finite, nonempty window.
SLOT1_EDGE_CONFIGS = [
    # the window is empty: its bounds cross by rounding
    (SystemConfig.from_snr_db(7.692280364297938, 3.936831108168777),
     [0.9387050224783754]),
    # (1 - alpha)P underflows to 0.0 below alpha = 1: the closed form
    (SystemConfig(rate_R=0.05, power_P=2e-308, sigma2=4e306),
     [math.nextafter(1.0, 0.0)]),
    # (1 - alpha)P > 0, but t1 / ((1 - alpha)P) overflows: an infinite hi,
    # cut at the tail truncation point, and an integral
    (SystemConfig(rate_R=1.0, power_P=1e-293, sigma2=1e300), [1.0 - 2.0 ** -53]),
    # sigma2 P is subnormal: m2's residual over it overflows, quietly, and
    # the integrand is 0.0
    (SystemConfig(rate_R=1.0, power_P=1e-160, sigma2=1e-160), [0.9]),
]


@pytest.mark.parametrize("case", range(len(SLOT1_EDGE_CONFIGS)))
def test_slot1_columns_take_every_branch_of_the_scalar_p1(case):
    cfg, shares = SLOT1_EDGE_CONFIGS[case]
    lo, hi = _p1_bounds(shares[0], cfg)
    c = (1.0 - shares[0]) * cfg.power_P
    assert shares[0] > vanishing_threshold(cfg)
    assert (_p1_window(shares[0], cfg) is None) == (case == 0)
    assert [lo >= hi, c == 0.0, 0.0 < c and hi == math.inf,
            lo < hi and prob_p1(shares[0], cfg) == 0.0][case]
    assert _p1_window(vanishing_threshold(cfg), cfg) is None
    alphas = shares + _shares_at_the_edges(cfg)
    mirrors = [1.0 - a for a in alphas]
    assert _columns_bits(alphas, mirrors, cfg) == _slot1_bits(alphas, mirrors, cfg)


@st.composite
def slot1_cases(draw):
    cfg = SystemConfig.from_snr_db(draw(st.floats(-5.0, 40.0)),
                                   draw(st.floats(0.05, 12.0)),
                                   draw(st.sampled_from([0.3, 1.0, 4.0])))
    share = st.one_of(st.sampled_from(_shares_at_the_edges(cfg)),
                      st.floats(0.0, 1.0))
    rows = draw(st.lists(st.tuples(share, st.one_of(st.none(), share)),
                         min_size=1, max_size=8))
    return cfg, [a for a, _ in rows], [1.0 - a if m is None else m for a, m in rows]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=slot1_cases(), quad=st.sampled_from(SETTINGS))
def test_slot1_columns_equal_the_scalar_closed_forms(case, quad):
    """p0, p1, p1', p2 and p2' of each row (alpha, mirror), mirrors at 1 -
    alpha or anywhere, have the bits of prob_p0, prob_p1 and prob_p2."""
    cfg, alphas, mirrors = case
    assert _columns_bits(alphas, mirrors, cfg, quad) == \
        _slot1_bits(alphas, mirrors, cfg, quad)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=kink_cases())
def test_g_max_cell_at_one_point_cells_equals_g_max(case):
    """_g_max_cell at the one-point intervals [alpha, alpha] has the bits
    of g_max at each share."""
    cfg, points = case
    alpha = np.array([a for pair in points for a in pair])
    assert _bits(_g_max_cell(alpha, alpha, cfg).tolist()) == _bits(
        [g_max(a, cfg) for a in alpha.tolist()])


def test_mlh_columns_with_no_rows():
    """With no rows the slot-1 columns are empty, and p3 and p4 have the
    bits of prob_p3 and prob_p4."""
    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    alphas, betas = [0.0, 0.3, 0.5, 0.9, 1.0], [1.0, 0.7, 0.5, 0.2, 1.0]
    slot1, p3, p4 = _mlh_columns([], [], alphas, betas, alphas[::-1],
                                 betas[::-1], cfg)
    assert {name: len(column) for name, column in vars(slot1).items()} == \
        dict.fromkeys(["p0", "p1", "p1p", "p2", "p2p"], 0)
    assert _bits(p3.tolist()) == _bits([prob_p3(a, b, cfg)
                                        for a, b in zip(alphas, betas)])
    assert _bits(p4.tolist()) == _bits([prob_p4(a, b, cfg)
                                        for a, b in zip(alphas[::-1], betas[::-1])])
    slot1, p3, p4 = _mlh_columns([], [], [], [], [], [], cfg)
    assert len(p3) == len(p4) == len(slot1.p0) == 0


def test_mlh_columns_on_repeated_rows():
    """Rows that repeat shares, the share 0.7 also the mirror 1 - 0.3 of
    another row, get the bits of a call on the distinct rows, and prob_p0
    runs once per distinct share of the rows and their mirrors."""
    from mlharq import closed_form

    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    assert 1.0 - 0.3 == 0.7 > vanishing_threshold(cfg)
    distinct = [0.9, 0.3, 0.7, 1.0]
    alphas = [0.9, 0.3, 0.9, 0.7, 0.3, 1.0, 0.9, 0.7]
    with mock.patch.object(closed_form, "prob_p0",
                           wraps=closed_form.prob_p0) as p0:
        rows = _columns_bits(alphas, [1.0 - a for a in alphas], cfg)
    assert p0.call_count == len({x for a in alphas for x in (a, 1.0 - a)})
    once = _columns_bits(distinct, [1.0 - a for a in distinct], cfg)
    at = [distinct.index(a) for a in alphas]
    assert rows == [[column[k] for k in at] for column in once]


def test_mlh_columns_raise_the_first_failure_of_the_scalar_loops():
    """p1 integrals in a loop over the rows, p1 at alpha then at the
    mirror, then a loop of prob_p3 then prob_p4: the first failure is the
    lockstep call's, named as the scalar closed form names it.  The loop
    asks for p1 at 0.95 before 0.9, so an ascending order of the shares
    would name the wrong one."""
    from mlharq import closed_form

    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    quad = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
    alphas, mirrors = [0.3, 0.9], [0.95, 0.1]
    points = [(0.5, 0.5), (0.3, 0.7)]
    p1_loop = [(prob_p1, (x,)) for pair in zip(alphas, mirrors) for x in pair]
    slot2_loop = [(kernel, point) for kernel in (prob_p3, prob_p4)
                  for point in points]
    loop = p1_loop + slot2_loop
    # p1's error estimate reaches 0.0 at any tolerance: a small panel
    # budget makes it fail (and a cached value would not)
    closed_form._p1_value.cache_clear()
    with mock.patch.object(quadrature, "MAX_SUBDIVISIONS", 4):
        want = _first_scalar_failure(lambda kernel, args: kernel(*args, cfg, quad),
                                     loop)
        with pytest.raises(NonConvergence) as info:
            _mlh_columns(alphas, mirrors, *zip(*points), *zip(*points), cfg, quad)
    assert str(info.value) == want
    assert f" in p1 at alpha=0.95, {cfg!r}" in want


# The sc kernels of a whole coarse grid go through one lockstep call, tp4p
# shares that equal a tp4 share (61 of the 101 here) integrated once.
COARSE = [i / 100 for i in range(101)]
SC_CONFIGS = [(3.0, 1.0), (3.0, 0.8), (-4.0, 1.0), (25.0, 2.3), (10.0, 0.3)]


@pytest.mark.parametrize("budget", GRID_BUDGETS)
@pytest.mark.parametrize("snr_db, rate", SC_CONFIGS)
def test_sc_grid_equals_the_scalar_loop_on_a_coarse_grid(monkeypatch, snr_db,
                                                         rate, budget):
    """Rounds of 21 panels and calls of 7 admit tp3 and tp4 integrals into
    rounds under way and cut integrand calls inside and across the parts."""
    from mlharq import closed_form

    calls = []

    def spy(f, a, b, breakpoints, settings):
        calls.append(len(breakpoints))
        return integrate_finite_many(f, a, b, breakpoints, settings)

    monkeypatch.setattr(closed_form, "integrate_finite_many", spy)
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    with _budget(budget):
        assert _sc_reprs(COARSE, cfg) == [repr(prob_sc(a, cfg)) for a in COARSE]
    assert calls == [101 + 141]   # tp3, then the 141 distinct tp4/tp4p shares


@pytest.mark.parametrize("budget", GRID_BUDGETS)
@pytest.mark.parametrize("snr_db, rate, tol", [(3.0, 1.0, 1e-300),
                                               (-4.0, 1.0, 1e-300),
                                               (3.0, 1.0, 1e-17),
                                               (10.0, 0.3, 1e-17)])
def test_sc_grid_raises_the_first_failure_of_the_scalar_loop(snr_db, rate, tol,
                                                             budget):
    """The scalar loop runs tp3 at each split, then tp4 at each distinct
    share.  At 1e-300 nearly every kernel fails (at -4 dB not those at
    alpha = 0), and the first is tp3 at alpha = 0.01.  At 1e-17 the first
    failing owner is tp3 at alpha = 0.01 at 10 dB; at 3 dB no tp3 fails,
    and it is tp4 at the share 0.6."""
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    quad = QuadratureSettings(abs_tol=tol, rel_tol=tol)
    with _budget(budget):
        split = _sc_failure_names_its_first_owner(COARSE, cfg, quad)
    assert split == (0.6 if (snr_db, tol) == (3.0, 1e-17) else 0.01)


def test_sc_grid_names_a_failing_tp4p_share(monkeypatch):
    """At 3 dB, R = 1 and 1e-17 every tp3 converges and tp4 fails at the
    shares 0.6-0.62.  Of the splits 0.3 and 0.38, only the mirror share
    0.62 (tp4p at 0.38) fails: the error names it as the split 0.62, which
    is not one of the splits asked for, and prob_sc fails there too."""
    from mlharq import closed_form

    cfg = SystemConfig.from_snr_db(3.0, 1.0)
    quad = QuadratureSettings(abs_tol=1e-17, rel_tol=1e-17)
    alphas = [0.3, 0.38]
    kernel_grid = closed_form._kernel_grid
    tp3 = []

    def spy(parts, cfg, settings):
        tp3.append(kernel_grid(parts[:1], cfg, settings)[0])   # must not raise
        return kernel_grid(parts, cfg, settings)

    monkeypatch.setattr(closed_form, "_kernel_grid", spy)
    with pytest.raises(NonConvergence) as info:
        _sc_columns(alphas, cfg, quad)
    assert len(tp3) == 1 and len(tp3[0]) == len(alphas)
    assert info.value.owner >= len(alphas)
    mirror = 1.0 - alphas[1]
    assert info.value.integral == f"sc at alpha={mirror!r}, {cfg!r}"
    assert 0.0 <= mirror <= 1.0 and mirror not in alphas
    with pytest.raises(NonConvergence):
        prob_sc(mirror, cfg, quad)
