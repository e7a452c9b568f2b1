"""Cross-path identities of the closed forms.

Some quantities are integrated along two paths whose answers must agree,
so these checks need no reference integrator:

- mlh's p3(a, a) and sc's tp3(a) are the one _JOINT integral, over
  [0, g_max(a)] and over [0, sigma2 TAIL_SPAN], and its integrand is not
  negative.  So p3(a, a) <= tp3(a) + TOL everywhere, and the two agree
  within TOL where g_max(a) >= sigma2 TAIL_SPAN: the mass past the cut is
  at most exp(-TAIL_SPAN).
- The _ONLY_M1 analogues: p4(a, a) against tp4(a), over g_max(a), and
  p4'(a, a) against tp4p(a), over g_max(1 - a).  ts's p4 is p4(1, 1), so
  a = 1 holds it against tp4(1).
- Mirrors: p1'(a) and p2'(a) against p1 and p2 at the lattice mirror
  (N - k)/N of a = k/N, and sc's tp3, tp4 and tp4p at a against tp3,
  tp4p and tp4 there.

TOL is twice the quadrature's stopping tolerance, max(abs_tol, rel_tol)
for a probability, plus exp(-TAIL_SPAN).

The configs where an identity fails are marked xfail(strict=True).  There
p3, p4 or ts integrate a slot-1 range [0, g_max] thousands of sigma2 wide,
far past sigma2 TAIL_SPAN, and the quadrature's first round misses the
mass near 0 (ROADMAP item 10).  Once every slot-1 range is cut at
sigma2 TAIL_SPAN they pass, and strict reports each one that does.
"""

import math

import pytest

from mlharq.closed_form import (
    g_max,
    prob_p1,
    prob_p1_prime,
    prob_p2,
    prob_p2_prime,
    prob_p3,
    prob_p4,
    prob_p4_prime,
    prob_sc,
)
from mlharq.model import SystemConfig
from mlharq.quadrature import DEFAULT_SETTINGS, TAIL_SPAN

TOL = (2.0 * max(DEFAULT_SETTINGS.abs_tol, DEFAULT_SETTINGS.rel_tol)
       + math.exp(-TAIL_SPAN))
SNRS_DB = (-5.0, 3.0, 10.0, 20.0, 30.0, 35.0, 39.85, 40.0)
RATES = (0.3, 1.0, 2.5, 6.0, 9.0, 12.0, 12.753, 20.0, 25.52, 30.0)
N = 10_000   # shares k / N, with the lattice mirror (N - k) / N
KS = (0, 1_000, 3_000, 4_500, 5_500, 7_988, 9_000, 9_900, 10_000)

# (snr_db, rate) where an identity fails, with what fails there, measured
# with TOL: p3 at 39.85 dB, R = 12.753, a = 0.7988 reads 0.428762 against
# tp3 0.439418, with g_max / sigma2 = 4,930; p4(1, 1) at 40 dB, R = 25.52
# reads 2.07e-11 against tp4(1) 0.4536.
JOINT_FAILS = {(30.0, 12.0), (35.0, 12.0), (35.0, 12.753), (39.85, 12.753),
               (40.0, 12.753)}
ONLY_M1_FAILS = {(10.0, 9.0), (30.0, 25.52), (35.0, 25.52), (39.85, 25.52),
                 (40.0, 25.52), (39.85, 30.0), (40.0, 30.0)}
TAIL_REASON = "slot-1 range [0, g_max] not cut at sigma2 TAIL_SPAN (item 10)"


def _configs(fails):
    return [pytest.param(snr_db, rate, id=f"{snr_db}dB-R{rate}",
                         marks=[pytest.mark.xfail(strict=True, reason=TAIL_REASON)]
                         if (snr_db, rate) in fails else [])
            for snr_db in SNRS_DB for rate in RATES]


def _check_kernel(p, t, gm, cfg):
    """p, over [0, gm], at most t, over [0, sigma2 TAIL_SPAN], plus TOL,
    and within TOL of it where gm reaches the cut."""
    assert p <= t + TOL
    if gm >= cfg.sigma2 * TAIL_SPAN:
        assert abs(p - t) <= TOL


@pytest.mark.parametrize("snr_db, rate", _configs(JOINT_FAILS))
def test_joint_kernel(snr_db, rate):
    """p3(a, a) against tp3(a)."""
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    for k in KS:
        a = k / N
        _check_kernel(prob_p3(a, a, cfg), prob_sc(a, cfg).tp3, g_max(a, cfg), cfg)


@pytest.mark.parametrize("snr_db, rate", _configs(ONLY_M1_FAILS))
def test_only_m1_kernel(snr_db, rate):
    """p4(a, a) against tp4(a), and p4'(a, a) against tp4p(a); at a = 1,
    ts's p4 against tp4(1)."""
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    for k in KS:
        a = k / N
        sc = prob_sc(a, cfg)
        _check_kernel(prob_p4(a, a, cfg), sc.tp4, g_max(a, cfg), cfg)
        _check_kernel(prob_p4_prime(a, a, cfg), sc.tp4p, g_max(1.0 - a, cfg), cfg)


@pytest.mark.parametrize("snr_db, rate", _configs(set()))
def test_mirrors(snr_db, rate):
    """p1' and p2' at a against p1 and p2 at the lattice mirror m, and sc's
    fields at a against their mirrored fields at m."""
    cfg = SystemConfig.from_snr_db(snr_db, rate)
    for k in KS:
        a, m = k / N, (N - k) / N
        sc, mirrored = prob_sc(a, cfg), prob_sc(m, cfg)
        pairs = [(prob_p1_prime(a, cfg), prob_p1(m, cfg)),
                 (prob_p2_prime(a, cfg), prob_p2(m, cfg)),
                 (sc.tp3, mirrored.tp3), (sc.tp4, mirrored.tp4p),
                 (sc.tp4p, mirrored.tp4)]
        for x, y in pairs:
            assert abs(x - y) <= TOL
