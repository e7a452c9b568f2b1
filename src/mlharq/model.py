"""Physical scenario types, the slice events with their reward table, and
the gain-threshold convention of the analytic formulas.

Two messages are delivered over a slice of two fading timeslots.  Decoding
succeeds whenever the accumulated mutual information for a message reaches
the per-message rate R (Gaussian threshold model, logs base 2).  The one
decode ladder that classifies a slice into these events is the Monte-Carlo
oracle's, `monte_carlo._ladder` over `monte_carlo._terms`.  The one home of
the rate's constants that the closed forms' gain thresholds rest on, 2^R - 1
for one message and 2^(2R) - 1 for the sum rate, is SystemConfig, which
computes them once to validate a scenario.
"""

import math
from dataclasses import dataclass, fields
from enum import IntEnum

PROTOCOLS = ("ts", "mlh", "sc")

# Largest gain / sigma2 that either path samples: Monte-Carlo's
# -log(1 - u) at its largest u, 1 - 2^-53 (36.74), which exceeds the
# closed forms' tail truncation point quadrature.TAIL_SPAN (32.24).
_GAIN_SPAN = -math.log(2.0 ** -53)


@dataclass(frozen=True)
class SystemConfig:
    """One physical scenario: rate, transmit power and fading statistics.

    Validating a scenario computes the rate's constants, and the config
    keeps them as attributes, not fields (so fields, repr, ==, hash and
    replace see the three fields alone), for the closed forms to read:
    k1 = 2^R and k2 = 2^(2R), the gain thresholds' numerators t1 = k1 - 1
    (one message) and t2 = k2 - 1 (the sum rate), the sum-rate gain
    threshold g_sum = t2 / P and s2p = sigma2 P.  The Monte-Carlo oracle
    works in log2 terms and does not read them.
    """

    rate_R: float            # bits per channel use, per message
    power_P: float           # total transmit power (linear)
    sigma2: float = 1.0      # mean channel gain E[g1] = E[g2]

    def __post_init__(self):
        for name in ("rate_R", "power_P", "sigma2"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # the gain thresholds divide 2^R - 1 and 2^(2R) - 1 by powers;
        # from R = 1024 on 2^R overflows too
        try:
            k1 = 2.0 ** self.rate_R
            k2 = 2.0 ** (2.0 * self.rate_R)
        except OverflowError:
            raise ValueError("rate_R must be below 512 (2**(2*rate_R) "
                             f"overflows), got {self.rate_R}") from None
        if k1 - 1.0 == 0.0:
            raise ValueError("rate_R must be at least about 1.6e-16 "
                             f"(2**rate_R - 1 rounds to 0), got {self.rate_R}")
        t2 = k2 - 1.0
        # written past the frozen __setattr__: attributes, not fields
        self.__dict__.update(k1=k1, k2=k2, t1=k1 - 1.0, t2=t2,
                             g_sum=t2 / self.power_P,
                             s2p=self.sigma2 * self.power_P)
        # the sum-rate gain threshold bounds the slot-1 integrals (g_max)
        if math.isinf(self.g_sum):
            raise ValueError(
                f"rate_R {self.rate_R} and power_P {self.power_P} make the "
                "sum-rate gain threshold (2**(2*rate_R) - 1) / power_P "
                "overflow")
        # every received SNR g*P either path forms must be finite
        if math.isinf(_GAIN_SPAN * self.sigma2 * self.power_P):
            raise ValueError(
                f"sigma2 {self.sigma2} and power_P {self.power_P} make the "
                f"largest sampled gain times power_P ({_GAIN_SPAN:.2f} * "
                "sigma2 * power_P) overflow")
        # p1 divides m2's residual by sigma2 * power_P
        if self.s2p == 0.0:
            raise ValueError(
                f"sigma2 {self.sigma2} and power_P {self.power_P} make "
                "sigma2 * power_P underflow to 0")

    def __getstate__(self):
        # the fields alone, as a plain dataclass pickles them; unpickling
        # validates them again and recomputes the constants
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        self.__init__(**state)

    @property
    def snr_db(self) -> float:
        """SNR in dB, defined as P / sigma^2 (noise is unit variance)."""
        return 10.0 * math.log10(self.power_P / self.sigma2)

    @classmethod
    def from_snr_db(cls, snr_db, rate_R, sigma2=1.0):
        """Build a config from an SNR in dB: P = sigma2 * 10^(snr_db/10).

        With the default sigma2 = 1 this makes P numerically equal to the
        SNR whether the latter is read as P/sigma^2 or as the mean received
        SNR P*sigma^2.
        """
        power = sigma2 * 10.0 ** (snr_db / 10.0)
        return cls(rate_R=rate_R, power_P=power, sigma2=sigma2)


@dataclass(frozen=True)
class PowerSplit:
    """Fraction of the total power given to message m1's layer per slot."""

    alpha: float  # slot-1 share for m1; m2 gets (1 - alpha)
    beta: float   # slot-2 share for m1 when both messages are retransmitted

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")


class SliceEvent(IntEnum):
    """Decoding outcome of one two-slot slice.

    Integer values index the frequency arrays of the Monte-Carlo simulator.
    """

    OMEGA0 = 0        # both messages decoded at slot 1
    OMEGA1 = 1        # only m1 at slot 1, m2 recovered at slot 2
    OMEGA1P = 2       # only m2 at slot 1, m1 recovered at slot 2
    OMEGA2 = 3        # only m1 at slot 1, m2 still lost after slot 2
    OMEGA2P = 4       # only m2 at slot 1, m1 still lost after slot 2
    OMEGA3 = 5        # nothing at slot 1, both recovered at slot 2
    OMEGA4 = 6        # nothing at slot 1, only m1 recovered at slot 2
    OMEGA4P = 7       # nothing at slot 1, only m2 recovered at slot 2
    NONE_DECODED = 8  # nothing decoded over the whole slice


_REWARD_MESSAGES = {
    SliceEvent.OMEGA0: 2,
    SliceEvent.OMEGA1: 2,
    SliceEvent.OMEGA1P: 2,
    SliceEvent.OMEGA2: 1,
    SliceEvent.OMEGA2P: 1,
    SliceEvent.OMEGA3: 2,
    SliceEvent.OMEGA4: 1,
    SliceEvent.OMEGA4P: 1,
    SliceEvent.NONE_DECODED: 0,
}


def safe_div_threshold(numerator: float, denominator: float) -> float:
    """numerator/denominator for positive denominators, +inf otherwise.

    Encodes the convention that a gain threshold with a nonpositive power
    coefficient can never be met: +inf as a threshold means "impossible",
    +inf as an integration bound means "unbounded".
    """
    if numerator <= 0:
        raise ValueError(f"numerator must be > 0, got {numerator}")
    if denominator <= 0.0:
        return math.inf
    return numerator / denominator
