"""Physical scenario types and the decode-event predicates shared by the
analytic formulas, the Monte-Carlo simulator, and the tests.

Two messages are delivered over a slice of two fading timeslots.  Decoding
succeeds whenever the accumulated mutual information for a message reaches
the per-message rate R (Gaussian threshold model, logs base 2).
"""

import math
from dataclasses import dataclass
from enum import Enum, IntEnum

PROTOCOLS = ("ts", "mlh", "sc")

# Largest gain / sigma2 that either path samples: Monte-Carlo's
# -log(1 - u) at its largest u, 1 - 2^-53 (36.74), which exceeds the
# closed forms' tail truncation point quadrature.TAIL_SPAN (32.24).
_GAIN_SPAN = -math.log(2.0 ** -53)


@dataclass(frozen=True)
class SystemConfig:
    """One physical scenario: rate, transmit power and fading statistics."""

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
        # the gain thresholds divide 2^R - 1 and 2^(2R) - 1 by powers
        if 2.0 ** self.rate_R - 1.0 == 0.0:
            raise ValueError("rate_R must be at least about 1.6e-16 "
                             f"(2**rate_R - 1 rounds to 0), got {self.rate_R}")
        try:
            t2 = 2.0 ** (2.0 * self.rate_R) - 1.0
        except OverflowError:
            raise ValueError("rate_R must be below 512 (2**(2*rate_R) "
                             f"overflows), got {self.rate_R}") from None
        # the sum-rate gain threshold bounds the slot-1 integrals (g_max)
        if math.isinf(t2 / self.power_P):
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


@dataclass(frozen=True)
class ChannelDraw:
    """One realization of the two per-slot channel gains."""

    g1: float
    g2: float

    def __post_init__(self):
        if not self.g1 >= 0:
            raise ValueError(f"g1 must be >= 0, got {self.g1}")
        if not self.g2 >= 0:
            raise ValueError(f"g2 must be >= 0, got {self.g2}")


class JointOutcome(Enum):
    """Result of a joint decoding attempt on two superposed messages."""

    BOTH = "both"
    ONLY_M1 = "only_m1"
    ONLY_M2 = "only_m2"
    NEITHER = "neither"


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


@dataclass(frozen=True)
class SliceOutcome:
    """Event label of one simulated slice plus its reward bookkeeping.

    reward_messages counts correctly delivered messages (multiples of R*N
    information bits); duration_slots is 1 only when both messages clear
    at slot 1 under the multi-layer protocol, else 2.
    """

    event: SliceEvent
    reward_messages: int
    duration_slots: int

    @classmethod
    def from_event(cls, event: SliceEvent) -> "SliceOutcome":
        duration = 1 if event is SliceEvent.OMEGA0 else 2
        return cls(event=event, reward_messages=_REWARD_MESSAGES[event],
                   duration_slots=duration)


def pos_part(x: float) -> float:
    """max(0, x)."""
    return x if x > 0.0 else 0.0


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


def mi_single(g: float, p: float) -> float:
    """Mutual information log2(1 + g*p) of an interference-free layer."""
    return math.log2(1.0 + g * p)


def mi_sinr(g: float, p_sig: float, p_int: float) -> float:
    """Mutual information of a layer decoded with the other treated as noise."""
    return math.log2(1.0 + g * p_sig / (1.0 + g * p_int))


def classify_slot1(g1: float, alpha: float, cfg: SystemConfig) -> JointOutcome:
    """Decode outcome of the superposed slot-1 observation.

    Joint decoding first (two individual-rate and one sum-rate inequality);
    failing that, each message is tried with the other treated as noise.
    If both single-message conditions held simultaneously the joint region
    would too, so the ladder order cannot mask an outcome.
    """
    r, p = cfg.rate_R, cfg.power_P
    if (r <= mi_single(g1, alpha * p)
            and r <= mi_single(g1, (1.0 - alpha) * p)
            and 2.0 * r <= mi_single(g1, p)):
        return JointOutcome.BOTH
    if r <= mi_sinr(g1, alpha * p, (1.0 - alpha) * p):
        return JointOutcome.ONLY_M1
    if r <= mi_sinr(g1, (1.0 - alpha) * p, alpha * p):
        return JointOutcome.ONLY_M2
    return JointOutcome.NEITHER


def classify_slot2_joint(draw: ChannelDraw, split: PowerSplit,
                         cfg: SystemConfig) -> JointOutcome:
    """Decode outcome after slot 2 when both messages failed at slot 1.

    Same ladder as classify_slot1 but on mutual information accumulated
    over the two slots (slot-2 shares beta / 1-beta).
    """
    r, p = cfg.rate_R, cfg.power_P
    a, b = split.alpha, split.beta
    g1, g2 = draw.g1, draw.g2
    if (r <= mi_single(g1, a * p) + mi_single(g2, b * p)
            and r <= mi_single(g1, (1.0 - a) * p) + mi_single(g2, (1.0 - b) * p)
            and 2.0 * r <= mi_single(g1, p) + mi_single(g2, p)):
        return JointOutcome.BOTH
    if r <= (mi_sinr(g1, a * p, (1.0 - a) * p)
             + mi_sinr(g2, b * p, (1.0 - b) * p)):
        return JointOutcome.ONLY_M1
    if r <= (mi_sinr(g1, (1.0 - a) * p, a * p)
             + mi_sinr(g2, (1.0 - b) * p, b * p)):
        return JointOutcome.ONLY_M2
    return JointOutcome.NEITHER


def classify_slot2_single(g_prev: float, p_prev: float, g2: float,
                          cfg: SystemConfig) -> bool:
    """Whether the one surviving message clears after a full-power slot 2.

    p_prev is its interference-free slot-1 residual power (the decoded
    message has been removed by SIC); slot 2 retransmits it alone at P.
    """
    return cfg.rate_R <= mi_single(g_prev, p_prev) + mi_single(g2, cfg.power_P)
