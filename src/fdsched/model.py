"""System configuration, Rayleigh channel snapshots, and instantaneous rates.

Channels are stored as real power gains |h|^2, never as complex
coefficients: every quantity downstream consumes only magnitude-squared
gains, so phases would be untestable dead weight.  A snapshot holds channel
gains only: the residual self-interference gain is a system parameter, read
from the config alone.  All powers are linear milliwatts; conversion from
dBm / noise-figure inputs lives in :func:`config_from_db`.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

THERMAL_NOISE_DBM_PER_HZ = -174.0
LN2 = math.log(2.0)

# The radio settings under the names of config_from_db's parameters: the one
# defaults table behind the engine's sweeps, the command line and its manifests.
RADIO_DEFAULTS = {
    "p0_dbm": 24.0,
    "pu_dbm": 23.0,
    "si_cancellation_db": 80.0,
    "noise_figure_bs_db": 13.0,
    "noise_figure_mt_db": 9.0,
    "bandwidth_hz": 1e7,
    "k_u": 5,
    "k_d": 5,
}


def whole_number(name, value):
    """``value`` as an int: whole floats such as ``5.0`` (numpy's of every
    width too) are taken; anything else that is not an integer, or is a
    bool, raises a ValueError naming ``name``.  Plain ints and numpy's
    integers are answered before the costlier ``numbers.Integral`` check."""
    if type(value) is int:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SystemConfig:
    """Operating point of one full-duplex cell, all in linear units (mW)."""

    p0_max: float     # maximum BS (DL) transmit power
    pu_max: float     # maximum UL terminal transmit power
    sigma0_sq: float  # AWGN power at the BS receiver
    sigmaD_sq: float  # AWGN power at every DL terminal (common by assumption)
    si_gain: float    # residual self-interference power gain, dimensionless
    k_u: int          # number of UL candidate terminals
    k_d: int          # number of DL candidate terminals

    def __post_init__(self):
        for name in ("p0_max", "pu_max", "sigma0_sq", "sigmaD_sq", "si_gain"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if self.p0_max <= 0.0 or self.pu_max <= 0.0:
            raise ValueError("full-duplex scheduling needs positive p0_max and pu_max")
        if self.sigma0_sq <= 0.0 or self.sigmaD_sq <= 0.0:
            raise ValueError("noise powers must be positive")
        for name in ("k_u", "k_d"):
            object.__setattr__(self, name, whole_number(name, getattr(self, name)))
        if self.k_u < 1 or self.k_d < 1:
            raise ValueError("k_u and k_d must be >= 1")


def config_from_db(
    p0_dbm,
    pu_dbm,
    si_cancellation_db,
    noise_figure_bs_db=RADIO_DEFAULTS["noise_figure_bs_db"],
    noise_figure_mt_db=RADIO_DEFAULTS["noise_figure_mt_db"],
    bandwidth_hz=RADIO_DEFAULTS["bandwidth_hz"],
    k_u=RADIO_DEFAULTS["k_u"],
    k_d=RADIO_DEFAULTS["k_d"],
):
    """Build a :class:`SystemConfig` from dB-domain quantities.

    Powers convert as 10^(dBm/10) mW.  Noise powers follow the thermal
    floor: sigma^2 = 10^((-174 + 10 log10 B + NF)/10) mW.  The residual
    self-interference gain is 10^(-cancellation_dB/10).  The bandwidth has
    no canonical value in this model; 10 MHz is the documented default.
    A setting whose linear value overflows a float raises a ValueError
    that names it.
    """
    if not (math.isfinite(bandwidth_hz) and bandwidth_hz > 0.0):
        raise ValueError(f"bandwidth_hz must be positive and finite, got {bandwidth_hz!r}")
    if not (math.isfinite(si_cancellation_db) and si_cancellation_db >= 0.0):
        raise ValueError(f"si_cancellation_db must be >= 0, got {si_cancellation_db!r}")

    def linear(name, db):
        try:
            return 10.0 ** (db / 10.0)
        except OverflowError:
            raise ValueError(f"{name} is too large: its linear value overflows a float") from None

    floor_dbm = THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz)
    return SystemConfig(
        p0_max=linear("p0_dbm", p0_dbm),
        pu_max=linear("pu_dbm", pu_dbm),
        sigma0_sq=linear("noise_figure_bs_db", floor_dbm + noise_figure_bs_db),
        sigmaD_sq=linear("noise_figure_mt_db", floor_dbm + noise_figure_mt_db),
        si_gain=10.0 ** (-si_cancellation_db / 10.0),
        k_u=k_u,
        k_d=k_d,
    )


@dataclass(frozen=True)
class ChannelRealization:
    """One snapshot of every magnitude-squared channel gain.

    Arrays passed in are copied into one fresh buffer and checked: their
    shapes, and every gain finite and >= 0.  :func:`draw_realization`
    freezes the buffer of its own Exp(1) draws in place instead, which are
    finite and >= 0 by construction.  Either way the gains are read-only
    views of a read-only buffer, so a realization can be shared freely
    across concurrent workers.
    """

    g_ul: np.ndarray  # (k_u,)      UL gains |h_{0,u}|^2
    g_dl: np.ndarray  # (k_d,)      DL gains |h_{d,0}|^2
    g_x: np.ndarray   # (k_d, k_u)  inter-terminal interference gains |h_{d,u}|^2

    def __post_init__(self):
        g_ul, g_dl, g_x = (np.asarray(a, dtype=float) for a in (self.g_ul, self.g_dl, self.g_x))
        if g_ul.ndim != 1 or g_dl.ndim != 1 or g_x.shape != (g_dl.size, g_ul.size):
            raise ValueError(
                f"inconsistent shapes: g_ul {g_ul.shape}, g_dl {g_dl.shape}, g_x {g_x.shape}"
            )
        if g_ul.size < 1 or g_dl.size < 1:
            raise ValueError("empty user set")
        _freeze(self, np.concatenate((g_ul, g_dl, g_x.reshape(-1))), g_ul.size, g_dl.size)
        for name in ("g_ul", "g_dl", "g_x"):
            arr = getattr(self, name)
            if not (arr.min() >= 0.0 and arr.max() < math.inf):  # NaN fails the first test
                raise ValueError(f"{name} entries must be finite and >= 0")


def _freeze(ch, buf, k_u, k_d):
    """Make the 1-d ``buf`` read-only and ``ch``'s gains its views: g_ul,
    g_dl, then g_x row-major.  Returns ``ch``."""
    buf.flags.writeable = False
    object.__setattr__(ch, "g_ul", buf[:k_u])
    object.__setattr__(ch, "g_dl", buf[k_u:k_u + k_d])
    object.__setattr__(ch, "g_x", buf[k_u + k_d:].reshape(k_d, k_u))
    return ch


def draw_realization(config, rng):
    """Sample one channel snapshot: every gain is Exp(1) (unit-mean-square
    Rayleigh amplitude), independently.

    One ``rng.standard_exponential(k_u + k_d + k_d * k_u)`` call draws g_ul,
    then g_dl, then g_x row-major: the numbers, and the generator state
    after, of three calls in that order.  This pins the realization to the
    generator state: the same stream state always yields the bit-identical
    snapshot.
    """
    k_u, k_d = config.k_u, config.k_d
    buf = rng.standard_exponential(k_u + k_d + k_d * k_u)
    return _freeze(object.__new__(ChannelRealization), buf, k_u, k_d)


def sinr(p, g, p_i, g_i, noise, out=None):
    """Signal-to-interference-plus-noise ratio p g / (p_i g_i + noise), the
    one SINR formula of the package, for arrays and 0-d scalars alike.  A
    link whose power ``p`` is 0 gets exactly 0.

    ``out`` (an array shaped like the result) takes the same operations in
    place, for arrays the size of a block's cross gains; without it the
    plain arithmetic stays cheap on scalars.
    """
    if out is None:
        return p * g / (p_i * g_i + noise)
    np.multiply(p_i, g_i, out=out)
    out += noise
    return np.divide(p * g, out, out=out)


def log2_1p(x, out=None):
    """Spectral efficiency log2(1 + x) in bps/Hz of an SINR ``x``; ``out``
    as in :func:`sinr`."""
    if out is None:
        return np.log1p(x) / LN2
    return np.divide(np.log1p(x, out=out), LN2, out=out)


def pair_gains(ch, ul, dl):
    """The gains ``(g_ul[ul], g_dl[dl], g_x[dl, ul])`` of the pair (ul, dl).
    An index that is not a whole number raises a ValueError, and one outside
    [0, n) an IndexError; either names its link."""
    ul, dl = whole_number("UL index", ul), whole_number("DL index", dl)
    for link, i, n_users in (("UL", ul, ch.g_ul.shape[0]), ("DL", dl, ch.g_dl.shape[0])):
        if not 0 <= i < n_users:
            raise IndexError(f"{link} index {i} out of range for {n_users} users")
    return ch.g_ul[ul], ch.g_dl[dl], ch.g_x[dl, ul]


@dataclass(frozen=True)
class RateBreakdown:
    """Instantaneous spectral efficiencies in bps/Hz."""

    r_ul: float
    r_dl: float
    r_sum: float


def rates(ch, schedule, config):
    """Instantaneous UL/DL/sum rates of a schedule.

    A link contributes log2(1 + SINR) only when its user is scheduled with
    positive transmit power; an absent link contributes exactly 0 (the
    half-duplex corner of the sum-rate objective).
    """
    # A link without a user has zero power in a valid Schedule, so any
    # index stands in for the missing user.
    ul = 0 if schedule.ul is None else schedule.ul
    dl = 0 if schedule.dl is None else schedule.dl
    g_ul, g_dl, g_x = pair_gains(ch, ul, dl)
    r_ul = float(log2_1p(sinr(schedule.pu, g_ul, schedule.p0, config.si_gain, config.sigma0_sq)))
    r_dl = float(log2_1p(sinr(schedule.p0, g_dl, schedule.pu, g_x, config.sigmaD_sq)))
    return RateBreakdown(r_ul=r_ul, r_dl=r_dl, r_sum=r_ul + r_dl)
