"""Sequential probability ratio tests, classical and private.

The classical test compares the running empirical mean of the bit stream
against two moving thresholds built from the KL divergences of the two
hypotheses. The private variants add a one-shot threshold noise Z and a
per-step query noise Y, split the error budgets with an allocation gamma,
and widen the thresholds by the correction C(n, delta):

    lower(n) = mu0 + (KL01 - log(1/(gamma*beta))/n) / dtheta - C(n, (1-gamma)*beta)
    upper(n) = mu1 - (KL10 - log(1/(gamma*alpha))/n) / dtheta + C(n, (1-gamma)*alpha)

halting at the first n with xbar_n + Y_n/n <= lower(n) - Z/n (decide 0), or
failing that, xbar_n + Y_n/n >= upper(n) + Z/n (decide 1). The subsampled
variant keeps each observation with probability r, divides the budget term
by the included count M_n, and multiplies the noise and correction terms
by r, with unchanged Laplace scales; a step with M_n = 0 compares nothing.

All variants, and the PrivSPRT baseline, run in one chunked first-exit
loop, `Kernel.run`. A kernel is prepared once per configuration and reused
across trials, and sizes a trial's first chunk from the stopping times of
the trials it has run; `run_test` on a bare configuration prepares one for
a single trial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .exp_family import HypothesisPair
from .noise import (
    CorrectionParams,
    NoiseSpec,
    correction_vec,
    sample_y,
    sample_z,
)
from .outside_interval import StreamExhaustedError
from .rngcore import NOISE_ROLES, StreamKey, derive, rekey, stream_words

__all__ = [
    "Classical",
    "Laplace",
    "Gaussian",
    "LaplaceSub",
    "Variant",
    "TestConfig",
    "TestOutcome",
    "default_gamma",
    "default_subsample_rate",
    "gaussian_scales",
    "resolved_gamma",
    "threshold_lower",
    "threshold_upper",
    "BitReader",
    "Kernel",
    "TestKernel",
    "Trial",
    "run_test",
]

_CHUNK_START = 128
# chunks double up to this cap: larger chunks overshoot the stopping time by
# more, and their noise arrays stop fitting in the CPU cache. A kernel's
# learned first chunk may pass it, up to 8 caps.
_CHUNK_CAP = 4096


@dataclass(frozen=True)
class Classical:
    """Noise-free SPRT with un-split budgets log(1/beta), log(1/alpha)."""


@dataclass(frozen=True)
class Laplace:
    """Laplace noise at scales 4/epsilon (Y) and 2/epsilon (Z); epsilon-DP."""

    epsilon: float


@dataclass(frozen=True)
class Gaussian:
    """Gaussian noise with explicit standard deviations; Renyi DP."""

    sigma_y: float
    sigma_z: float


@dataclass(frozen=True)
class LaplaceSub:
    """Laplace variant with Bernoulli(rate) subsampling of the observations.
    No privacy guarantee is claimed for it: a stop at step 1 reveals that
    observation 1 was kept, so subsampling does not amplify privacy."""

    epsilon: float
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("subsampling rate must lie in (0, 1]")


Variant = Union[Classical, Laplace, Gaussian, LaplaceSub]


def default_gamma(epsilon: float) -> float:
    """Error allocation gamma(eps) = min(1/2, 1 - 1/eps), clamped to
    [0.01, 0.99]."""
    g = min(0.5, 1.0 - 1.0 / epsilon)
    return min(max(g, 0.01), 0.99)


def default_subsample_rate(epsilon: float) -> float:
    """Subsampling rate min(1, sqrt(eps/10))."""
    return min(1.0, math.sqrt(epsilon / 10.0))


def gaussian_scales(epsilon: float, delta: float = 1e-5) -> tuple[float, float]:
    """Gaussian scales (sigma_Y, sigma_Z) with sigma_Y^2 = 32 ln(1.25/delta)/eps^2
    and sigma_Z^2 = 8 ln(1.25/delta)/eps^2, covering sensitivities 2 and 1."""
    if epsilon <= 0.0 or not 0.0 < delta < 1.0:
        raise ValueError("need epsilon > 0 and delta in (0,1)")
    c = math.log(1.25 / delta)
    return math.sqrt(32.0 * c) / epsilon, math.sqrt(8.0 * c) / epsilon


@dataclass(frozen=True)
class TestConfig:
    """Full configuration of one sequential test instance.

    `gamma=None` resolves to the default allocation rule for the Laplace
    variants; the Gaussian variant needs an explicit gamma, and the
    classical variant ignores gamma. The variant sets the noise and the
    correction's epsilon or sigma^2-sum; `s` and `kappa` are the
    correction's own (see :class:`CorrectionParams`). A test with s <= 1 or
    kappa outside (0, 1] raises ValueError, as does a Gaussian test without
    gamma, whose correction is undefined at n = 1, at
    2 * (1 - gamma) * max(alpha, beta) >= zeta(s), or overflows by the
    horizon, and a Laplace test whose noise or correction overflows.
    """

    hypotheses: HypothesisPair
    alpha: float
    beta: float
    variant: Variant
    gamma: float | None = None
    s: float = 2.0
    kappa: float = 1.0
    horizon: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.beta < 1.0:
            raise ValueError("alpha and beta must lie in (0,1)")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0,1)")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        res = _resolve(self)  # raises on s, kappa, and a Gaussian test without gamma
        if isinstance(self.variant, Gaussian):
            # raises outside the domain, at n = 1; 2 * sigma_sum_sq * log_arg
            # grows with n, so if it overflows, it does at the horizon
            with np.errstate(over="ignore"):
                top = np.max(_corrections(res, np.array([1.0, float(self.horizon)])))
            if not np.isfinite(top):
                raise ValueError(f"the gaussian correction overflows by the horizon "
                                 f"{self.horizon}: the noise variance is too large")
        elif isinstance(self.variant, (Laplace, LaplaceSub)):
            # C(n, delta) peaks at some n <= 3, and no draw reaches 37 scales
            with np.errstate(over="ignore"):
                top = np.max(_corrections(res, np.arange(1.0, 4.0))) + 37.0 * (
                    res.spec.scale_y + res.spec.scale_z)
            if not np.isfinite(top):
                raise ValueError(f"{self.variant.epsilon:g} is too small for the laplace "
                                 "variants: their noise or correction overflows")


def resolved_gamma(cfg: "TestConfig") -> float | None:
    """The error allocation a run will actually use; None for classical."""
    if isinstance(cfg.variant, Classical):
        return None
    return _resolve(cfg).gamma


@dataclass(frozen=True)
class TestOutcome:
    """Stopping time, decision (absent if the horizon was exhausted), and,
    for the subsampled variant, the included count M_tau."""

    tau: int
    decision: int | None
    exhausted: bool
    included_count: int | None = None


class BitReader:
    """Chunked access to a stream of bits with value validation.

    A source with a `take(k)` method hands over up to k bits at once; a bool
    array from it, such as `BitStream.take` returns, is 0/1 by construction
    and skips the value check. Any other values are checked.
    """

    def __init__(self, source: Iterable[int]):
        self._take = getattr(source, "take", None)
        self._it = iter(source) if self._take is None else None

    def take(self, k: int) -> np.ndarray:
        if self._take is not None:
            bits = np.asarray(self._take(k))
            if bits.dtype == np.bool_:
                return bits.astype(np.int64)
        else:
            bits = np.fromiter(itertools.islice(self._it, k), dtype=np.float64, count=-1)
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            bad = bits[(bits != 0) & (bits != 1)][0]
            raise ValueError(f"observations must be bits in {{0,1}}, got {bad!r}")
        return bits.astype(np.int64, copy=False)

    def chunks(self, horizon: int, first: int = _CHUNK_START):
        """Yield (steps done before the chunk, its bits) over chunks that
        double from `first` bits up to _CHUNK_CAP (4096), until `horizon`
        bits have been read. Only `first` may exceed the cap.

        Raises StreamExhaustedError if the stream ends before the horizon.
        """
        n_done = 0
        chunk = first
        while n_done < horizon:
            want = min(chunk, horizon - n_done)
            bits = self.take(want)
            if bits.size:
                yield n_done, bits
                n_done += bits.size
            if bits.size < want:
                raise StreamExhaustedError(
                    f"observation stream ended after {n_done} bits, before the horizon"
                )
            chunk = min(chunk * 2, _CHUNK_CAP)


@dataclass(frozen=True)
class _Resolved:
    """Per-run constants derived from a TestConfig."""

    spec: NoiseSpec
    params: CorrectionParams
    gamma: float  # 1.0 for classical
    log_b: float  # log(1/(gamma*beta))
    log_a: float
    delta_lo: float  # (1-gamma)*beta
    delta_hi: float
    rate: float


def _resolve(cfg: TestConfig) -> _Resolved:
    """The classical test is the general rule at gamma = 1 with zero noise:
    its budgets log(1/(1.0*beta)) are log(1/beta), and its correction is 0."""
    v = cfg.variant
    gamma, epsilon, sigma_sum_sq, rate = cfg.gamma, None, None, 1.0
    if isinstance(v, Classical):
        spec, gamma = NoiseSpec.zero(), 1.0
    elif isinstance(v, (Laplace, LaplaceSub)):
        spec, epsilon = NoiseSpec.laplace_default(v.epsilon), v.epsilon
        if gamma is None:
            gamma = default_gamma(v.epsilon)
        if isinstance(v, LaplaceSub):
            rate = v.rate
    elif isinstance(v, Gaussian):
        try:
            sigma_sum_sq = v.sigma_y**2 + v.sigma_z**2
        except OverflowError:
            raise ValueError("the gaussian noise variance sigma_y^2 + sigma_z^2 overflows") from None
        spec = NoiseSpec.gaussian(v.sigma_y, v.sigma_z)
        if gamma is None:
            raise ValueError("Gaussian variant needs an explicit gamma")
    else:
        raise TypeError(f"unknown variant {v!r}")
    params = CorrectionParams(cfg.s, epsilon, sigma_sum_sq, cfg.kappa)
    return _Resolved(
        spec, params, gamma,
        math.log(1.0 / (gamma * cfg.beta)), math.log(1.0 / (gamma * cfg.alpha)),
        (1.0 - gamma) * cfg.beta, (1.0 - gamma) * cfg.alpha, rate,
    )


def _corrections(res: _Resolved, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n-only threshold terms r * C(n, delta) below and above."""
    return (
        res.rate * correction_vec(res.params, res.spec.family, n, res.delta_lo),
        res.rate * correction_vec(res.params, res.spec.family, n, res.delta_hi),
    )


def _budget_terms(hyp: HypothesisPair, res: _Resolved, m) -> tuple[np.ndarray, np.ndarray]:
    """The thresholds before their corrections, by the divisor `m` of their
    budget terms: the step count, or the included count for the subsampled
    rule. Entries with m = 0 yield -inf/+inf, where no comparison can fire."""
    m = np.asarray(m, dtype=np.float64)
    pos = m > 0
    inv_m = np.where(pos, 1.0 / np.where(pos, m, 1.0), np.inf)
    return (hyp.mu0 + (hyp.kl01 - res.log_b * inv_m) / hyp.dtheta,
            hyp.mu1 - (hyp.kl10 - res.log_a * inv_m) / hyp.dtheta)


def _thresholds_vec(hyp: HypothesisPair, res: _Resolved, m, c_lo, c_hi):
    """Lower/upper thresholds given the corrections over the same steps,
    with the budget terms of :func:`_budget_terms`."""
    lower, upper = _budget_terms(hyp, res, m)
    return lower - c_lo, upper + c_hi


def _thresholds_at(cfg: TestConfig, n: int, included: int | None):
    res = _resolve(cfg)
    steps = np.array([float(n)])
    m = steps if included is None else np.array([float(included)])
    return _thresholds_vec(cfg.hypotheses, res, m, *_corrections(res, steps))


def threshold_lower(cfg: TestConfig, n: int, included: int | None = None) -> float:
    """Lower stopping threshold at step n (budget divisor `included` for the
    subsampled rule; defaults to n)."""
    return float(_thresholds_at(cfg, n, included)[0][0])


def threshold_upper(cfg: TestConfig, n: int, included: int | None = None) -> float:
    """Upper stopping threshold at step n."""
    return float(_thresholds_at(cfg, n, included)[1][0])


class Trial(NamedTuple):
    """One trial of a prepared kernel: the key words of the trial's noise
    streams, one pair per noise role the kernel reads, as
    :meth:`Kernel.trials` and :meth:`Kernel.trial` compute them."""

    kernel: "Kernel"
    words: list

    def run(self, observations: Iterable[int]) -> TestOutcome:
        return self.kernel.run(self.words, observations)


class Kernel:
    """A test prepared once and run for many trials: the first-exit loop.

    It keys the first `roles` of `rngcore.NOISE_ROLES`, or none if `draws`
    is false, for a block of seeds (`trials`) or one (`trial`). A run resets
    the kernel's noise generators, one per role it keys, to the start of
    the trial's streams, walks the observations in chunks that start at
    `_first_chunk()` steps and double up to _CHUNK_CAP, and halts at the
    first step where either of the test's two checks fires; the first check
    wins a tie, and DECISIONS gives each check's decision. A subclass's
    `_checks` yields, in order, per chunk or piece of one, the steps done
    before it, where each check fires, and the included counts (None
    outside the subsampled rule); it may leave out a piece where neither
    check can fire.
    """

    DECISIONS: tuple[int, int]

    def __init__(self, cfg, roles: int, draws: bool = True):
        self.cfg = cfg
        self._roles = NOISE_ROLES[:roles] if draws else ()
        # placeholders keyed at seed 0: a run rekeys them to its trial's streams
        self._rngs = [derive(StreamKey(0, substream=role)) for role in self._roles]
        self._runs = self._tau_sum = 0

    def trials(self, seeds) -> list[Trial]:
        """The trials of a block of seeds (a uint64 array, or a sequence of
        ints below 2^64), keyed in one vectorised pass."""
        seeds = np.asarray(seeds, dtype=np.uint64)
        if not self._roles:
            return [Trial(self, []) for _ in range(seeds.size)]
        words = stream_words(seeds[:, None], substream=self._roles).tolist()
        return [Trial(self, w) for w in words]

    def trial(self, seed: int) -> Trial:
        """The trial of one seed, an int of any size taken modulo 2^64."""
        return Trial(self, stream_words(seed, substream=self._roles).tolist())

    def _first_max(self) -> int:
        return 8 * _CHUNK_CAP

    def _first_chunk(self) -> int:
        """1.25 times the mean tau of the runs so far, rounded up to a
        multiple of _CHUNK_START, at least _CHUNK_START and at most
        `_first_max()`; _CHUNK_START before the first run."""
        if not self._runs:
            return _CHUNK_START
        learned = -(-5 * self._tau_sum // (4 * _CHUNK_START * self._runs)) * _CHUNK_START
        return min(max(learned, _CHUNK_START), self._first_max())

    def run(self, words, observations: Iterable[int]) -> TestOutcome:
        """Run the trial whose noise streams `words` key (see :class:`Trial`)."""
        for rng, key in zip(self._rngs, words):
            rekey(rng, key)
        horizon = self.cfg.horizon
        chunks = BitReader(observations).chunks(horizon, self._first_chunk())
        m = None
        for n_done, first, second, m in self._checks(chunks, *self._rngs):
            fired = first | second
            i = int(fired.argmax())
            if fired[i]:
                decision = self.DECISIONS[0 if first[i] else 1]
                out = TestOutcome(n_done + i + 1, decision, False, None if m is None else int(m[i]))
                break
        else:
            out = TestOutcome(horizon, None, True, None if m is None else int(m[-1]))
        self._runs += 1
        self._tau_sum += out.tau
        return out


class TestKernel(Kernel):
    """A test configuration prepared once and run for many trials.

    It resolves the configuration's constants and keeps threshold tables
    over the step counts seen so far. The tables hold the same values
    `threshold_lower` and `threshold_upper` give; for the subsampled rule
    they hold only the n-only correction terms, and two more tables hold
    the budget terms by included count, which each chunk looks up.

    Any chunking gives the same outcome: S_n is an integer cumsum, every
    threshold is a function of n alone, and each noise stream draws one
    word per value. The classical test draws no noise.
    """

    DECISIONS = (0, 1)  # the lower check comes first

    def __init__(self, cfg: TestConfig):
        self._sub = isinstance(cfg.variant, LaplaceSub)
        super().__init__(cfg, 3 if self._sub else 2, not isinstance(cfg.variant, Classical))
        self._res = _resolve(cfg)
        # a subsampling word w keeps its step when w <= this bound, exactly when
        # random() < rate (see `rngcore.raw_below`); at rate 1.0 it is 2^64 - 1
        self._keep = np.uint64((math.ceil(self._res.rate * 2.0**53) << 11) - 1)
        self._n = self._lo = self._hi = np.empty(0)

    def _thresholds(self, start: int, stop: int, m) -> tuple[np.ndarray, np.ndarray]:
        """Thresholds at steps start+1..stop; `m` holds the included counts
        there for the subsampled rule. Grows the tables, and their step
        counts `_n`, to cover `stop`, at least doubling them."""
        if self._n.size < stop:
            size = min(max(stop, 2 * self._n.size), self.cfg.horizon)
            self._n = np.arange(1, size + 1, dtype=np.float64)
            self._lo, self._hi = _corrections(self._res, self._n)
            if self._sub:  # the budget terms by included count, 0 to size
                self._blo, self._bhi = _budget_terms(self.cfg.hypotheses, self._res,
                                                     np.arange(size + 1))
            else:
                self._lo, self._hi = _thresholds_vec(
                    self.cfg.hypotheses, self._res, self._n, self._lo, self._hi
                )
        lo, hi = self._lo[start:stop], self._hi[start:stop]
        if not self._sub:
            return lo, hi
        # where M_n = 0 (so S_n = 0) they are -inf and +inf, and neither
        # check can fire
        return self._blo[m] - lo, self._bhi[m] + hi

    def _checks(self, chunks, rng_y=None, rng_z=None, rng_b=None):
        # the plain rule is the subsampled one at rate 1.0 with M_n = n, and
        # the classical one that with zero noise; each skips what is an exact
        # no-op for it: a product by 1.0, max(n, 1), and adding 0
        res = self._res
        rz = None if rng_z is None else res.rate * float(sample_z(res.spec, rng_z))
        s_carry, m_carry, counts = 0, 0, None
        for n_done, bits in chunks:
            stop = n_done + bits.size
            if rng_b is not None:
                include = rng_b.bit_generator.random_raw(bits.size) <= self._keep
                bits = bits * include
                counts = m_carry + include.cumsum()
                m_carry = int(counts[-1])
            lower, upper = self._thresholds(n_done, stop, counts)
            n = self._n[n_done:stop]
            s = s_carry + bits.cumsum()
            s_carry = int(s[-1])
            stat = s / (n if counts is None else np.maximum(counts, 1))
            if rng_y is not None:
                y = sample_y(res.spec, rng_y, bits.size)
                stat += (y if rng_b is None else res.rate * y) / n
                zn = rz / n
                lower, upper = lower - zn, upper + zn
            yield n_done, stat <= lower, stat >= upper, counts


def run_test(cfg: TestConfig | Trial, observations: Iterable[int]) -> TestOutcome:
    """Run the test on a bit stream until a decision or the horizon.

    Z is drawn once up front; each step consumes one observation and one
    fresh Y. The lower comparison is evaluated before the upper one. The
    caller supplies the observations. On a bare config the Y and Z streams
    are those of seed 0, so identical (cfg, observations) inputs replay the
    identical outcome; to key another seed, pass a prepared kernel's
    `TestKernel(cfg).trial(seed)` in place of the config, as the harness
    does by (master_seed, cell, trial).

    The reader buffers ahead of the stopping point for speed; treat the
    observation iterable as owned by this run and do not reuse it.
    """
    if isinstance(cfg, TestConfig):
        cfg = TestKernel(cfg).trial(0)
    return cfg.run(observations)

