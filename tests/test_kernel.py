"""Prepared kernels: one kernel reused over many trials, with its threshold
tables grown on demand, gives what a fresh run of each trial gives, at any
chunk, table-growth or horizon boundary and at any worker count."""

import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtri

from dpsprt import baselines, dp_sprt, outside_interval
from dpsprt.baselines import PrivSprtConfig, PrivSprtKernel, llr_steps, run_privsprt
from dpsprt.dp_sprt import (
    Classical,
    Gaussian,
    Laplace,
    LaplaceSub,
    TestConfig,
    TestKernel,
    gaussian_scales,
    run_test,
    threshold_lower,
    threshold_upper,
)
from dpsprt.exp_family import HypothesisPair
from dpsprt.harness import BitStream, ExperimentPlan, PlannedVariant, run_experiment
from dpsprt.noise import NoiseSpec
from dpsprt.rngcore import StreamKey, Substream, derive, uniform_open

HYP = HypothesisPair.of(0.3, 0.7)


def _configs(eps):
    sy, sz = gaussian_scales(eps)
    priv = PrivSprtConfig.from_epsilon(HYP, eps)
    return {
        "classical": TestConfig(HYP, 0.05, 0.05, Classical()),
        "laplace": TestConfig(HYP, 0.05, 0.05, Laplace(eps)),
        "gaussian": TestConfig(HYP, 0.05, 0.05, Gaussian(sy, sz), gamma=0.5),
        "laplace_sub": TestConfig(HYP, 0.05, 0.05, LaplaceSub(eps, 0.4)),
        # thresholds near where calibration puts them
        "privsprt": replace(priv, thresh_a=375.0 / eps, thresh_b=375.0 / eps),
    }


def _obs(p, tag):
    return BitStream(p, derive(StreamKey(505, 0, tag)))


def _prepared(cfg):
    """The kernel and the run function for a configuration."""
    if isinstance(cfg, PrivSprtConfig):
        return PrivSprtKernel(cfg), run_privsprt
    return TestKernel(cfg), run_test


def _run(cfg, obs, seed=0):
    """The trial of `seed`, run on a fresh kernel."""
    kernel, run = _prepared(cfg)
    return run(kernel.trial(seed), obs)


@pytest.mark.parametrize("name", list(_configs(1.0)))
def test_reused_kernel_matches_fresh_runs(name):
    cfg = _configs(1.0)[name]
    kernel, run = _prepared(cfg)
    # the trials of a block, keyed in one pass
    block = kernel.trials(np.arange(50, dtype=np.uint64))
    taus = []
    for seed in range(50):
        p = HYP.mu1 if seed % 2 else HYP.mu0
        reused = run(kernel.trial(seed), _obs(p, seed))
        assert reused == _run(cfg, _obs(p, seed), seed)
        assert reused == run(block[seed], _obs(p, seed))
        taus.append(reused.tau)
    # a bare config runs the trial of seed 0
    assert run(cfg, _obs(HYP.mu0, 0)) == run(_prepared(cfg)[0].trial(0), _obs(HYP.mu0, 0))
    if name != "classical":
        # some trials outrun the first chunk, so the tables grew in use
        assert max(taus) > 128


SEED_EDGES = np.array([0, 1, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1], dtype=np.uint64)


@pytest.mark.parametrize("name", list(_configs(1.0)))
def test_block_keys_equal_single_seed_keys(name):
    """A block's trials, keyed in one pass over uint64 seeds, equal the
    trials keyed one int seed at a time, at and above 2^63."""
    kernel = _prepared(_configs(1.0)[name])[0]
    block = kernel.trials(SEED_EDGES)
    assert block == [kernel.trial(seed) for seed in SEED_EDGES.tolist()]
    assert kernel.trials(SEED_EDGES.tolist()) == block


@pytest.mark.parametrize("name, pairs", [("classical", 0), ("laplace", 2), ("gaussian", 2),
                                         ("laplace_sub", 3), ("privsprt", 2)])
def test_a_trial_keys_only_the_roles_its_kernel_reads(name, pairs):
    """Y and Z for every noisy kernel, and no role for the classical one,
    which draws no noise; the subsampling stream only for the subsampled
    rule."""
    kernel = _prepared(_configs(1.0)[name])[0]
    for trial in [kernel.trial(7)] + kernel.trials(SEED_EDGES):
        assert len(trial.words) == pairs
        assert all(len(pair) == 2 for pair in trial.words)


@pytest.mark.parametrize("name", list(_configs(1.0)))
def test_any_int_seed_acts_modulo_2_to_the_64(name):
    """A trial's seed may be any int: negative, or 2^64 and above; it keys
    the noise streams modulo 2^64, as `StreamKey.words` does."""
    cfg = _configs(1.0)[name]
    for seed in (-1, -(2**63), -(2**70) + 3, 2**64, 2**64 + 5, 3 * 2**64 - 1):
        got = _run(cfg, _obs(HYP.mu0, 3), seed)
        assert got == _run(cfg, _obs(HYP.mu0, 3), seed % 2**64)


def _outcomes():
    """(tau, decision) of 20 trials, both truths, for every variant at eps
    0.5, 1 and 5; one kernel per configuration, so its tables grow at the
    chunk ends of the current schedule."""
    out = {}
    for eps in (0.5, 1.0, 5.0):
        for name, cfg in _configs(eps).items():
            kernel, run = _prepared(cfg)
            for seed in range(20):
                p = HYP.mu1 if seed % 2 else HYP.mu0
                res = run(kernel.trial(seed), _obs(p, seed))
                out[eps, name, seed] = (res.tau, res.decision)
    return out


@pytest.fixture(scope="module")
def default_outcomes():
    return _outcomes()


@pytest.mark.parametrize("cap", [1, 5, 128, 65536])
def test_outcomes_do_not_depend_on_chunk_size(cap, default_outcomes, monkeypatch):
    """For the four TestKernel variants S_n is an integer cumsum and every
    threshold is a function of n alone, so any chunking gives the same
    comparisons. PrivSPRT carries a float LLR sum from one chunk to the next
    (carry + cumsum), so another chunking may add in another order; that it
    does not change an outcome here is checked, not guaranteed."""
    monkeypatch.setattr(dp_sprt, "_CHUNK_CAP", cap)
    assert _outcomes() == default_outcomes


class _Recording:
    """An observation source that records the size of each `take`."""

    def __init__(self, stream):
        self.stream = stream
        self.sizes = []

    def take(self, k):
        self.sizes.append(k)
        return self.stream.take(k)


@pytest.mark.parametrize("cap", [5, 4096])
def test_first_chunk_is_learned_from_the_runs_so_far(cap, monkeypatch):
    """A fresh kernel starts at 128 steps; later runs start at 1.25 times
    the mean tau so far, rounded up to a multiple of 128, at most 8 caps,
    and double from there up to the cap."""
    monkeypatch.setattr(dp_sprt, "_CHUNK_CAP", cap)
    kernel = TestKernel(_configs(1.0)["laplace"])
    taus = []
    for seed in range(6):
        first = 128
        if taus:
            learned = -(-5 * sum(taus) // (4 * 128 * len(taus))) * 128
            first = min(max(learned, 128), 8 * cap)
        obs = _Recording(_obs(HYP.mu0, seed))
        taus.append(run_test(kernel.trial(seed), obs).tau)
        assert obs.sizes == [first] + [min(first * 2**k, cap) for k in range(1, len(obs.sizes))]
    assert learned > 128  # the learned size moved off the start


@pytest.mark.parametrize("eps", [1.0, 5.0])
def test_privsprt_first_chunk_is_learned_up_to_one_piece(eps):
    """A PrivSPRT kernel learns its first chunk by the same rule, but at
    most 512 steps, one piece of its checks: at eps 5 (mean tau about 170)
    it settles below that, at eps 1 it reaches it. Chunks double from there
    up to the cap."""
    kernel = PrivSprtKernel(_configs(eps)["privsprt"])
    taus, firsts = [], []
    for seed in range(8):
        first = 128
        if taus:
            learned = -(-5 * sum(taus) // (4 * 128 * len(taus))) * 128
            first = min(max(learned, 128), 512)
        obs = _Recording(_obs(HYP.mu1 if seed % 2 else HYP.mu0, seed))
        taus.append(run_privsprt(kernel.trial(seed), obs).tau)
        assert obs.sizes == [first] + [min(first * 2**k, 4096) for k in range(1, len(obs.sizes))]
        firsts.append(first)
    assert (128 < firsts[-1] < 512) if eps == 5.0 else firsts[-1] == 512


def test_classical_kernel_keys_no_noise_stream(monkeypatch):
    """The classical test has no noise: its kernel derives, rekeys and
    samples no noise stream, where a private kernel does all three."""
    calls = []
    for name in ("derive", "rekey", "sample_y", "sample_z"):
        fn = getattr(dp_sprt, name)
        monkeypatch.setattr(dp_sprt, name,
                            lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    for name in ("classical", "laplace"):
        calls.clear()
        kernel = TestKernel(_configs(5.0)[name])
        for seed in range(3):
            assert not run_test(kernel.trial(seed), _obs(HYP.mu0, seed)).exhausted
        assert set(calls) == (set() if name == "classical" else
                              {"derive", "rekey", "sample_y", "sample_z"})


@pytest.mark.parametrize("horizon", [129, 700, 1_000_000])
@pytest.mark.parametrize("eps", [1.0, 5.0])
@pytest.mark.parametrize("name", ["classical", "laplace", "gaussian", "laplace_sub"])
def test_outcomes_do_not_depend_on_the_learned_first_chunk(name, eps, horizon):
    """A trial's first chunk depends on the runs its kernel made before it:
    none in a fresh kernel, and others in one kernel run forward or in
    reverse. All three give the same outcomes."""
    cfg = replace(_configs(eps)[name], horizon=horizon)
    seeds = list(range(24))

    def outcome(trial, seed):
        out = run_test(trial, _obs(HYP.mu1 if seed % 2 else HYP.mu0, seed))
        return out.tau, out.decision, out.exhausted

    fresh = [outcome(TestKernel(cfg).trial(seed), seed) for seed in seeds]
    forward, reverse = TestKernel(cfg), TestKernel(cfg)
    assert [outcome(forward.trial(seed), seed) for seed in seeds] == fresh
    assert [outcome(reverse.trial(seed), seed) for seed in reversed(seeds)] == fresh[::-1]
    if eps == 1.0 and name != "classical":
        assert forward._first_chunk() > 128  # reused kernels chunk otherwise than fresh ones
    if horizon == 129 and name != "classical":
        assert any(exhausted for _, _, exhausted in fresh)


@pytest.mark.parametrize("eps", [1.0, 5.0])
@pytest.mark.parametrize("name", list(_configs(1.0)))
def test_horizon_boundary(name, eps):
    cfg = _configs(eps)[name]
    for tag in range(6):
        p = HYP.mu0 if tag % 2 else HYP.mu1
        out = _run(cfg, _obs(p, tag))
        assert not out.exhausted
        at = _run(replace(cfg, horizon=out.tau), _obs(p, tag))
        assert (at.tau, at.decision, at.exhausted) == (out.tau, out.decision, False)
        if out.tau > 1:
            before = _run(replace(cfg, horizon=out.tau - 1), _obs(p, tag))
            assert (before.tau, before.decision, before.exhausted) == (out.tau - 1, None, True)


# the private configs run with their noise swapped for zero noise
ZERO_NOISE = {
    "classical": TestConfig(HYP, 0.05, 0.05, Classical()),
    "laplace": TestConfig(HYP, 0.05, 0.05, Laplace(1.0)),
    "gaussian": TestConfig(HYP, 0.05, 0.05, Gaussian(*gaussian_scales(1.0)), gamma=0.5),
    # a 0 bit crosses the lower threshold at n = 1 and a 1 bit the upper one
    "wide-budgets": TestConfig(HYP, 0.9, 0.9, Classical()),
}


@pytest.mark.parametrize("name", list(ZERO_NOISE))
def test_zero_noise_kernel_matches_reference_mechanism(name, monkeypatch, swap_noise):
    """Without noise nothing is left to luck: on the queries S_i/i and the
    thresholds of `threshold_lower` and `threshold_upper`, the scalar
    mechanism `outside_interval.run` and the kernel stop at the same step on
    the same side, at any chunk size and horizon."""
    swap_noise(NoiseSpec.zero())
    cfg = ZERO_NOISE[name]
    schedule = outside_interval.ThresholdSchedule(
        functools.cache(lambda i: threshold_lower(cfg, i)),
        functools.cache(lambda i: threshold_upper(cfg, i)),
    )
    decided = set()
    for horizon in (1, 7, 128, 129, cfg.horizon):
        kernel = TestKernel(replace(cfg, horizon=horizon))
        for tag in range(20):
            p = HYP.mu1 if tag % 2 else HYP.mu0
            sums = itertools.accumulate(_obs(p, tag))
            queries = (s / i for i, s in enumerate(sums, start=1))
            ref = outside_interval.run(queries, schedule, NoiseSpec.zero(), derive(StreamKey(0)),
                                       horizon)
            want = (ref.halt_index, None if ref.side is None else ref.side.value, ref.exhausted)
            decided.add(want[1])
            for cap in (1, 5, 4096):
                monkeypatch.setattr(dp_sprt, "_CHUNK_CAP", cap)
                out = run_test(kernel.trial(tag), _obs(p, tag))
                assert (out.tau, out.decision, out.exhausted) == want
    assert {0, 1} <= decided


def _privsprt_z(cfg, seed):
    """Z1 and Z2 of a PrivSPRT trial, one draw at a time."""
    rng_z = derive(StreamKey(seed, substream=Substream.NOISE_Z))
    return [cfg.sigma1 * ndtri(uniform_open(rng_z)) for _ in range(2)]


def _privsprt_steps(cfg, seed, observations):
    """(stat + Y1, stat + Y2) at each step of a PrivSPRT trial, one step at
    a time: one clamped LLR and then two draws of the Y stream per step, on
    the streams that `PrivSprtKernel(cfg).trial(seed)` keys."""
    rng_y = derive(StreamKey(seed, substream=Substream.NOISE_Y))
    l1, l0 = llr_steps(cfg.hypotheses)
    stat = 0.0
    for bit in itertools.islice(observations, cfg.horizon):
        stat += min(max(l1 if bit else l0, -cfg.trunc_a), cfg.trunc_a)
        y1, y2 = (cfg.sigma2 * ndtri(uniform_open(rng_y)) for _ in range(2))
        yield stat + y1, stat + y2


def _privsprt_reference(cfg, seed, observations):
    """(tau, decision, exhausted) of the per-step rule: the upper check
    stat + Y1 >= b + Z1 first, then stat + Y2 <= -a + Z2."""
    z1, z2 = _privsprt_z(cfg, seed)
    hi, lo = cfg.thresh_b + z1, -cfg.thresh_a + z2
    for n, (up, down) in enumerate(_privsprt_steps(cfg, seed, observations), start=1):
        if up >= hi:
            return n, 1, False
        if down <= lo:
            return n, 0, False
    return cfg.horizon, None, True


def _noisy_privsprt(eps, horizon, trunc_a, thresh=1e9):
    cfg = PrivSprtConfig.from_epsilon(HYP, eps, trunc_a=trunc_a, horizon=horizon)
    return replace(cfg, thresh_a=thresh, thresh_b=thresh)


@pytest.mark.parametrize("trunc_a", [0.5, 1.0])
@pytest.mark.parametrize("horizon", [700, 1500])
@pytest.mark.parametrize("eps", [0.5, 1.0, 5.0])
def test_noisy_privsprt_kernel_matches_reference_loop(eps, horizon, trunc_a, monkeypatch):
    """With noise, the kernel stops where the per-step loop stops, on the
    same side, also after chunks it passes over without transforming their
    noise; a fresh kernel chunks 128, 256, 512, 1024, ..., so the horizon
    700 cuts the third chunk and 1500 the fourth, every chunk here is one
    piece, and the thresholds grow with the seed, so trials decide early,
    late, or not at all. At A = 1/2 every partial LLR sum is a multiple of
    1/2, exact in any order of addition, so the loop's running sum equals
    the kernel's carry + cumsum bit for bit. At A = 1 the two may round
    apart; that this changes no outcome here is checked, not guaranteed."""
    drawn, transformed = [], []
    monkeypatch.setattr(baselines, "uniform_open",
                        lambda rng, size: drawn.append(size) or uniform_open(rng, size))
    monkeypatch.setattr(baselines, "ndtri",
                        lambda u, *args: transformed.append(np.size(u)) or ndtri(u, *args))
    seen = set()
    for seed in range(40):
        cfg = _noisy_privsprt(eps, horizon, trunc_a, thresh=20.0 * trunc_a * (seed + 1))
        p = HYP.mu1 if seed % 2 else HYP.mu0
        out = run_privsprt(PrivSprtKernel(cfg).trial(seed), _obs(p, seed))
        want = _privsprt_reference(cfg, seed, _obs(p, seed))
        assert (out.tau, out.decision, out.exhausted) == want, seed
        seen.add("exhausted" if want[2] else "later" if want[0] > 512 else "first chunk")
    assert seen == {"first chunk", "later", "exhausted"}
    assert sum(transformed) < sum(drawn)  # some chunks were passed over


def _addend(total, z):
    """A double t with t + z == total in floating point, or None."""
    near = (np.float64(total - z).view(np.int64) + np.arange(-8, 9)).view(np.float64)
    return next((float(t) for t in near if t + z == total), None)


def _tie_at_extreme(cfg, side, start, stop):
    """The config, seed, success probability and outcome of a trial whose
    check on `side` fires exactly at its most extreme value over steps
    start+1..stop: the threshold is set so that b + Z1 equals the largest
    stat + Y1 there (or -a + Z2 the smallest stat + Y2). Takes the first
    seed whose extreme is first reached in that span and has such a b (or
    a) among the doubles."""
    upper = side == "upper"
    p = HYP.mu1 if upper else HYP.mu0
    for seed in range(20):
        values = [v[0 if upper else 1] for v in _privsprt_steps(cfg, seed, _obs(p, seed))]
        tie = max(values[start:stop]) if upper else min(values[start:stop])
        n = next(i for i, v in enumerate(values, 1) if (v >= tie if upper else v <= tie))
        t = _addend(tie, _privsprt_z(cfg, seed)[0 if upper else 1])
        if n > start and t is not None:
            cfg = replace(cfg, thresh_b=t) if upper else replace(cfg, thresh_a=-t)
            return cfg, seed, p, (n, 1 if upper else 0, False)
    raise AssertionError("no seed puts the extreme in the span")


# a statistic of steps of 1e-300 cannot move noise of sigma 1 (stat + Y is
# Y), so a piece's bound exceeds its largest value by the slack alone
FLAT_PRIVSPRT = PrivSprtConfig(HYP, 1.0, 1.0, trunc_a=1e-300, thresh_a=1e9, thresh_b=1e9,
                               horizon=1500)


@pytest.mark.parametrize("flat", [False, True], ids=["noisy", "flat"])
@pytest.mark.parametrize("span", [(0, 512), (512, 1536)], ids=["chunk1", "chunk2"])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_privsprt_threshold_on_a_reached_value_matches_reference(side, span, flat):
    """A threshold on a value the trial reaches, its extreme over steps 1
    to 512 or 513 to 1536 (the ids name the 512-step chunks of an earlier
    schedule; a fresh kernel now ends chunks at 128, 384, 896 and 1920):
    the bound of the piece holding that step then meets the threshold with
    little to spare (with the slack alone when the statistic is flat), and
    the check must fire at that very step."""
    cfg = FLAT_PRIVSPRT if flat else _noisy_privsprt(1.0, 1500, 0.5)
    cfg, seed, p, want = _tie_at_extreme(cfg, side, *span)
    assert _privsprt_reference(cfg, seed, _obs(p, seed)) == want
    out = run_privsprt(PrivSprtKernel(cfg).trial(seed), _obs(p, seed))
    assert (out.tau, out.decision, out.exhausted) == want


def _counted_skips(monkeypatch, swap=None):
    """The words each `baselines.skip` call skipped; `swap` replaces it."""
    skipped = []
    fn = swap or baselines.skip
    monkeypatch.setattr(baselines, "skip", lambda rng, words, drawn:
                        skipped.append(words) or fn(rng, words, drawn))
    return skipped


@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_multi_piece_privsprt_chunks_match_reference_loop(eps, monkeypatch):
    """At a horizon of 9000 a fresh kernel runs chunks of 1024, 2048 and
    4096 steps, of two, four and eight pieces, before a cut one. With
    thresholds of 10 to 65 noise sigmas, the leading pieces of those chunks
    lie beyond the reach of any noise value, and their Y words are skipped;
    the kernel still stops where the per-step loop stops, in a piece after
    skipped ones, or not at all."""
    skipped = _counted_skips(monkeypatch)
    seen = set()
    sigma2 = _noisy_privsprt(eps, 9000, 1.0).sigma2
    for seed in range(12):
        cfg = _noisy_privsprt(eps, 9000, 1.0, thresh=(10 + 5 * seed) * sigma2)
        p = HYP.mu1 if seed % 2 else HYP.mu0
        skipped.clear()
        out = run_privsprt(PrivSprtKernel(cfg).trial(seed), _obs(p, seed))
        want = _privsprt_reference(cfg, seed, _obs(p, seed))
        assert (out.tau, out.decision, out.exhausted) == want, seed
        if want[2]:
            seen.add("exhausted")
        elif sum(skipped) and 896 < want[0] <= 8064:
            seen.add("after a skip, in a multi-piece chunk")
    assert seen == {"exhausted", "after a skip, in a multi-piece chunk"}


SPAN_2048 = (1920, 3968)  # the fifth chunk of a fresh kernel, four pieces


@pytest.mark.parametrize("flat", [False, True], ids=["noisy", "flat"])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_privsprt_tie_at_extreme_inside_a_multi_piece_chunk(side, flat):
    """A threshold on the trial's extreme over the 2048-step chunk: the
    noisy statistic meets it at one step of one piece, after pieces the
    kernel skips (noisy) or passes over without transforming (flat), and
    the check must fire at that very step."""
    base = replace(FLAT_PRIVSPRT, horizon=4000) if flat else _noisy_privsprt(1.0, 4000, 0.5)
    cfg, seed, p, want = _tie_at_extreme(base, side, *SPAN_2048)
    assert _privsprt_reference(cfg, seed, _obs(p, seed)) == want
    out = run_privsprt(PrivSprtKernel(cfg).trial(seed), _obs(p, seed))
    assert (out.tau, out.decision, out.exhausted) == want


def _discard(rng, words, drawn):
    rng.bit_generator.random_raw(words)


def test_privsprt_skip_equals_drawing_the_words(monkeypatch):
    """The kernel with `skip` swapped for drawing and discarding the words
    gives the same outcomes, and leaves its Y generator in the same state,
    after every trial of one reused kernel at eps 0.5."""
    cfg = _noisy_privsprt(0.5, 1_000_000, 1.0, thresh=1872.3326709712444)
    runs = {}
    for name, swap in (("skip", None), ("draw", _discard)):
        skipped = _counted_skips(monkeypatch, swap)
        kernel, runs[name] = PrivSprtKernel(cfg), []
        for seed in range(10):
            out = run_privsprt(kernel.trial(seed), _obs(HYP.mu1 if seed % 2 else HYP.mu0, seed))
            st = kernel._rngs[0].bit_generator.state
            runs[name].append((out, tuple(st["state"]["counter"]), st["buffer_pos"],
                               kernel._rngs[0].bit_generator.random_raw(4).tolist()))
        assert sum(skipped) > 0
    assert runs["skip"] == runs["draw"]


@pytest.mark.parametrize("name", ["classical", "laplace", "gaussian", "laplace_sub"])
def test_tables_match_thresholds_bit_for_bit(name):
    horizon = 10_000
    cfg = replace(_configs(1.0)[name], horizon=horizon)
    kernel = TestKernel(cfg)
    sizes = []
    start = 0
    # ask for the tables chunk by chunk, as runs do: they grow at each chunk
    # end and stop at the horizon
    for stop in [128, 384, 896, 1920, 3968, 8064, 12160]:
        stop = min(stop, horizon)
        included = np.arange(start + 1, stop + 1) // 3  # includes 0: no comparison there
        lower, upper = kernel._thresholds(start, stop, included)
        sizes.append(kernel._lo.size)
        for n in (start + 1, start + 2, stop - 1, stop):
            m = int(included[n - start - 1]) if name == "laplace_sub" else None
            assert lower[n - start - 1] == threshold_lower(cfg, n, included=m)
            assert upper[n - start - 1] == threshold_upper(cfg, n, included=m)
        start = stop
    assert sizes == [128, 384, 896, 1920, 3968, 8064, horizon]


class _FloatWords:
    """A subsampling generator whose raw words stand for ``random() < rate``:
    0 for a kept step and 2^64 - 1 for a dropped one, one word per step."""

    def __init__(self, rng, rate):
        self.bit_generator, self._rng, self._rate = self, rng, rate

    def random_raw(self, k):
        return np.where(self._rng.random(k) < self._rate, np.uint64(0), np.uint64(2**64 - 1))


class _FloatSubKernel(TestKernel):
    """The subsampled rule keeping a step when ``random() < rate``."""

    def _checks(self, chunks, rng_y=None, rng_z=None, rng_b=None):
        return super()._checks(chunks, rng_y, rng_z, _FloatWords(rng_b, self._res.rate))


@pytest.mark.parametrize("rate", [0.707, 0.1, 1.0])
def test_subsampling_from_raw_words_matches_the_float_compare(rate):
    """The subsampled rule keeps a step when its raw word lies at or below
    an inclusive bound; outcomes, included counts and the subsampling
    generator's state after each trial equal those of keeping it when
    ``random() < rate``, at rate 1.0 too, where the bound is 2^64 - 1."""
    cfg = TestConfig(HYP, 0.05, 0.05, LaplaceSub(1.0, rate))
    raw, ref = TestKernel(cfg), _FloatSubKernel(cfg)
    for seed in range(24):
        p = HYP.mu1 if seed % 2 else HYP.mu0
        got = run_test(raw.trial(seed), _obs(p, seed))
        assert got == run_test(ref.trial(seed), _obs(p, seed))
        after = [kernel._rngs[2].bit_generator.state for kernel in (raw, ref)]
        assert repr(after[0]) == repr(after[1])


def _plan(n_trials, eps=5.0, truths=(0,)):
    cells = tuple(PlannedVariant(f"{name}@eps={eps:g}", cfg, eps)
                  for name, cfg in _configs(eps).items())
    return ExperimentPlan(truths, cells, n_trials, 31)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_plan_over_both_truths_equals_a_plan_per_truth(workers):
    """A plan over truths (0, 1) gives, record for record, what one plan
    per truth gives, truth-major in the plan's order, at any worker count;
    its cells include PrivSPRT and the subsampled rule."""
    apart = [run_experiment(_plan(23, truths=(t,)), workers=1) for t in (0, 1)]
    assert run_experiment(_plan(23, truths=(0, 1)), workers=workers) == apart[0] + apart[1]
    assert run_experiment(_plan(23, truths=(1, 0)), workers=workers) == apart[1] + apart[0]
    assert {r.variant.variant_id.split("@")[0] for r in apart[0]} >= {"privsprt", "laplace_sub"}


def test_records_do_not_depend_on_workers_or_blocks():
    by_count = {}
    for n_trials in (1, 7, 257):
        serial = run_experiment(_plan(n_trials), workers=1)
        pooled = run_experiment(_plan(n_trials), workers=2)
        assert [r.trials for r in serial] == [r.trials for r in pooled]
        assert [r.stats for r in serial] == [r.stats for r in pooled]
        by_count[n_trials] = [r.trials for r in serial]
    # a trial's record does not depend on which block ran it
    for cell in range(len(by_count[1])):
        assert by_count[7][cell][:1] == by_count[1][cell]
        assert by_count[257][cell][:7] == by_count[7][cell]
