"""Reference implementations that only the tests call.

The simulator synthesizes and evaluates whole blocks of chirps, steps
every radar's policy at once on stacked rows, and solves the Nash game
on all support pairs at once, in closed form, or on all joint actions at
once, from the (radars, subbands) estimates; these are the per-chirp,
per-radar, per-profile and per-pair definitions and the dense game
tables those block operations are checked against, plus small helpers
that no program path needs. The program passes strategies as
(players, subbands) probability rows; the per-strategy objects here
(``MixedStrategy``, ``StrategyProfile``) serve only these references.
Seeded tests depend on the order of each function's random draws: keep it.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

import hopsim
import hopsim.hopping as hopping
import hopsim.signal as sig
import hopsim.sim as sim
from hopsim.cli import (
    RunManifest,
    _emit_seed,
    _sha256,
    config_document,
)
from hopsim.game import (
    PROB_ATOL,
    PURE_ENUM_GUARD,
    WELFARE_TIE_ATOL,
    CapacityError,
    JointDistribution,
    _candidates_2p,
    check_simplex,
)
from hopsim.signal import C, ChirpParams, Target
from hopsim.sim import ScenarioConfig, overlap_geometry, run_scenario

# Default tolerance (dB) for equilibrium checks.
EQ_TOL_DB = 1e-6


def render_config(config: ScenarioConfig) -> str:
    """YAML document reproducing the config, defaults included."""
    return yaml.safe_dump(config_document(config), sort_keys=False)


def bundled_config_path(name: str = "table1") -> Path:
    return Path(hopsim.__file__).parent / "data" / f"{name}.cfg"


def subband_start_hz(params: ChirpParams, a) -> np.ndarray | float:
    return params.f_c + np.asarray(a) * params.subband_hz


def hop_offsets_hz(params: ChirpParams, a) -> np.ndarray | float:
    """Delta-b frequency shift of subband index a relative to f_c."""
    return np.asarray(a) * params.subband_hz


def total_bandwidth(params: ChirpParams) -> float:
    return params.n_subbands * params.subband_hz


def fine_bin_m(params: ChirpParams) -> float:
    """Range resolution of the synthetic bandwidth of all subbands."""
    return C / (2.0 * total_bandwidth(params))


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over subband indices."""

    probs: np.ndarray

    def __post_init__(self):
        if np.ndim(self.probs) != 1 or np.size(self.probs) < 1:
            raise ValueError("strategy must be a non-empty 1-D probability vector")
        object.__setattr__(self, "probs", check_simplex(self.probs))

    @property
    def n_subbands(self) -> int:
        return self.probs.size


def pure_strategy(action: int, n_subbands: int) -> MixedStrategy:
    p = np.zeros(n_subbands)
    p[action] = 1.0
    return MixedStrategy(p)


@dataclass(frozen=True)
class StrategyProfile:
    """One mixed strategy per radar."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        strats = tuple(self.strategies)
        if len(strats) < 1:
            raise ValueError("profile needs at least one strategy")
        sizes = {s.n_subbands for s in strats}
        if len(sizes) != 1:
            raise ValueError("strategies disagree on the number of subbands")
        object.__setattr__(self, "strategies", strats)

    @property
    def n_subbands(self) -> int:
        return self.strategies[0].n_subbands


def uniform_policy(n_subbands: int) -> MixedStrategy:
    if n_subbands < 1:
        raise ValueError("need at least one subband")
    return MixedStrategy(np.full(n_subbands, 1.0 / n_subbands))


def profile_rows(profile: StrategyProfile) -> np.ndarray:
    """The profile as (players, subbands) strategy rows, as the solver returns it."""
    return np.array([s.probs for s in profile.strategies])


def rows_profile(rows: np.ndarray) -> StrategyProfile:
    """(players, subbands) strategy rows as a profile."""
    return StrategyProfile(tuple(MixedStrategy(p) for p in rows))


def pure_action(p: MixedStrategy) -> int | None:
    """Action index if the strategy is a point mass, else None."""
    a = int(np.argmax(p.probs))
    return a if p.probs[a] >= 1.0 - PROB_ATOL else None


def support_key(profile: StrategyProfile) -> tuple[tuple[int, ...], ...]:
    """Each strategy's support, the subbands it plays with probability > 0."""
    return tuple(tuple(int(i) for i in np.flatnonzero(s.probs > 0.0))
                 for s in profile.strategies)


def pure_actions(profile: StrategyProfile) -> tuple[int, ...] | None:
    """Joint action if every strategy of the profile is a point mass, else None."""
    acts = tuple(pure_action(s) for s in profile.strategies)
    return None if any(a is None for a in acts) else acts


@dataclass(frozen=True)
class InterferenceLink:
    source: int           # interfering radar index
    inr_db: float         # interference-to-noise ratio at the victim on collision

    def __post_init__(self):
        if not np.isfinite(self.inr_db):
            raise ValueError("INR must be finite")


def tx_chirp_phase(params: ChirpParams, f_k: float, t) -> np.ndarray | float:
    """Instantaneous transmit phase (rad) at fast time t within one chirp."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t >= params.active_s):
        raise ValueError("t outside the active sweep")
    out = 2.0 * np.pi * (f_k * t + 0.5 * params.slope * t * t)
    return out if out.ndim else float(out)


def echo_terms(params: ChirpParams, tgt: Target, noise_power: float):
    rbar, eps0 = sig.coarse_decompose(params, tgt.range_m)
    f_r = params.beat_hz(tgt.range_m)
    f_d = params.doppler_cycles(tgt.velocity_mps)
    amp = np.sqrt(noise_power * sig.db_power(tgt.snr_db))
    return rbar, eps0, f_r, f_d, amp


def dechirped_echo(params: ChirpParams, tgt: Target, k: int, db_k: float,
                   noise_power: float = 1.0, phase0: float = 0.0) -> np.ndarray:
    """Post-mixer echo samples of one chirp; ``db_k`` is the hop offset (Hz)."""
    delay = (2.0 / C) * (tgt.range_m + k * tgt.velocity_mps * params.pri_s)
    if not 0.0 <= delay < params.active_s:
        raise ValueError("round-trip delay outside the chirp: target beyond unambiguous range")
    rbar, eps0, f_r, f_d, amp = echo_terms(params, tgt, noise_power)
    t = np.arange(params.n_samples) / params.adc_hz
    hop = -2.0 * np.pi * (2.0 * rbar / C
                          + 2.0 * (eps0 + k * tgt.velocity_mps * params.pri_s) / C) * db_k
    phase = -2.0 * np.pi * f_r * t + 2.0 * np.pi * f_d * k + hop + phase0
    return amp * np.exp(1j * phase)


def echo_frame(params: ChirpParams, tgt: Target, hops_hz: np.ndarray,
               noise_power: float = 1.0, phase0: float = 0.0, k0: int = 0) -> np.ndarray:
    """Echo samples for a block of chirps, (N_s, K).

    Fast time and slow time separate into a rank-1 product: the hop term
    of the dechirped echo carries no fast-time dependence.
    """
    hops = np.asarray(hops_hz, dtype=float)
    ks = k0 + np.arange(hops.size)
    delays = (2.0 / C) * (tgt.range_m + ks * tgt.velocity_mps * params.pri_s)
    if np.any(delays < 0) or np.any(delays >= params.active_s):
        raise ValueError("round-trip delay outside the chirp: target beyond unambiguous range")
    rbar, eps0, f_r, f_d, amp = echo_terms(params, tgt, noise_power)
    t = np.arange(params.n_samples) / params.adc_hz
    fast = amp * np.exp(-2j * np.pi * f_r * t)
    slow = np.exp(1j * (2.0 * np.pi * f_d * ks
                        - 2.0 * np.pi * (2.0 * rbar / C
                                         + 2.0 * (eps0 + ks * tgt.velocity_mps * params.pri_s) / C)
                        * hops
                        + phase0))
    return np.outer(fast, slow)


def dechirped_interference(victim: ChirpParams, link: InterferenceLink,
                           source: ChirpParams, k: int, collide: bool,
                           rng: np.random.Generator,
                           noise_power: float = 1.0) -> np.ndarray:
    """Cross-radar interference samples for one victim chirp.

    Zero when the subbands do not collide. On collision the residual
    chirp is scaled to the configured INR with a fresh random phase.
    """
    if not collide:
        return np.zeros(victim.n_samples, dtype=complex)
    amp = np.sqrt(noise_power * 10.0 ** (link.inr_db / 10.0))
    phi = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(victim.n_samples) / victim.adc_hz
    return amp * np.exp(1j * phi) * np.exp(1j * np.pi * (victim.slope - source.slope) * t * t)


def compose_received(echoes, interference, noise_power: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Sum of components plus circularly-symmetric complex Gaussian noise."""
    parts = list(echoes) + list(interference)
    lengths = {np.asarray(p).shape for p in parts}
    if len(lengths) > 1:
        raise ValueError("component length mismatch")
    if parts:
        shape = np.asarray(parts[0]).shape
        total = np.sum(parts, axis=0).astype(complex)
    else:
        shape = (0,)
        total = np.zeros(shape, dtype=complex)
    if noise_power < 0:
        raise ValueError("noise power must be non-negative")
    if noise_power > 0 and total.size:
        sigma = np.sqrt(noise_power / 2.0)
        total = total + sigma * (rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape))
    return total


def sampled_genie_powers(echo: np.ndarray, intf: np.ndarray, noise_power: float,
                         rng: np.random.Generator):
    """Genie-mode measured powers of a block of chirps, from synthesized samples.

    Adds circular complex Gaussian noise to the (N_s, K) echo block and
    returns, per chirp, mean |echo + noise|^2 and mean |intf|^2: the
    sample-path reference for the simulator's drawn clean power and
    Gram-form interference power.
    """
    sigma = np.sqrt(noise_power / 2.0)
    nz = sigma * (rng.standard_normal(echo.shape) + 1j * rng.standard_normal(echo.shape))
    return np.mean(np.abs(echo + nz) ** 2, axis=0), np.mean(np.abs(intf) ** 2, axis=0)


def detect_interference_samples(samples: np.ndarray, noise_power: float,
                                factor: float = sig.DEFAULT_DETECTION_FACTOR):
    """The threshold detector as it was before it returned powers.

    Returns the flags and the clean and interference sample arrays, whose
    mean |.|^2 per chirp ``signal.detect_interference`` returns.
    """
    if factor <= 1:
        raise ValueError("factor must exceed 1")
    x = np.asarray(samples)
    spec2 = np.abs(np.fft.fft(x, axis=0, norm="ortho")) ** 2
    envelope = np.clip(np.max(spec2, axis=0) - np.median(spec2, axis=0),
                       0.0, None) / x.shape[0]
    threshold = (np.sqrt(envelope) + np.sqrt(factor * noise_power)) ** 2
    hot = np.abs(x) ** 2 > threshold
    flag = hot.mean(axis=0) > 0.01
    clean = np.where(hot, 0.0, x)
    return flag, clean, x - clean


def delay_outside_chirp(params: ChirpParams, tgt: Target, ks: np.ndarray) -> np.ndarray:
    """Per chirp index in ``ks``, whether the target's round-trip delay leaves [0, T_a).

    The elementwise form of ``signal.first_chirp_outside``, whose answer
    must be this test's first True over a whole frame.
    """
    delays = (2.0 / C) * (tgt.range_m + ks * tgt.velocity_mps * params.pri_s)
    return (delays < 0) | (delays >= params.active_s)


def echo_slow(params: ChirpParams, tgt: Target, hops: np.ndarray, phase0: float, k0: int):
    """Per-chirp phase (K,) of one target's echo: the coefficient of its fast-time tone.

    The per-target form of ``signal.echo_slow``, which stacks radars and
    targets and must equal it bit for bit.
    """
    ks = k0 + np.arange(hops.size)
    rbar, eps0, _, f_d, _ = echo_terms(params, tgt, 1.0)
    return np.exp(1j * (2.0 * np.pi * f_d * ks
                        - 2.0 * np.pi * (2.0 * rbar / C
                                         + 2.0 * (eps0 + ks * tgt.velocity_mps * params.pri_s) / C)
                        * hops
                        + phase0))


def radar_measure_episode(params, targets, target_phases, subbands, k0, amps, rows, gram,
                          noise_power, rng, genie_flags=None, hop_weights=None,
                          detection_factor=sig.DEFAULT_DETECTION_FACTOR, *, workspace):
    """``signal.measure_episode`` of one radar from its targets, phases and link
    amplitudes, building the coefficients and Gram energies as ``run_scenario``
    builds a one-radar group's. Detector mode draws the episode's (2, N_s, K)
    noise block from ``rng`` first."""
    n_t = len(targets)
    terms = sig.echo_chirp_terms(params, sig.echo_constants(params, [targets]), k0,
                                 subbands.size)
    slow = sig.echo_slow(params, terms, subbands[None],
                         np.asarray(target_phases, dtype=float)[None])[0]
    coeffs = np.concatenate([slow, amps])
    genie = None if genie_flags is None else (
        genie_flags, sig.column_energy(gram[None, :n_t, :n_t], slow[None])[0],
        sig.column_energy(gram[None, n_t:, n_t:], np.asarray(amps)[None])[0] / params.n_samples)
    draws = rng if genie is not None else rng.standard_normal((2, params.n_samples, subbands.size))
    return sig.measure_episode(rows, coeffs, noise_power, draws, genie=genie,
                               hop_weights=hop_weights, detection_factor=detection_factor,
                               workspace=workspace)


def in_thread_noise(order: list, episodes: int):
    """``sim._prefetched_noise`` without its thread: each block is drawn on the
    calling thread when it is asked for, as ``measure_episode`` once filled
    its noise, the real parts with one call and then the imaginary parts
    with another; a fresh array per block."""
    for rng, shape in itertools.chain.from_iterable(itertools.repeat(order, episodes)):
        block = np.empty((2, *shape))
        for part in block:
            rng.standard_normal(out=part)
        yield block


def measure_episode_inline(ch, targets, target_phases, hops, k0, k_ep, collided, amps,
                           sources, noise, rng, genie_detection, detection_factor):
    """The per-episode measurement branch ``run_scenario`` once inlined.

    ``amps`` lists each linked source's amplitudes (K,) in ascending source
    order, ``sources`` their ``ChirpParams`` and ``collided`` the genie's
    summed overlap weights. Echoes are summed ``echo_frame`` blocks and
    interference is summed outer products of residual chirps and
    amplitudes. Genie mode takes the clean power's draw from the echo
    block's column norms and the interference power from a 3-operand Gram
    form; detector mode adds noise and detects. Returns the flags, clean
    and interference powers, the noiseless block and the received samples
    (None in genie mode).
    """
    t = np.arange(ch.n_samples) / ch.adc_hz
    bases = np.reshape([np.exp(1j * np.pi * (ch.slope - src.slope) * t * t) for src in sources],
                       (len(sources), ch.n_samples))
    echo = np.zeros((ch.n_samples, k_ep), dtype=complex)
    for tgt, ph in zip(targets, target_phases):
        echo += echo_frame(ch, tgt, hops, noise_power=noise, phase0=float(ph), k0=k0)
    intf = np.zeros_like(echo)
    for base, amp in zip(bases, amps):
        intf += np.outer(base, amp)
    samples = None
    if genie_detection:
        energy = np.sum(np.abs(echo) ** 2, axis=0)
        n = ch.n_samples
        p_clean = noise / (2 * n) * rng.noncentral_chisquare(2 * n, 2.0 * energy / noise)
        a = np.reshape(amps, (len(amps), k_ep))
        intf_gram = np.conj(bases) @ bases.T / n
        p_int = np.real(np.einsum("tk,tl,lk->k", np.conj(a), intf_gram, a))
        flags = collided > 0.0
    else:
        sigma = np.sqrt(noise / 2.0)
        samples = echo + intf + sigma * (rng.standard_normal(echo.shape)
                                         + 1j * rng.standard_normal(echo.shape))
        flags, clean, est = detect_interference_samples(samples, noise, detection_factor)
        p_clean = np.mean(np.abs(clean) ** 2, axis=0)
        p_int = np.mean(np.abs(est) ** 2, axis=0)
    return flags, p_clean, p_int, echo + intf, samples


def fine_range_doppler(rfft: np.ndarray, hops_hz: np.ndarray, coarse_bin: int,
                       v_grid: np.ndarray, eps_grid: np.ndarray,
                       params: ChirpParams) -> np.ndarray:
    """Matched-filter magnitude surface (velocity x fine range), in dB.

    Correlates the slow-time sequence at one coarse bin against the
    hop-compensated Doppler template for each grid point. The known
    coarse-range hop phase is part of the template, so the surface peaks
    at the target's true (velocity, fine offset).
    """
    v = np.asarray(v_grid, dtype=float)
    eps = np.asarray(eps_grid, dtype=float)
    lim = C / (4.0 * params.subband_hz) + 1e-9
    if np.any(np.abs(eps) > lim):
        raise ValueError("fine-range grid outside [-c/(4 B_a), c/(4 B_a)]")
    hops = np.asarray(hops_hz, dtype=float)
    z = np.asarray(rfft)[coarse_bin, :]
    k = np.arange(z.size)
    rbar = coarse_bin * params.range_bin_m
    f_d = -2.0 * v * params.pri_s * params.f_c / C
    # template phase: 2pi f_d k - 2pi (2/c)(rbar + eps + k v T_pri) db_k
    vk = np.exp(1j * (2.0 * np.pi * np.outer(f_d, k)
                      - 2.0 * np.pi * (2.0 / C) * params.pri_s
                      * np.outer(v, k * hops)))
    ek = np.exp(-2j * np.pi * (2.0 / C) * np.outer(rbar + eps, hops))
    corr = np.einsum("vk,ek,k->ve", np.conj(vk), np.conj(ek), z)
    return 20.0 * np.log10(np.abs(corr) + 1e-300)


def grouped_hop_sums(columns: np.ndarray, hops_hz: np.ndarray, v: float, params: ChirpParams,
                     k0: int = 0):
    """Doppler-compensated sums of the (N, K) ``columns`` over each distinct hop.

    Column k, chirp k0 + k of its frame, is weighted by conj(v_k) with
    v_k = exp(j2pi f_d k - j2pi (2/c) k v T_pri h_k) and added into the
    column of its hop among the sorted distinct hops. Exact for any hop
    sequence. Returns the (N, H) sums and the distinct hops.
    """
    hops = np.asarray(hops_hz, dtype=float)
    k = k0 + np.arange(hops.size)
    f_d = -2.0 * v * params.pri_s * params.f_c / C
    vk = np.exp(1j * (2.0 * np.pi * (f_d * k)
                      - 2.0 * np.pi * (2.0 / C) * params.pri_s * (v * (k * hops))))
    distinct, group = np.unique(hops, return_inverse=True)
    weights = np.zeros((hops.size, distinct.size), dtype=complex)
    weights[np.arange(hops.size), group] = np.conj(vk)
    return np.asarray(columns) @ weights, distinct


def final_frame_profile(block: np.ndarray, hops_hz: np.ndarray, coarse_bins, v: float,
                        eps_grid, params: ChirpParams) -> sig.FineRangeProfile:
    """A final frame's range profile from its synthesized (N_s, K) samples.

    The range FFT of every chirp, then the Doppler-compensated sum over
    each distinct hop and the phase product: the path the simulator took
    while it still synthesized the final frame, before it summed the
    chirps by hop ahead of a K-times smaller FFT.
    """
    sums, hops = grouped_hop_sums(sig.range_fft(block), hops_hz, v, params)
    return sig.range_profile_at_velocity(sums, hops, coarse_bins, eps_grid, params)


def theoretical_sinr(signal_power: float, interference_power: float,
                     noise_power: float) -> float:
    """Linear SINR; reduces to the SNR when interference_power is zero."""
    if noise_power <= 0:
        raise ValueError("noise power must be positive")
    if signal_power < 0 or interference_power < 0:
        raise ValueError("powers must be non-negative")
    return signal_power / (interference_power + noise_power)


@dataclass(frozen=True)
class EpisodeSchedule:
    """Episode boundaries k_tau within one frame of K chirps."""

    chirps_per_frame: int
    n_episodes: int

    def __post_init__(self):
        if self.n_episodes < 1 or self.chirps_per_frame < 1:
            raise ValueError("chirps_per_frame and n_episodes must be positive")
        if self.chirps_per_frame % self.n_episodes != 0:
            raise ValueError(
                f"chirps per frame {self.chirps_per_frame} not divisible by "
                f"{self.n_episodes} episodes"
            )

    @property
    def chirps_per_episode(self) -> int:
        return self.chirps_per_frame // self.n_episodes

    @property
    def boundaries(self) -> tuple[int, ...]:
        step = self.chirps_per_episode
        return tuple(step * (t + 1) for t in range(self.n_episodes))


def sample_subband(p: MixedStrategy, rng: np.random.Generator) -> int:
    return int(rng.choice(p.n_subbands, p=p.probs))


@dataclass(frozen=True)
class RadarEpisodeStats:
    """One radar's row of ``hopping.EpisodeStats``: (A,) per-subband estimates."""

    sinr_db: np.ndarray
    snr_db: np.ndarray
    hit_sinr_db: np.ndarray
    count: np.ndarray
    clean_count: np.ndarray
    hit_count: np.ndarray

    def __post_init__(self):
        arrays = (self.sinr_db, self.snr_db, self.hit_sinr_db,
                  self.count, self.clean_count, self.hit_count)
        if len({np.asarray(a).shape for a in arrays}) != 1:
            raise ValueError("per-subband arrays must share one shape")
        for name in ("count", "clean_count", "hit_count"):
            if np.any(np.asarray(getattr(self, name)) < 0):
                raise ValueError(f"{name} has negative entries")

    @property
    def n_subbands(self) -> int:
        return np.asarray(self.count).size


@dataclass(frozen=True)
class ChirpMeasurements:
    """One radar's per-chirp detection outputs over one episode."""

    subbands: np.ndarray            # (K,) subband index per chirp
    clean_power: np.ndarray         # (K,) mean |clean|^2
    interference_power: np.ndarray  # (K,) mean |interference estimate|^2
    flagged: np.ndarray             # (K,) bool, interference detected
    noise_power: float

    def __post_init__(self):
        shapes = {np.asarray(a).shape for a in
                  (self.subbands, self.clean_power, self.interference_power, self.flagged)}
        if len(shapes) != 1 or np.asarray(self.subbands).ndim != 1:
            raise ValueError("per-chirp arrays must share one 1-D shape")
        if np.asarray(self.subbands).size < 1:
            raise ValueError("need at least one chirp")
        if self.noise_power <= 0:
            raise ValueError("noise power must be positive")

    @property
    def sinr(self) -> np.ndarray:
        """(K,) linear SINR clean / (interference + noise) per chirp."""
        return np.asarray(self.clean_power) / (
            np.asarray(self.interference_power) + self.noise_power)

    @property
    def snr(self) -> np.ndarray:
        """(K,) linear SNR clean / noise per chirp."""
        return np.asarray(self.clean_power) / self.noise_power


def estimate_episode_sinr(meas: ChirpMeasurements, n_subbands: int) -> RadarEpisodeStats:
    """One radar's per-subband windowed SINR/SNR means over one episode.

    ``meas`` is a ``ChirpMeasurements``, or any record of one radar's chirp
    subbands, flags and linear ``sinr`` and ``snr``.
    """
    sub = np.asarray(meas.subbands, dtype=int)
    flagged = np.asarray(meas.flagged, dtype=bool)

    def mean_by_subband(values, mask):
        counts = np.bincount(sub[mask], minlength=n_subbands)
        out = np.full(n_subbands, np.nan)
        sums = np.bincount(sub[mask], weights=values[mask], minlength=n_subbands)
        nz = counts > 0
        out[nz] = 10.0 * np.log10(np.maximum(sums[nz] / counts[nz], 1e-300))
        return out, counts

    sinr_db, count = mean_by_subband(meas.sinr, np.ones_like(flagged))
    snr_db, clean_count = mean_by_subband(meas.snr, ~flagged)
    hit_sinr_db, hit_count = mean_by_subband(meas.sinr, flagged)
    return RadarEpisodeStats(sinr_db=sinr_db, snr_db=snr_db, hit_sinr_db=hit_sinr_db,
                             count=count, clean_count=clean_count, hit_count=hit_count)


def stack_stats(rows) -> hopping.EpisodeStats:
    """``hopping.EpisodeStats`` whose row i is ``rows[i]``."""
    return hopping.EpisodeStats(**{
        name: np.array([getattr(r, name) for r in rows])
        for name in ("sinr_db", "snr_db", "hit_sinr_db", "count", "clean_count", "hit_count")})


def radar_stats(stats: hopping.EpisodeStats, i: int) -> RadarEpisodeStats:
    """Row i of stacked stats."""
    return RadarEpisodeStats(stats.sinr_db[i], stats.snr_db[i], stats.hit_sinr_db[i],
                             stats.count[i], stats.clean_count[i], stats.hit_count[i])


def hard_threshold(p: MixedStrategy, kappa: float) -> MixedStrategy:
    """Zero entries at or below kappa, then renormalize."""
    n = p.n_subbands
    if not 0.0 <= kappa < 1.0 / n:
        raise ValueError(f"kappa must lie in [0, 1/{n})")
    keep = p.probs > kappa
    if not np.any(keep):
        raise ValueError("thresholding removed every subband")
    q = np.where(keep, p.probs, 0.0)
    return MixedStrategy(q / q.sum())


@dataclass(frozen=True)
class RadarNoRegretState:
    """Exponential-weights learner state for one radar."""

    loss: np.ndarray
    strategy: MixedStrategy
    tau: int = 1
    c_eta: float = 1.0
    c_gamma: float = 1.0
    kappa: float = hopping.DEFAULT_KAPPA
    loss_clip_db: float = hopping.DEFAULT_LOSS_CLIP_DB
    baseline_delta_db: float | None = None

    def __post_init__(self):
        loss = np.asarray(self.loss, dtype=float)
        if loss.shape != (self.strategy.n_subbands,):
            raise ValueError("loss vector does not match the strategy length")
        if not np.all(np.isfinite(loss)):
            raise ValueError("loss entries must be finite")
        object.__setattr__(self, "loss", loss)


def noregret_update(state: RadarNoRegretState, stats: RadarEpisodeStats) -> RadarNoRegretState:
    """One radar's exponential-weights step, on ``hopping.schedule_params``."""
    n = state.strategy.n_subbands
    if stats.n_subbands != n:
        raise ValueError("stats do not match the strategy length")
    played = np.asarray(stats.count) > 0
    probs = state.strategy.probs
    if np.any(played & (probs <= 0.0)):
        raise RuntimeError("subband reported as played but had probability 0")
    loss = state.loss.copy()
    base = 0.0
    if state.baseline_delta_db is not None:
        snr = np.asarray(stats.snr_db)
        observed = np.isfinite(snr)
        if np.any(observed):
            base = float(np.mean(snr[observed])) - state.baseline_delta_db
    inc = (base - np.asarray(stats.sinr_db)[played]) / probs[played]
    loss[played] += np.clip(inc, -state.loss_clip_db, state.loss_clip_db)
    eta, gamma = hopping.schedule_params(state.tau, n, state.c_eta, state.c_gamma)
    z = -eta * loss
    z -= z.max()  # softmax shift invariance keeps exp() bounded
    w = np.exp(z)
    p_tilde = w / w.sum()
    p = (1.0 - gamma) * p_tilde + gamma / n
    nxt = hard_threshold(MixedStrategy(p), state.kappa)
    return replace(state, loss=loss, strategy=nxt, tau=state.tau + 1)


def per_radar_noregret_update(state: hopping.NoRegretState,
                              stats: hopping.EpisodeStats) -> hopping.NoRegretState:
    """``hopping.noregret_update`` computed one radar at a time by the oracle."""
    steps = []
    for r, i in enumerate(state.radars):
        delta = state.baseline_delta_db[r]
        radar = RadarNoRegretState(
            loss=state.loss[r], strategy=MixedStrategy(state.probs[r]), tau=state.tau,
            c_eta=float(state.c_eta[r]), c_gamma=float(state.c_gamma[r]),
            kappa=float(state.kappa[r]), loss_clip_db=float(state.loss_clip_db[r]),
            baseline_delta_db=None if np.isnan(delta) else float(delta))
        steps.append(noregret_update(radar, radar_stats(stats, i)))
    return replace(state, loss=np.array([s.loss for s in steps]),
                   probs=np.array([s.strategy.probs for s in steps]), tau=state.tau + 1)


@dataclass(frozen=True)
class RadarNashState:
    """Explore-then-commit state for one radar, with its own copy of the
    exchanged estimates: ``hopping.NashHopperState`` one radar at a time.

    Holds the clean-chirp SNR and collision-conditioned SINR estimates of
    every radar, both NaN until first observed. The radar explores until
    ``committed`` is set, which ``radar_nash_commit`` does once
    ``episodes_seen`` reaches ``explore_episodes``.
    """

    player: int
    n_players: int
    n_subbands: int
    snr_est_db: np.ndarray
    hit_sinr_est_db: np.ndarray
    profile: StrategyProfile
    explore_episodes: int
    episodes_seen: int = 0
    committed: MixedStrategy | None = None
    floor_db: float = hopping.DEFAULT_PESSIMISTIC_FLOOR_DB
    solver_mode: str = "auto"

    @property
    def strategy(self) -> MixedStrategy:
        if self.committed is not None:
            return self.committed
        return self.profile.strategies[self.player]

    @classmethod
    def initial(cls, player: int, n_players: int, n_subbands: int,
                explore_episodes: int, **kwargs) -> "RadarNashState":
        """No estimates and the uniform profile."""
        uniform = StrategyProfile(
            tuple(uniform_policy(n_subbands) for _ in range(n_players)))
        nan = np.full((n_players, n_subbands), np.nan)
        return cls(player=player, n_players=n_players, n_subbands=n_subbands,
                   snr_est_db=nan.copy(), hit_sinr_est_db=nan.copy(),
                   profile=uniform, explore_episodes=explore_episodes, **kwargs)


def radar_floored_estimates(state: RadarNashState) -> tuple[np.ndarray, np.ndarray]:
    """The radar's (snr, hit) estimates with the entries not yet observed at its floor."""
    floor = state.floor_db
    return (np.where(np.isnan(state.snr_est_db), floor, state.snr_est_db),
            np.where(np.isnan(state.hit_sinr_est_db), floor, state.hit_sinr_est_db))


def radar_nash_explore_update(state: RadarNashState, all_stats: hopping.EpisodeStats,
                              solved: dict) -> RadarNashState:
    """Fold one episode of exchanged stats into the radar's copy and re-solve.

    ``solved`` maps (floored estimates, solver mode) to the profile already
    solved for that key; radars that pass the same dict for one episode
    share a solve whenever their keys agree. Solves go through
    ``hopping.solve_nash_welfare_max``, where the simulator's go.
    """
    if state.committed is not None:
        raise RuntimeError("explore update after commit")
    if all_stats.count.shape[0] != state.n_players:
        raise ValueError(
            f"need stats from all {state.n_players} radars, got {all_stats.count.shape[0]}"
        )
    snr = np.where(all_stats.clean_count > 0, all_stats.snr_db, state.snr_est_db)
    hit = np.where(all_stats.hit_count > 0, all_stats.hit_sinr_db, state.hit_sinr_est_db)
    nxt = replace(state, snr_est_db=snr, hit_sinr_est_db=hit,
                  episodes_seen=state.episodes_seen + 1)
    snr, hit = radar_floored_estimates(nxt)
    key = (snr.shape, snr.tobytes(), hit.tobytes(), nxt.solver_mode)
    if key not in solved:
        rows = hopping.solve_nash_welfare_max(snr, hit, mode=nxt.solver_mode)
        solved[key] = rows_profile(rows)
    return replace(nxt, profile=solved[key])


def radar_nash_commit(state: RadarNashState) -> RadarNashState:
    """Freeze the radar's slice of its last explore update's profile."""
    if state.episodes_seen != state.explore_episodes:
        raise RuntimeError(
            f"commit after {state.episodes_seen} exploration episodes, "
            f"expected {state.explore_episodes}"
        )
    return replace(state, committed=state.profile.strategies[state.player])


class PerRadarNash:
    """The per-radar Nash loop, run in place of ``sim.nash_explore_update``
    (``explore_update``) and ``sim.nash_commit`` (``commit``).

    On its first update it gives each row of the stacked state its own
    ``RadarNashState``, then keeps them across the run and returns the
    stacked state with their strategies and commit flags. Each episode's
    updates share one ``solved`` dict; ``keys`` lists its size, the
    distinct (floored estimate, mode) keys, and ``updates`` the number of
    radars that explored, per episode.
    """

    def __init__(self):
        self.radars, self.keys, self.updates = None, [], []

    def explore_update(self, state: hopping.NashHopperState,
                       stats: hopping.EpisodeStats) -> hopping.NashHopperState:
        n, a = state.snr_est_db.shape
        if self.radars is None:
            self.radars = [RadarNashState.initial(
                int(i), n, a, int(state.explore_episodes[r]), floor_db=float(state.floor_db[r]),
                solver_mode=str(state.solver_mode[r])) for r, i in enumerate(state.radars)]
        solved = {}
        exploring = [r for r, radar in enumerate(self.radars) if radar.committed is None]
        for r in exploring:
            self.radars[r] = radar_nash_explore_update(self.radars[r], stats, solved)
        self.keys.append(len(solved))
        self.updates.append(len(exploring))
        return self.stacked(replace(state, episodes_seen=state.episodes_seen + 1))

    def commit(self, state: hopping.NashHopperState) -> hopping.NashHopperState:
        self.radars = [radar_nash_commit(radar) if radar.committed is None
                       and radar.episodes_seen == radar.explore_episodes else radar
                       for radar in self.radars]
        return self.stacked(state)

    def stacked(self, state: hopping.NashHopperState) -> hopping.NashHopperState:
        return replace(state, probs=np.array([r.strategy.probs for r in self.radars]),
                       committed=np.array([r.committed is not None for r in self.radars]))


def per_radar_estimate(subbands, flagged, sinr, snr, chirps,
                       n_subbands: int) -> hopping.EpisodeStats:
    """``signal.estimate_episode_sinr`` computed one radar at a time by the oracle."""
    spans = np.split(np.arange(subbands.size), np.cumsum(chirps)[:-1])
    return stack_stats([estimate_episode_sinr(SimpleNamespace(
        subbands=subbands[s], flagged=flagged[s], sinr=sinr[s], snr=snr[s]), n_subbands)
        for s in spans])


@dataclass(frozen=True)
class UtilityTable:
    """Per-player utility (dB) for every joint subband choice.

    ``values`` has shape (I, A, ..., A) with one trailing axis per player;
    ``values[i][f]`` is player i's utility at joint action f.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 2:
            raise ValueError("table must have shape (I, A, ..., A)")
        n_players = v.ndim - 1
        if v.shape[0] != n_players:
            raise ValueError(
                f"leading axis {v.shape[0]} does not match {n_players} action axes"
            )
        if len(set(v.shape[1:])) != 1:
            raise ValueError("action axes must all have the same length")
        if not np.all(np.isfinite(v)):
            raise ValueError("table entries must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n_players(self) -> int:
        return self.values.ndim - 1

    @property
    def n_subbands(self) -> int:
        return self.values.shape[1]

    def check_profile(self, profile: StrategyProfile):
        if len(profile.strategies) != self.n_players:
            raise ValueError(
                f"profile has {len(profile.strategies)} players, table {self.n_players}"
            )
        if profile.n_subbands != self.n_subbands:
            raise ValueError(
                f"profile has {profile.n_subbands} subbands, table {self.n_subbands}"
            )


def pure_profile(actions, n_subbands: int) -> StrategyProfile:
    return StrategyProfile(tuple(pure_strategy(a, n_subbands) for a in actions))


def collision_table(snr: np.ndarray, hit: np.ndarray) -> UtilityTable:
    """Dense table of the collision game ``game.solve_nash_welfare_max``
    solves: player i earns ``hit[i, a]`` on subband a if another player
    shares it, else ``snr[i, a]`` (both (n, A))."""
    n, a = snr.shape
    shape = (a,) * n
    grids = np.indices(shape, sparse=True)
    values = np.empty((n,) + shape)
    for i in range(n):
        shared = np.zeros(shape, dtype=bool)
        for j in range(n):
            if j != i:
                shared |= grids[j] == grids[i]
        values[i] = np.where(shared, hit[i][grids[i]], snr[i][grids[i]])
    return UtilityTable(values)


def enumerate_pure_nash(table: UtilityTable) -> list[StrategyProfile]:
    """All pure profiles with no strictly improving unilateral deviation."""
    n, a = table.n_players, table.n_subbands
    if a**n > PURE_ENUM_GUARD:
        raise CapacityError(f"joint action space {a}^{n} exceeds enumeration guard")
    mask = np.ones((a,) * n, dtype=bool)
    for i in range(n):
        vi = table.values[i]
        mask &= vi >= vi.max(axis=i, keepdims=True)
    return [pure_profile(tuple(act), a) for act in np.argwhere(mask)]


def deviation_utilities(table: UtilityTable, profile: StrategyProfile, player: int) -> np.ndarray:
    """Expected utility of each pure deviation of ``player``, others fixed."""
    table.check_profile(profile)
    u = np.moveaxis(table.values[player], player, 0)
    for j, s in enumerate(profile.strategies):
        if j != player:
            u = np.tensordot(u, s.probs, axes=(1, 0))
    return u


def expected_utility_tensordot(table: UtilityTable, profile: StrategyProfile,
                               player: int) -> float:
    """Expected utility of ``player``, one ``np.tensordot`` per strategy."""
    table.check_profile(profile)
    u = table.values[player]
    for s in profile.strategies:
        u = np.tensordot(s.probs, u, axes=(0, 0))
    return float(u)


def is_nash(profile: StrategyProfile, table: UtilityTable, tol: float = EQ_TOL_DB) -> bool:
    """True iff no player has a pure deviation improving by more than tol.

    Pure deviations suffice: the expectation is linear in each player's
    own strategy.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    for i in range(table.n_players):
        base = expected_utility_tensordot(table, profile, i)
        if deviation_utilities(table, profile, i).max() > base + tol:
            return False
    return True


def support_enumeration_2p(table: UtilityTable, br_tol: float = 1e-8) -> list[StrategyProfile]:
    """All mixed NE of a 2-player game found by equal-size support enumeration."""
    a = table.n_subbands
    u0, u1 = table.values[0], table.values[1]
    found: dict[tuple, StrategyProfile] = {}
    for m in range(1, a + 1):
        for sup0 in itertools.combinations(range(a), m):
            for sup1 in itertools.combinations(range(a), m):
                # Player 1's strategy y makes player 0 indifferent over sup0,
                # and symmetrically for x. Augmented system: utility rows
                # minus the common value v, plus the normalization row.
                m0 = u0[np.ix_(sup0, sup1)]
                m1 = u1[np.ix_(sup0, sup1)].T
                sol = []
                ok = True
                for mat in (m0, m1):
                    aug = np.zeros((m + 1, m + 1))
                    aug[:m, :m] = mat
                    aug[:m, m] = -1.0
                    aug[m, :m] = 1.0
                    rhs = np.zeros(m + 1)
                    rhs[m] = 1.0
                    try:
                        x = np.linalg.solve(aug, rhs)
                    except np.linalg.LinAlgError:
                        ok = False
                        break
                    if np.any(x[:m] < -1e-9):
                        ok = False
                        break
                    sol.append((np.where(x[:m] <= 1e-9, 0.0, x[:m]), x[m]))
                if not ok:
                    continue
                (y, v0), (x, v1) = sol
                # Best-response check against all pure deviations.
                if (u0[:, sup1] @ y).max() > v0 + br_tol:
                    continue
                if (x @ u1[sup0, :]).max() > v1 + br_tol:
                    continue
                p0 = np.zeros(a)
                p0[list(sup0)] = x / x.sum()
                p1 = np.zeros(a)
                p1[list(sup1)] = y / y.sum()
                key = (tuple(np.round(p0, 9)), tuple(np.round(p1, 9)))
                found.setdefault(
                    key, StrategyProfile((MixedStrategy(p0), MixedStrategy(p1)))
                )
    return list(found.values())


def closed_form_equilibria_2p(snr: np.ndarray, hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both players' strategies (C, A) at each equilibrium of the two-player
    collision game of ``snr`` and ``hit`` that equal-size support enumeration finds,
    in its order, the first kept of those equal when rounded at 1e-9.
    """
    x, y = _candidates_2p(snr, hit)
    x /= x.sum(axis=0)
    y /= y.sum(axis=0)
    keys = np.round(np.concatenate([x, y]).T, 9)
    keys += 0.0  # -0.0 as 0.0
    rows = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.itemsize * keys.shape[1])))
    first = np.sort(np.unique(rows[:, 0], return_index=True)[1])
    return x.T[first], y.T[first]


def closed_form_welfare_max(snr: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """``game.solve_nash_welfare_max`` of two players in 'auto' mode, chosen
    from ``closed_form_equilibria_2p``: the first equilibrium of each pair
    of supports, then the welfare max, ties to the least supports."""
    snr, hit = np.asarray(snr, dtype=float), np.asarray(hit, dtype=float)
    x, y = closed_form_equilibria_2p(snr, hit)
    first = {}
    for c in range(len(x)):
        first.setdefault((tuple(np.flatnonzero(x[c])), tuple(np.flatnonzero(y[c]))), c)
    first = sorted(first.values())
    x, y, d = x[first], y[first], hit - snr
    welfare = (x * (snr[0] + d[0] * y)).sum(axis=1) + (y * (snr[1] + d[1] * x)).sum(axis=1)
    tied = np.flatnonzero(welfare >= welfare.max() - WELFARE_TIE_ATOL)
    c = min(tied, key=lambda c: (tuple(np.flatnonzero(x[c])), tuple(np.flatnonzero(y[c]))))
    return check_simplex(np.stack([x[c], y[c]]))


def welfare_max_profile(table: UtilityTable, mixed: list[StrategyProfile]) -> StrategyProfile:
    """The welfare-max of the pure equilibria, then ``mixed``, one per support key.

    Welfare is the sum of ``expected_utility_tensordot`` over the players; ties within
    WELFARE_TIE_ATOL go to the least support key.
    """
    candidates = {support_key(p): p for p in enumerate_pure_nash(table)}
    for p in mixed:
        candidates.setdefault(support_key(p), p)
    welfare = {key: sum(expected_utility_tensordot(table, p, i) for i in range(table.n_players))
               for key, p in candidates.items()}
    best = max(welfare.values())
    return candidates[min(k for k, w in welfare.items() if w >= best - WELFARE_TIE_ATOL)]


def unpruned_overlap_geometry(victim: ChirpParams, source: ChirpParams,
                              n_victim: int, n_source: int):
    """``sim.overlap_geometry`` with every candidate column kept, dead ones too.

    The per-pair weights over it are the sums that column pruning must
    leave unchanged bit for bit.
    """
    q = np.arange(n_victim)
    start_v = q * victim.pri_s
    end_v = start_v + victim.active_s
    n_cand = int(np.ceil((victim.active_s + source.active_s) / source.pri_s)) + 2
    m0 = np.floor((start_v - source.active_s) / source.pri_s).astype(int)
    cand = m0[:, None] + np.arange(n_cand)[None, :]
    start_s = cand * source.pri_s
    overlap = np.minimum(end_v[:, None], start_s + source.active_s) \
        - np.maximum(start_v[:, None], start_s)
    frac = np.clip(overlap, 0.0, None) / victim.active_s
    valid = (cand >= 0) & (cand < n_source)
    frac = np.where(valid, frac, 0.0)
    cand = np.clip(cand, 0, max(n_source - 1, 0))
    return cand, frac


def overlap_weight(geometry, victim_actions: np.ndarray,
                   source_actions: np.ndarray) -> np.ndarray:
    """Per victim chirp, the summed overlap fraction of one source's same-subband chirps.

    ``geometry`` is the pair's ``sim.overlap_geometry``; a weight of 0 means
    the chirp saw no collision from this source. ``overlap_weights``
    evaluates every source of one waveform in one gather.
    """
    cand, frac = geometry
    return (frac * (source_actions[cand] == victim_actions[:, None])).sum(axis=1)


def overlap_weights(geometry, victim_actions: np.ndarray,
                    source_actions: np.ndarray) -> np.ndarray:
    """Per source and victim chirp, the summed overlap fraction of same-subband chirps.

    ``geometry`` is the ``sim.overlap_geometry`` of the victim and the one
    waveform that every row of ``source_actions`` (L_g, K_src) transmits;
    the result has shape (L_g, K_v). ``np.take`` gathers in C order, so each
    row is summed as the per-pair (K_v, C) product would be.
    """
    cand, frac = geometry
    hits = np.take(source_actions, cand, axis=1) == victim_actions[:, None]
    return (frac * hits).sum(axis=2)


def link_groups(chirps, k_ep, victim: int, sources: list) -> list:
    """The victim's links grouped by source waveform.

    One (geometry, rows, members) per distinct source ``ChirpParams``:
    ``members`` are the group's source radars in link order and ``rows``
    their positions among the victim's ``sources``.
    """
    by_wave = {}
    for row, j in enumerate(sources):
        by_wave.setdefault(chirps[j], []).append(row)
    return [(overlap_geometry(chirps[victim], wave, k_ep[victim], k_ep[sources[rows[0]]]),
             rows, [sources[row] for row in rows])
            for wave, rows in by_wave.items()]


def link_weights(groups: list, acts: list, victim: int) -> np.ndarray:
    """The victim's overlap weights (L, K_v) in link order, one gather per source waveform."""
    weights = np.empty((sum(len(rows) for _, rows, _ in groups), acts[victim].size))
    for geometry, rows, members in groups:
        weights[rows] = overlap_weights(geometry, acts[victim],
                                        np.array([acts[j] for j in members]))
    return weights


class PerRadarLinks:
    """The victim-at-a-time link weights, echo phases and Gram energies that
    ``run_scenario`` computed before it stacked radars into groups.

    ``install`` puts them in place of the group functions, radar by radar:
    ``sim._group_weights`` by ``link_weights`` per victim, ``signal.echo_slow``
    by ``echo_slow`` per target (``signal.echo_constants`` then passes the
    targets through, and ``signal.echo_chirp_terms`` the targets and the
    episode's first chirp) and ``signal.column_energy`` by one (n, n) Gram
    form per radar.
    """

    def __init__(self, config: ScenarioConfig):
        chirps = [spec.chirp for spec in config.radars]
        k_ep, self.spans = sim._episode_spans(config)
        self.groups = [link_groups(chirps, k_ep, i, np.flatnonzero(row).tolist())
                       for i, row in enumerate(sim.link_table(config))]

    def weights(self, group, subbands: np.ndarray) -> np.ndarray:
        acts = [subbands[span] for span in self.spans]
        k = acts[group.radars[0]].size
        return np.array([link_weights(self.groups[i], acts, i)
                         for i in group.radars]).reshape(len(group.radars), -1, k)

    @staticmethod
    def echo_slow(params, terms, subbands, phases):
        targets, k0 = terms
        hops = subbands * params.subband_hz
        return np.array([[echo_slow(params, tgt, h, float(ph), k0) for tgt, ph in zip(tt, pp)]
                         for tt, h, pp in zip(targets, hops, phases)])

    @staticmethod
    def column_energy(gram, coeffs):
        return np.array([np.real(np.einsum("rk,rk->k", np.conj(c), g @ c))
                         for g, c in zip(gram, coeffs)])

    def install(self, monkeypatch):
        monkeypatch.setattr(sim, "_group_weights", self.weights)
        monkeypatch.setattr(sig, "echo_constants", lambda params, targets: targets)
        monkeypatch.setattr(sig, "echo_chirp_terms", lambda params, targets, k0, k: (targets, k0))
        monkeypatch.setattr(sig, "echo_slow", self.echo_slow)
        monkeypatch.setattr(sig, "column_energy", self.column_energy)


def summed_group_weights(group, subbands: np.ndarray) -> np.ndarray:
    """``sim._group_weights`` with every geometry's (pairs, K_v, C) hits gathered
    by one ``np.take`` and weighted overlaps summed over the last axis."""
    n_r, n_l = group.power.shape[:2]
    acts = subbands[group.chirps]
    weights = np.empty((n_r * n_l, acts.shape[1]))
    for (cand, frac), source_chirps, vic, slots in group.links:
        hits = np.take(subbands[source_chirps], cand, axis=1) == acts[vic][:, :, None]
        weights[slots] = (frac * hits).sum(axis=2)
    return weights.reshape(n_r, n_l, acts.shape[1])


class PerLinkRows:
    """The one-row-per-link synthesis that ``run_scenario`` ran before it summed
    each victim's sources by slope class.

    Each radar's noiseless rows are its T target tones, then one residual
    chirp per link in source order, (T + L, N_s), with an (L, L) source
    Gram block. ``install`` puts these groups (the simulator's chunks, rows
    and Gram blocks rebuilt) in place of ``sim._radar_groups`` and
    ``measure_group`` in place of ``sim._measure_group``.
    """

    def __init__(self, config: ScenarioConfig):
        table = sim.link_table(config)
        chirps = [spec.chirp for spec in config.radars]
        self.groups = []
        for group in sim._radar_groups(config, table):
            n_t = group.gram_t.shape[1]
            bases = [sig.noiseless_basis(group.chirp, config.radars[i].targets,
                                         [chirps[j] for j in np.flatnonzero(table[i])],
                                         config.noise_power) for i in group.radars]
            self.groups.append(replace(
                group, rows=tuple(rows for rows, _ in bases),
                gram_t=np.array([gram[:n_t, :n_t] for _, gram in bases]),
                gram_s=np.array([gram[n_t:, n_t:] for _, gram in bases]).reshape(
                    (len(bases),) + (group.power.shape[1],) * 2)))

    @staticmethod
    def measure_group(group, subbands, target_phases, ep, rngs, config, last, workspace,
                      normals):
        """``sim._measure_group`` on these groups: every link's hit amplitudes
        scattered into its own coefficient row of (R, T + L, K)."""
        ch, noise = group.chirp, config.noise_power
        n_r, n_l = group.power.shape[:2]
        n_t = group.gram_t.shape[1]
        acts = subbands[group.chirps]
        k = acts.shape[1]
        k0 = ep * k
        weights = summed_group_weights(group, subbands)
        phases = np.empty(weights.shape)
        for r, i in enumerate(group.radars):
            phases[r] = rngs[i]["intf"].uniform(0.0, 2.0 * np.pi, size=(n_l, k))
        hit = np.flatnonzero(weights > 0)
        coeffs = np.zeros((n_r, n_t + n_l, k), dtype=complex)
        coeffs.reshape(-1)[hit + n_t * k * (hit // (n_l * k) + 1)] = (
            np.sqrt(group.power.reshape(-1)[hit // k] * weights.reshape(-1)[hit])
            * np.exp(1j * phases.reshape(-1)[hit]))
        coeffs[:, :n_t] = sig.echo_slow(ch, group.echo_terms[ep], acts, target_phases)
        clean = np.empty((n_r, k))
        if config.genie_detection:
            flags = np.any(weights, axis=1)
            energy = sig.column_energy(group.gram_t, coeffs[:, :n_t])
            intf = sig.column_energy(group.gram_s, coeffs[:, n_t:]) / ch.n_samples
        else:
            flags, intf = np.empty((n_r, k), dtype=bool), np.empty((n_r, k))
        sums = []
        for r, i in enumerate(group.radars):
            flags[r], clean[r], intf[r], radar_sums = sig.measure_episode(
                group.rows[r], coeffs[r], noise,
                rngs[i]["noise"] if config.genie_detection else next(normals),
                genie=(flags[r], energy[r], intf[r]) if config.genie_detection else None,
                hop_weights=sig.hop_sum_weights(
                    ch, acts[r], config.radars[i].targets[0].velocity_mps, k0) if last else None,
                detection_factor=config.detection_factor, workspace=workspace)
            sums.append(radar_sums)
        return flags, clean, intf, sums

    def install(self, monkeypatch):
        monkeypatch.setattr(sim, "_radar_groups", lambda config, table: self.groups)
        monkeypatch.setattr(sim, "_measure_group", self.measure_group)


def from_collisions_dense(weights: np.ndarray, n_subbands: int, utility) -> UtilityTable:
    """Table valued by who shares each player's subband, on full ``np.indices`` grids.

    Player i's entry at every joint action is ``utility(i, own, load)``:
    ``own`` is i's subband and ``load`` the sum of ``weights[i, j]`` over
    the other players j on that subband, accumulated in ascending j.
    """
    n = weights.shape[0]
    grids = np.indices((n_subbands,) * n)
    values = np.empty((n,) + (n_subbands,) * n)
    for i in range(n):
        load = np.zeros(grids.shape[1:])
        for j in range(n):
            if j != i and weights[i, j] != 0.0:
                load += weights[i, j] * (grids[j] == grids[i])
        values[i] = utility(i, grids[i], load)
    return UtilityTable(values)


def dense_genie_table(config: ScenarioConfig) -> UtilityTable:
    """The genie utilities of every radar at every joint action, as one table.

    Colliding joint actions are valued at the theoretical SINR with the
    full INR of every matching linked interferer; collision-free ones at
    the SNR. Repeated links add their linear INRs in config order.
    """
    n = config.n_radars
    snr_lin = np.array([
        sum(10.0 ** (t.snr_db / 10.0) for t in spec.targets)
        for spec in config.radars
    ])
    weights = np.zeros((n, n))
    for link in config.links:
        weights[link.victim, link.source] += 10.0 ** (link.inr_db / 10.0)
    return from_collisions_dense(
        weights, config.n_subbands,
        lambda i, own, load: 10.0 * np.log10(snr_lin[i] / (load + 1.0)))


def dense_arm_utilities(table: UtilityTable, rows: np.ndarray, player: int) -> np.ndarray:
    """(S, A): ``player``'s table entry for every own subband, others as in each row."""
    u = np.moveaxis(table.values[player], player, 0)
    per_arm = u[(slice(None), *np.delete(rows, player, axis=1).T)]
    return np.broadcast_to(per_arm.T, (len(rows), table.n_subbands))


def external_regret_dense(table: UtilityTable, actions: np.ndarray, player: int) -> np.ndarray:
    """Running external regret read from a dense table; ``actions`` is (steps, n)."""
    realized_db = table.values[player][tuple(actions.T)]
    opponent_actions = np.delete(actions, player, axis=1)
    n_other = table.n_players - 1
    u = np.moveaxis(table.values[player], player, 0)
    if n_other == 0:
        per_arm = np.broadcast_to(u[:, None], (u.shape[0], realized_db.size))
    else:
        per_arm = u[(slice(None), *opponent_actions.T)]  # (A, K)
    arm_cum = np.cumsum(per_arm, axis=1)
    arm_cum -= np.cumsum(realized_db)
    return arm_cum.max(axis=0)


def external_regret(per_arm: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Hindsight gap (dB x steps) to the best fixed subband after every step.

    ``per_arm[k, a]`` is the utility subband a would have earned at step k
    and ``actions[k]`` the subband played; entry k is the regret over steps
    0..k, and the last covers the horizon. ``game.external_regret`` reads
    the same sums at episode bounds only.
    """
    actions = np.asarray(actions)
    if per_arm.ndim != 2 or actions.shape != per_arm.shape[:1]:
        raise ValueError("need (steps, A) per-arm utilities and (steps,) actions")
    arm_cum = np.cumsum(np.ascontiguousarray(per_arm.T), axis=1)
    arm_cum -= np.cumsum(per_arm[np.arange(actions.size), actions])
    return arm_cum.max(axis=0)


def empirical_joint(actions, n_subbands: int) -> tuple[JointDistribution, np.ndarray]:
    """``game.empirical_joint`` by a lexsort of the (steps, n) rows, first radar
    the primary key: the support in C order and each step's support row."""
    actions = np.asarray(actions, dtype=int)
    order = np.lexsort(actions.T[::-1])
    ordered = actions[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    counts = np.diff(np.flatnonzero(np.append(first, True)))
    support_row = np.empty(len(actions), dtype=int)
    support_row[order] = np.cumsum(first) - 1
    return JointDistribution(ordered[first], counts / len(actions), n_subbands), support_row


def cce_deviation_gap_dense(mass: np.ndarray, table: UtilityTable, player: int) -> float:
    """CCE deviation gap of a dense (A, ..., A) joint mass against a dense table."""
    base = float((mass * table.values[player]).sum())
    marginal = mass.sum(axis=player)
    u = np.moveaxis(table.values[player], player, 0)
    n_other = table.n_players - 1
    dev = np.tensordot(u, marginal, axes=(list(range(1, n_other + 1)), list(range(n_other))))
    return float(np.max(dev) - base)


def joint_from_dense(mass: np.ndarray) -> JointDistribution:
    """The support of a dense (A, ..., A) mass array, in C order."""
    rows = np.argwhere(mass != 0.0)
    return JointDistribution(rows, mass[tuple(rows.T)], mass.shape[0])


def dense_mass(joint: JointDistribution) -> np.ndarray:
    """The (A, ..., A) mass array of a support-listed joint distribution."""
    mass = np.zeros((joint.n_subbands,) * joint.rows.shape[1])
    mass[tuple(joint.rows.T)] = joint.mass
    return mass


def write_joint_csv_rows(path: Path, mass: np.ndarray):
    """``joint_dist.csv`` built row by row over ``np.ndindex``."""
    lines = ["joint_action,mass"]
    lines += ["-".join(str(a + 1) for a in idx) + "," + repr(float(mass[idx]))
              for idx in np.ndindex(mass.shape)]
    path.write_text("\n".join(lines) + "\n")


def emit_seed_per_value(out_dir: Path, seed: int, metrics) -> None:
    """The CSVs of ``cli._emit_seed``, each value indexed out of its array and
    formatted as ``repr(float(value))``, each row joined from its values' ``str``."""
    seed_dir = out_dir / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    episodes, n_radars, n_sub = metrics.strategies.shape

    def write_csv(path, header, rows):
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    rows = [(e + 1, i + 1, a + 1, repr(float(metrics.strategies[e, i, a])))
            for e in range(episodes) for i in range(n_radars) for a in range(n_sub)]
    write_csv(seed_dir / "strategies.csv",
              ["episode", "radar", "subband", "probability"], rows)

    rows = [(e + 1, i + 1, repr(float(metrics.interference_rate[e, i])),
             repr(float(metrics.mean_sinr_db[e, i])))
            for e in range(episodes) for i in range(n_radars)]
    write_csv(seed_dir / "interference.csv",
              ["episode", "radar", "rate", "mean_sinr_db"], rows)

    rows = [(e + 1, i + 1, repr(float(metrics.cumulative_regret_db[e, i])))
            for e in range(episodes) for i in range(n_radars)]
    write_csv(seed_dir / "regret.csv",
              ["episode", "radar", "cumulative_regret_db"], rows)

    joint = metrics.joint_distribution
    rows = [("-".join(str(a + 1) for a in row), repr(float(m)))
            for row, m in zip(joint.rows.tolist(), joint.mass)]
    write_csv(seed_dir / "joint_dist.csv", ["joint_action", "mass"], rows)

    written = set()
    for i, policy in enumerate(metrics.policies):
        if policy in written or i not in metrics.profiles:
            continue
        profile = metrics.profiles[i]
        rows = [(f"{r:.4f}", repr(float(m)))
                for r, m in zip(profile.ranges_m, profile.mags_db)]
        write_csv(seed_dir / f"profile_{policy}.csv", ["range_m", "magnitude_db"], rows)
        written.add(policy)


def cmd_run_collect_then_emit(config, out_dir, seeds) -> RunManifest:
    """``cli.cmd_run`` that finishes every seed's run before emitting any."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)
    results = [run_scenario(replace(config, seed=seed)) for seed in seeds]

    files = {}
    summary = {}
    for seed, metrics in zip(seeds, results):
        seed_files, seed_summary = _emit_seed(out, seed, metrics)
        files.update(seed_files)
        summary[str(seed)] = seed_summary

    manifest = RunManifest(seeds=seeds, files=files,
                           summary=summary, config=yaml.safe_load(render_config(config)))
    (out / "manifest.json").write_text(json.dumps(
        {"seeds": manifest.seeds, "files": manifest.files,
         "summary": manifest.summary, "config": manifest.config},
        indent=2, sort_keys=True) + "\n")
    for rel, digest in manifest.files.items():
        path = out / rel
        if not path.is_file() or _sha256(path) != digest:
            raise RuntimeError(f"artifact verification failed for {rel}")
    return manifest
