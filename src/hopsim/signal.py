"""FMCW baseband physics.

Echo and cross-radar interference synthesis after dechirping,
interference detection, windowed SINR/SNR estimation, and range
processing: fast-time FFT for the coarse range, then a matched filter
over slow time that sums the Doppler-compensated chirps of each distinct
hop and applies one phase per hop and (coarse bin, fine offset). Hops
need not form a uniform grid, so this phase product replaces an FFT.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hopping import EpisodeStats

C = 3.0e8  # m/s

DEFAULT_DETECTION_FACTOR = 16.0  # ~12 dB over the noise-plus-signal floor


@dataclass(frozen=True)
class ChirpParams:
    """Waveform and sampling parameters of one radar."""

    f_c: float            # carrier start frequency, Hz
    subband_hz: float     # per-chirp sweep bandwidth B_a, Hz
    n_subbands: int
    pri_s: float          # pulse repetition interval, s
    active_s: float       # active sweep time T_a < PRI, s
    adc_hz: float         # complex baseband sample rate, Hz
    chirps_per_frame: int

    def __post_init__(self):
        if self.active_s >= self.pri_s or self.active_s <= 0:
            raise ValueError("need 0 < active time < PRI")
        if self.subband_hz <= 0 or self.adc_hz <= 0 or self.f_c <= 0:
            raise ValueError("frequencies must be positive")
        if self.n_subbands < 1 or self.chirps_per_frame < 1:
            raise ValueError("counts must be positive")
        if self.n_samples < 2:
            raise ValueError("fewer than 2 samples per chirp")

    @property
    def slope(self) -> float:
        return self.subband_hz / self.active_s

    @property
    def n_samples(self) -> int:
        return int(np.floor(self.adc_hz * self.active_s))

    @property
    def total_bandwidth(self) -> float:
        return self.n_subbands * self.subband_hz

    @property
    def coarse_bin_m(self) -> float:
        return C / (2.0 * self.subband_hz)

    @property
    def fine_bin_m(self) -> float:
        return C / (2.0 * self.total_bandwidth)

    @property
    def range_bin_m(self) -> float:
        """Range per FFT bin; equals coarse_bin_m when f_s*T_a is integral."""
        return (self.adc_hz / self.n_samples) * C / (2.0 * self.slope)


@dataclass(frozen=True)
class Target:
    range_m: float
    velocity_mps: float   # negative when approaching
    snr_db: float         # per-chirp post-dechirp SNR

    def __post_init__(self):
        if self.range_m <= 0:
            raise ValueError("target range must be positive")
        if not np.isfinite(self.snr_db):
            raise ValueError("target SNR must be finite")


@dataclass(frozen=True)
class FineRangeProfile:
    """1-D magnitude-vs-range slice at a fixed velocity."""

    ranges_m: np.ndarray
    mags_db: np.ndarray
    coarse_bin: int       # coarse bin holding the global peak
    velocity_mps: float


def coarse_decompose(params: ChirpParams, range_m: float) -> tuple[float, float]:
    """Split a range into its coarse bin center and fine offset."""
    binw = params.coarse_bin_m
    rbar = np.round(range_m / binw) * binw
    return float(rbar), float(range_m - rbar)


def _echo_terms(params: ChirpParams, tgt: Target, noise_power: float):
    rbar, eps0 = coarse_decompose(params, tgt.range_m)
    f_r = 2.0 * tgt.range_m * params.slope / C
    f_d = -2.0 * tgt.velocity_mps * params.pri_s * params.f_c / C
    amp = np.sqrt(noise_power * 10.0 ** (tgt.snr_db / 10.0))
    return rbar, eps0, f_r, f_d, amp


def echo_frame(params: ChirpParams, tgt: Target, hops_hz: np.ndarray,
               noise_power: float = 1.0, phase0: float = 0.0,
               k0: int = 0) -> np.ndarray:
    """Echo samples for a block of chirps, (N_s, K).

    Fast time and slow time separate into a rank-1 product: the hop term
    of the dechirped echo carries no fast-time dependence.
    """
    return np.outer(*_echo_factors(params, tgt, hops_hz, noise_power, phase0, k0))


def _echo_factors(params: ChirpParams, tgt: Target, hops_hz: np.ndarray,
                  noise_power: float, phase0: float, k0: int):
    """Fast-time (N_s,) and slow-time (K,) factors of ``echo_frame``."""
    hops = np.asarray(hops_hz, dtype=float)
    ks = k0 + np.arange(hops.size)
    delays = (2.0 / C) * (tgt.range_m + ks * tgt.velocity_mps * params.pri_s)
    if np.any(delays < 0) or np.any(delays >= params.active_s):
        raise ValueError("round-trip delay outside the chirp: target beyond unambiguous range")
    rbar, eps0, f_r, f_d, amp = _echo_terms(params, tgt, noise_power)
    t = np.arange(params.n_samples) / params.adc_hz
    fast = amp * np.exp(-2j * np.pi * f_r * t)
    slow = np.exp(1j * (2.0 * np.pi * f_d * ks
                        - 2.0 * np.pi * (2.0 * rbar / C
                                         + 2.0 * (eps0 + ks * tgt.velocity_mps * params.pri_s) / C)
                        * hops
                        + phase0))
    return fast, slow


def _echo_energy(params: ChirpParams, targets, phases, hops_hz: np.ndarray,
                 noise_power: float, k0: int) -> np.ndarray:
    """Per chirp, the energy sum_n |e_k[n]|^2 of the summed target echoes, (K,).

    Equals the column norms of the summed ``echo_frame`` blocks without
    forming them: with fast factors f_t and slow factors s_t,
    ||e_k||^2 = s_k^H G s_k for the T x T Gram matrix G_tl = f_t^H f_l.
    """
    fast, slow = zip(*(_echo_factors(params, tgt, hops_hz, noise_power, float(ph), k0)
                       for tgt, ph in zip(targets, phases)))
    fast = np.array(fast)
    return _column_energy(np.conj(fast) @ fast.T, np.array(slow))


def _clean_power_draw(energy: np.ndarray, n_samples: int, noise_power: float,
                      rng: np.random.Generator) -> np.ndarray:
    """Per chirp, mean |e[n] + w[n]|^2 over N samples, drawn without the samples.

    ``energy`` holds ||e_k||^2 and w is circular complex Gaussian noise of
    power sigma^2, so 2/sigma^2 sum_n |e[n] + w[n]|^2 is noncentral
    chi-square with 2N degrees of freedom and noncentrality
    2||e_k||^2/sigma^2.
    """
    return noise_power / (2 * n_samples) * rng.noncentral_chisquare(
        2 * n_samples, 2.0 * np.asarray(energy) / noise_power)


def _column_energy(gram: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Re(c_k^H gram c_k) for every column c_k of ``coeffs`` (T, K)."""
    return np.real(np.einsum("tk,tl,lk->k", np.conj(coeffs), gram, coeffs))


def interference_bases(victim: ChirpParams, sources) -> tuple[np.ndarray, np.ndarray]:
    """The sources' residual chirps b_j, (L, N_s), and their Gram matrix, (L, L).

    b_j = exp(j pi (a_v - a_j) t^2) is source j's unit-amplitude chirp
    after dechirping, and the Gram matrix is mean_t(conj(b_j) b_l). With
    per-link amplitudes a_k, chirp k's interference power
    mean_t |sum_j a_j b_j|^2 is Re(a_k^H Gram a_k). Same-slope sources
    share b = 1 and add coherently, so the cross terms do not vanish.
    """
    t = np.arange(victim.n_samples) / victim.adc_hz
    rates = np.array([victim.slope - src.slope for src in sources]).reshape(-1, 1)
    b = np.exp(1j * np.pi * rates * t * t)
    return b, np.conj(b) @ b.T / victim.n_samples


def detect_interference(samples: np.ndarray, noise_power: float,
                        factor: float = DEFAULT_DETECTION_FACTOR):
    """Threshold detector: per chirp, a flag and the clean and interference powers.

    ``samples`` is one chirp (N_s,) or a block of chirps (N_s, K); each
    column is detected on its own. Samples whose amplitude exceeds the
    matched-signal envelope plus the factor-scaled noise tail are
    attributed to interference; a chirp is flagged when more than 1% of its
    samples are. The envelope power is the strongest FFT tone minus the
    median bin, so broadband interference energy does not inflate it, and
    it enters the threshold as a coherent amplitude bound:
    |x| > sqrt(envelope) + sqrt(factor x noise). Returns the flags and the
    mean |x|^2 of the samples below (clean) and above (interference) the
    threshold, each counted over all N_s samples.
    """
    if factor <= 1:
        raise ValueError("factor must exceed 1")
    x = np.asarray(samples)
    n = x.shape[0]
    spec2 = np.abs(np.fft.fft(x, axis=0, norm="ortho")) ** 2
    middle = np.partition(spec2, ((n - 1) // 2, n // 2), axis=0)
    median = (middle[(n - 1) // 2] + middle[n // 2]) / 2
    envelope = np.clip(np.max(spec2, axis=0) - median, 0.0, None) / n
    threshold = (np.sqrt(envelope) + np.sqrt(factor * noise_power)) ** 2
    power = np.abs(x) ** 2
    hot = power > threshold
    flag = hot.mean(axis=0) > 0.01
    return (flag, np.mean(np.where(hot, 0.0, power), axis=0),
            np.mean(np.where(hot, power, 0.0), axis=0))


@dataclass(frozen=True)
class ChirpMeasurements:
    """Per-chirp detection outputs feeding the episode estimator."""

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


def measure_episode(params: ChirpParams, targets, target_phases, subbands: np.ndarray,
                    k0: int, amps: np.ndarray, bases: np.ndarray, gram: np.ndarray,
                    noise_power: float, rng: np.random.Generator, sampled: bool,
                    genie_flags: np.ndarray | None = None,
                    detection_factor: float = DEFAULT_DETECTION_FACTOR):
    """One radar's per-chirp measurements over an episode of K chirps.

    ``amps`` (L, K) holds each linked source's complex amplitude per chirp
    and ``bases``, ``gram`` are the sources' ``interference_bases``; ``k0``
    is the first chirp's index in its frame. Genie mode (``genie_flags``
    marks the chirps that collided) measures the clean and interference
    powers apart, drawn from their exact distribution unless ``sampled``.
    Detector mode splits every episode's samples with the threshold
    detector. Returns the measurements and the samples (N_s, K) or None.
    """
    hops = subbands * params.subband_hz
    flags, x = genie_flags, None
    if flags is not None and not sampled:
        energy = _echo_energy(params, targets, target_phases, hops, noise_power, k0)
        clean = _clean_power_draw(energy, params.n_samples, noise_power, rng)
        intf = _column_energy(gram, amps)
    else:
        echo = np.zeros((params.n_samples, hops.size), dtype=complex)
        for tgt, ph in zip(targets, target_phases):
            echo += echo_frame(params, tgt, hops, noise_power=noise_power,
                               phase0=float(ph), k0=k0)
        x = np.zeros_like(echo)  # interference, then echo + interference + noise
        for b, a in zip(bases, amps):
            x += np.outer(b, a)
        sigma = np.sqrt(noise_power / 2.0)
        nz = sigma * (rng.standard_normal(echo.shape) + 1j * rng.standard_normal(echo.shape))
        if flags is not None:
            clean = np.mean(np.abs(echo + nz) ** 2, axis=0)
            intf = np.mean(np.abs(x) ** 2, axis=0)
        x += echo
        x += nz
        if flags is None:
            flags, clean, intf = detect_interference(x, noise_power, detection_factor)
    return ChirpMeasurements(subbands=subbands, clean_power=clean, interference_power=intf,
                             flagged=flags, noise_power=noise_power), x


def estimate_episode_sinr(meas: ChirpMeasurements, n_subbands: int,
                          db_average: bool = False) -> EpisodeStats:
    """Per-subband windowed SINR/SNR means over one episode.

    Averages are taken over linear per-chirp ratios and then converted to
    dB (set ``db_average`` to average the dB values instead). Subbands
    with no chirps carry NaN, never zero.
    """
    sub = np.asarray(meas.subbands, dtype=int)
    flagged = np.asarray(meas.flagged, dtype=bool)
    per_sinr = np.asarray(meas.clean_power) / (
        np.asarray(meas.interference_power) + meas.noise_power)
    per_snr = np.asarray(meas.clean_power) / meas.noise_power

    def mean_by_subband(values, mask):
        counts = np.bincount(sub[mask], minlength=n_subbands)
        out = np.full(n_subbands, np.nan)
        if db_average:
            values = 10.0 * np.log10(np.maximum(values, 1e-300))
        sums = np.bincount(sub[mask], weights=values[mask], minlength=n_subbands)
        nz = counts > 0
        means = sums[nz] / counts[nz]
        out[nz] = means if db_average else 10.0 * np.log10(np.maximum(means, 1e-300))
        return out, counts

    sinr_db, count = mean_by_subband(per_sinr, np.ones_like(flagged))
    snr_db, clean_count = mean_by_subband(per_snr, ~flagged)
    hit_sinr_db, hit_count = mean_by_subband(per_sinr, flagged)
    return EpisodeStats(sinr_db=sinr_db, snr_db=snr_db, hit_sinr_db=hit_sinr_db,
                        count=count, clean_count=clean_count, hit_count=hit_count)


def range_fft(samples: np.ndarray) -> np.ndarray:
    """Per-chirp fast-time DFT of (N_s, K) samples (orthonormal, energy-preserving).

    The dechirped echo beats at -f_r, so the transform is evaluated at
    negative frequencies: bin b then maps to range b * range_bin_m
    directly, and slow-time phases pass through unconjugated.
    """
    samples = np.asarray(samples)
    if samples.shape[0] < 2:
        raise ValueError("need at least 2 fast-time samples")
    return np.fft.ifft(samples, axis=0, norm="ortho")


@dataclass(frozen=True)
class RangeVelocitySurface:
    """Matched-filter magnitudes over (coarse bin, velocity, fine offset)."""

    coarse_bins: np.ndarray   # (B,)
    v_grid: np.ndarray        # (V,)
    eps_grid: np.ndarray      # (E,)
    mags_db: np.ndarray       # (B, V, E)
    range_bin_m: float


def default_eps_grid(params: ChirpParams) -> np.ndarray:
    """Fine-offset grid spanning one coarse bin, 2 B/B_a points."""
    points_per_bin = 2 * params.n_subbands
    binw = params.coarse_bin_m
    step = binw / points_per_bin
    return -binw / 2.0 + step * (np.arange(points_per_bin) + 0.5)


def sweep_coarse_bins(rfft: np.ndarray, hops_hz: np.ndarray, coarse_bins,
                      v_grid, eps_grid, params: ChirpParams) -> RangeVelocitySurface:
    """Matched-filter magnitudes (coarse bin x velocity x fine offset), in dB.

    Correlates bin b's slow-time sequence with the hop-compensated template
    exp(j2pi f_d k - j2pi (2/c)(rbar_b + eps + k v T_pri) h_k), which peaks at
    the true (v, eps). The range term sees chirp k only through its hop h_k:
    a coherent sum over the chirps of each distinct hop h_a, then a phase
    product exp(+j2pi (2/c)(rbar_b + eps) h_a) over those hops (stepped-
    frequency processing; Wehner, High Resolution Radar, 1995, ch. 5).
    """
    z = np.asarray(rfft)
    hops = np.asarray(hops_hz, dtype=float)
    bins = np.asarray(coarse_bins, dtype=int)
    v = np.asarray(v_grid, dtype=float)
    eps = np.asarray(eps_grid, dtype=float)
    if z.ndim != 2 or hops.shape != (z.shape[1],):
        raise ValueError(f"hops_hz of shape {hops.shape} needs one hop per column "
                         f"of the (N_s, K) rfft, got {z.shape}")
    if np.any((bins < 0) | (bins >= z.shape[0])):
        raise ValueError(f"coarse_bins must lie in [0, {z.shape[0]})")
    lim = C / (4.0 * params.subband_hz) + 1e-9
    if np.any(np.abs(eps) > lim):
        raise ValueError("fine-range grid outside [-c/(4 B_a), c/(4 B_a)]")
    k = np.arange(hops.size)
    f_d = -2.0 * v * params.pri_s * params.f_c / C
    # Doppler part of the template: 2pi f_d k - 2pi (2/c) k v T_pri h_k
    vk = np.exp(1j * (2.0 * np.pi * np.outer(f_d, k)
                      - 2.0 * np.pi * (2.0 / C) * params.pri_s
                      * np.outer(v, k * hops)))
    distinct, group = np.unique(hops, return_inverse=True)
    weights = np.zeros((hops.size, v.size, distinct.size), dtype=complex)
    weights[k, :, group] = np.conj(vk).T  # chirp k's weight sits in its hop's column
    grouped = (z[bins] @ weights.reshape(hops.size, -1)).reshape(bins.size, v.size, -1)
    rbar = bins * params.range_bin_m
    phase = np.exp(2j * np.pi * (2.0 / C)
                   * ((rbar[:, None] + eps)[:, None, :] * distinct[:, None]))  # (B, H, E)
    corr = grouped @ phase                                                   # (B, V, E)
    return RangeVelocitySurface(coarse_bins=bins, v_grid=v, eps_grid=eps,
                                mags_db=20.0 * np.log10(np.abs(corr) + 1e-300),
                                range_bin_m=params.range_bin_m)


def range_profile_at_velocity(surface: RangeVelocitySurface, v: float) -> FineRangeProfile:
    """Magnitude-vs-range slice of the stitched surface at one grid velocity."""
    hits = np.flatnonzero(np.abs(surface.v_grid - v) < 1e-9)
    if hits.size == 0:
        raise ValueError(f"velocity {v} is not on the evaluated grid")
    vi = int(hits[0])
    ranges = (surface.coarse_bins[:, None] * surface.range_bin_m
              + surface.eps_grid[None, :]).ravel()
    mags = surface.mags_db[:, vi, :].reshape(-1)
    order = np.argsort(ranges, kind="stable")
    ranges, mags = ranges[order], mags[order]
    peak = int(np.argmax(mags))
    coarse = int(surface.coarse_bins[peak // surface.eps_grid.size])
    return FineRangeProfile(ranges_m=ranges, mags_db=mags,
                            coarse_bin=coarse, velocity_mps=float(v))


def mainlobe_width(profile: FineRangeProfile) -> float:
    """Width of the contiguous region around the peak within 3 dB of it.

    Crossings are linearly interpolated between grid points.
    """
    r, m = profile.ranges_m, profile.mags_db
    peak = int(np.argmax(m))
    level = m[peak] - 3.0

    def cross(direction):
        i = peak
        while 0 <= i + direction < m.size and m[i + direction] >= level:
            i += direction
        j = i + direction
        if not 0 <= j < m.size:
            return r[i]
        frac = (m[i] - level) / (m[i] - m[j])
        return r[i] + frac * (r[j] - r[i])

    return float(cross(+1) - cross(-1))

