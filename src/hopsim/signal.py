"""FMCW baseband physics.

Echo and cross-radar interference synthesis after dechirping,
interference detection, windowed SINR/SNR estimation, and range
processing: Doppler-compensated sums of each hop's chirps (which genie
mode draws without samples), their fast-time FFT for the coarse range,
then one phase per hop and (coarse bin, fine offset). Hops need not form
a uniform grid, so this phase product replaces an FFT.
"""
from __future__ import annotations

import math
import numbers
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
        for name in ("f_c", "subband_hz", "pri_s", "active_s", "adc_hz"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"chirp {name} {getattr(self, name)!r} not finite and > 0")
        if self.active_s >= self.pri_s:
            raise ValueError("need active time < PRI")
        if not self.slope < np.inf:
            raise ValueError(f"chirp slope subband_hz / active_s {self.slope!r} above the "
                             "largest float")
        for name in ("n_subbands", "chirps_per_frame"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"chirp {name} {value!r} not an integer >= 1")
        if self.n_samples < 2:
            raise ValueError("fewer than 2 samples per chirp")

    @property
    def slope(self) -> float:
        return self.subband_hz / self.active_s

    @property
    def n_samples(self) -> int:
        return int(np.floor(self.adc_hz * self.active_s))

    @property
    def coarse_bin_m(self) -> float:
        return C / (2.0 * self.subband_hz)

    @property
    def range_bin_m(self) -> float:
        """Range per FFT bin; equals coarse_bin_m when f_s*T_a is integral."""
        return (self.adc_hz / self.n_samples) * C / (2.0 * self.slope)

    def beat_hz(self, range_m: float) -> float:
        """Beat frequency 2 R slope / c of a target at range R; infinite where
        the product overflows before the division."""
        return 2.0 * range_m * self.slope / C

    def doppler_cycles(self, velocity_mps: float) -> float:
        """Doppler phase advance per chirp, -2 v PRI f_c / c cycles; infinite
        where the product overflows before the division."""
        return -2.0 * velocity_mps * self.pri_s * self.f_c / C

    def residual_phase(self, source: "ChirpParams", t):
        """Phase pi (a_v - a_j) t^2, rad, of ``source``'s chirp at fast time t
        after dechirping by this one; infinite or NaN where it overflows."""
        return np.pi * (self.slope - source.slope) * t * t

    def hop_phase(self, velocity_mps: float, k, subbands):
        """Phase 2pi (2/c) PRI v k a B_a that chirp k on subband a adds at velocity
        v, rad; infinite or NaN where the product overflows."""
        return (2.0 * np.pi * (2.0 / C) * self.pri_s
                * (velocity_mps * (k * (subbands * self.subband_hz))))


@dataclass(frozen=True)
class Target:
    range_m: float
    velocity_mps: float   # negative when approaching
    snr_db: float         # per-chirp post-dechirp SNR

    def __post_init__(self):
        if not 0 < self.range_m < np.inf:
            raise ValueError(f"target range_m {self.range_m!r} not finite and > 0")
        if not np.isfinite(self.velocity_mps):
            raise ValueError(f"target velocity_mps {self.velocity_mps!r} not finite")
        if not 0 < db_power(self.snr_db) < np.inf:
            raise ValueError(
                f"target snr_db {self.snr_db!r} dB has a linear power not finite and > 0")


def db_power(db: float) -> float:
    """Linear power 10^(db/10); inf where that overflows a float."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class FineRangeProfile:
    """1-D magnitude-vs-range slice at a fixed velocity."""

    ranges_m: np.ndarray
    mags_db: np.ndarray


def coarse_decompose(params: ChirpParams, range_m: float) -> tuple[float, float]:
    """Split a range into its coarse bin center and fine offset."""
    binw = params.coarse_bin_m
    rbar = np.round(range_m / binw) * binw
    return float(rbar), float(range_m - rbar)


def first_chirp_outside(params: ChirpParams, tgt: Target) -> int | None:
    """The frame's first chirp k whose delay (2/c) (R + k v PRI) leaves [0, T_a), or None.

    Each float operation of the delay is monotone in k, so the chirps inside
    are one run from chirp 0. Bisecting it takes O(log K) scalar delays, each
    rounded as an elementwise test over the frame rounds it: same answer.
    """
    def outside(k: int) -> bool:
        delay = (2.0 / C) * (tgt.range_m + k * tgt.velocity_mps * params.pri_s)
        return delay < 0 or delay >= params.active_s

    if outside(0):
        return 0
    lo, hi = 0, params.chirps_per_frame - 1  # inside at lo; outside at hi, if anywhere
    if not outside(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if outside(mid) else (mid, hi)
    return hi


def echo_constants(params: ChirpParams, targets) -> np.ndarray:
    """(4, R, T, 1) echo constants of R radars' T targets each on one waveform.

    ``targets`` lists each radar's targets. Per target: its Doppler phase
    step 2 pi f_d per chirp, its coarse range bin center's term 2 rbar / c,
    its fine offset and its velocity, from which ``echo_chirp_terms`` forms
    the terms that ``echo_slow`` reads.
    """
    def terms(tgt):
        rbar, eps0 = coarse_decompose(params, tgt.range_m)
        return (2.0 * np.pi * params.doppler_cycles(tgt.velocity_mps), 2.0 * rbar / C, eps0,
                tgt.velocity_mps)

    table = np.array([[terms(tgt) for tgt in radar] for radar in targets], dtype=float)
    return np.moveaxis(table, -1, 0)[..., None]


def echo_chirp_terms(params: ChirpParams, echo: np.ndarray, k0: int,
                     k: int) -> tuple[np.ndarray, np.ndarray]:
    """The chirp-index terms (R, T, K) of ``echo_slow`` over chirps k0 .. k0 + K - 1.

    ``echo`` holds R radars' ``echo_constants``. Per echo and chirp k: the
    Doppler phase 2 pi f_d k, and the delay term 2 pi (2 rbar / c + 2 (eps0
    + k v PRI) / c) that multiplies the chirp's hop. Neither depends on the
    hops, so an episode offset's terms serve every frame.
    """
    doppler, coarse, eps0, v = echo
    ks = k0 + np.arange(k)
    return doppler * ks, 2.0 * np.pi * (coarse + 2.0 * (eps0 + ks * v * params.pri_s) / C)


def echo_slow(params: ChirpParams, terms: tuple, subbands: np.ndarray,
              phases: np.ndarray) -> np.ndarray:
    """Per-chirp phases (R, T, K) of R radars' target echoes: the coefficients of their tones.

    ``terms`` holds the radars' ``echo_chirp_terms`` of the episode's
    chirps, ``subbands`` (R, K) their hops and ``phases`` (R, T) each
    echo's start phase. The chirps lie in one frame, in which
    ``sim.validate_config`` has found no ``first_chirp_outside``. The
    phase is 2 pi f_d k - 2 pi (2 rbar / c + 2 (eps0 + k v PRI) / c) h_k +
    phase, each product and sum taken in the order that gives one target's
    (K,) phases, so every radar's rows equal them bit for bit.
    """
    doppler, delay = terms
    hops = (subbands * params.subband_hz)[:, None, :]
    return np.exp(1j * (doppler - delay * hops + phases[:, :, None]))


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


def column_energy(gram: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Re(c_k^H gram_r c_k) for every column c_k of each radar's ``coeffs`` (R, n, K).

    ``gram`` (R, n, n) stacks the radars' Gram blocks. The batched product
    and the sum over the n rows are numpy's per-radar ones, radar by radar.
    """
    return np.real(np.einsum("grk,grk->gk", np.conj(coeffs), gram @ coeffs))


def noiseless_basis(victim: ChirpParams, targets, sources,
                    noise_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Fast-time rows of the victim's noiseless block, (T + D, N_s), and their Gram matrix.

    After dechirping every noiseless term is rank-1 in (fast time, chirp):
    target t's echo is its tone amp_t exp(-j2pi f_r t) times a per-chirp
    phase (the hop term has no fast-time part), and source j's interference
    is its residual chirp b_j = exp(j pi (a_v - a_j) t^2) times a per-chirp
    amplitude. Rows hold the T tones, then one residual chirp per entry of
    ``sources``. b_j depends only on source j's slope, so sources of one
    slope share a row whose coefficient is the sum of their amplitudes; the
    simulator passes one source per slope class, D rows in all. For
    per-chirp coefficients C (T + D, K) the block is rows.T @ C, and chirp
    k's energy sum_n |x_k[n]|^2 is Re(c_k^H gram c_k) with the summed Gram
    matrix gram = conj(rows) @ rows.T, whose (T + D)^2 blocks hold the
    targets' and the classes' cross terms. Nothing here depends on the
    episode.
    """
    t = np.arange(victim.n_samples) / victim.adc_hz
    tones = [np.sqrt(noise_power * db_power(tgt.snr_db))
             * np.exp(-2j * np.pi * victim.beat_hz(tgt.range_m) * t) for tgt in targets]
    residual = np.reshape([victim.residual_phase(src, t) for src in sources], (-1, t.size))
    rows = np.concatenate([np.reshape(tones, (-1, t.size)), np.exp(1j * residual)])
    return rows, np.conj(rows) @ rows.T


class SampleWorkspace:
    """Flat buffers that every episode of a run reuses as views, each the size of
    the largest of the given (N_s, K) ``shapes`` (or (N_s,) chirps): complex
    ``x`` (received block) and ``scratch`` (a synthesis term, the scaled
    noise, then the detector spectrum), float ``power`` and bool ``mask``
    (detector hits)."""

    def __init__(self, *shapes):
        size = max(math.prod(shape) for shape in shapes)
        self.x, self.scratch = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
        self.power, self.mask = np.empty(size), np.empty(size, dtype=bool)


def _view(buffer: np.ndarray, shape) -> np.ndarray:
    """The leading elements of a flat workspace buffer as a C-ordered ``shape`` block."""
    return buffer[:math.prod(shape)].reshape(shape)


def _abs2(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|z|^2 into ``out``, rounded as ``np.abs(z) ** 2``."""
    return np.square(np.abs(z, out=out), out=out)


def detect_interference(samples: np.ndarray, noise_power: float,
                        factor: float = DEFAULT_DETECTION_FACTOR, *,
                        workspace: SampleWorkspace):
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
    threshold, each counted over all N_s samples. The samples are only read;
    spectrum, powers and hits go to ``workspace``, made for a block of this
    shape or larger ones.
    """
    if factor <= 1:
        raise ValueError("factor must exceed 1")
    x = np.asarray(samples)
    n = x.shape[0]
    spec = _view(workspace.scratch, x.shape[::-1])  # one chirp's spectrum per row
    np.fft.fft(x, axis=0, norm="ortho", out=spec.T)
    spec2 = _abs2(spec, _view(workspace.power, spec.shape))
    peak = spec2.max(axis=-1)
    half = n // 2  # rank n//2 by one selection; rank (n-1)//2 is the largest below it
    spec2.partition(half, axis=-1)
    upper = spec2[..., half]
    median = ((upper if n % 2 else spec2[..., :half].max(axis=-1)) + upper) / 2
    envelope = np.clip(peak - median, 0.0, None) / n
    threshold = (np.sqrt(envelope) + np.sqrt(factor * noise_power)) ** 2
    power = _abs2(x, _view(workspace.power, x.shape))
    hot = np.greater(power, threshold, out=_view(workspace.mask, x.shape))
    flag = np.count_nonzero(hot, axis=0) / n > 0.01
    # Zero-filled means, not masked sums: a 1-D sum is pairwise, skipping changes rounding.
    split = _view(workspace.scratch.view(float), x.shape)
    intf = np.mean(np.multiply(power, hot, out=split), axis=0)
    clean = np.mean(np.multiply(power, np.logical_not(hot, out=hot), out=split), axis=0)
    return flag, clean, intf


def measure_episode(rows: np.ndarray, coeffs: np.ndarray, noise_power: float,
                    draws, genie: tuple | None = None,
                    hop_weights: np.ndarray | None = None,
                    detection_factor: float = DEFAULT_DETECTION_FACTOR, *,
                    workspace: SampleWorkspace | None):
    """One radar's per-chirp measurements over an episode of K chirps.

    ``rows`` (T + D, N_s) is the radar's ``noiseless_basis`` over its T
    targets and D source slope classes, and ``coeffs`` (T + D, K) the rows'
    per-chirp coefficients: the targets' slow-time phases (``echo_slow``),
    then each class's summed complex amplitude. Detector mode (``genie``
    None) takes ``draws``, a (2, N_s, K) block of standard normals (the
    real parts, then the imaginary parts), synthesizes x = rows.T @ coeffs
    plus sigma times that noise in ``workspace`` and detects. The product
    is the sum of the rows' outer products, added elementwise, with no
    BLAS call. Genie mode passes ``genie`` = (flags, energy, interference
    power), each (K,): the collided chirps, the targets' Gram-form energy
    ||e_k||^2 and the sources' Gram-form power; it draws the clean power
    from the generator ``draws`` and reads no workspace, so None will do.
    Returns, each (K,), the interference flags, the mean clean power and
    the mean interference power per chirp, then for ``hop_weights`` W
    (K, H) the hop sums x @ W, which genie mode draws after the clean power
    as rows.T @ (coeffs @ W) plus noise (else None).
    """
    n_samples = rows.shape[1]
    if genie is None:
        shape = (n_samples, coeffs.shape[1])
        x, term = _view(workspace.x, shape), _view(workspace.scratch, shape)
        np.multiply(rows[0, :, None], coeffs[0], out=x)
        for row, coeff in zip(rows[1:], coeffs[1:]):
            x += np.multiply(row[:, None], coeff, out=term)
        sigma = np.sqrt(noise_power / 2.0)  # noise sigma (n_re + j n_im), a part at a time
        term = _view(workspace.scratch.view(float), shape)
        for plane, normals in zip((x.real, x.imag), draws):
            plane += np.multiply(normals, sigma, out=term)
        flags, clean, intf = detect_interference(x, noise_power, detection_factor,
                                                 workspace=workspace)
        sums = None if hop_weights is None else x @ hop_weights
    else:
        (flags, energy, intf), sums = genie, None
        clean = _clean_power_draw(energy, n_samples, noise_power, draws)
        if hop_weights is not None:
            # Each chirp in one column: x @ W has noise CN(0, sigma^2 sum_k |W[k, h]|^2).
            sums = rows.T @ (coeffs @ hop_weights)
            sigma = np.sqrt(noise_power / 2.0 * np.sum(np.abs(hop_weights) ** 2, axis=0))
            sums += sigma * (draws.standard_normal(sums.shape)
                             + 1j * draws.standard_normal(sums.shape))
    return flags, clean, intf, sums


def estimate_episode_sinr(subbands: np.ndarray, flagged: np.ndarray, sinr: np.ndarray,
                          snr: np.ndarray, chirps: list[int], n_subbands: int) -> EpisodeStats:
    """Per-radar, per-subband windowed SINR/SNR means over one episode.

    The four per-chirp arrays hold every radar's chirps, radar after
    radar, ``chirps[i]`` of them for radar i, whose row of every returned
    field they fill: each chirp's subband, interference flag and linear
    SINR and SNR. The means of those ratios are converted to dB; subbands
    with no chirps carry NaN, never zero. The bins are radar * A +
    subband, and a flagged chirp's bin is moved up by m * A for m radars;
    four ``np.bincount`` calls over them give every count and sum. A bin
    adds its chirps in their order, as a one-radar bincount over the same
    chirps does.
    """
    if ((subbands < 0) | (subbands >= n_subbands)).any():
        raise ValueError(f"chirp subbands must lie in [0, {n_subbands})")
    size = len(chirps) * n_subbands
    bins = subbands + np.repeat(np.arange(0, size, n_subbands), chirps)
    split = bins + flagged * size
    counts, sums = np.empty((3, size), dtype=np.intp), np.empty((3, size))  # all, clean, hit
    counts[1:] = np.bincount(split, minlength=2 * size).reshape(2, size)
    np.add(counts[1], counts[2], out=counts[0])
    sums[0] = np.bincount(bins, sinr, size)
    sums[1] = np.bincount(split, snr, 2 * size)[:size]
    sums[2] = np.bincount(split, sinr, 2 * size)[size:]
    means = np.divide(sums, counts, out=np.full((3, size), np.nan), where=counts > 0)
    means = 10.0 * np.log10(np.maximum(means, 1e-300))
    shape = (len(chirps), n_subbands)
    return EpisodeStats(*(row.reshape(shape) for row in means),
                        *(row.reshape(shape) for row in counts))


def range_fft(samples: np.ndarray) -> np.ndarray:
    """Per-column fast-time DFT of (N_s, H) samples (orthonormal, energy-preserving).

    The dechirped echo beats at -f_r, so the transform is evaluated at
    negative frequencies: bin b then maps to range b * range_bin_m
    directly, and slow-time phases pass through unconjugated.
    """
    return np.fft.ifft(samples, axis=0, norm="ortho")


def hop_sum_weights(params: ChirpParams, subbands: np.ndarray, v: float,
                    k0: int = 0) -> np.ndarray:
    """(K, A) weights that sum chirps k0, k0 + 1, ... of a frame by subband at velocity v.

    Chirp k's weight, in its subband's column, is conj(v_k) for the Doppler
    part v_k = exp(j2pi f_d k - j2pi (2/c) k v T_pri h_k) of the template.
    """
    k = k0 + np.arange(subbands.size)
    f_d = params.doppler_cycles(v)
    vk = np.exp(1j * (2.0 * np.pi * (f_d * k) - params.hop_phase(v, k, subbands)))
    weights = np.zeros((subbands.size, params.n_subbands), dtype=complex)
    weights[np.arange(subbands.size), subbands] = np.conj(vk)
    return weights


def default_eps_grid(params: ChirpParams) -> np.ndarray:
    """Fine-offset grid spanning one coarse bin, 2 B/B_a points."""
    points_per_bin = 2 * params.n_subbands
    binw = params.coarse_bin_m
    step = binw / points_per_bin
    return -binw / 2.0 + step * (np.arange(points_per_bin) + 0.5)


def range_profile_at_velocity(spectrum: np.ndarray, hops_hz: np.ndarray, coarse_bins,
                              eps_grid, params: ChirpParams) -> FineRangeProfile:
    """Matched-filter magnitudes over (coarse bin, fine offset), by range.

    ``spectrum`` (N_s, H) is the ``range_fft`` of a frame's hop sums at the
    target's velocity (``hop_sum_weights``), column h on hop ``hops_hz[h]``.
    The rest of the template is exp(-j2pi (2/c)(rbar_b + eps) h_k), so the
    filter is the phase product sum_h spectrum[b, h] exp(+j2pi (2/c)(rbar_b
    + eps) h) (stepped-frequency processing; Wehner, 1995, ch. 5).
    """
    z = np.asarray(spectrum)
    hops = np.asarray(hops_hz, dtype=float)
    bins = np.asarray(coarse_bins, dtype=int)
    eps = np.asarray(eps_grid, dtype=float)
    if z.ndim != 2 or hops.shape != (z.shape[1],):
        raise ValueError(f"hops_hz of shape {hops.shape} needs one hop per column "
                         f"of the (N_s, H) spectrum, got {z.shape}")
    if np.any((bins < 0) | (bins >= z.shape[0])):
        raise ValueError(f"coarse_bins must lie in [0, {z.shape[0]})")
    if np.any(np.abs(eps) > C / (4.0 * params.subband_hz) + 1e-9):
        raise ValueError("fine-range grid outside [-c/(4 B_a), c/(4 B_a)]")
    fine = bins[:, None] * params.range_bin_m + eps                       # (B, E)
    phase = np.exp(2j * np.pi * (2.0 / C) * (fine[:, None, :] * hops[:, None]))  # (B, H, E)
    mags = 20.0 * np.log10(np.abs(z[bins, None, :] @ phase) + 1e-300).reshape(-1)
    order = np.argsort(fine, axis=None, kind="stable")
    return FineRangeProfile(ranges_m=fine.ravel()[order], mags_db=mags[order])


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

