"""Reference implementations that only the tests call.

The simulator synthesizes and evaluates whole blocks of chirps and solves
whole batches of support pairs; these are the per-chirp, per-profile and
per-pair definitions those block operations are checked against, plus
small helpers that no program path needs. Seeded tests depend on the
order of each function's random draws: keep it.
"""
from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

import hopsim
import hopsim.signal as sig
from hopsim.cli import (
    RunManifest,
    _emit_seed,
    _sha256,
    _worker_count,
    _write_csv,
    render_config,
)
from hopsim.game import (
    JointDistribution,
    MixedStrategy,
    StrategyProfile,
    UtilityTable,
    _check_profile_table,
    expected_utility,
)
from hopsim.signal import C, ChirpParams, Target, _echo_terms
from hopsim.sim import ScenarioConfig, run_scenario

# Default tolerance (dB) for equilibrium checks.
EQ_TOL_DB = 1e-6


def bundled_config_path(name: str = "table1") -> Path:
    return Path(hopsim.__file__).parent / "data" / f"{name}.cfg"


def subband_start_hz(params: ChirpParams, a) -> np.ndarray | float:
    return params.f_c + np.asarray(a) * params.subband_hz


def hop_offsets_hz(params: ChirpParams, a) -> np.ndarray | float:
    """Delta-b frequency shift of subband index a relative to f_c."""
    return np.asarray(a) * params.subband_hz


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


def dechirped_echo(params: ChirpParams, tgt: Target, k: int, db_k: float,
                   noise_power: float = 1.0, phase0: float = 0.0) -> np.ndarray:
    """Post-mixer echo samples of one chirp; ``db_k`` is the hop offset (Hz)."""
    delay = (2.0 / C) * (tgt.range_m + k * tgt.velocity_mps * params.pri_s)
    if not 0.0 <= delay < params.active_s:
        raise ValueError("round-trip delay outside the chirp: target beyond unambiguous range")
    rbar, eps0, f_r, f_d, amp = _echo_terms(params, tgt, noise_power)
    t = np.arange(params.n_samples) / params.adc_hz
    hop = -2.0 * np.pi * (2.0 * rbar / C
                          + 2.0 * (eps0 + k * tgt.velocity_mps * params.pri_s) / C) * db_k
    phase = -2.0 * np.pi * f_r * t + 2.0 * np.pi * f_d * k + hop + phase0
    return amp * np.exp(1j * phase)


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
    return amp * np.exp(1j * phi) * sig.interference_bases(victim, [source])[0][0]


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


def measure_episode_inline(ch, targets, target_phases, hops, k0, k_ep, collided, amps,
                           bases, intf_gram, noise, rng, genie_detection, last,
                           detection_factor):
    """The per-episode measurement branch ``run_scenario`` once inlined.

    ``amps`` and ``bases`` list each linked source's amplitudes (K,) and
    residual chirp (N_s,) in ascending source order, ``intf_gram`` is their
    Gram matrix and ``collided`` the genie's summed overlap weights.
    Returns the flags, clean and interference powers, and the received
    samples (None when not synthesized).
    """
    samples = None
    if genie_detection and not last:
        # Only the final frame's samples are used (range
        # profile), so other frames draw each chirp's measured
        # powers from their exact distribution instead.
        energy = sig._echo_energy(ch, targets, target_phases,
                                  hops, noise, k0)
        p_clean = sig._clean_power_draw(energy, ch.n_samples, noise,
                                        rng)
        p_int = sig._column_energy(
            intf_gram, np.reshape(amps, (len(amps), k_ep)))
        flags = collided > 0.0
    else:
        echo = np.zeros((ch.n_samples, k_ep), dtype=complex)
        for tgt, ph in zip(targets, target_phases):
            echo += sig.echo_frame(ch, tgt, hops, noise_power=noise,
                                   phase0=float(ph), k0=k0)
        intf = np.zeros_like(echo)
        for base, amp in zip(bases, amps):
            intf += np.outer(base, amp)
        sigma = np.sqrt(noise / 2.0)
        nz = sigma * (rng.standard_normal(echo.shape)
                      + 1j * rng.standard_normal(echo.shape))
        if genie_detection:
            p_clean = np.mean(np.abs(echo + nz) ** 2, axis=0)
            p_int = np.mean(np.abs(intf) ** 2, axis=0)
            flags = collided > 0.0
        else:
            flags, clean, est = detect_interference_samples(
                echo + intf + nz, noise, detection_factor)
            p_clean = np.mean(np.abs(clean) ** 2, axis=0)
            p_int = np.mean(np.abs(est) ** 2, axis=0)
        samples = echo + intf + nz
    return flags, p_clean, p_int, samples


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


def deviation_utilities(table: UtilityTable, profile: StrategyProfile, player: int) -> np.ndarray:
    """Expected utility of each pure deviation of ``player``, others fixed."""
    _check_profile_table(profile, table)
    u = np.moveaxis(table.values[player], player, 0)
    for j, s in enumerate(profile.strategies):
        if j != player:
            u = np.tensordot(u, s.probs, axes=(1, 0))
    return u


def is_nash(profile: StrategyProfile, table: UtilityTable, tol: float = EQ_TOL_DB) -> bool:
    """True iff no player has a pure deviation improving by more than tol.

    Pure deviations suffice: the expectation is linear in each player's
    own strategy.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    for i in range(table.n_players):
        base = expected_utility(table, profile, i)
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
                    sol.append((np.clip(x[:m], 0.0, None), x[m]))
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


def from_collisions_dense(weights: np.ndarray, n_subbands: int, utility) -> UtilityTable:
    """``UtilityTable.from_collisions`` on full ``np.indices`` grids."""
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
    return UtilityTable.from_collisions(
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
    mass = np.zeros((joint.n_subbands,) * joint.n_players)
    mass[tuple(joint.rows.T)] = joint.mass
    return mass


def write_joint_csv_rows(path: Path, mass: np.ndarray):
    """``joint_dist.csv`` built row by row over ``np.ndindex``."""
    rows = [("-".join(str(a + 1) for a in idx), repr(float(mass[idx])))
            for idx in np.ndindex(mass.shape)]
    _write_csv(path, ["joint_action", "mass"], rows)


def cmd_run_collect_then_emit(config, out_dir, seeds) -> RunManifest:
    """``cli.cmd_run`` that finishes every seed's run before emitting any."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)

    def one(seed):
        return run_scenario(replace(config, seed=seed))

    with ThreadPoolExecutor(max_workers=_worker_count(len(seeds))) as pool:
        results = list(pool.map(one, seeds))

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
