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
from hopsim.cli import (
    RunManifest,
    _emit_seed,
    _sha256,
    _worker_count,
    _write_csv,
    render_config,
)
from hopsim.game import (
    MixedStrategy,
    StrategyProfile,
    UtilityTable,
    _check_profile_table,
    expected_utility,
)
from hopsim.signal import C, ChirpParams, Target, _echo_terms, interference_base
from hopsim.sim import run_scenario

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
    return amp * np.exp(1j * phi) * interference_base(victim, source)


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
        seed_files, seed_summary = _emit_seed(out, seed, config, metrics)
        files.update(seed_files)
        summary[str(seed)] = seed_summary

    manifest = RunManifest(out_dir=str(out), seeds=seeds, files=files,
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
