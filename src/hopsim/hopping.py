"""Per-radar subband schedulers.

Four policies: a uniform baseline, a fixed subband, an
explore-then-commit equilibrium seeker that needs inter-radar stat
exchange, and a model-free exponential-weights learner with
importance-weighted losses. The first two are a fixed ``MixedStrategy``;
the other two keep a state that is updated once per episode and is
deterministic given its inputs and a seeded random source.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .game import (
    MixedStrategy,
    StrategyProfile,
    UtilityTable,
    solve_nash_welfare_max,
)

# Per-episode cap on importance-weighted loss increments. Wide on purpose:
# softmax stabilization already bounds exp(), so the clip only guards
# pathological single-episode spikes. A tight cap (tens of dB) saturates
# every increment once probabilities drop below ~1/A and freezes learning.
DEFAULT_LOSS_CLIP_DB = 600.0
# Unobserved collision cells start here so unexplored collisions are not
# presumed safe.
DEFAULT_PESSIMISTIC_FLOOR_DB = -10.0
DEFAULT_KAPPA = 0.04


@dataclass(frozen=True)
class EpisodeStats:
    """Windowed per-subband estimates for one episode at one radar.

    Entries are NaN wherever the corresponding count is zero: missing
    data is encoded as absent, never as 0 dB. ``sinr_db`` averages every
    chirp at the subband (interference present or not), ``snr_db`` only
    the interference-free ones, ``hit_sinr_db`` only the chirps where
    interference was detected.
    """

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


def schedule_params(tau: int, n_subbands: int, c_eta: float = 1.0,
                    c_gamma: float = 1.0) -> tuple[float, float]:
    """Learning rate and exploration mix for episode tau (1-based).

    Both decay as sqrt(log A / (tau * A)); the exploration share is
    clamped to 1.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if n_subbands < 2:
        raise ValueError("need at least two subbands")
    if c_eta <= 0 or c_gamma <= 0:
        raise ValueError("scales must be positive")
    base = np.sqrt(np.log(n_subbands) / (tau * n_subbands))
    return c_eta * base, min(1.0, c_gamma * base)


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


def sample_subbands(p: MixedStrategy, rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.choice(p.n_subbands, size=size, p=p.probs)


def uniform_policy(n_subbands: int) -> MixedStrategy:
    if n_subbands < 1:
        raise ValueError("need at least one subband")
    return MixedStrategy(np.full(n_subbands, 1.0 / n_subbands))


@dataclass(frozen=True)
class NoRegretState:
    """Exponential-weights learner state for one radar."""

    loss: np.ndarray
    strategy: MixedStrategy
    tau: int = 1
    c_eta: float = 1.0
    c_gamma: float = 1.0
    kappa: float = DEFAULT_KAPPA
    loss_clip_db: float = DEFAULT_LOSS_CLIP_DB
    baseline_delta_db: float | None = None

    def __post_init__(self):
        loss = np.asarray(self.loss, dtype=float)
        if loss.shape != (self.strategy.n_subbands,):
            raise ValueError("loss vector does not match the strategy length")
        if not np.all(np.isfinite(loss)):
            raise ValueError("loss entries must be finite")
        object.__setattr__(self, "loss", loss)


def init_noregret(n_subbands: int, **kwargs) -> NoRegretState:
    return NoRegretState(loss=np.zeros(n_subbands),
                         strategy=uniform_policy(n_subbands), **kwargs)


def noregret_update(state: NoRegretState, stats: EpisodeStats) -> NoRegretState:
    """One exponential-weights step, on the ``schedule_params`` schedule, after an episode.

    Subbands played this episode accumulate the importance-weighted loss
    -SINR_db / p(f); unplayed subbands are left unchanged (the 1/p factor
    already makes the played-arm increment an unbiased loss estimate).

    When ``baseline_delta_db`` is set, the episode's mean clean-chirp SNR
    minus that offset is subtracted from each SINR before weighting. The
    baseline removes the common loss drift shared by interference-free
    subbands (a control variate; softmax is invariant to constant loss
    shifts but not to shifts amplified by 1/p), and the small offset
    leaves a uniform negative drift that favours low-probability subbands,
    so a subband eliminated by an unlucky estimate can re-enter while
    persistently interfered subbands still accumulate relative loss.
    """
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
    eta, gamma = schedule_params(state.tau, n, state.c_eta, state.c_gamma)
    z = -eta * loss
    z -= z.max()  # softmax shift invariance keeps exp() bounded
    w = np.exp(z)
    p_tilde = w / w.sum()
    p = (1.0 - gamma) * p_tilde + gamma / n
    nxt = hard_threshold(MixedStrategy(p), state.kappa)
    return replace(state, loss=loss, strategy=nxt, tau=state.tau + 1)


@dataclass(frozen=True)
class NashHopperState:
    """Explore-then-commit state for one radar.

    Holds the exchanged per-subband estimates for every radar: clean-chirp
    SNR and collision-conditioned SINR, both NaN until first observed.
    The estimated utility table maps those onto joint actions; collision
    cells with no observation yet fall back to a pessimistic floor. The
    radar explores until ``committed`` is set, which ``nash_commit`` does
    once ``episodes_seen`` reaches ``explore_episodes``.
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
    floor_db: float = DEFAULT_PESSIMISTIC_FLOOR_DB
    solver_mode: str = "auto"

    @property
    def strategy(self) -> MixedStrategy:
        if self.committed is not None:
            return self.committed
        return self.profile.strategies[self.player]


def init_nash_hopper(player: int, n_players: int, n_subbands: int,
                     explore_episodes: int, **kwargs) -> NashHopperState:
    uniform = StrategyProfile(tuple(uniform_policy(n_subbands) for _ in range(n_players)))
    nan = np.full((n_players, n_subbands), np.nan)
    return NashHopperState(
        player=player, n_players=n_players, n_subbands=n_subbands,
        snr_est_db=nan.copy(), hit_sinr_est_db=nan.copy(),
        profile=uniform, explore_episodes=explore_episodes, **kwargs)


def estimated_table(state: NashHopperState) -> UtilityTable:
    """Utility table from the exchanged estimates: player i's collision SINR on its
    subband where another player shares it, else its SNR (on sparse index grids)."""
    floor = state.floor_db
    snr = np.where(np.isnan(state.snr_est_db), floor, state.snr_est_db)
    hit = np.where(np.isnan(state.hit_sinr_est_db), floor, state.hit_sinr_est_db)
    n = state.n_players
    shape = (state.n_subbands,) * n
    grids = np.indices(shape, sparse=True)
    values = np.empty((n,) + shape)
    for i in range(n):
        shared = np.zeros(shape, dtype=bool)
        for j in range(n):
            if j != i:
                shared |= grids[j] == grids[i]
        values[i] = np.where(shared, hit[i][grids[i]], snr[i][grids[i]])
    return UtilityTable(values)


def nash_explore_update(state: NashHopperState, all_stats, solved: dict) -> NashHopperState:
    """Fold one episode of exchanged stats and re-solve the welfare-max NE.

    ``solved`` maps (table values, solver mode) to the profile already
    solved for that key. Radars that pass the same dict for one episode
    build the same table from the common-knowledge stats whenever their
    floor and mode agree, and then share a single solve.
    """
    if state.committed is not None:
        raise RuntimeError("explore update after commit")
    if len(all_stats) != state.n_players:
        raise ValueError(
            f"need stats from all {state.n_players} radars, got {len(all_stats)}"
        )
    snr = state.snr_est_db.copy()
    hit = state.hit_sinr_est_db.copy()
    for i, st in enumerate(all_stats):
        clean = np.asarray(st.clean_count) > 0
        snr[i, clean] = np.asarray(st.snr_db)[clean]
        hits = np.asarray(st.hit_count) > 0
        hit[i, hits] = np.asarray(st.hit_sinr_db)[hits]
    nxt = replace(state, snr_est_db=snr, hit_sinr_est_db=hit,
                  episodes_seen=state.episodes_seen + 1)
    table = estimated_table(nxt)
    key = (table.values.shape, table.values.tobytes(), nxt.solver_mode)
    if key not in solved:
        solved[key] = solve_nash_welfare_max(table, mode=nxt.solver_mode)
    return replace(nxt, profile=solved[key])


def nash_commit(state: NashHopperState) -> NashHopperState:
    """Freeze this radar's slice of the welfare-max NE for the rest of the run.

    The estimates have not changed since the explore update that folded
    the last exploration episode, so that update's profile is the
    welfare-max NE of ``estimated_table(state)`` and is committed as is.
    """
    if state.episodes_seen != state.explore_episodes:
        raise RuntimeError(
            f"commit after {state.episodes_seen} exploration episodes, "
            f"expected {state.explore_episodes}"
        )
    return replace(state, committed=state.profile.strategies[state.player])
