"""Subband schedulers.

Four policies: a uniform baseline, a fixed subband, an
explore-then-commit equilibrium seeker that needs inter-radar stat
exchange, and a model-free exponential-weights learner with
importance-weighted losses. The first two are a fixed probability row,
which ``sim`` keeps; the other two keep a state that is updated once
per episode and is deterministic given its inputs and a seeded random
source. One ``NoRegretState`` holds every exponential-weights radar of
a run as rows of (radars, subbands) arrays and steps them together; one
``NashHopperState`` holds every explore-then-commit radar's row and the
estimates they exchange, and solves once per distinct game.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .game import check_simplex, solve_nash_welfare_max

# Per-episode cap on importance-weighted loss increments. Wide on purpose:
# softmax stabilization already bounds exp(), so the clip only guards
# pathological single-episode spikes. A tight cap (tens of dB) saturates
# every increment once probabilities drop below ~1/A and freezes learning.
DEFAULT_LOSS_CLIP_DB = 600.0
# Unobserved collision cells start here so unexplored collisions are not
# presumed safe.
DEFAULT_PESSIMISTIC_FLOOR_DB = -10.0
DEFAULT_KAPPA = 0.04
# numpy adds fewer than this many terms in order; from this many on it
# sums pairwise, so dropping zero terms could move a sum's last bit.
IN_ORDER_SUM_TERMS = 8
# The fields of ``EpisodeStats``: three estimates, then their counts.
_STATS_FIELDS = ("sinr_db", "snr_db", "hit_sinr_db", "count", "clean_count", "hit_count")


@dataclass(frozen=True)
class EpisodeStats:
    """Windowed per-subband estimates of one episode, one row per radar.

    Every field has shape (radars, subbands). Entries are NaN wherever the
    corresponding count is zero: missing data is encoded as absent, never
    as 0 dB. ``sinr_db`` averages every chirp at the subband (interference
    present or not), ``snr_db`` only the interference-free ones,
    ``hit_sinr_db`` only the chirps where interference was detected.
    """

    sinr_db: np.ndarray
    snr_db: np.ndarray
    hit_sinr_db: np.ndarray
    count: np.ndarray
    clean_count: np.ndarray
    hit_count: np.ndarray

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name)) for name in _STATS_FIELDS]
        shape = arrays[0].shape
        if len(shape) != 2 or any(a.shape != shape for a in arrays):
            raise ValueError("per-subband arrays must share one (radars, subbands) shape")
        for name, a in zip(_STATS_FIELDS, arrays):
            object.__setattr__(self, name, a)
        for name, a in zip(_STATS_FIELDS[3:], arrays[3:]):
            if (a < 0).any():
                raise ValueError(f"{name} has negative entries")


def schedule_params(tau: int, n_subbands: int, c_eta=1.0, c_gamma=1.0):
    """Learning rate and exploration mix for episode tau (1-based).

    Both decay as sqrt(log A / (tau * A)), scaled by ``c_eta`` and
    ``c_gamma`` (scalars, or one entry per radar); the exploration share
    is clamped to 1.
    """
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if n_subbands < 2:
        raise ValueError("need at least two subbands")
    if (np.asarray(c_eta) <= 0).any() or (np.asarray(c_gamma) <= 0).any():
        raise ValueError("scales must be positive")
    base = np.sqrt(np.log(n_subbands) / (tau * n_subbands))
    return c_eta * base, np.minimum(1.0, c_gamma * base)


def sample_subbands(probs: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` subbands drawn from one radar's probability vector.

    The steps ``rng.choice(probs.size, size, p=probs)`` takes, so the
    draws and the generator state equal its own, without its second
    validation of a row that ``check_simplex`` has checked.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


# The per-radar parameters of a ``NoRegretState``, one (m,) array each.
NOREGRET_PARAMS = ("c_eta", "c_gamma", "kappa", "loss_clip_db", "baseline_delta_db")


@dataclass(frozen=True)
class NoRegretState:
    """Exponential-weights learner state of a run's m ``noregret`` radars.

    Row r of ``loss`` and ``probs`` (m, A) belongs to the radar whose row
    in the episode's ``EpisodeStats`` is ``radars[r]``. Each parameter of
    ``NOREGRET_PARAMS`` is an (m,) array; a ``baseline_delta_db`` of NaN
    leaves that radar's baseline off. The radars step together, so they
    share ``tau``.
    """

    radars: np.ndarray
    loss: np.ndarray
    probs: np.ndarray
    c_eta: np.ndarray
    c_gamma: np.ndarray
    kappa: np.ndarray
    loss_clip_db: np.ndarray
    baseline_delta_db: np.ndarray
    tau: int = 1

    def __post_init__(self):
        probs = check_simplex(self.probs)
        if probs.ndim != 2 or probs.shape[1] < 1:
            raise ValueError("strategies must be (radars, subbands) probability rows")
        loss = np.asarray(self.loss, dtype=float)
        if loss.shape != probs.shape:
            raise ValueError("loss rows do not match the strategy rows")
        if not np.all(np.isfinite(loss)):
            raise ValueError("loss entries must be finite")
        m, n = probs.shape
        radars = np.asarray(self.radars)
        if radars.shape != (m,) or radars.dtype.kind not in "iu":
            raise ValueError("need one integer stats row per radar")
        params = {name: np.asarray(getattr(self, name), dtype=float) for name in NOREGRET_PARAMS}
        if any(v.shape != (m,) for v in params.values()):
            raise ValueError(f"need one value per radar of each of {NOREGRET_PARAMS}")
        if not np.all((params["kappa"] >= 0.0) & (params["kappa"] < 1.0 / n)):
            raise ValueError(f"kappa must lie in [0, 1/{n})")
        for name, value in dict(params, radars=radars, loss=loss, probs=probs).items():
            object.__setattr__(self, name, value)


def init_noregret(n_subbands: int, params: dict) -> NoRegretState:
    """Zero loss and uniform play for each radar of ``params``.

    ``params`` maps a radar's row in the episode stats to its values of
    ``NOREGRET_PARAMS``; a ``baseline_delta_db`` of None leaves its
    baseline off.
    """
    m = len(params)
    columns = {name: [np.nan if p[name] is None else p[name] for p in params.values()]
               for name in NOREGRET_PARAMS}
    return NoRegretState(radars=np.fromiter(params, dtype=int, count=m),
                         loss=np.zeros((m, n_subbands)),
                         probs=np.full((m, n_subbands), 1.0 / n_subbands), **columns)


def noregret_update(state: NoRegretState, stats: EpisodeStats) -> NoRegretState:
    """One exponential-weights step of every radar, on the ``schedule_params`` schedule.

    Subbands played this episode accumulate the importance-weighted loss
    -SINR_db / p(f); unplayed subbands are left unchanged (the 1/p factor
    already makes the played-arm increment an unbiased loss estimate).
    The new strategy is then thresholded: entries at or below the radar's
    ``kappa`` are zeroed and the rest renormalized.

    Where ``baseline_delta_db`` is set, the episode's mean clean-chirp SNR
    minus that offset is subtracted from each SINR before weighting. The
    baseline removes the common loss drift shared by interference-free
    subbands (a control variate; softmax is invariant to constant loss
    shifts but not to shifts amplified by 1/p), and the small offset
    leaves a uniform negative drift that favours low-probability subbands,
    so a subband eliminated by an unlucky estimate can re-enter while
    persistently interfered subbands still accumulate relative loss.

    Each step is elementwise or reduces along one radar's row, so every
    row comes out bit for bit as a one-radar update gives it. The
    baseline is each radar's ``np.mean`` of its observed SNRs. Below
    ``IN_ORDER_SUM_TERMS`` subbands a zero-filled row sum adds them in the
    same order; from there on it groups numpy's additions differently, so
    each radar's mean is taken on its own.
    """
    probs, rows = state.probs, state.radars
    m, n = probs.shape
    if stats.count.shape[1] != n:
        raise ValueError("stats do not match the strategy length")
    played = stats.count[rows] > 0
    if (played & (probs <= 0.0)).any():
        raise RuntimeError("subband reported as played but had probability 0")
    snr = stats.snr_db[rows]
    observed = np.isfinite(snr)
    on = ~np.isnan(state.baseline_delta_db) & observed.any(axis=1)
    base = np.zeros(m)
    if n < IN_ORDER_SUM_TERMS:  # a zero-filled row adds its SNRs in np.mean's order
        np.divide(np.where(observed, snr, 0.0).sum(axis=1), observed.sum(axis=1), out=base,
                  where=on)
    else:
        for r in np.flatnonzero(on):
            base[r] = np.mean(snr[r, observed[r]])
    np.subtract(base, state.baseline_delta_db, out=base, where=on)
    inc = np.divide(base[:, None] - stats.sinr_db[rows], probs, out=np.zeros((m, n)),
                    where=played)
    clip = state.loss_clip_db[:, None]
    loss = state.loss.copy()
    np.add(loss, np.clip(inc, -clip, clip), out=loss, where=played)
    if not np.isfinite(loss).all():
        raise ValueError("loss entries must be finite")
    eta, gamma = schedule_params(state.tau, n, state.c_eta, state.c_gamma)
    z = -eta[:, None] * loss
    z -= z.max(axis=1, keepdims=True)  # softmax shift invariance keeps exp() bounded
    w = np.exp(z)
    p = check_simplex((1.0 - gamma[:, None]) * (w / w.sum(axis=1, keepdims=True))
                      + (gamma / n)[:, None])
    keep = p > state.kappa[:, None]
    if not keep.any(axis=1).all():
        raise ValueError("thresholding removed every subband")
    q = np.where(keep, p, 0.0)
    return _successor(state, loss, q / q.sum(axis=1, keepdims=True))


def _successor(state: NoRegretState, loss: np.ndarray, probs: np.ndarray) -> NoRegretState:
    """``state`` one step on, holding ``loss`` and ``probs``.

    The constructor's checks are not run again: the other fields are
    ``state``'s own, and ``noregret_update`` has checked the loss it summed
    and the strategy it normalized.
    """
    nxt = object.__new__(NoRegretState)
    nxt.__dict__.update(state.__dict__, loss=loss, probs=probs, tau=state.tau + 1)
    return nxt


@dataclass(frozen=True)
class NashHopperState:
    """Explore-then-commit state of a run's m ``nash`` radars.

    The radars exchange their per-subband estimates, so they share one
    copy of them: clean-chirp SNR and collision-conditioned SINR, each
    (players, subbands) with one row per radar of the run and NaN until
    first observed. Row r of ``probs`` (m, A) is the strategy of player
    ``radars[r]``; ``floor_db``, ``explore_episodes``, ``solver_mode`` and
    ``committed`` are (m,) arrays. A radar explores, re-solving every
    episode, until ``nash_commit`` freezes its row once ``episodes_seen``
    reaches its ``explore_episodes``.
    """

    radars: np.ndarray
    snr_est_db: np.ndarray
    hit_sinr_est_db: np.ndarray
    probs: np.ndarray
    floor_db: np.ndarray
    explore_episodes: np.ndarray
    solver_mode: np.ndarray
    committed: np.ndarray
    episodes_seen: int = 0


def init_nash_hopper(n_players: int, n_subbands: int, params: dict) -> NashHopperState:
    """No estimates and uniform play for each radar of ``params``, which maps
    a radar's row in the episode stats to its ``nash`` policy parameters."""
    m = len(params)
    nan = np.full((n_players, n_subbands), np.nan)
    columns = {name: np.array([p[name] for p in params.values()])
               for name in ("floor_db", "explore_episodes", "solver_mode")}
    return NashHopperState(radars=np.fromiter(params, dtype=int, count=m),
                           snr_est_db=nan, hit_sinr_est_db=nan.copy(),
                           probs=np.full((m, n_subbands), 1.0 / n_subbands),
                           committed=np.zeros(m, dtype=bool), **columns)


def floored_estimates(state: NashHopperState, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The exchanged (snr, hit) estimates, each (players, subbands), with the
    entries not yet observed at row r's pessimistic floor: the collision game
    that ``game.solve_nash_welfare_max`` solves for that radar."""
    floor = state.floor_db[r]
    return (np.where(np.isnan(state.snr_est_db), floor, state.snr_est_db),
            np.where(np.isnan(state.hit_sinr_est_db), floor, state.hit_sinr_est_db))


def nash_explore_update(state: NashHopperState, stats: EpisodeStats) -> NashHopperState:
    """Fold one episode of exchanged stats and re-solve the welfare-max NE.

    ``stats`` holds every radar's row. The radars still exploring play
    their slice of the NE of their floored estimates; those whose floored
    estimates and solver mode agree share a single solve.
    """
    if state.committed.all():
        raise RuntimeError("explore update after commit")
    if stats.count.shape[0] != state.snr_est_db.shape[0]:
        raise ValueError(f"need stats from all {state.snr_est_db.shape[0]} radars, "
                         f"got {stats.count.shape[0]}")
    nxt = replace(state,
                  snr_est_db=np.where(stats.clean_count > 0, stats.snr_db, state.snr_est_db),
                  hit_sinr_est_db=np.where(stats.hit_count > 0, stats.hit_sinr_db,
                                           state.hit_sinr_est_db),
                  probs=state.probs.copy(), episodes_seen=state.episodes_seen + 1)
    solved = {}
    for r in np.flatnonzero(~state.committed):
        snr, hit = floored_estimates(nxt, r)
        key = (snr.tobytes(), hit.tobytes(), state.solver_mode[r])
        if key not in solved:
            solved[key] = solve_nash_welfare_max(snr, hit, mode=state.solver_mode[r])
        nxt.probs[r] = solved[key][state.radars[r]]
    return nxt


def nash_commit(state: NashHopperState) -> NashHopperState:
    """Freeze, for the rest of the run, the rows whose exploration just ended.

    The estimates have not changed since the explore update that folded
    the last exploration episode, so that update's row is the radar's
    slice of the welfare-max NE of its floored estimates, committed as is.
    """
    ending = ~state.committed & (state.explore_episodes == state.episodes_seen)
    if not ending.any():
        raise RuntimeError(f"no exploration ends after {state.episodes_seen} episodes")
    return replace(state, committed=state.committed | ending)
