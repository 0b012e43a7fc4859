"""Game-theoretic core for the subband anti-coordination game.

Mixed strategies, per-player utility tables over joint subband choices,
Nash equilibrium computation, coarse-correlated-equilibrium certification,
and external regret accounting. Utilities are in dB throughout. All
operations are pure functions of their inputs.

Subband indices are 0-based everywhere in this package; index ``a`` maps
to starting frequency ``f_c + a * B_a``.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Simplex membership tolerance for strategies and joint distributions.
PROB_ATOL = 1e-9
# Welfare ties below this are broken lexicographically on support sets.
WELFARE_TIE_ATOL = 1e-9
# A pure deviation must gain more than this (dB) to reject a candidate of
# support enumeration.
BEST_RESPONSE_TOL = 1e-8
# Guard on the joint action space for exhaustive enumeration.
PURE_ENUM_GUARD = 10**7
# Guard on float64 cells, about 400 MB at the guard: of one dense
# (n, A, ..., A) table, n * A**n, and of a run's per-step records.
TABLE_CELL_GUARD = 5 * 10**7
# Guard on the equal-size support pairs a 2-player ``auto`` solve
# enumerates, sum over m of C(A, m)**2 = C(2A, A) - 1: 705,431 at A = 11,
# a few seconds per solve; A = 12 gives 2.7 million.
SUPPORT_PAIR_GUARD = 10**6
# Support pairs per batched solve; bounds the stacked systems' memory. A
# batch holds max(1, _BATCH_PAIRS // C(A, m)) rows of C(A, m) pairs; under
# SUPPORT_PAIR_GUARD, C(A, m) <= C(11, 5) = 462 < _BATCH_PAIRS, so that is
# never more than _BATCH_PAIRS pairs.
_BATCH_PAIRS = 1 << 14


class CapacityError(RuntimeError):
    """The joint action space is too large to enumerate exhaustively."""


class SolverIncompleteError(RuntimeError):
    """No equilibrium was found within the solver's mode."""


def check_simplex(probs) -> np.ndarray:
    """``probs`` as floats whose last axis holds probability vectors, clipped at 0.

    Raises ValueError unless every entry is finite, none is below
    -PROB_ATOL, and every vector sums to 1 within PROB_ATOL.
    """
    p = np.asarray(probs, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("strategy entries must be finite")
    if np.any(p < -PROB_ATOL):
        raise ValueError("strategy has negative entries")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > PROB_ATOL
    if np.any(off):
        raise ValueError(f"strategy sums to {sums[off].flat[0]!r}, not 1")
    return np.clip(p, 0.0, None)


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

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.probs > 0.0))


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
    def n_players(self) -> int:
        return len(self.strategies)

    @property
    def n_subbands(self) -> int:
        return self.strategies[0].n_subbands

    def support_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.support for s in self.strategies)


def pure_profile(actions, n_subbands: int) -> StrategyProfile:
    return StrategyProfile(tuple(pure_strategy(a, n_subbands) for a in actions))


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


@dataclass(frozen=True)
class JointDistribution:
    """Probability mass on joint subband choices, listed by its support.

    ``rows`` (S, n) holds joint actions in C order (last player fastest)
    and ``mass`` (S,) their probabilities; unlisted joint actions have
    mass 0.
    """

    rows: np.ndarray
    mass: np.ndarray
    n_subbands: int

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=int)
        m = np.asarray(self.mass, dtype=float)
        if r.ndim != 2 or r.shape[1] < 1 or m.shape != r.shape[:1]:
            raise ValueError("need (S, n) support rows and (S,) masses")
        if np.any((r < 0) | (r >= self.n_subbands)):
            raise ValueError(f"support rows must lie in [0, {self.n_subbands})")
        if not np.all(np.isfinite(m)):
            raise ValueError("mass entries must be finite")
        if np.any(m < -PROB_ATOL):
            raise ValueError("mass has negative entries")
        if abs(m.sum() - 1.0) > PROB_ATOL:
            raise ValueError(f"mass sums to {m.sum()!r}, not 1")
        object.__setattr__(self, "rows", r)
        object.__setattr__(self, "mass", np.clip(m, 0.0, None))

    @property
    def n_players(self) -> int:
        return self.rows.shape[1]


def _check_profile_table(profile: StrategyProfile, table: UtilityTable):
    if profile.n_players != table.n_players:
        raise ValueError(
            f"profile has {profile.n_players} players, table {table.n_players}"
        )
    if profile.n_subbands != table.n_subbands:
        raise ValueError(
            f"profile has {profile.n_subbands} subbands, table {table.n_subbands}"
        )


def expected_utility(table: UtilityTable, profile: StrategyProfile, player: int) -> float:
    """Expected dB utility of ``player`` under the product distribution."""
    _check_profile_table(profile, table)
    u = table.values[player]
    for s in profile.strategies:
        # The (1, A) @ (A, rest) product np.tensordot makes, without its
        # Python overhead: the same BLAS call, so the same bits.
        u = np.dot(s.probs[None, :], u.reshape(s.probs.size, -1)).reshape(u.shape[1:])
    return float(u)


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


def _support_layouts(a: int, m: int, batch_pairs: int):
    """The (sup0, sup1) pairs of support size m, in batches (see _BATCH_PAIRS).

    Each batch is ``(sup0, sup1, flat, template, unit)``: the pairs in
    ``itertools.combinations`` order; the flat indices into ``u.ravel()``
    of each pair's sup0 x sup1 block, whose transpose in the last two axes
    indexes the sup1 x sup0 block; the augmented system with its -1
    column and normalization row set and the block left at 0; and its
    unit right-hand side. The arrays are read-only, since a cached layout
    is shared by every later solve.
    """
    sups = np.array(list(itertools.combinations(range(a), m)))
    template = np.zeros((m + 1, m + 1))
    template[:m, m] = -1.0
    template[m, :m] = 1.0
    unit = np.zeros(m + 1)
    unit[m] = 1.0
    step = max(1, batch_pairs // len(sups))
    for lo in range(0, len(sups), step):
        sup0 = np.repeat(sups[lo:lo + step], len(sups), axis=0)
        sup1 = np.tile(sups, (len(sup0) // len(sups), 1))
        batch = (sup0, sup1, sup0[:, :, None] * a + sup1[:, None, :], template, unit)
        for arr in batch:
            arr.flags.writeable = False
        yield batch


# Room for every support size of A = 2..7 at once; one A has at most 11
# under SUPPORT_PAIR_GUARD.
@functools.lru_cache(maxsize=32)
def _cached_support_layouts(a: int, m: int, batch_pairs: int) -> tuple:
    """``_support_layouts`` kept for the process, for sizes that fit one batch."""
    return tuple(_support_layouts(a, m, batch_pairs))


def _indifference_solutions(template: np.ndarray, unit: np.ndarray, blocks: np.ndarray):
    """Solve one player's augmented systems; keep the non-negative solutions.

    Returns the indices of the kept systems, their strategies clipped at 0,
    and their common values.
    """
    m = blocks.shape[-1]
    aug = np.repeat(template[None], len(blocks), axis=0)
    aug[:, :m, :m] = blocks
    idx = np.flatnonzero(np.linalg.slogdet(aug)[0] != 0.0)
    sol = np.linalg.solve(aug[idx], unit)
    ok = ~(sol[:, :m] < -1e-9).any(axis=1)  # a NaN entry passes, as per pair
    return idx[ok], np.maximum(sol[ok, :m], 0.0), sol[ok, m]


def _support_enumeration_2p(table: UtilityTable) -> list[StrategyProfile]:
    """All mixed NE of a 2-player game found by equal-size support enumeration.

    Player 1's strategy y makes player 0 indifferent over sup0, and
    symmetrically for x. Augmented system: utility rows minus the common
    value v, plus the normalization row. Each support size m is solved in
    batches of (sup0, sup1) pairs, in ``itertools.combinations`` order, so
    equilibria are found in that order. A batch runs in two stages. Stage
    1 solves player 0's systems for every pair and keeps the pairs whose y
    is non-negative and passes player 0's best-response check. Stage 2
    builds and solves player 1's systems only for those pairs, then checks
    x the same way. In each stage ``slogdet`` gives sign 0 exactly where
    ``solve`` raises (both use LAPACK's exact-zero-pivot test), so the
    nonsingular systems are solved in one call. Every kept pair passes the
    same per-matrix predicates as a per-pair loop. Support sizes whose
    pairs fit one batch have their layout cached for the process.
    """
    a = table.n_subbands
    u0, u1 = table.values[0], table.values[1]
    flat_u0, flat_u1 = u0.ravel(), u1.ravel()
    found: dict[tuple, StrategyProfile] = {}
    for m in range(1, a + 1):
        if math.comb(a, m) ** 2 <= _BATCH_PAIRS:
            layouts = _cached_support_layouts(a, m, _BATCH_PAIRS)
        else:
            layouts = _support_layouts(a, m, _BATCH_PAIRS)
        for sup0, sup1, flat, template, unit in layouts:
            kept, y, v0 = _indifference_solutions(template, unit, flat_u0[flat])
            # Best-response checks against all pure deviations. Both products
            # are vector-matrix: numpy computes (A, m) @ (m,) on the same
            # path, so each batch item equals the per-pair value bit for bit.
            dev0 = (y[:, None, :] @ u0.T[sup1[kept]])[:, 0].max(axis=1)
            ok = ~(dev0 > v0 + BEST_RESPONSE_TOL)
            kept, y = kept[ok], y[ok]
            if not kept.size:
                continue
            idx, x, v1 = _indifference_solutions(
                template, unit, flat_u1[flat[kept]].swapaxes(1, 2))
            kept, y = kept[idx], y[idx]
            dev1 = (x[:, None, :] @ u1[sup0[kept]])[:, 0].max(axis=1)
            ok = ~(dev1 > v1 + BEST_RESPONSE_TOL)
            for s0, s1, xi, yi in zip(sup0[kept[ok]], sup1[kept[ok]], x[ok], y[ok]):
                p0 = np.zeros(a)
                p0[s0] = xi / xi.sum()
                p1 = np.zeros(a)
                p1[s1] = yi / yi.sum()
                key = (tuple(np.round(p0, 9)), tuple(np.round(p1, 9)))
                found.setdefault(
                    key, StrategyProfile((MixedStrategy(p0), MixedStrategy(p1)))
                )
    return list(found.values())


def solve_nash_welfare_max(table: UtilityTable, mode: str = "auto") -> StrategyProfile:
    """The NE maximizing total expected utility, ties broken reproducibly.

    ``mode='auto'`` adds two-player mixed equilibria via support
    enumeration; ``mode='pure'`` considers pure equilibria only (the only
    option for three or more players). Ties in welfare are broken by
    lexicographic order on the support index sets.
    """
    if mode not in ("auto", "pure"):
        raise ValueError(f"unknown mode {mode!r}")
    candidates = {p.support_key(): p for p in enumerate_pure_nash(table)}
    if mode == "auto" and table.n_players == 2:
        for p in _support_enumeration_2p(table):
            candidates.setdefault(p.support_key(), p)
    if not candidates:
        raise SolverIncompleteError(
            "no equilibrium found (pure-only enumeration for >2 players, "
            "equal-size support enumeration for 2)"
        )
    welfare = {
        key: sum(expected_utility(table, p, i) for i in range(table.n_players))
        for key, p in candidates.items()
    }
    best = max(welfare.values())
    tied = sorted(k for k, w in welfare.items() if w >= best - WELFARE_TIE_ATOL)
    return candidates[tied[0]]


def cce_deviation_gap(joint: JointDistribution, per_arm: np.ndarray, player: int) -> float:
    """Best fixed-deviation gain (dB) of ``player`` against ``joint``.

    ``per_arm[s, a]`` is the player's utility for subband a while the
    others play support row s. Non-positive for every player iff the
    joint distribution is a CCE; at most eps iff it is an eps-CCE.
    """
    if per_arm.shape != (joint.mass.size, joint.n_subbands):
        raise ValueError("per-arm utilities do not match the joint's support")
    played = per_arm[np.arange(joint.mass.size), joint.rows[:, player]]
    return float(np.max(joint.mass @ per_arm) - joint.mass @ played)


def external_regret(per_arm: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Hindsight gap (dB x steps) to the best fixed subband after every step.

    ``per_arm[k, a]`` is the utility subband a would have earned at step k
    against the others' play, and ``actions[k]`` the subband played. Entry
    k is the regret over steps 0..k: the best arm's cumulative utility
    minus the realized one. The last entry covers the horizon.
    """
    actions = np.asarray(actions)
    if per_arm.ndim != 2 or actions.shape != per_arm.shape[:1]:
        raise ValueError("need (steps, A) per-arm utilities and (steps,) actions")
    # (A, steps) in C order: numpy's max over short rows is ~40x slower.
    arm_cum = np.cumsum(np.ascontiguousarray(per_arm.T), axis=1)
    arm_cum -= np.cumsum(per_arm[np.arange(actions.size), actions])
    return arm_cum.max(axis=0)


def empirical_joint(actions, n_subbands: int) -> tuple[JointDistribution, np.ndarray]:
    """Empirical distribution of the joint actions played, and each step's support row.

    ``actions`` has one row per step (at least one) and one column per
    radar; the support comes back in C order. The second result gives,
    per step, the index of its joint action among the support rows.
    """
    actions = np.asarray(actions, dtype=int)
    if actions.ndim != 2 or actions.shape[0] < 1:
        raise ValueError("need a (steps, radars) array of joint actions with steps >= 1")
    # Same as np.unique(actions, axis=0, return_counts=True), which sorts
    # structured rows about 7x slower than this lexsort at 2 radars.
    order = np.lexsort(actions.T[::-1])  # first radar is the primary key
    ordered = actions[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    counts = np.diff(np.flatnonzero(np.append(first, True)))
    support_row = np.empty(len(actions), dtype=int)
    support_row[order] = np.cumsum(first) - 1
    return JointDistribution(ordered[first], counts / len(actions), n_subbands), support_row
