"""Game-theoretic core for the subband anti-coordination game.

Mixed strategies, per-player utility tables over joint subband choices,
Nash equilibrium computation, coarse-correlated-equilibrium certification,
and external regret accounting. Utilities are in dB throughout. All
operations are pure functions of their inputs.

Subband indices are 0-based everywhere in this package; index ``a`` maps
to starting frequency ``f_c + a * B_a``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Simplex membership tolerance for strategies and joint distributions.
PROB_ATOL = 1e-9
# Welfare ties below this are broken lexicographically on support sets.
WELFARE_TIE_ATOL = 1e-9
# Guard on the joint action space for exhaustive enumeration.
PURE_ENUM_GUARD = 10**7
# Guard on the cells of one dense (n, A, ..., A) table: n * A**n float64
# entries, about 400 MB at the guard.
TABLE_CELL_GUARD = 5 * 10**7
# Support pairs per batched solve; bounds the stacked systems' memory.
_BATCH_PAIRS = 1 << 14


class CapacityError(RuntimeError):
    """The joint action space is too large to enumerate exhaustively."""


class SolverIncompleteError(RuntimeError):
    """No equilibrium was found within the solver's mode."""


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over subband indices."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("strategy must be a non-empty 1-D probability vector")
        if np.any(p < -PROB_ATOL):
            raise ValueError("strategy has negative entries")
        if abs(p.sum() - 1.0) > PROB_ATOL:
            raise ValueError(f"strategy sums to {p.sum()!r}, not 1")
        p = np.clip(p, 0.0, None)
        object.__setattr__(self, "probs", p)

    @property
    def n_subbands(self) -> int:
        return self.probs.size

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.probs > 0.0))

    @property
    def pure_action(self) -> int | None:
        """Action index if this is a point mass, else None."""
        a = int(np.argmax(self.probs))
        return a if self.probs[a] >= 1.0 - PROB_ATOL else None


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

    @property
    def pure_actions(self) -> tuple[int, ...] | None:
        acts = tuple(s.pure_action for s in self.strategies)
        return None if any(a is None for a in acts) else acts

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

    def utility(self, player: int, joint) -> float:
        return float(self.values[(player, *joint)])

    @classmethod
    def from_collisions(cls, weights: np.ndarray, n_subbands: int,
                        utility) -> "UtilityTable":
        """Table valued by who shares each player's subband.

        Player i's entry at every joint action is ``utility(i, own, load)``:
        ``own`` is i's subband and ``load`` the sum of ``weights[i, j]``
        over the other players j on that subband, accumulated in
        ascending j. Zero weights are skipped. The index grids are sparse
        (axis j of ``grids[j]`` alone has length A), so ``own`` broadcasts
        against ``load``, and only ``load`` and the output are full size.
        """
        n = weights.shape[0]
        shape = (n_subbands,) * n
        grids = np.indices(shape, sparse=True)
        values = np.empty((n,) + shape)
        for i in range(n):
            load = np.zeros(shape)
            for j in range(n):
                if j != i and weights[i, j] != 0.0:
                    load += weights[i, j] * (grids[j] == grids[i])
            values[i] = utility(i, grids[i], load)
        return cls(values)


@dataclass(frozen=True)
class JointDistribution:
    """Probability mass over joint subband choices, shape (A, ..., A)."""

    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim < 1 or len(set(m.shape)) != 1:
            raise ValueError("mass must have shape (A, ..., A)")
        if np.any(m < -PROB_ATOL):
            raise ValueError("mass has negative entries")
        if abs(m.sum() - 1.0) > PROB_ATOL:
            raise ValueError(f"mass sums to {m.sum()!r}, not 1")
        object.__setattr__(self, "mass", np.clip(m, 0.0, None))

    @property
    def n_players(self) -> int:
        return self.mass.ndim

    @property
    def n_subbands(self) -> int:
        return self.mass.shape[0]


@dataclass(frozen=True)
class RegretLedger:
    """Realized per-chirp utilities and opponent actions for one radar.

    ``opponent_actions[k]`` lists the other players' subbands at chirp k,
    ordered by ascending player index with ``player`` removed.
    """

    player: int
    realized_db: np.ndarray
    opponent_actions: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.realized_db, dtype=float)
        o = np.atleast_2d(np.asarray(self.opponent_actions, dtype=int))
        if r.ndim != 1 or o.shape[0] != r.size:
            raise ValueError("ledger arrays must agree on the chirp count")
        object.__setattr__(self, "realized_db", r)
        object.__setattr__(self, "opponent_actions", o)

    @property
    def n_chirps(self) -> int:
        return self.realized_db.size


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
        u = np.tensordot(s.probs, u, axes=(0, 0))
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


def _support_enumeration_2p(table: UtilityTable, br_tol: float = 1e-8) -> list[StrategyProfile]:
    """All mixed NE of a 2-player game found by equal-size support enumeration.

    Each support size m is solved as one batch of (sup0, sup1) pairs, in
    ``itertools.combinations`` order, so equilibria are found in that
    order. Player 1's strategy y makes player 0 indifferent over sup0, and
    symmetrically for x. Augmented system: utility rows minus the common
    value v, plus the normalization row. ``slogdet`` gives sign 0 exactly
    where ``solve`` raises (both use LAPACK's exact-zero-pivot test), so
    the other systems are solved in one call.
    """
    a = table.n_subbands
    u0, u1 = table.values[0], table.values[1]
    found: dict[tuple, StrategyProfile] = {}
    for m in range(1, a + 1):
        sups = np.array(list(itertools.combinations(range(a), m)))
        step = max(1, _BATCH_PAIRS // len(sups))
        for lo in range(0, len(sups), step):
            sup0 = np.repeat(sups[lo:lo + step], len(sups), axis=0)
            sup1 = np.tile(sups, (len(sup0) // len(sups), 1))
            aug = np.zeros((2, len(sup0), m + 1, m + 1))
            aug[0, :, :m, :m] = u0[sup0[:, :, None], sup1[:, None, :]]
            aug[1, :, :m, :m] = u1[sup0[:, None, :], sup1[:, :, None]]
            aug[:, :, :m, m] = -1.0
            aug[:, :, m, :m] = 1.0
            ok = np.all(np.linalg.slogdet(aug)[0] != 0.0, axis=0)
            sup0, sup1 = sup0[ok], sup1[ok]
            rhs = np.zeros((2, len(sup0), m + 1, 1))
            rhs[:, :, m] = 1.0
            sol = np.linalg.solve(aug[:, ok], rhs)[..., 0]
            ok = ~np.any(sol[:, :, :m] < -1e-9, axis=(0, 2))
            sup0, sup1, sol = sup0[ok], sup1[ok], sol[:, ok]
            y, x = np.clip(sol[:, :, :m], 0.0, None)
            v0, v1 = sol[:, :, m]
            # Best-response check against all pure deviations. Both products
            # are vector-matrix: numpy computes (A, m) @ (m,) on the same
            # path, so each batch item equals the per-pair value bit for bit.
            dev0 = (y[:, None, :] @ u0.T[sup1])[:, 0].max(axis=1)
            dev1 = (x[:, None, :] @ u1[sup0])[:, 0].max(axis=1)
            ok = ~(dev0 > v0 + br_tol) & ~(dev1 > v1 + br_tol)
            for s0, s1, xi, yi in zip(sup0[ok], sup1[ok], x[ok], y[ok]):
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


def cce_deviation_gap(joint: JointDistribution, table: UtilityTable, player: int) -> float:
    """Best fixed-deviation gain (dB) of ``player`` against ``joint``.

    Non-positive for every player iff the joint distribution is a CCE;
    at most eps iff it is an eps-CCE.
    """
    if joint.n_players != table.n_players or joint.n_subbands != table.n_subbands:
        raise ValueError("joint distribution does not match the table")
    base = float((joint.mass * table.values[player]).sum())
    marginal = joint.mass.sum(axis=player)
    u = np.moveaxis(table.values[player], player, 0)
    n_other = table.n_players - 1
    dev = np.tensordot(u, marginal, axes=(list(range(1, n_other + 1)), list(range(n_other))))
    return float(np.max(dev) - base)


def external_regret(ledger: RegretLedger, table: UtilityTable) -> np.ndarray:
    """Hindsight gap (dB x chirps) to the best fixed subband after every chirp.

    Entry k is the regret over chirps 0..k: the best arm's cumulative
    utility minus the realized one. The last entry covers the horizon.
    """
    n_other = table.n_players - 1
    if ledger.opponent_actions.shape[1] != n_other:
        raise ValueError("ledger opponent actions do not match the table")
    u = np.moveaxis(table.values[ledger.player], ledger.player, 0)
    if n_other == 0:
        per_arm = np.broadcast_to(u[:, None], (u.shape[0], ledger.n_chirps))
    else:
        per_arm = u[(slice(None), *ledger.opponent_actions.T)]  # (A, K)
    arm_cum = np.cumsum(per_arm, axis=1)
    arm_cum -= np.cumsum(ledger.realized_db)
    return arm_cum.max(axis=0)


def empirical_joint(histories, n_subbands: int) -> JointDistribution:
    """Empirical distribution of joint actions over the chirp horizon.

    ``histories`` holds one action sequence per radar; all sequences must
    have the same length K >= 1.
    """
    seqs = [np.asarray(h, dtype=int) for h in histories]
    if not seqs or any(s.ndim != 1 for s in seqs):
        raise ValueError("histories must be 1-D action sequences")
    lengths = {s.size for s in seqs}
    if len(lengths) != 1:
        raise ValueError("ragged histories: all radars must report the same chirp count")
    k = lengths.pop()
    if k < 1:
        raise ValueError("need at least one chirp")
    counts = np.zeros((n_subbands,) * len(seqs))
    np.add.at(counts, tuple(seqs), 1.0)
    return JointDistribution(counts / k)
