"""Game-theoretic core for the subband anti-coordination game.

Nash equilibrium computation, coarse-correlated-equilibrium
certification, and external regret accounting. A strategy is a
probability vector over subbands; a profile is a (players, subbands)
array of them. Utilities are in dB throughout. All operations are pure
functions of their inputs.

The Nash solver plays the collision game of two (players, subbands)
arrays: player i on subband a earns ``hit[i, a]`` if another player is
on a too, else ``snr[i, a]``.

Subband indices are 0-based everywhere in this package; index ``a`` maps
to starting frequency ``f_c + a * B_a``.
"""
from __future__ import annotations

import functools
import itertools
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
# Guard on the float64 cells of a run's per-step records, about 400 MB.
TABLE_CELL_GUARD = 5 * 10**7
# Guard on the support pairs a 2-player ``auto`` solve enumerates, those
# with S = T or |S \ T| = 1: (2**A - 1) + A (A - 1) 2**(A - 2). Where nearly
# every pair passes both players' checks, a solve at A = 13 (327,679 pairs)
# peaks at about 200 MB RSS and takes about 0.5 s; A = 14 (761,855), 440 MB
# and 1.3 s.
SUPPORT_PAIR_GUARD = 5 * 10**5


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
    if not np.isfinite(p).all():
        raise ValueError("strategy entries must be finite")
    if (p < -PROB_ATOL).any():
        raise ValueError("strategy has negative entries")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > PROB_ATOL
    if off.any():
        raise ValueError(f"strategy sums to {sums[off].flat[0]!r}, not 1")
    return np.maximum(p, 0.0)  # what np.clip(p, 0.0, None) calls


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


# One entry per subband count, at most 2 x 2.6 + 0.9 MB under SUPPORT_PAIR_GUARD.
@functools.lru_cache(maxsize=None)
def _support_pairs(a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bit masks (subband i at bit A-1-i) of the supports (S, T) of every pair
    with S = T or |S \\ T| = 1, and the (2**A, A) 0/1 members of each mask.

    Pairs come by size, then S, then T, each in ``itertools.combinations``
    order (descending masks): the order of equal-size support enumeration.
    """
    every = np.arange(1 << a)
    s, t = [every[1:]], [every[1:]]
    for i, j in itertools.permutations(range(a), 2):
        bi, bj = 1 << (a - 1 - i), 1 << (a - 1 - j)
        rest = every[(every & (bi | bj)) == 0]
        s.append(rest | bi)
        t.append(rest | bj)
    s, t = np.concatenate(s), np.concatenate(t)
    order = np.lexsort((-t, -s, np.bitwise_count(s)))
    members = ((every[:, None] >> np.arange(a - 1, -1, -1)) & 1).astype(float)
    out = s[order], t[order], members
    for arr in out:
        arr.flags.writeable = False  # shared by every later solve on a subbands
    return out


def _indifference(own, mixer, members, snr: np.ndarray, d: np.ndarray):
    """Per pair of supports ``own``, ``mixer`` (bit masks), the mix q over
    ``mixer`` that makes a player earning snr[a] + d[a] q[a] indifferent
    over ``own`` at a common value v.

    q[a] = (v - snr[a]) / d[a] on ``own & mixer`` where d != 0. The other k
    rows of ``own`` pin v to their snr and the other k columns of ``mixer``
    are free. k >= 2 is singular (two pinned rows differ by a multiple of
    the normalization row); with k = 1 the free column takes 1 - sum q;
    with k = 0, v = (1 + sum snr/d) / sum 1/d, singular if sum 1/d = 0.
    Returns the pairs whose q is >= -1e-9 and admits no deviation better
    than v + BEST_RESPONSE_TOL, and their q (A, pairs) with the entries
    <= 1e-9 set to 0, so a rounding residue is not in the support.
    """
    bits = 1 << np.arange(d.size - 1, -1, -1)
    nonzero = d != 0.0
    solved = own & mixer & bits[nonzero].sum()
    pinned = own & ~solved
    k = np.bitwise_count(pinned)
    inv, ratio = (np.divide(x, d, out=np.zeros_like(d), where=nonzero) for x in (1.0, snr))
    sums = members @ np.stack([inv, ratio, snr], axis=1)  # of 1/d, snr/d and snr, per mask
    norm = sums[solved, 0]
    rows = np.flatnonzero((k == 1) | ((k == 0) & (norm != 0.0)))
    k = k[rows]
    v = np.divide(1.0 + sums[solved[rows], 1], norm[rows], out=sums[pinned[rows], 2],
                  where=k == 0)
    # A deviation off ``mixer`` earns its snr: drop those pairs before forming q.
    outside = np.where(members == 0.0, snr, -np.inf).max(axis=1)
    ok = ~(outside[mixer[rows]] > v + BEST_RESPONSE_TOL)
    rows, k, v = rows[ok], k[ok], v[ok]
    # (A, pairs) from here: numpy reduces short rows slowly.
    cells = (bits[:, None] & solved[rows]) != 0
    q = np.zeros(cells.shape)
    np.subtract(v, snr[:, None], out=q, where=cells)
    np.divide(q, d[:, None], out=q, where=cells)
    q += ((bits[:, None] & mixer[rows] & ~solved[rows]) != 0) * (1.0 - q.sum(axis=0))
    ok = ~(q < -1e-9).any(axis=0)
    q, v, rows = q[:, ok], v[ok], rows[ok]
    q[q <= 1e-9] = 0.0
    best = ~((snr[:, None] + d[:, None] * q).max(axis=0) > v + BEST_RESPONSE_TOL)
    return rows[best], q[:, best]


def _candidates_2p(snr: np.ndarray, hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both players' unnormalized mixes (A, C) at each pair of supports of
    the two-player collision game of ``snr`` and ``hit`` that passes both
    players' checks, in the order of equal-size support enumeration.

    Player 1's systems are solved only for the pairs player 0's pass.
    """
    d = hit - snr
    s, t, members = _support_pairs(snr.shape[1])
    kept, y = _indifference(s, t, members, snr[0], d[0])
    found, x = _indifference(t[kept], s[kept], members, snr[1], d[1])
    return x, y[:, found]


def _pure_welfare_max(snr: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """The pure NE of the collision game maximizing total utility, the
    first in C order (the least supports) of those within WELFARE_TIE_ATOL.

    One pass per player over the joint actions, on sparse grids: the
    player's utility v, whether v is a best response, and the welfare.
    """
    n, a = snr.shape
    if a**n > PURE_ENUM_GUARD:
        raise CapacityError(f"joint action space {a}^{n} exceeds enumeration guard")
    shape = (a,) * n
    grids = np.indices(shape, sparse=True)
    nash = np.ones(shape, dtype=bool)
    # v is filled in place: a fresh np.where per player would briefly hold
    # a third float array of A**n cells, 80 MB at the guard.
    welfare, v = np.zeros(shape), np.empty(shape)
    for i in range(n):
        shared = np.zeros(shape, dtype=bool)
        for j in range(n):
            if j != i:
                shared |= grids[j] == grids[i]
        np.copyto(v, snr[i][grids[i]])
        np.copyto(v, hit[i][grids[i]], where=shared)
        nash &= v >= v.max(axis=i, keepdims=True)
        welfare += v
    if not nash.any():
        raise SolverIncompleteError("no equilibrium found")
    welfare[~nash] = -np.inf
    first = np.argmax(welfare >= welfare.max() - WELFARE_TIE_ATOL)
    return np.eye(a)[list(np.unravel_index(first, shape))]


def solve_nash_welfare_max(snr: np.ndarray, hit: np.ndarray, mode: str = "auto") -> np.ndarray:
    """The NE of the collision game of ``snr`` and ``hit`` maximizing total
    expected utility, as (players, subbands) strategy rows; ties within
    WELFARE_TIE_ATOL go to the least support sets.

    Two players in ``mode='auto'`` consider the equilibria that equal-size
    support enumeration finds, solved in closed form, the first found with
    each pair of support sets; ``mode='pure'`` and three or more players
    consider the pure equilibria.
    """
    if mode not in ("auto", "pure"):
        raise ValueError(f"unknown mode {mode!r}")
    snr, hit = np.asarray(snr, dtype=float), np.asarray(hit, dtype=float)
    if not (np.all(np.isfinite(snr)) and np.all(np.isfinite(hit))):
        raise ValueError("snr and hit entries must be finite")
    if mode == "pure" or snr.shape[0] != 2:
        return check_simplex(_pure_welfare_max(snr, hit))
    x, y = _candidates_2p(snr, hit)
    # The first candidate of each pair of supports, keyed by their bit masks.
    a = snr.shape[1]
    bits = 1 << np.arange(a - 1, -1, -1)
    key = (bits @ (x > 0.0)) << a | bits @ (y > 0.0)
    first = np.sort(np.unique(key, return_index=True)[1])
    # Normalized whole: numpy sums the columns of a subset in another order.
    x /= x.sum(axis=0)
    y /= y.sum(axis=0)
    x, y, d = x.T[first], y.T[first], hit - snr
    welfare = (x * (snr[0] + d[0] * y)).sum(axis=1) + (y * (snr[1] + d[1] * x)).sum(axis=1)
    if not welfare.size:
        raise SolverIncompleteError("no equilibrium found")
    tied = np.flatnonzero(welfare >= welfare.max() - WELFARE_TIE_ATOL)
    c = min(tied, key=lambda c: (tuple(np.flatnonzero(x[c])), tuple(np.flatnonzero(y[c]))))
    return check_simplex(np.stack([x[c], y[c]]))


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


def external_regret(per_arm: np.ndarray, support_row: np.ndarray, actions: np.ndarray,
                    bounds: np.ndarray) -> np.ndarray:
    """Hindsight gap (dB x steps) to the best fixed subband after each step of ``bounds``.

    ``per_arm[s, a]`` is the utility subband a earns against the others'
    play in support row s, ``support_row[k]`` the row of step k and
    ``actions[k]`` the subband played. Entry b is the regret over steps
    0..bounds[b]: the best arm's cumulative utility minus the realized
    one. Each arm's utilities are gathered to the steps once and summed in
    step order; the max over arms is taken at ``bounds`` only.
    """
    support_row, actions = np.asarray(support_row), np.asarray(actions)
    if per_arm.ndim != 2 or actions.ndim != 1 or support_row.shape != actions.shape:
        raise ValueError("need (rows, A) per-arm utilities and (steps,) support rows and actions")
    # (A, steps) in C order: numpy's cumsum along short rows is slow.
    arm_cum = np.cumsum(np.take(np.ascontiguousarray(per_arm.T), support_row, axis=1), axis=1)
    realized = np.cumsum(per_arm.ravel().take(support_row * per_arm.shape[1] + actions))
    return (arm_cum[:, bounds] - realized[bounds]).max(axis=0)


def empirical_joint(actions, n_subbands: int) -> tuple[JointDistribution, np.ndarray]:
    """Empirical distribution of the joint actions played, and each step's support row.

    ``actions`` has one row per step (at least one) and one column per
    radar; the support comes back in C order. The second result gives,
    per step, the index of its joint action among the support rows.

    Each step's row is one int64 key, read in base A with the first radar
    most significant, so the keys sort as the rows do. Before a column
    whose key could pass 2**63, the keys are replaced by their dense rank,
    which keeps their order. Keys fewer than the steps are counted by
    ``np.bincount``, others by ``np.unique``.
    """
    actions = np.asarray(actions, dtype=int)
    if actions.ndim != 2 or actions.shape[0] < 1 or actions.shape[1] < 1:
        raise ValueError("need a (steps, radars) array of joint actions with steps >= 1")
    if actions.min() < 0 or actions.max() >= n_subbands:
        raise ValueError(f"joint actions must lie in [0, {n_subbands})")
    key, bound = np.zeros(len(actions), dtype=np.int64), 1  # keys lie in [0, bound)
    for column in actions.T:
        if bound * n_subbands > 2**63:
            distinct, key = np.unique(key, return_inverse=True)
            bound = distinct.size
        key = key * n_subbands + column
        bound *= n_subbands
    if bound <= len(actions):
        counts = np.bincount(key, minlength=bound)
        live = counts > 0
        support_row, counts = (np.cumsum(live) - 1)[key], counts[live]
    else:
        _, support_row, counts = np.unique(key, return_inverse=True, return_counts=True)
    step = np.empty(counts.size, dtype=np.intp)
    step[support_row] = np.arange(len(actions))  # any one step of each support row
    return JointDistribution(actions[step], counts / len(actions), n_subbands), support_row
