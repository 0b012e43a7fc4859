"""Game core: strategies, utility tables, equilibria, regret."""
import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hopsim import game
from hopsim.game import (
    CapacityError,
    JointDistribution,
    SolverIncompleteError,
    cce_deviation_gap,
    empirical_joint,
    external_regret,
    solve_nash_welfare_max,
)
from hopsim.hopping import floored_estimates, init_nash_hopper

import oracles
from oracles import (
    MixedStrategy,
    StrategyProfile,
    UtilityTable,
    closed_form_equilibria_2p,
    closed_form_welfare_max,
    collision_table,
    dense_arm_utilities,
    deviation_utilities,
    enumerate_pure_nash,
    expected_utility_tensordot,
    from_collisions_dense,
    is_nash,
    joint_from_dense,
    pure_action,
    pure_actions,
    pure_profile,
    pure_strategy,
    rows_profile,
    support_enumeration_2p,
    support_key,
    welfare_max_profile,
)


def anti_coordination_table(n_players, n_subbands, snr_db=20.0, sinr_db=-10.0):
    """Utility = snr on collision-free joint actions, sinr otherwise."""
    grids = np.indices((n_subbands,) * n_players)
    values = np.empty((n_players,) + (n_subbands,) * n_players)
    for i in range(n_players):
        collide = np.zeros_like(grids[i], dtype=bool)
        for j in range(n_players):
            if j != i:
                collide |= grids[j] == grids[i]
        values[i] = np.where(collide, sinr_db, snr_db)
    return UtilityTable(values)


def anti_coordination(n_players, n_subbands, snr_db=20.0, sinr_db=-10.0):
    """The (snr, hit) estimates that ``anti_coordination_table`` is the game of."""
    shape = (n_players, n_subbands)
    return np.full(shape, snr_db), np.full(shape, sinr_db)


def brute_force_pure_nash(table):
    """Independent oracle: check every joint action against every deviation."""
    n, a = table.n_players, table.n_subbands
    out = []
    for joint in itertools.product(range(a), repeat=n):
        ok = True
        for i in range(n):
            base = table.values[(i, *joint)]
            for dev in range(a):
                alt = list(joint)
                alt[i] = dev
                if table.values[(i, *alt)] > base:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(joint)
    return out


def brute_force_cce_gap(joint_mass, table, player):
    """Independent oracle: explicit sums over a dense joint mass."""
    n, a = table.n_players, table.n_subbands
    base = 0.0
    dev = np.zeros(a)
    for f in itertools.product(range(a), repeat=n):
        mass = joint_mass[f]
        if mass == 0.0:
            continue
        base += mass * table.values[(player, *f)]
        for fp in range(a):
            alt = list(f)
            alt[player] = fp
            dev[fp] += mass * table.values[(player, *alt)]
    return dev.max() - base


def table_gap(mass, table, player):
    """``cce_deviation_gap`` of a dense joint mass against a dense table."""
    joint = joint_from_dense(mass)
    return cce_deviation_gap(joint, dense_arm_utilities(table, joint.rows, player), player)


def table_regret(table, actions, player=0):
    """Running ``oracles.external_regret`` of ``player`` on (steps, n) joint actions."""
    actions = np.asarray(actions)
    return oracles.external_regret(dense_arm_utilities(table, actions, player),
                                   actions[:, player])


class TestMixedStrategy:
    def test_valid_vector_accepted(self):
        s = MixedStrategy(np.array([0.25, 0.75]))
        assert s.n_subbands == 2
        assert support_key(StrategyProfile((s,))) == ((0, 1),)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MixedStrategy(np.array([1.1, -0.1]))

    def test_sum_tolerance(self):
        MixedStrategy(np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(ValueError):
            MixedStrategy(np.array([0.5, 0.6]))

    def test_pure_action(self):
        assert pure_action(pure_strategy(2, 4)) == 2
        assert pure_action(MixedStrategy(np.array([0.5, 0.5]))) is None

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            MixedStrategy(np.array([np.nan, 1.0]))


class TestJointDistribution:
    def test_support_rows_and_masses(self):
        joint = JointDistribution(np.array([[0, 1], [1, 0]]), np.array([0.25, 0.75]), 2)
        assert joint.rows.shape[1] == 2 and joint.n_subbands == 2

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            JointDistribution(np.array([[0], [1]]), np.array([np.nan, 1.0]), 2)

    def test_rows_outside_the_subbands_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(np.array([[0, 2]]), np.array([1.0]), 2)


class TestUtilityTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            UtilityTable(np.zeros((3, 2, 2)))  # 3 players claimed, 2 axes
        with pytest.raises(ValueError):
            UtilityTable(np.zeros((2, 2, 3)))  # unequal action axes

    def test_nonfinite_rejected(self):
        v = np.zeros((2, 2, 2))
        v[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            UtilityTable(v)


class TestFromCollisions:
    """``game.collision_table`` of the floored estimates, on sparse grids,
    gives the bits of the weight-1 collision table on full ``np.indices``
    grids."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4], ids="estimated-{}".format)
    def test_matches_dense_grids(self, n):
        rng = np.random.default_rng(100 + n)
        a = 5 if n < 4 else 3
        snr = np.where(rng.random((n, a)) < 0.2, -10.0, rng.integers(10, 30, (n, a)))
        hit = np.where(rng.random((n, a)) < 0.5, -10.0, rng.integers(-5, 15, (n, a)))
        # The -10 dB entries are unobserved: NaN in the state, the floor in the table.
        params = {"explore_episodes": 1, "floor_db": -10.0, "solver_mode": "auto"}
        state = replace(init_nash_hopper(n, a, {0: params}),
                        snr_est_db=np.where(snr == -10.0, np.nan, snr),
                        hit_sinr_est_db=np.where(hit == -10.0, np.nan, hit))
        got = collision_table(*floored_estimates(state, 0))
        expected = from_collisions_dense(
            np.ones((n, n)), a, lambda i, own, load: np.where(load > 0, hit[i][own], snr[i][own]))
        assert got.values.shape == (n,) + (a,) * n
        assert got.values.tobytes() == expected.values.tobytes()


class TestExpectedUtility:
    def test_pure_profile_selects_single_cell(self):
        table = anti_coordination_table(2, 3)
        profile = pure_profile((0, 2), 3)
        assert expected_utility_tensordot(table, profile, 0) == table.values[0, 0, 2]

    def test_uniform_2x2_hand_sum(self):
        values = np.array([[[0.0, 10.0], [10.0, 0.0]],
                           [[0.0, 10.0], [10.0, 0.0]]])
        table = UtilityTable(values)
        uniform = MixedStrategy(np.array([0.5, 0.5]))
        profile = StrategyProfile((uniform, uniform))
        assert expected_utility_tensordot(table, profile, 0) == pytest.approx(5.0)

    @pytest.mark.parametrize("a", [2, 3, 6])
    def test_uniform_anti_coordination_closed_form(self, a):
        snr, sinr = 20.0, -10.0
        table = anti_coordination_table(2, a, snr, sinr)
        uniform = MixedStrategy(np.full(a, 1.0 / a))
        profile = StrategyProfile((uniform, uniform))
        expect = (snr * (a - 1) + sinr) / a
        for i in range(2):
            assert expected_utility_tensordot(table, profile, i) == pytest.approx(expect)

    def test_dimension_mismatch(self):
        table = anti_coordination_table(2, 3)
        with pytest.raises(ValueError):
            expected_utility_tensordot(table, pure_profile((0, 1), 4), 0)
        with pytest.raises(ValueError):
            expected_utility_tensordot(table, pure_profile((0, 1, 2), 3), 0)

    def test_enumeration_order_invariance(self):
        # Relabeling subbands consistently relabels the expectation inputs
        # but must not change the value.
        rng = np.random.default_rng(7)
        values = rng.normal(size=(2, 4, 4))
        table = UtilityTable(values)
        perm = rng.permutation(4)
        perm_table = UtilityTable(values[:, perm][:, :, perm])
        p0 = MixedStrategy(np.array([0.1, 0.2, 0.3, 0.4]))
        p1 = MixedStrategy(np.array([0.4, 0.3, 0.2, 0.1]))
        profile = StrategyProfile((p0, p1))
        perm_profile = StrategyProfile(
            (MixedStrategy(p0.probs[perm]), MixedStrategy(p1.probs[perm])))
        for i in range(2):
            assert expected_utility_tensordot(perm_table, perm_profile, i) == pytest.approx(
                expected_utility_tensordot(table, profile, i))


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_tensordot_oracle(self, n):
        # The expectation as an explicit sum over joint actions, against
        # the oracle's one tensordot per strategy.
        rng = np.random.default_rng(10 + n)
        for _ in range(200):
            a = int(rng.integers(1, 7))
            table = UtilityTable(rng.normal(size=(n,) + (a,) * n)
                                 * 10.0 ** rng.uniform(-3, 3))
            profile = StrategyProfile(tuple(
                MixedStrategy(rng.dirichlet(np.full(a, 10.0 ** rng.uniform(-3, 3))))
                for _ in range(n)))
            for i in range(n):
                explicit = sum(
                    np.prod([s.probs[f] for s, f in zip(profile.strategies, joint)])
                    * table.values[(i, *joint)]
                    for joint in itertools.product(range(a), repeat=n))
                got = expected_utility_tensordot(table, profile, i)
                assert got == pytest.approx(explicit, rel=1e-12,
                                            abs=1e-12 * np.abs(table.values[i]).max())

class TestIsNash:
    def test_distinct_pair_is_nash(self):
        table = anti_coordination_table(2, 2)
        assert is_nash(pure_profile((0, 1), 2), table)

    def test_colliding_pair_is_not_nash(self):
        table = anti_coordination_table(2, 2)
        assert not is_nash(pure_profile((0, 0), 2), table)

    def test_single_player_argmax(self):
        table = UtilityTable(np.array([[1.0, 5.0, 3.0]]))
        assert is_nash(StrategyProfile((pure_strategy(1, 3),)), table)
        assert not is_nash(StrategyProfile((pure_strategy(0, 3),)), table)

    def test_negative_tol_rejected(self):
        table = anti_coordination_table(2, 2)
        with pytest.raises(ValueError):
            is_nash(pure_profile((0, 1), 2), table, tol=-1.0)

    def test_deviation_utilities_match_expectations(self):
        rng = np.random.default_rng(3)
        table = UtilityTable(rng.normal(size=(2, 3, 3)))
        profile = StrategyProfile((
            MixedStrategy(np.array([0.2, 0.3, 0.5])),
            MixedStrategy(np.array([0.6, 0.1, 0.3])),
        ))
        for i in range(2):
            dev = deviation_utilities(table, profile, i)
            for f in range(3):
                strategies = list(profile.strategies)
                strategies[i] = pure_strategy(f, 3)
                assert dev[f] == pytest.approx(
                    expected_utility_tensordot(table, StrategyProfile(tuple(strategies)), i))


class TestEnumeratePureNash:
    def test_2x2_anti_coordination(self):
        table = anti_coordination_table(2, 2)
        acts = {pure_actions(p) for p in enumerate_pure_nash(table)}
        assert acts == {(0, 1), (1, 0)}

    def test_constant_table_all_joint_actions(self):
        table = UtilityTable(np.full((2, 3, 3), 7.0))
        assert len(enumerate_pure_nash(table)) == 9

    def test_2x6_anti_coordination_all_distinct_pairs(self):
        table = anti_coordination_table(2, 6)
        acts = {pure_actions(p) for p in enumerate_pure_nash(table)}
        assert acts == {(i, j) for i in range(6) for j in range(6) if i != j}

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr("hopsim.game.PURE_ENUM_GUARD", 10)
        with pytest.raises(CapacityError):
            solve_nash_welfare_max(*anti_coordination(2, 4), mode="pure")
        with pytest.raises(CapacityError):
            solve_nash_welfare_max(*anti_coordination(3, 3))
        solve_nash_welfare_max(*anti_coordination(1, 10))

    @pytest.mark.parametrize("n,a,seed", [(2, 2, 0), (2, 3, 1), (2, 4, 2),
                                          (3, 2, 3), (3, 3, 4), (3, 4, 5)])
    def test_matches_brute_force(self, n, a, seed):
        rng = np.random.default_rng(seed)
        table = UtilityTable(rng.normal(size=(n,) + (a,) * n))
        got = sorted(pure_actions(p) for p in enumerate_pure_nash(table))
        assert got == sorted(brute_force_pure_nash(table))

    def test_members_are_nash_nonmembers_are_not(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = UtilityTable(rng.normal(size=(2, 3, 3)))
            members = {pure_actions(p) for p in enumerate_pure_nash(table)}
            for joint in itertools.product(range(3), repeat=2):
                assert is_nash(pure_profile(joint, 3), table, tol=0.0) \
                    == (joint in members)


# Matching pennies as a collision game: player 0 gains by sharing, player 1 by not.
MATCHING_PENNIES = (np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([[1.0, 1.0], [-1.0, -1.0]]))


class TestSolveNashWelfareMax:
    def test_asymmetric_snr_prefers_better_assignment(self):
        # Radar 1 earns more on subband 0, radar 2 on subband 1.
        snr = np.array([[25.0, 15.0], [12.0, 22.0]])
        best = solve_nash_welfare_max(snr, np.full((2, 2), -10.0))
        assert pure_actions(rows_profile(best)) == (0, 1)

    def test_symmetric_tie_breaks_lexicographically(self):
        best = solve_nash_welfare_max(*anti_coordination(2, 6))
        assert pure_actions(rows_profile(best)) == (0, 1)

    def test_matching_pennies_mixed(self):
        np.testing.assert_array_equal(collision_table(*MATCHING_PENNIES).values, [
            [[1.0, -1.0], [-1.0, 1.0]],
            [[-1.0, 1.0], [1.0, -1.0]],
        ])
        best = solve_nash_welfare_max(*MATCHING_PENNIES)
        for row in best:
            np.testing.assert_allclose(row, [0.5, 0.5], atol=1e-9)

    def test_pure_mode_reports_incomplete_when_no_pure_ne(self):
        with pytest.raises(SolverIncompleteError):
            solve_nash_welfare_max(*MATCHING_PENNIES, mode="pure")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve_nash_welfare_max(*anti_coordination(2, 2), mode="exotic")

    def test_three_player_pure_mode(self):
        best = solve_nash_welfare_max(*anti_coordination(3, 3), mode="pure")
        acts = pure_actions(rows_profile(best))
        assert acts is not None and len(set(acts)) == 3

    def test_nonfinite_estimates_rejected(self):
        snr, hit = anti_coordination(2, 3)
        snr[1, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            solve_nash_welfare_max(snr, hit)


class TestPureWelfareMax:
    """The pure solve over every joint action at once against the welfare
    max of the dense table's pure equilibria."""

    FAMILIES = ("floored", "integer-ties", "equal-rows", "sharing-pays")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_dense_oracle(self, family):
        rng = np.random.default_rng(self.FAMILIES.index(family))
        incomplete = 0
        for _ in range(150):
            snr, hit = random_collision_game(rng, family)
            table = collision_table(snr, hit)
            # 'auto' takes the same path unless there are two players.
            modes = ("pure",) if len(snr) == 2 else ("pure", "auto")
            if not enumerate_pure_nash(table):
                incomplete += 1
                for mode in modes:
                    with pytest.raises(SolverIncompleteError):
                        solve_nash_welfare_max(snr, hit, mode=mode)
                continue
            want = pure_actions(welfare_max_profile(table, []))
            for mode in modes:
                got = solve_nash_welfare_max(snr, hit, mode=mode)
                assert pure_actions(rows_profile(got)) == want
        if family == "sharing-pays":
            assert incomplete > 0

    @pytest.mark.parametrize("n,a", [(2, 100), (3, 40)])
    def test_flat_tie_heavy_games(self, n, a):
        # Every assignment of distinct subbands is an equilibrium of the
        # same welfare (9,900 and 59,280 of them): the first in C order wins.
        best = solve_nash_welfare_max(*anti_coordination(n, a), mode="pure")
        assert pure_actions(rows_profile(best)) == tuple(range(n))


def random_collision_game(rng, family):
    """(snr, hit) of 1 to 4 radars on 2 to 5 subbands (2 or 3 for 4 radars).

    ``floored``: whole-dB estimates, unobserved entries at the -10 dB
    floor. ``integer-ties``: three values each, so many cells and welfares
    tie. ``equal-rows``: every radar has the same estimates.
    ``sharing-pays``: some radars earn more on a shared subband, so
    matching-pennies cycles leave many games with no pure equilibrium.
    """
    n = int(rng.integers(1, 5))
    a = int(rng.integers(2, 6 if n < 4 else 4))
    shape = (n, a)
    if family == "floored":
        snr = np.where(rng.random(shape) < 0.2, -10.0, rng.integers(10, 30, shape))
        hit = np.where(rng.random(shape) < 0.5, -10.0, rng.integers(-5, 15, shape))
    elif family == "integer-ties":
        snr, hit = rng.integers(0, 3, shape), rng.integers(-2, 1, shape)
    elif family == "equal-rows":
        snr = np.repeat(rng.integers(10, 30, (1, a)), n, axis=0)
        hit = np.repeat(np.where(rng.random((1, a)) < 0.5, -10, rng.integers(-5, 15, (1, a))),
                        n, axis=0)
    else:
        snr = rng.integers(-5, 15, shape)
        hit = snr + rng.choice([-1, 1], size=(n, 1)) * rng.integers(1, 10, shape)
    return snr.astype(float), hit.astype(float)


def random_estimates(rng):
    """(snr, hit) as a nash radar floors them, on 2 to 6 subbands: whole-dB
    clean SNR and collision SINR, unobserved entries at the -10 dB floor.
    Repeated values make many indifference systems exactly singular."""
    a = int(rng.integers(2, 7))
    snr = np.where(rng.random((2, a)) < 0.2, -10.0, rng.integers(10, 30, (2, a)))
    hit = np.where(rng.random((2, a)) < 0.5, -10.0, rng.integers(-5, 15, (2, a)))
    return snr, hit


def assert_close_profiles(got, expected):
    """Same exact supports in the same order, probabilities within 1e-12.

    Both solvers set probabilities <= 1e-9 to 0, so a rounding residue
    where an equilibrium probability is 0 in exact arithmetic (2e-16 in
    the closed form, 2e-17 from LAPACK) is in neither support.
    """
    def supports(p):
        return [tuple(np.flatnonzero(s.probs)) for s in p.strategies]

    assert [supports(p) for p in got] == [supports(p) for p in expected]
    for p, q in zip(got, expected):
        for s, t in zip(p.strategies, q.strategies):
            np.testing.assert_allclose(s.probs, t.probs, rtol=0, atol=1e-12)


def closed_form_equilibria(snr, hit):
    """``closed_form_equilibria_2p`` as profiles."""
    return [StrategyProfile((MixedStrategy(x), MixedStrategy(y)))
            for x, y in zip(*closed_form_equilibria_2p(snr, hit))]


def assert_matches_loop_oracle(snr, hit):
    """The closed form's equilibria and welfare-max choice against the per-pair loop."""
    snr, hit = np.asarray(snr, dtype=float), np.asarray(hit, dtype=float)
    table = collision_table(snr, hit)
    expected = support_enumeration_2p(table)
    assert_close_profiles(closed_form_equilibria(snr, hit), expected)
    assert_close_profiles([rows_profile(solve_nash_welfare_max(snr, hit))],
                          [welfare_max_profile(table, expected)])


class TestBatchedSupportEnumeration:
    """The closed-form solve of every support pair at once against the
    per-pair loop kept in the oracles."""

    @pytest.mark.parametrize("family,seed", [("estimated", 2)])
    def test_matches_loop_oracle(self, family, seed):
        rng = np.random.default_rng(seed)
        for _ in range(334):
            assert_matches_loop_oracle(*random_estimates(rng))

    @pytest.mark.parametrize("a", range(1, 8))
    def test_pairs_in_enumeration_order(self, a):
        # Exactly the equal-size pairs with |S \ T| <= 1, in the order of
        # the loop: size, then S, then T, each in combinations order.
        pairs = [(s, t) for m in range(1, a + 1)
                 for s in itertools.combinations(range(a), m)
                 for t in itertools.combinations(range(a), m) if len(set(s) - set(t)) <= 1]
        sup0, sup1, members = game._support_pairs(a)
        assert [(tuple(np.flatnonzero(members[s])), tuple(np.flatnonzero(members[t])))
                for s, t in zip(sup0, sup1)] == pairs
        assert len(pairs) == (2**a - 1) + a * (a - 1) * 2**a // 4
        for arr in (sup0, sup1, members):  # shared by every later solve on a subbands
            with pytest.raises(ValueError):
                arr[0] = 0


class TestDegenerateCells:
    """Collision games whose indifference systems are singular or tied,
    against the per-pair loop."""

    def test_everything_at_the_floor(self):
        # Every explore run starts here: d = hit - snr = 0 on every subband.
        assert_matches_loop_oracle(np.full((2, 6), -10.0), np.full((2, 6), -10.0))

    def test_hit_equals_snr_on_some_subbands(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            snr, hit = random_estimates(rng)
            assert_matches_loop_oracle(snr, np.where(rng.random(snr.shape) < 0.4, snr, hit))

    def test_equal_snr_on_several_subbands(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            snr, hit = random_estimates(rng)
            assert_matches_loop_oracle(rng.choice([15.0, 20.0], size=snr.shape), hit)

    def test_reciprocal_sum_zero(self):
        # S = T = {0, 1} with d = [2, -2] for player 0: sum 1/d = 0, so the
        # pair has no solution; with d = [2, -1] it has one.
        snr = np.array([[0.0, 1.0, -10.0], [3.0, 3.0, 5.0]])
        for d0 in ([2.0, -2.0, -20.0], [2.0, -1.0, -20.0]):
            assert_matches_loop_oracle(snr, snr + np.array([d0, [-1.0, -1.0, -20.0]]))

    def test_rounding_residue_leaves_the_support(self):
        # The pair S = T = {0, 1} mixes player 0 at [2.4e-16, 1, 0] in
        # floating point unless the residue is set to 0.
        snr = np.array([[17.0, 28.0, -10.0], [-10.0, 27.0, -10.0]])
        hit = np.array([[-10.0, -10.0, -10.0], [12.0, -10.0, -10.0]])
        x, y = closed_form_equilibria_2p(snr, hit)
        assert x[3].tolist() == [0.0, 1.0, 0.0]
        assert np.flatnonzero(y[3]).tolist() == [0, 1]
        assert_matches_loop_oracle(snr, hit)

    def test_singular_pairs_lapack_solves(self):
        # Pairs with two pinned rows are singular in exact arithmetic, yet
        # LAPACK's pivot on some of them is a rounding residue, not 0.
        snr = np.array([[27.0, 12.0, 21.0, 24.0], [26.0, 20.0, 17.0, 16.0]])
        hit = np.array([[-10.0, 2.0, 1.0, -10.0], [0.0, -10.0, 9.0, -10.0]])
        table = collision_table(snr, hit)
        sup0, sup1 = (0, 2), (1, 3)  # S and T disjoint: k = 2
        aug = np.zeros((3, 3))
        aug[:2, :2] = table.values[0][np.ix_(sup0, sup1)]
        aug[:2, 2], aug[2, :2] = -1.0, 1.0
        assert np.linalg.slogdet(aug)[0] != 0.0
        assert_matches_loop_oracle(snr, hit)


class TestFirstCandidatePerSupportPair:
    """The solve keeps the first candidate of each pair of supports, keyed by
    bit masks, against the choice made from the oracles' list of distinct
    equilibria."""

    def test_exact_agreement_with_rounded_list(self):
        rng = np.random.default_rng(6)
        games = [random_estimates(rng) for _ in range(300)]
        for a in range(1, 9):
            games += [(np.full((2, a), -10.0), np.full((2, a), -10.0)),
                      anti_coordination(2, a), (np.full((2, a), 5.0), np.full((2, a), 7.0))]
        for _ in range(50):
            snr, hit = random_estimates(rng)
            games += [(snr, np.where(rng.random(snr.shape) < 0.4, snr, hit)),
                      (rng.choice([15.0, 20.0], size=snr.shape), hit)]
        games.append(MATCHING_PENNIES)
        for snr, hit in games:
            assert solve_nash_welfare_max(snr, hit).tobytes() \
                == closed_form_welfare_max(snr, hit).tobytes()

    def test_distinct_equilibria_share_a_support_pair(self):
        # The 68th game of the seed-2 estimated family has two equilibria on
        # the supports ({0, 2}, {0, 1, 3}) that differ in player 1's mix.
        rng = np.random.default_rng(2)
        for _ in range(68):
            snr, hit = random_estimates(rng)
        x, y = closed_form_equilibria_2p(snr, hit)
        shared = [c for c in range(len(x))
                  if (np.flatnonzero(x[c]).tolist(), np.flatnonzero(y[c]).tolist())
                  == ([0, 2], [0, 1, 3])]
        assert len(shared) == 2
        assert np.abs(y[shared[0]] - y[shared[1]]).max() > 0.1
        assert solve_nash_welfare_max(snr, hit).tobytes() \
            == closed_form_welfare_max(snr, hit).tobytes()

    def test_later_candidate_on_kept_supports_is_not_compared(self, monkeypatch):
        # Two candidates on the supports ({0, 1}, {0, 1}): the second has
        # the higher welfare (29 against 5), but only the first is compared.
        snr, hit = np.array([[20.0, 10.0], [10.0, 20.0]]), np.full((2, 2), -10.0)
        monkeypatch.setattr(game, "_candidates_2p", lambda snr, hit: (
            np.array([[0.5, 0.9], [0.5, 0.1]]), np.array([[0.5, 0.1], [0.5, 0.9]])))
        np.testing.assert_array_equal(solve_nash_welfare_max(snr, hit), np.full((2, 2), 0.5))

    def test_worst_case_solve_memory(self):
        # Anti-coordination at 12 subbands: 135,169 of the 139,263 support
        # pairs pass both checks. The traced peak of one solve was 102 MiB
        # while rounded probabilities deduplicated it first, 61 MiB now.
        snr, hit = anti_coordination(2, 12)
        game._support_pairs(12)
        tracemalloc.start()
        try:
            solve_nash_welfare_max(snr, hit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * 2**20


class TestCceDeviationGap:
    def test_point_mass_on_pure_nash_nonpositive(self):
        table = anti_coordination_table(2, 3)
        for profile in enumerate_pure_nash(table):
            mass = np.zeros((3, 3))
            mass[pure_actions(profile)] = 1.0
            for i in range(2):
                assert table_gap(mass, table, i) <= 1e-9

    def test_uniform_mixture_of_pure_nes_is_cce(self):
        table = anti_coordination_table(2, 2)
        mass = np.array([[0.0, 0.5], [0.5, 0.0]])
        for i in range(2):
            assert table_gap(mass, table, i) <= 1e-9

    def test_colliding_point_mass_gap_is_snr_minus_sinr(self):
        table = anti_coordination_table(2, 2, snr_db=20.0, sinr_db=-10.0)
        mass = np.zeros((2, 2))
        mass[0, 0] = 1.0
        assert table_gap(mass, table, 0) == pytest.approx(30.0)

    def test_mismatched_table_rejected(self):
        joint = joint_from_dense(np.full((2, 2), 0.25))
        per_arm = dense_arm_utilities(anti_coordination_table(2, 3), joint.rows, 0)
        with pytest.raises(ValueError):
            cce_deviation_gap(joint, per_arm, 0)

    @pytest.mark.parametrize("n,a,seed", [(2, 2, 0), (2, 4, 1), (3, 3, 2)])
    def test_matches_brute_force(self, n, a, seed):
        rng = np.random.default_rng(seed)
        table = UtilityTable(rng.normal(size=(n,) + (a,) * n))
        mass = rng.random((a,) * n)
        mass /= mass.sum()
        for i in range(n):
            assert table_gap(mass, table, i) == pytest.approx(
                brute_force_cce_gap(mass, table, i))


class TestExternalRegret:
    def test_hindsight_best_play_zero_regret(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        actions = [[0, 1], [0, 1], [0, 1]]  # always played subband 0, earning 10
        assert table_regret(table, actions)[-1] == pytest.approx(0.0)

    def test_alternating_opponent_fixed_self_ties(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        actions = [[0, 0], [0, 1]]  # self played subband 0 both chirps: 0, then 10
        assert table_regret(table, actions)[-1] == pytest.approx(0.0)

    def test_always_colliding_play(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        actions = [[0, 0], [1, 1]]  # self tracked the opponent, earning 0
        assert table_regret(table, actions)[-1] == pytest.approx(10.0)

    def test_running_regret_after_every_chirp(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        actions = [[0, 0], [1, 1], [0, 1]]  # self earned 0, 0, 10
        # arm 0 earns 0, 10, 10 and arm 1 earns 10, 0, 0
        np.testing.assert_allclose(table_regret(table, actions), [10.0, 10.0, 10.0])

    def test_single_player_game(self):
        table = UtilityTable(np.array([[1.0, 5.0]]))
        assert table_regret(table, [[0], [0]])[-1] == pytest.approx(8.0)

    def test_opponent_column_mismatch_rejected(self):
        # The joint actions, opponents' columns included, are not own actions.
        table = anti_coordination_table(2, 2)
        actions = np.array([[0, 1]])
        with pytest.raises(ValueError):
            external_regret(dense_arm_utilities(table, actions, 0), np.zeros(1, dtype=int),
                            actions, np.zeros(1, dtype=int))
        with pytest.raises(ValueError):
            oracles.external_regret(dense_arm_utilities(table, actions, 0), actions)


class TestEmpiricalJoint:
    def test_single_chirp_point_mass(self):
        joint, _ = empirical_joint(np.array([[1, 2]]), 3)
        np.testing.assert_array_equal(joint.rows, [[1, 2]])
        assert joint.mass.tolist() == [1.0]

    def test_half_half_counts(self):
        joint, _ = empirical_joint(np.array([[0, 1], [0, 1], [1, 0], [1, 0]]), 2)
        np.testing.assert_array_equal(joint.rows, [[0, 1], [1, 0]])
        np.testing.assert_allclose(joint.mass, [0.5, 0.5])

    def test_round_robin_uniform(self):
        a = 3
        pairs = list(itertools.product(range(a), repeat=2))
        joint, _ = empirical_joint(np.array(pairs[::-1]), a)
        np.testing.assert_array_equal(joint.rows, pairs)  # C order
        np.testing.assert_allclose(joint.mass, np.full(a**2, 1.0 / a**2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_unique_rows(self, n):
        actions = np.random.default_rng(n).integers(0, 5, size=(300, n))
        rows, inverse, counts = np.unique(actions, axis=0, return_inverse=True,
                                          return_counts=True)
        joint, support_row = empirical_joint(actions, 5)
        np.testing.assert_array_equal(joint.rows, rows)
        assert joint.mass.tobytes() == (counts / 300).tobytes()
        np.testing.assert_array_equal(support_row, inverse.ravel())
        np.testing.assert_array_equal(joint.rows[support_row], actions)

    def test_ragged_histories_rejected(self):
        with pytest.raises(ValueError):
            empirical_joint([[0, 1], [0]], 2)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            empirical_joint(np.empty((0, 2), dtype=int), 2)
        with pytest.raises(ValueError, match="steps >= 1"):  # no radar
            empirical_joint(np.empty((3, 0), dtype=int), 2)


class TestEvaluationMatchesOracles:
    """``empirical_joint`` by mixed-radix keys and ``external_regret`` at
    bounds against the lexsort and full-horizon oracles, exactly."""

    @staticmethod
    def assert_joint_equal(actions, a):
        got, got_row = empirical_joint(actions, a)
        want, want_row = oracles.empirical_joint(actions, a)
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.mass.tobytes() == want.mass.tobytes()
        assert got_row.tobytes() == want_row.tobytes()
        return got, got_row

    @pytest.mark.parametrize("n", [2, 8])
    @pytest.mark.parametrize("steps", [1, 7, 3000])
    def test_random_actions(self, n, steps):
        rng = np.random.default_rng(10 * n + steps)
        actions = rng.integers(0, 6, (steps, n))
        joint, support_row = self.assert_joint_equal(actions, 6)
        bounds = np.unique(np.append(rng.integers(0, steps, 5), steps - 1))
        for i in range(n):
            per_arm = rng.normal(0.0, 10.0, (joint.mass.size, 6))
            running = oracles.external_regret(per_arm[support_row], actions[:, i])
            got = external_regret(per_arm, support_row, actions[:, i], bounds)
            assert got.tobytes() == running[bounds].tobytes()

    def test_thirty_two_radars_take_the_rank_path(self):
        # 6**32 keys pass 2**63: the keys are ranked before the last columns.
        assert 6**32 > 2**63 > 6**24
        rng = np.random.default_rng(32)
        rows = rng.integers(0, 6, (40, 32))
        rows[1::2, :20] = rows[0, :20]  # shared leading columns, told apart after the rank
        actions = rows[rng.integers(0, 40, 2000)]
        joint, _ = self.assert_joint_equal(actions, 6)
        assert joint.mass.size == len(np.unique(rows, axis=0))
        self.assert_joint_equal(rng.integers(0, 6, (500, 32)), 6)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_actions_outside_the_band_rejected(self, bad):
        # A key of an out-of-band action could equal another row's.
        with pytest.raises(ValueError):
            empirical_joint(np.array([[1, 1], [0, bad]]), 6)


class TestConstantShiftInvariance:
    def test_shift_moves_expectation_only(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(2, 3, 3))
        table = UtilityTable(values)
        shifted = UtilityTable(values + 4.2)
        profile = StrategyProfile((
            MixedStrategy(np.array([0.2, 0.3, 0.5])),
            MixedStrategy(np.array([0.1, 0.8, 0.1])),
        ))
        for i in range(2):
            assert expected_utility_tensordot(shifted, profile, i) == pytest.approx(
                expected_utility_tensordot(table, profile, i) + 4.2)
        assert is_nash(profile, shifted) == is_nash(profile, table)
        assert sorted(pure_actions(p) for p in enumerate_pure_nash(shifted)) \
            == sorted(pure_actions(p) for p in enumerate_pure_nash(table))
        mass = rng.random((3, 3))
        mass /= mass.sum()
        for i in range(2):
            assert table_gap(mass, shifted, i) == pytest.approx(table_gap(mass, table, i))

    def test_symmetric_shift_keeps_welfare_max_selection(self):
        rng = np.random.default_rng(9)
        snr, hit = rng.normal(size=(2, 2, 3))
        base = solve_nash_welfare_max(snr, hit)
        shifted = solve_nash_welfare_max(snr + 7.0, hit + 7.0)
        assert support_key(rows_profile(base)) == support_key(rows_profile(shifted))


class TestRegretGapIdentity:
    """Empirical joint vs regret: the CCE gap never exceeds regret/K."""

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_on_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        n, a, k = 2, 4, 200
        table = UtilityTable(rng.normal(size=(n, a, a)))
        actions = np.stack([rng.integers(0, a, size=k) for _ in range(n)], axis=1)
        joint, _ = empirical_joint(actions, a)
        for i in range(n):
            gap = cce_deviation_gap(joint, dense_arm_utilities(table, joint.rows, i), i)
            assert gap <= table_regret(table, actions, i)[-1] / k + 1e-9
