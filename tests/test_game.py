"""Game core: strategies, utility tables, equilibria, regret."""
import itertools

import numpy as np
import pytest

from hopsim import game
from hopsim.game import (
    CapacityError,
    JointDistribution,
    MixedStrategy,
    RegretLedger,
    SolverIncompleteError,
    StrategyProfile,
    UtilityTable,
    cce_deviation_gap,
    empirical_joint,
    enumerate_pure_nash,
    expected_utility,
    external_regret,
    pure_profile,
    pure_strategy,
    solve_nash_welfare_max,
)

from oracles import (
    deviation_utilities,
    from_collisions_dense,
    is_nash,
    support_enumeration_2p,
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


def brute_force_pure_nash(table):
    """Independent oracle: check every joint action against every deviation."""
    n, a = table.n_players, table.n_subbands
    out = []
    for joint in itertools.product(range(a), repeat=n):
        ok = True
        for i in range(n):
            base = table.utility(i, joint)
            for dev in range(a):
                alt = list(joint)
                alt[i] = dev
                if table.utility(i, alt) > base:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(joint)
    return out


def brute_force_cce_gap(joint, table, player):
    """Independent oracle: explicit sums over the joint support."""
    n, a = table.n_players, table.n_subbands
    base = 0.0
    dev = np.zeros(a)
    for f in itertools.product(range(a), repeat=n):
        mass = joint.mass[f]
        if mass == 0.0:
            continue
        base += mass * table.utility(player, f)
        for fp in range(a):
            alt = list(f)
            alt[player] = fp
            dev[fp] += mass * table.utility(player, alt)
    return dev.max() - base


class TestMixedStrategy:
    def test_valid_vector_accepted(self):
        s = MixedStrategy(np.array([0.25, 0.75]))
        assert s.n_subbands == 2
        assert s.support == (0, 1)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            MixedStrategy(np.array([1.1, -0.1]))

    def test_sum_tolerance(self):
        MixedStrategy(np.array([0.5, 0.5 + 5e-10]))
        with pytest.raises(ValueError):
            MixedStrategy(np.array([0.5, 0.6]))

    def test_pure_action(self):
        assert pure_strategy(2, 4).pure_action == 2
        assert MixedStrategy(np.array([0.5, 0.5])).pure_action is None


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
    """Sparse index grids give the same table bits as full ``np.indices``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("utility", ["genie", "estimated"])
    def test_matches_dense_grids(self, n, utility):
        rng = np.random.default_rng(100 + n)
        a = 5 if n < 4 else 3
        if utility == "genie":
            # sim.genie_utility_table: INR weights, unlinked pairs zero
            weights = 10.0 ** (rng.uniform(0.0, 4.0, (n, n)) / 10.0)
            weights[rng.random((n, n)) < 0.4] = 0.0
            snr_lin = 10.0 ** (rng.uniform(10.0, 30.0, n) / 10.0)
            fn = lambda i, own, load: 10.0 * np.log10(snr_lin[i] / (load + 1.0))
        else:
            # hopping.estimated_table: weight 1, per-subband lookups by own
            weights = np.ones((n, n))
            if n > 2:
                weights[0, 2] = 0.0
            snr = np.where(rng.random((n, a)) < 0.2, -10.0, rng.integers(10, 30, (n, a)))
            hit = np.where(rng.random((n, a)) < 0.5, -10.0, rng.integers(-5, 15, (n, a)))
            fn = lambda i, own, load: np.where(load > 0, hit[i][own], snr[i][own])
        got = UtilityTable.from_collisions(weights, a, fn)
        expected = from_collisions_dense(weights, a, fn)
        assert got.values.shape == (n,) + (a,) * n
        assert got.values.tobytes() == expected.values.tobytes()


class TestExpectedUtility:
    def test_pure_profile_selects_single_cell(self):
        table = anti_coordination_table(2, 3)
        profile = pure_profile((0, 2), 3)
        assert expected_utility(table, profile, 0) == table.utility(0, (0, 2))

    def test_uniform_2x2_hand_sum(self):
        values = np.array([[[0.0, 10.0], [10.0, 0.0]],
                           [[0.0, 10.0], [10.0, 0.0]]])
        table = UtilityTable(values)
        uniform = MixedStrategy(np.array([0.5, 0.5]))
        profile = StrategyProfile((uniform, uniform))
        assert expected_utility(table, profile, 0) == pytest.approx(5.0)

    @pytest.mark.parametrize("a", [2, 3, 6])
    def test_uniform_anti_coordination_closed_form(self, a):
        snr, sinr = 20.0, -10.0
        table = anti_coordination_table(2, a, snr, sinr)
        uniform = MixedStrategy(np.full(a, 1.0 / a))
        profile = StrategyProfile((uniform, uniform))
        expect = (snr * (a - 1) + sinr) / a
        for i in range(2):
            assert expected_utility(table, profile, i) == pytest.approx(expect)

    def test_dimension_mismatch(self):
        table = anti_coordination_table(2, 3)
        with pytest.raises(ValueError):
            expected_utility(table, pure_profile((0, 1), 4), 0)
        with pytest.raises(ValueError):
            expected_utility(table, pure_profile((0, 1, 2), 3), 0)

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
            assert expected_utility(perm_table, perm_profile, i) == pytest.approx(
                expected_utility(table, profile, i))


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
                    expected_utility(table, StrategyProfile(tuple(strategies)), i))


class TestEnumeratePureNash:
    def test_2x2_anti_coordination(self):
        table = anti_coordination_table(2, 2)
        acts = {p.pure_actions for p in enumerate_pure_nash(table)}
        assert acts == {(0, 1), (1, 0)}

    def test_constant_table_all_joint_actions(self):
        table = UtilityTable(np.full((2, 3, 3), 7.0))
        assert len(enumerate_pure_nash(table)) == 9

    def test_2x6_anti_coordination_all_distinct_pairs(self):
        table = anti_coordination_table(2, 6)
        acts = {p.pure_actions for p in enumerate_pure_nash(table)}
        assert acts == {(i, j) for i in range(6) for j in range(6) if i != j}

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr("hopsim.game.PURE_ENUM_GUARD", 10)
        with pytest.raises(CapacityError):
            enumerate_pure_nash(anti_coordination_table(2, 4))

    @pytest.mark.parametrize("n,a,seed", [(2, 2, 0), (2, 3, 1), (2, 4, 2),
                                          (3, 2, 3), (3, 3, 4), (3, 4, 5)])
    def test_matches_brute_force(self, n, a, seed):
        rng = np.random.default_rng(seed)
        table = UtilityTable(rng.normal(size=(n,) + (a,) * n))
        got = sorted(p.pure_actions for p in enumerate_pure_nash(table))
        assert got == sorted(brute_force_pure_nash(table))

    def test_members_are_nash_nonmembers_are_not(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = UtilityTable(rng.normal(size=(2, 3, 3)))
            members = {p.pure_actions for p in enumerate_pure_nash(table)}
            for joint in itertools.product(range(3), repeat=2):
                assert is_nash(pure_profile(joint, 3), table, tol=0.0) \
                    == (joint in members)


class TestSolveNashWelfareMax:
    def test_asymmetric_snr_prefers_better_assignment(self):
        # Radar 1 earns more on subband 0, radar 2 on subband 1.
        values = np.array([
            [[-10.0, 25.0], [15.0, -10.0]],
            [[-10.0, 22.0], [12.0, -10.0]],
        ])
        best = solve_nash_welfare_max(UtilityTable(values))
        assert best.pure_actions == (0, 1)

    def test_symmetric_tie_breaks_lexicographically(self):
        best = solve_nash_welfare_max(anti_coordination_table(2, 6))
        assert best.pure_actions == (0, 1)

    def test_matching_pennies_mixed(self):
        values = np.array([
            [[1.0, -1.0], [-1.0, 1.0]],
            [[-1.0, 1.0], [1.0, -1.0]],
        ])
        best = solve_nash_welfare_max(UtilityTable(values))
        for s in best.strategies:
            np.testing.assert_allclose(s.probs, [0.5, 0.5], atol=1e-9)

    def test_pure_mode_reports_incomplete_when_no_pure_ne(self):
        values = np.array([
            [[1.0, -1.0], [-1.0, 1.0]],
            [[-1.0, 1.0], [1.0, -1.0]],
        ])
        with pytest.raises(SolverIncompleteError):
            solve_nash_welfare_max(UtilityTable(values), mode="pure")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            solve_nash_welfare_max(anti_coordination_table(2, 2), mode="exotic")

    def test_three_player_pure_mode(self):
        table = anti_coordination_table(3, 3)
        best = solve_nash_welfare_max(table, mode="pure")
        acts = best.pure_actions
        assert acts is not None and len(set(acts)) == 3


def random_2p_table(family, rng):
    """A random 2-player table with 2 to 6 subbands from one test family."""
    a = int(rng.integers(2, 7))
    if family == "gaussian":  # at scales where a determinant cutoff would misfire
        return UtilityTable(rng.normal(size=(2, a, a)) * 10.0 ** rng.uniform(-4, 4))
    if family == "integer":  # ties and degenerate games
        return UtilityTable(rng.integers(-2, 3, size=(2, a, a)).astype(float))
    # estimated_table shape: whole-dB clean SNR off the diagonal, collision
    # SINR on it, unobserved cells at the -10 dB floor. Repeated values make
    # many indifference systems exactly singular.
    snr = np.where(rng.random((2, a)) < 0.2, -10.0, rng.integers(10, 30, (2, a)))
    hit = np.where(rng.random((2, a)) < 0.5, -10.0, rng.integers(-5, 15, (2, a)))
    return UtilityTable.from_collisions(
        np.ones((2, 2)), a, lambda i, own, load: np.where(load > 0, hit[i][own], snr[i][own]))


def assert_same_profiles(got, expected):
    """Same profiles in the same order, with bitwise-equal probabilities."""
    assert [p.support_key() for p in got] == [p.support_key() for p in expected]
    for p, q in zip(got, expected):
        for s, t in zip(p.strategies, q.strategies):
            assert s.probs.tobytes() == t.probs.tobytes()


class TestBatchedSupportEnumeration:
    """The batched solver against the per-pair loop kept in the oracles."""

    @pytest.mark.parametrize("family,seed", [("gaussian", 0), ("integer", 1), ("estimated", 2)])
    def test_matches_loop_oracle(self, family, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        for _ in range(334):
            table = random_2p_table(family, rng)
            expected = support_enumeration_2p(table)
            assert_same_profiles(game._support_enumeration_2p(table), expected)
            with monkeypatch.context() as mp:
                mp.setattr(game, "_support_enumeration_2p", lambda t: expected)
                want = solve_nash_welfare_max(table)
            assert_same_profiles([solve_nash_welfare_max(table)], [want])

    def test_small_batches_match_loop_oracle(self, monkeypatch):
        # Support sizes with more pairs than one batch holds are split
        # into several batches; the result must not depend on the split.
        monkeypatch.setattr(game, "_BATCH_PAIRS", 7)
        rng = np.random.default_rng(3)
        for _ in range(30):
            table = random_2p_table("integer", rng)
            assert_same_profiles(game._support_enumeration_2p(table),
                                 support_enumeration_2p(table))


class TestCceDeviationGap:
    def test_point_mass_on_pure_nash_nonpositive(self):
        table = anti_coordination_table(2, 3)
        for profile in enumerate_pure_nash(table):
            mass = np.zeros((3, 3))
            mass[profile.pure_actions] = 1.0
            joint = JointDistribution(mass)
            for i in range(2):
                assert cce_deviation_gap(joint, table, i) <= 1e-9

    def test_uniform_mixture_of_pure_nes_is_cce(self):
        table = anti_coordination_table(2, 2)
        mass = np.array([[0.0, 0.5], [0.5, 0.0]])
        joint = JointDistribution(mass)
        for i in range(2):
            assert cce_deviation_gap(joint, table, i) <= 1e-9

    def test_colliding_point_mass_gap_is_snr_minus_sinr(self):
        table = anti_coordination_table(2, 2, snr_db=20.0, sinr_db=-10.0)
        mass = np.zeros((2, 2))
        mass[0, 0] = 1.0
        joint = JointDistribution(mass)
        assert cce_deviation_gap(joint, table, 0) == pytest.approx(30.0)

    def test_mismatched_table_rejected(self):
        joint = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            cce_deviation_gap(joint, anti_coordination_table(2, 3), 0)

    @pytest.mark.parametrize("n,a,seed", [(2, 2, 0), (2, 4, 1), (3, 3, 2)])
    def test_matches_brute_force(self, n, a, seed):
        rng = np.random.default_rng(seed)
        table = UtilityTable(rng.normal(size=(n,) + (a,) * n))
        mass = rng.random((a,) * n)
        joint = JointDistribution(mass / mass.sum())
        for i in range(n):
            assert cce_deviation_gap(joint, table, i) == pytest.approx(
                brute_force_cce_gap(joint, table, i))


class TestExternalRegret:
    def test_hindsight_best_play_zero_regret(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        opp = np.array([[1], [1], [1]])
        realized = np.array([10.0, 10.0, 10.0])  # always played subband 0
        ledger = RegretLedger(player=0, realized_db=realized, opponent_actions=opp)
        assert external_regret(ledger, table)[-1] == pytest.approx(0.0)

    def test_alternating_opponent_fixed_self_ties(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        opp = np.array([[0], [1]])
        realized = np.array([0.0, 10.0])  # self played subband 0 both chirps
        ledger = RegretLedger(player=0, realized_db=realized, opponent_actions=opp)
        assert external_regret(ledger, table)[-1] == pytest.approx(0.0)

    def test_always_colliding_play(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        opp = np.array([[0], [1]])
        realized = np.array([0.0, 0.0])  # self tracked the opponent
        ledger = RegretLedger(player=0, realized_db=realized, opponent_actions=opp)
        assert external_regret(ledger, table)[-1] == pytest.approx(10.0)

    def test_running_regret_after_every_chirp(self):
        table = anti_coordination_table(2, 2, snr_db=10.0, sinr_db=0.0)
        opp = np.array([[0], [1], [1]])
        realized = np.array([0.0, 0.0, 10.0])
        ledger = RegretLedger(player=0, realized_db=realized, opponent_actions=opp)
        # arm 0 earns 0, 10, 10 and arm 1 earns 10, 0, 0
        np.testing.assert_allclose(external_regret(ledger, table), [10.0, 10.0, 10.0])

    def test_single_player_game(self):
        table = UtilityTable(np.array([[1.0, 5.0]]))
        ledger = RegretLedger(player=0, realized_db=np.array([1.0, 1.0]),
                              opponent_actions=np.empty((2, 0), dtype=int))
        assert external_regret(ledger, table)[-1] == pytest.approx(8.0)

    def test_opponent_column_mismatch_rejected(self):
        table = anti_coordination_table(3, 2)
        ledger = RegretLedger(player=0, realized_db=np.array([0.0]),
                              opponent_actions=np.array([[1]]))
        with pytest.raises(ValueError):
            external_regret(ledger, table)


class TestEmpiricalJoint:
    def test_single_chirp_point_mass(self):
        joint = empirical_joint([np.array([1]), np.array([2])], 3)
        assert joint.mass[1, 2] == 1.0
        assert joint.mass.sum() == pytest.approx(1.0)

    def test_half_half_counts(self):
        joint = empirical_joint([np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0])], 2)
        assert joint.mass[0, 1] == pytest.approx(0.5)
        assert joint.mass[1, 0] == pytest.approx(0.5)

    def test_round_robin_uniform(self):
        a = 3
        pairs = list(itertools.product(range(a), repeat=2))
        joint = empirical_joint(
            [np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])], a)
        np.testing.assert_allclose(joint.mass, np.full((a, a), 1.0 / a**2))

    def test_ragged_histories_rejected(self):
        with pytest.raises(ValueError):
            empirical_joint([np.array([0, 1]), np.array([0])], 2)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            empirical_joint([np.array([], dtype=int)], 2)


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
            assert expected_utility(shifted, profile, i) == pytest.approx(
                expected_utility(table, profile, i) + 4.2)
        assert is_nash(profile, shifted) == is_nash(profile, table)
        assert sorted(p.pure_actions for p in enumerate_pure_nash(shifted)) \
            == sorted(p.pure_actions for p in enumerate_pure_nash(table))
        mass = rng.random((3, 3))
        joint = JointDistribution(mass / mass.sum())
        for i in range(2):
            assert cce_deviation_gap(joint, shifted, i) == pytest.approx(
                cce_deviation_gap(joint, table, i))

    def test_symmetric_shift_keeps_welfare_max_selection(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(2, 3, 3))
        base = solve_nash_welfare_max(UtilityTable(values))
        shifted = solve_nash_welfare_max(UtilityTable(values + 7.0))
        assert base.support_key() == shifted.support_key()


class TestRegretGapIdentity:
    """Empirical joint vs regret: the CCE gap never exceeds regret/K."""

    @pytest.mark.parametrize("seed", range(5))
    def test_identity_on_random_histories(self, seed):
        rng = np.random.default_rng(seed)
        n, a, k = 2, 4, 200
        table = UtilityTable(rng.normal(size=(n, a, a)))
        hist = [rng.integers(0, a, size=k) for _ in range(n)]
        joint = empirical_joint(hist, a)
        for i in range(n):
            realized = table.values[i][tuple(hist)]
            opp = np.stack([hist[j] for j in range(n) if j != i], axis=1)
            ledger = RegretLedger(player=i, realized_db=realized, opponent_actions=opp)
            gap = cce_deviation_gap(joint, table, i)
            assert gap <= external_regret(ledger, table)[-1] / k + 1e-9
