"""Schedulers: episode bookkeeping, exponential weights, explore-then-commit."""
import numpy as np
import pytest

from hopsim.game import MixedStrategy, UtilityTable, pure_strategy, solve_nash_welfare_max
from hopsim.hopping import (
    EpisodeStats,
    NashHopperState,
    estimated_table,
    hard_threshold,
    init_nash_hopper,
    init_noregret,
    nash_commit,
    nash_explore_update,
    noregret_update,
    sample_subbands,
    schedule_params,
    uniform_policy,
)

from oracles import EpisodeSchedule, sample_subband


def stats_from(sinr_db, snr_db=None, hit_sinr_db=None, count=None,
               clean_count=None, hit_count=None):
    sinr_db = np.asarray(sinr_db, dtype=float)
    a = sinr_db.size
    count = np.asarray(count if count is not None
                       else np.where(np.isnan(sinr_db), 0, 1))
    if snr_db is None:
        snr_db = sinr_db
    if hit_sinr_db is None:
        hit_sinr_db = np.full(a, np.nan)
    if clean_count is None:
        clean_count = count
    if hit_count is None:
        hit_count = np.zeros(a, dtype=int)
    return EpisodeStats(sinr_db=sinr_db, snr_db=np.asarray(snr_db, dtype=float),
                        hit_sinr_db=np.asarray(hit_sinr_db, dtype=float),
                        count=count, clean_count=np.asarray(clean_count),
                        hit_count=np.asarray(hit_count))


class TestEpisodeSchedule:
    def test_boundaries(self):
        sched = EpisodeSchedule(chirps_per_frame=512, n_episodes=4)
        assert sched.chirps_per_episode == 128
        assert sched.boundaries == (128, 256, 384, 512)

    def test_divisibility_enforced(self):
        EpisodeSchedule(chirps_per_frame=500, n_episodes=50)
        with pytest.raises(ValueError):
            EpisodeSchedule(chirps_per_frame=500, n_episodes=60)

    def test_positive_counts(self):
        with pytest.raises(ValueError):
            EpisodeSchedule(chirps_per_frame=0, n_episodes=1)


class TestScheduleParams:
    def test_tau1_a6_reference_value(self):
        eta, gamma = schedule_params(1, 6)
        expect = np.sqrt(np.log(6) / 6)
        assert eta == pytest.approx(expect, abs=1e-12)
        assert gamma == pytest.approx(expect, abs=1e-12)
        assert eta == pytest.approx(0.5465, abs=5e-4)

    def test_quadrupling_tau_halves(self):
        e1, g1 = schedule_params(5, 6)
        e4, g4 = schedule_params(20, 6)
        assert e4 == pytest.approx(e1 / 2)
        assert g4 == pytest.approx(g1 / 2)

    def test_gamma_capped_at_one(self):
        _, gamma = schedule_params(1, 6, c_gamma=1e6)
        assert gamma == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            schedule_params(0, 6)
        with pytest.raises(ValueError):
            schedule_params(1, 1)
        with pytest.raises(ValueError):
            schedule_params(1, 6, c_eta=0.0)


class TestHardThreshold:
    def test_reference_example(self):
        out = hard_threshold(MixedStrategy(np.array([0.5, 0.46, 0.04])), 0.04)
        np.testing.assert_allclose(out.probs, [0.5 / 0.96, 0.46 / 0.96, 0.0])

    def test_kappa_zero_keeps_positive_entries(self):
        p = MixedStrategy(np.array([0.7, 0.3]))
        np.testing.assert_array_equal(hard_threshold(p, 0.0).probs, p.probs)

    def test_pure_strategy_unchanged(self):
        p = pure_strategy(1, 4)
        np.testing.assert_array_equal(hard_threshold(p, 0.2).probs, p.probs)

    def test_kappa_bounds(self):
        p = uniform_policy(4)
        with pytest.raises(ValueError):
            hard_threshold(p, 0.25)  # 1/A not allowed
        with pytest.raises(ValueError):
            hard_threshold(p, -0.1)


class TestSampling:
    def test_pure_always_same(self):
        rng = np.random.default_rng(0)
        p = pure_strategy(3, 6)
        assert all(sample_subband(p, rng) == 3 for _ in range(50))

    def test_uniform_counts_within_binomial_bound(self):
        rng = np.random.default_rng(1)
        draws = sample_subbands(uniform_policy(6), rng, 60000)
        counts = np.bincount(draws, minlength=6)
        assert np.all(counts >= 9500) and np.all(counts <= 10500)

    def test_determinism(self):
        p = MixedStrategy(np.array([0.2, 0.5, 0.3]))
        a = sample_subbands(p, np.random.default_rng(42), 100)
        b = sample_subbands(p, np.random.default_rng(42), 100)
        np.testing.assert_array_equal(a, b)


class TestUniformPolicy:
    def test_a6(self):
        np.testing.assert_allclose(uniform_policy(6).probs, np.full(6, 1 / 6))

    def test_a1(self):
        np.testing.assert_array_equal(uniform_policy(1).probs, [1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            uniform_policy(0)


class TestNoRegretUpdate:
    def test_no_plays_stays_uniform(self):
        state = init_noregret(4)
        nxt = noregret_update(state, stats_from(np.full(4, np.nan)))
        np.testing.assert_allclose(nxt.current.probs, np.full(4, 0.25))
        assert nxt.tau == 2

    def test_hand_evaluated_two_arm_update(self):
        # Only arm 0 played at 20 dB: loss (-40, 0); eta=0.1, gamma=0
        # gives softmax proportional to (e^4, 1).
        state = init_noregret(2, kappa=0.0)
        stats = stats_from([20.0, np.nan])
        nxt = noregret_update(state, stats, eta=0.1, gamma=0.0)
        np.testing.assert_allclose(nxt.loss, [-40.0, 0.0])
        expect = np.array([np.e**4, 1.0])
        np.testing.assert_allclose(nxt.current.probs, expect / expect.sum(),
                                   atol=1e-12)
        assert nxt.current.probs[0] == pytest.approx(0.982, abs=1e-3)

    def test_gamma_one_forces_uniform(self):
        state = init_noregret(3, kappa=0.0)
        stats = stats_from([30.0, np.nan, np.nan])
        nxt = noregret_update(state, stats, gamma=1.0)
        np.testing.assert_allclose(nxt.current.probs, np.full(3, 1 / 3))

    def test_played_zero_probability_arm_is_an_error(self):
        state = init_noregret(2, kappa=0.0)
        state = noregret_update(state, stats_from([60.0, np.nan]), eta=5.0, gamma=0.0)
        state = noregret_update(state, stats_from([60.0, np.nan]), eta=5.0, gamma=0.0)
        assert state.current.probs[1] < 1e-12
        forced = MixedStrategy(np.array([0.0, 1.0]))
        bad = type(state)(loss=state.loss, current=forced, tau=state.tau,
                          kappa=state.kappa)
        with pytest.raises(RuntimeError):
            noregret_update(bad, stats_from([20.0, np.nan]))

    def test_simplex_preserved(self):
        rng = np.random.default_rng(2)
        state = init_noregret(6)
        for _ in range(40):
            sinr = np.where(rng.random(6) < 0.5, rng.uniform(-10, 25, 6), np.nan)
            played = ~np.isnan(sinr)
            # arms with zero probability cannot have been played
            sinr = np.where(state.current.probs > 0, sinr, np.nan)
            state = noregret_update(state, stats_from(sinr))
            p = state.current.probs
            assert np.all(p >= 0) and p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_exploration_floor_with_kappa_zero(self):
        state = init_noregret(4, kappa=0.0)
        stats = stats_from([25.0, np.nan, np.nan, np.nan])
        gamma = 0.2
        nxt = noregret_update(state, stats, gamma=gamma)
        assert np.all(nxt.current.probs >= gamma / 4 - 1e-12)

    def test_softmax_shift_invariance(self):
        base = init_noregret(3, kappa=0.0)
        stats = stats_from([12.0, -3.0, np.nan])
        a = noregret_update(base, stats, eta=0.3, gamma=0.1)
        shifted = type(base)(loss=base.loss + 500.0, current=base.current,
                             tau=base.tau, kappa=0.0)
        b = noregret_update(shifted, stats, eta=0.3, gamma=0.1)
        np.testing.assert_allclose(a.current.probs, b.current.probs, atol=1e-12)

    def test_loss_clip_applies_per_increment(self):
        state = init_noregret(2, kappa=0.0, loss_clip_db=50.0)
        nxt = noregret_update(state, stats_from([200.0, np.nan]))
        assert nxt.loss[0] == pytest.approx(-50.0)

    def test_stats_length_mismatch(self):
        with pytest.raises(ValueError):
            noregret_update(init_noregret(3), stats_from([1.0, np.nan]))


class TestBaselineSubtraction:
    def test_hand_evaluated_offset(self):
        # Mean clean SNR 20, delta 1 -> baseline 19; arm 0 at 14 dB gains
        # (19 - 14)/0.5 = +10 loss, unplayed arm 1 unchanged.
        state = init_noregret(2, kappa=0.0, baseline_delta_db=1.0)
        stats = stats_from([14.0, np.nan], snr_db=[20.0, np.nan])
        nxt = noregret_update(state, stats, eta=0.1, gamma=0.0)
        np.testing.assert_allclose(nxt.loss, [10.0, 0.0])

    def test_clean_arm_drifts_by_minus_delta(self):
        # An arm measured exactly at the mean clean SNR accumulates only
        # the -delta/p drift that favours low-probability arms.
        state = init_noregret(4, kappa=0.0, baseline_delta_db=2.0)
        stats = stats_from([20.0, np.nan, np.nan, np.nan],
                           snr_db=[20.0, np.nan, np.nan, np.nan])
        nxt = noregret_update(state, stats)
        assert nxt.loss[0] == pytest.approx(-2.0 / 0.25)
        np.testing.assert_allclose(nxt.loss[1:], 0.0)

    def test_no_clean_observation_matches_default(self):
        # Without any clean-chirp SNR the baseline falls back to zero and
        # the update matches the plain importance-weighted loss.
        stats = stats_from([20.0, np.nan], snr_db=[np.nan, np.nan])
        with_base = noregret_update(
            init_noregret(2, kappa=0.0, baseline_delta_db=1.0),
            stats, eta=0.1, gamma=0.0)
        plain = noregret_update(init_noregret(2, kappa=0.0),
                                stats, eta=0.1, gamma=0.0)
        np.testing.assert_allclose(with_base.loss, plain.loss)

    def test_default_state_has_no_baseline(self):
        assert init_noregret(3).baseline_delta_db is None


class TestNashHopper:
    def _explore_stats(self, n_subbands, snr=20.0, collided=None):
        """All subbands observed clean at snr except entries in collided,
        mapping subband -> measured collision SINR."""
        collided = collided or {}
        sinr = np.full(n_subbands, snr)
        snr_arr = np.full(n_subbands, snr)
        hit = np.full(n_subbands, np.nan)
        hit_count = np.zeros(n_subbands, dtype=int)
        clean_count = np.full(n_subbands, 10)
        for f, v in collided.items():
            sinr[f] = v
            hit[f] = v
            hit_count[f] = 10
            clean_count[f] = 0
        return EpisodeStats(sinr_db=sinr, snr_db=snr_arr, hit_sinr_db=hit,
                            count=np.full(n_subbands, 10),
                            clean_count=clean_count, hit_count=hit_count)

    def test_initial_strategy_uniform(self):
        state = init_nash_hopper(0, 2, 6, explore_chirps=100)
        np.testing.assert_allclose(state.strategy.probs, np.full(6, 1 / 6))

    def test_collision_measurement_lands_in_colliding_cells(self):
        state = init_nash_hopper(0, 2, 2, explore_chirps=10)
        all_stats = [self._explore_stats(2, collided={0: 3.0}),
                     self._explore_stats(2, collided={0: 3.0})]
        state = nash_explore_update(state, all_stats)
        table = estimated_table(state)
        assert table.utility(0, (0, 0)) == pytest.approx(3.0)
        # subband 1 was observed clean, so its collision-free cell holds SNR
        assert table.utility(0, (1, 0)) == pytest.approx(20.0)

    def test_all_clean_episode_fills_clean_cells(self):
        state = init_nash_hopper(0, 2, 3, explore_chirps=10)
        state = nash_explore_update(
            state, [self._explore_stats(3), self._explore_stats(3)])
        table = estimated_table(state)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert table.utility(0, (i, j)) == pytest.approx(20.0)

    def test_unobserved_collisions_use_pessimistic_floor(self):
        state = init_nash_hopper(0, 2, 2, explore_chirps=10, floor_db=-10.0)
        state = nash_explore_update(
            state, [self._explore_stats(2), self._explore_stats(2)])
        table = estimated_table(state)
        assert table.utility(0, (0, 0)) == pytest.approx(-10.0)

    def test_recomputed_profile_is_distinct_pure_pair(self):
        state = init_nash_hopper(0, 2, 6, explore_chirps=10)
        all_stats = [self._explore_stats(6), self._explore_stats(6)]
        state = nash_explore_update(state, all_stats)
        acts = state.profile.pure_actions
        assert acts is not None and acts[0] != acts[1]

    def test_missing_stats_is_communication_error(self):
        state = init_nash_hopper(0, 2, 6, explore_chirps=10)
        with pytest.raises(ValueError):
            nash_explore_update(state, [self._explore_stats(6)])

    def test_commit_requires_exploration_end(self):
        state = init_nash_hopper(0, 2, 6, explore_chirps=100)
        with pytest.raises(RuntimeError):
            nash_commit(state, 50)

    def test_commit_freezes_own_slice(self):
        state = init_nash_hopper(0, 2, 6, explore_chirps=10)
        state = nash_explore_update(
            state, [self._explore_stats(6), self._explore_stats(6)])
        state = nash_commit(state, 10)
        assert state.phase == "commit"
        assert state.strategy.pure_action is not None

    def test_symmetric_tie_break_pair(self):
        state = init_nash_hopper(0, 2, 6, explore_chirps=10)
        state = nash_explore_update(
            state, [self._explore_stats(6), self._explore_stats(6)])
        state = nash_commit(state, 10)
        assert state.profile.pure_actions == (0, 1)

    def test_single_radar_commits_to_argmax_snr(self):
        state = init_nash_hopper(0, 1, 3, explore_chirps=10)
        snr = np.array([10.0, 30.0, 20.0])
        stats = EpisodeStats(sinr_db=snr, snr_db=snr,
                             hit_sinr_db=np.full(3, np.nan),
                             count=np.full(3, 5), clean_count=np.full(3, 5),
                             hit_count=np.zeros(3, dtype=int))
        state = nash_explore_update(state, [stats])
        state = nash_commit(state, 10)
        assert state.strategy.pure_action == 1

    def test_commit_profile_is_fresh_solve(self):
        # The commit takes the last explore update's profile; it must be
        # the welfare-max NE of the estimates it commits from.
        rng = np.random.default_rng(5)
        for player in (0, 1):
            state = init_nash_hopper(player, 2, 4, explore_chirps=10)
            for _ in range(2):
                state = nash_explore_update(state, [
                    self._explore_stats(4, snr=rng.uniform(10, 30), collided={
                        int(f): rng.uniform(-5, 15) for f in rng.choice(4, 2)})
                    for _ in range(2)])
            state = nash_commit(state, 10)
            fresh = solve_nash_welfare_max(estimated_table(state))
            assert state.profile.support_key() == fresh.support_key()
            for s, t in zip(state.profile.strategies, fresh.strategies):
                np.testing.assert_array_equal(s.probs, t.probs)
            np.testing.assert_array_equal(state.committed.probs,
                                          fresh.strategies[player].probs)

    def test_explore_update_after_commit_rejected(self):
        state = init_nash_hopper(0, 2, 6, explore_chirps=10)
        state = nash_explore_update(
            state, [self._explore_stats(6), self._explore_stats(6)])
        state = nash_commit(state, 10)
        with pytest.raises(RuntimeError):
            nash_explore_update(state, [self._explore_stats(6)] * 2)

    def test_commit_phase_requires_committed_strategy(self):
        with pytest.raises(ValueError):
            NashHopperState(player=0, n_players=2, n_subbands=2,
                            snr_est_db=np.full((2, 2), np.nan),
                            hit_sinr_est_db=np.full((2, 2), np.nan),
                            profile=init_nash_hopper(0, 2, 2, 1).profile,
                            phase="commit")


class TestEpisodeStatsValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            EpisodeStats(sinr_db=np.zeros(3), snr_db=np.zeros(2),
                         hit_sinr_db=np.zeros(3), count=np.zeros(3),
                         clean_count=np.zeros(3), hit_count=np.zeros(3))

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            EpisodeStats(sinr_db=np.zeros(2), snr_db=np.zeros(2),
                         hit_sinr_db=np.zeros(2), count=np.array([1, -1]),
                         clean_count=np.zeros(2), hit_count=np.zeros(2))
