"""Schedulers: episode bookkeeping, exponential weights, explore-then-commit."""
import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import hopsim.hopping as hopping
from hopsim.game import check_simplex, solve_nash_welfare_max
from hopsim.hopping import (
    DEFAULT_KAPPA,
    DEFAULT_LOSS_CLIP_DB,
    EpisodeStats,
    NoRegretState,
    floored_estimates,
    init_nash_hopper,
    init_noregret,
    nash_commit,
    nash_explore_update,
    noregret_update,
    sample_subbands,
    schedule_params,
)

import oracles
from oracles import (
    EpisodeSchedule,
    MixedStrategy,
    RadarEpisodeStats,
    collision_table,
    hard_threshold,
    pure_action,
    pure_actions,
    pure_strategy,
    rows_profile,
    sample_subband,
    stack_stats,
    support_key,
    uniform_policy,
)


def row_stats(sinr_db, snr_db=None, hit_sinr_db=None, count=None,
              clean_count=None, hit_count=None) -> RadarEpisodeStats:
    """One radar's stats; counts default to 1 where the SINR is not NaN."""
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
    return RadarEpisodeStats(sinr_db=sinr_db, snr_db=np.asarray(snr_db, dtype=float),
                             hit_sinr_db=np.asarray(hit_sinr_db, dtype=float),
                             count=count, clean_count=np.asarray(clean_count),
                             hit_count=np.asarray(hit_count))


def stats_from(*args, **kwargs) -> EpisodeStats:
    """``row_stats`` as the stacked stats of a one-radar episode."""
    return stack_stats([row_stats(*args, **kwargs)])


def noregret_params(c_eta=1.0, c_gamma=1.0, kappa=DEFAULT_KAPPA,
                    loss_clip_db=DEFAULT_LOSS_CLIP_DB, baseline_delta_db=None) -> dict:
    """Every ``NOREGRET_PARAMS`` value of one radar, defaults as in the config."""
    return dict(c_eta=c_eta, c_gamma=c_gamma, kappa=kappa, loss_clip_db=loss_clip_db,
                baseline_delta_db=baseline_delta_db)


def one_radar(n_subbands, **params) -> NoRegretState:
    """The stacked learner state of a single ``noregret`` radar."""
    return init_noregret(n_subbands, {0: noregret_params(**params)})


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
        draws = sample_subbands(uniform_policy(6).probs, rng, 60000)
        counts = np.bincount(draws, minlength=6)
        assert np.all(counts >= 9500) and np.all(counts <= 10500)

    def test_determinism(self):
        p = np.array([0.2, 0.5, 0.3])
        a = sample_subbands(p, np.random.default_rng(42), 100)
        b = sample_subbands(p, np.random.default_rng(42), 100)
        np.testing.assert_array_equal(a, b)

    def test_matches_generator_choice(self):
        # rng.choice(A, size, p) is the oracle: the same draws, dtype and
        # generator state, on rows with zero entries, 2-13 subbands and
        # 1-699 draws.
        g = np.random.default_rng(2024)
        for _ in range(200):
            a = int(g.integers(2, 14))
            p = g.random(a) * (g.random(a) < 0.7)
            p[g.integers(a)] += 0.1
            p = check_simplex(p / p.sum())
            size = int(g.integers(1, 700))
            seed = int(g.integers(2**32))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_subbands(p, got_rng, size)
            want = want_rng.choice(a, size=size, p=p)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestUniformPolicy:
    def test_a6(self):
        np.testing.assert_allclose(uniform_policy(6).probs, np.full(6, 1 / 6))

    def test_a1(self):
        np.testing.assert_array_equal(uniform_policy(1).probs, [1.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            uniform_policy(0)


def pin_schedule(monkeypatch, eta=None, gamma=None):
    """Make ``noregret_update`` step with ``eta`` and/or ``gamma`` in place
    of the values its decaying schedule gives."""
    schedule = hopping.schedule_params

    def pinned(*args):
        eta_s, gamma_s = schedule(*args)
        return (eta_s if eta is None else np.full_like(eta_s, eta),
                gamma_s if gamma is None else np.full_like(gamma_s, gamma))

    monkeypatch.setattr(hopping, "schedule_params", pinned)


class TestNoRegretUpdate:
    def test_no_plays_stays_uniform(self):
        state = one_radar(4)
        nxt = noregret_update(state, stats_from(np.full(4, np.nan)))
        np.testing.assert_allclose(nxt.probs[0], np.full(4, 0.25))
        assert nxt.tau == 2

    def test_hand_evaluated_two_arm_update(self, monkeypatch):
        # Only arm 0 played at 20 dB: loss (-40, 0); eta=0.1, gamma=0
        # gives softmax proportional to (e^4, 1).
        state = one_radar(2, kappa=0.0)
        stats = stats_from([20.0, np.nan])
        pin_schedule(monkeypatch, eta=0.1, gamma=0.0)
        nxt = noregret_update(state, stats)
        np.testing.assert_allclose(nxt.loss[0], [-40.0, 0.0])
        expect = np.array([np.e**4, 1.0])
        np.testing.assert_allclose(nxt.probs[0], expect / expect.sum(), atol=1e-12)
        assert nxt.probs[0, 0] == pytest.approx(0.982, abs=1e-3)

    def test_gamma_one_forces_uniform(self, monkeypatch):
        state = one_radar(3, kappa=0.0)
        stats = stats_from([30.0, np.nan, np.nan])
        pin_schedule(monkeypatch, gamma=1.0)
        nxt = noregret_update(state, stats)
        np.testing.assert_allclose(nxt.probs[0], np.full(3, 1 / 3))

    def test_played_zero_probability_arm_is_an_error(self, monkeypatch):
        state = one_radar(2, kappa=0.0)
        pin_schedule(monkeypatch, eta=5.0, gamma=0.0)
        state = noregret_update(state, stats_from([60.0, np.nan]))
        state = noregret_update(state, stats_from([60.0, np.nan]))
        assert state.probs[0, 1] < 1e-12
        bad = replace(state, probs=np.array([[0.0, 1.0]]))
        with pytest.raises(RuntimeError):
            noregret_update(bad, stats_from([20.0, np.nan]))

    def test_simplex_preserved(self):
        rng = np.random.default_rng(2)
        state = one_radar(6)
        for _ in range(40):
            sinr = np.where(rng.random(6) < 0.5, rng.uniform(-10, 25, 6), np.nan)
            # arms with zero probability cannot have been played
            sinr = np.where(state.probs[0] > 0, sinr, np.nan)
            state = noregret_update(state, stats_from(sinr))
            p = state.probs[0]
            assert np.all(p >= 0) and p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_exploration_floor_with_kappa_zero(self, monkeypatch):
        state = one_radar(4, kappa=0.0)
        stats = stats_from([25.0, np.nan, np.nan, np.nan])
        gamma = 0.2
        pin_schedule(monkeypatch, gamma=gamma)
        nxt = noregret_update(state, stats)
        assert np.all(nxt.probs[0] >= gamma / 4 - 1e-12)

    def test_softmax_shift_invariance(self, monkeypatch):
        base = one_radar(3, kappa=0.0)
        stats = stats_from([12.0, -3.0, np.nan])
        pin_schedule(monkeypatch, eta=0.3, gamma=0.1)
        a = noregret_update(base, stats)
        b = noregret_update(replace(base, loss=base.loss + 500.0), stats)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-12)

    def test_loss_clip_applies_per_increment(self):
        state = one_radar(2, kappa=0.0, loss_clip_db=50.0)
        nxt = noregret_update(state, stats_from([200.0, np.nan]))
        assert nxt.loss[0, 0] == pytest.approx(-50.0)

    def test_stats_length_mismatch(self):
        with pytest.raises(ValueError):
            noregret_update(one_radar(3), stats_from([1.0, np.nan]))


class TestBaselineSubtraction:
    def test_hand_evaluated_offset(self, monkeypatch):
        # Mean clean SNR 20, delta 1 -> baseline 19; arm 0 at 14 dB gains
        # (19 - 14)/0.5 = +10 loss, unplayed arm 1 unchanged.
        state = one_radar(2, kappa=0.0, baseline_delta_db=1.0)
        stats = stats_from([14.0, np.nan], snr_db=[20.0, np.nan])
        pin_schedule(monkeypatch, eta=0.1, gamma=0.0)
        nxt = noregret_update(state, stats)
        np.testing.assert_allclose(nxt.loss[0], [10.0, 0.0])

    def test_clean_arm_drifts_by_minus_delta(self):
        # An arm measured exactly at the mean clean SNR accumulates only
        # the -delta/p drift that favours low-probability arms.
        state = one_radar(4, kappa=0.0, baseline_delta_db=2.0)
        stats = stats_from([20.0, np.nan, np.nan, np.nan],
                           snr_db=[20.0, np.nan, np.nan, np.nan])
        nxt = noregret_update(state, stats)
        assert nxt.loss[0, 0] == pytest.approx(-2.0 / 0.25)
        np.testing.assert_allclose(nxt.loss[0, 1:], 0.0)

    def test_no_clean_observation_matches_default(self, monkeypatch):
        # Without any clean-chirp SNR the baseline falls back to zero and
        # the update matches the plain importance-weighted loss.
        stats = stats_from([20.0, np.nan], snr_db=[np.nan, np.nan])
        pin_schedule(monkeypatch, eta=0.1, gamma=0.0)
        with_base = noregret_update(one_radar(2, kappa=0.0, baseline_delta_db=1.0), stats)
        plain = noregret_update(one_radar(2, kappa=0.0), stats)
        np.testing.assert_allclose(with_base.loss, plain.loss)

    def test_default_state_has_no_baseline(self):
        assert np.isnan(one_radar(3).baseline_delta_db).all()


def nash_state(n_players, n_subbands, explore_episodes, radars=(0,), **params):
    """A nash state for the players ``radars``, all on the same parameters."""
    defaults = {"explore_episodes": explore_episodes, "solver_mode": "auto",
                "floor_db": hopping.DEFAULT_PESSIMISTIC_FLOOR_DB}
    return init_nash_hopper(n_players, n_subbands, {i: defaults | params for i in radars})


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
        return RadarEpisodeStats(sinr_db=sinr, snr_db=snr_arr, hit_sinr_db=hit,
                                 count=np.full(n_subbands, 10),
                                 clean_count=clean_count, hit_count=hit_count)

    def test_initial_strategy_uniform(self):
        state = nash_state(2, 6, 10)
        np.testing.assert_allclose(state.probs[0], np.full(6, 1 / 6))

    def test_collision_measurement_lands_in_colliding_cells(self):
        state = nash_state(2, 2, 1)
        all_stats = [self._explore_stats(2, collided={0: 3.0}),
                     self._explore_stats(2, collided={0: 3.0})]
        state = nash_explore_update(state, stack_stats(all_stats))
        table = collision_table(*floored_estimates(state, 0))
        assert table.values[0, 0, 0] == pytest.approx(3.0)
        # subband 1 was observed clean, so its collision-free cell holds SNR
        assert table.values[0, 1, 0] == pytest.approx(20.0)

    def test_all_clean_episode_fills_clean_cells(self):
        state = nash_state(2, 3, 1)
        state = nash_explore_update(
            state, stack_stats([self._explore_stats(3), self._explore_stats(3)]))
        table = collision_table(*floored_estimates(state, 0))
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert table.values[0, i, j] == pytest.approx(20.0)

    def test_unobserved_collisions_use_pessimistic_floor(self):
        state = nash_state(2, 2, 1, floor_db=-10.0)
        state = nash_explore_update(
            state, stack_stats([self._explore_stats(2), self._explore_stats(2)]))
        table = collision_table(*floored_estimates(state, 0))
        assert table.values[0, 0, 0] == pytest.approx(-10.0)

    def test_recomputed_profile_is_distinct_pure_pair(self):
        state = nash_state(2, 6, 1, radars=(0, 1))
        all_stats = [self._explore_stats(6), self._explore_stats(6)]
        state = nash_explore_update(state, stack_stats(all_stats))
        acts = pure_actions(rows_profile(state.probs))
        assert acts is not None and acts[0] != acts[1]

    def test_missing_stats_is_communication_error(self):
        state = nash_state(2, 6, 1)
        with pytest.raises(ValueError):
            nash_explore_update(state, stack_stats([self._explore_stats(6)]))

    def test_commit_requires_exploration_end(self):
        state = nash_state(2, 6, 2)
        state = nash_explore_update(
            state, stack_stats([self._explore_stats(6), self._explore_stats(6)]))
        assert state.episodes_seen == 1
        with pytest.raises(RuntimeError):
            nash_commit(state)

    def test_commit_freezes_own_slice(self):
        state = nash_state(2, 6, 1)
        state = nash_explore_update(
            state, stack_stats([self._explore_stats(6), self._explore_stats(6)]))
        state = nash_commit(state)
        assert state.committed[0]
        assert pure_action(MixedStrategy(state.probs[0])) is not None

    def test_symmetric_tie_break_pair(self):
        state = nash_state(2, 6, 1, radars=(0, 1))
        state = nash_explore_update(
            state, stack_stats([self._explore_stats(6), self._explore_stats(6)]))
        state = nash_commit(state)
        assert pure_actions(rows_profile(state.probs)) == (0, 1)

    def test_single_radar_commits_to_argmax_snr(self):
        state = nash_state(1, 3, 1)
        snr = np.array([10.0, 30.0, 20.0])
        stats = RadarEpisodeStats(sinr_db=snr, snr_db=snr,
                                  hit_sinr_db=np.full(3, np.nan),
                                  count=np.full(3, 5), clean_count=np.full(3, 5),
                                  hit_count=np.zeros(3, dtype=int))
        state = nash_explore_update(state, stack_stats([stats]))
        state = nash_commit(state)
        assert pure_action(MixedStrategy(state.probs[0])) == 1

    def test_commit_profile_is_fresh_solve(self):
        # The commit takes the last explore update's rows; they must be
        # the welfare-max NE of the estimates they are committed from.
        rng = np.random.default_rng(5)
        state = nash_state(2, 4, 2, radars=(0, 1))
        for _ in range(2):
            state = nash_explore_update(state, stack_stats([
                self._explore_stats(4, snr=rng.uniform(10, 30), collided={
                    int(f): rng.uniform(-5, 15) for f in rng.choice(4, 2)})
                for _ in range(2)]))
        state = nash_commit(state)
        assert state.committed.all()
        fresh = solve_nash_welfare_max(*floored_estimates(state, 0))
        assert support_key(rows_profile(state.probs)) == support_key(rows_profile(fresh))
        for row, s in zip(state.probs, fresh):
            np.testing.assert_array_equal(row, s)

    def test_explore_update_after_commit_rejected(self):
        state = nash_state(2, 6, 1)
        state = nash_explore_update(
            state, stack_stats([self._explore_stats(6), self._explore_stats(6)]))
        state = nash_commit(state)
        with pytest.raises(RuntimeError):
            nash_explore_update(state, stack_stats([self._explore_stats(6)] * 2))


def random_exchange(rng, n_rows, a):
    """Exchanged stats of one episode: some subbands unplayed, some observed
    only clean or only collided, integer dB values so that estimates tie."""
    count = np.where(rng.random((n_rows, a)) < 0.7, rng.integers(1, 5, (n_rows, a)), 0)
    clean_count = rng.integers(0, count + 1)
    hit_count = count - clean_count
    snr = np.where(clean_count > 0, rng.integers(5, 30, (n_rows, a)), np.nan)
    hit = np.where(hit_count > 0, rng.integers(-10, 15, (n_rows, a)), np.nan)
    sinr = np.where(count > 0, np.fmax(snr, hit), np.nan)
    return EpisodeStats(sinr, snr, hit, count, clean_count, hit_count)


class TestStackedNashMatchesPerRadarOracle:
    """One stacked ``NashHopperState`` against the oracle's per-radar states,
    which share one ``solved`` dict per episode, bit for bit."""

    # Per player: floor_db, explore_episodes, solver_mode. Players 0 and 2
    # agree on floor and mode, so they share their solves while both explore.
    PARAMS = [(-10.0, 4, "auto"), (-20.0, 2, "pure"), (-10.0, 6, "auto"), (-15.0, 6, "pure")]

    @pytest.mark.parametrize("n_rows, a", [(2, 4), (3, 3), (4, 3)])
    def test_random_episodes(self, monkeypatch, n_rows, a):
        rng = np.random.default_rng(10 * n_rows + a)
        players = rng.permutation(n_rows)  # rows in shuffled player order
        params = {int(i): dict(zip(("floor_db", "explore_episodes", "solver_mode"),
                                   self.PARAMS[i])) for i in players}
        state = init_nash_hopper(n_rows, a, params)
        radars = {i: oracles.RadarNashState.initial(i, n_rows, a, **p) for i, p in params.items()}
        solves = []
        solve = hopping.solve_nash_welfare_max
        monkeypatch.setattr(hopping, "solve_nash_welfare_max",
                            lambda snr, hit, mode: solves.append(mode) or solve(snr, hit, mode))
        shared = 0
        while not state.committed.all():
            stats = random_exchange(rng, n_rows, a)
            exploring = [i for i, radar in radars.items() if radar.committed is None]
            solved = {}
            for i in exploring:
                radars[i] = oracles.radar_nash_explore_update(radars[i], stats, solved)
            before = len(solves)
            state = nash_explore_update(state, stats)
            assert len(solves) - before == len(solved)
            shared += len(exploring) - len(solved)
            for r, i in enumerate(state.radars):
                if i in exploring:
                    for got, want in zip(floored_estimates(state, r),
                                         oracles.radar_floored_estimates(radars[i])):
                        assert got.tobytes() == want.tobytes()
            if np.any(state.explore_episodes == state.episodes_seen):
                state = nash_commit(state)
                radars = {i: oracles.radar_nash_commit(radar)
                          if radar.committed is None
                          and radar.episodes_seen == radar.explore_episodes else radar
                          for i, radar in radars.items()}
            for r, i in enumerate(state.radars):
                assert state.probs[r].tobytes() == radars[i].strategy.probs.tobytes()
                assert state.committed[r] == (radars[i].committed is not None)
        assert state.episodes_seen == max(p["explore_episodes"] for p in params.values())
        assert shared > 0 or n_rows == 2


class TestEpisodeStatsValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            EpisodeStats(sinr_db=np.zeros((1, 3)), snr_db=np.zeros((1, 2)),
                         hit_sinr_db=np.zeros((1, 3)), count=np.zeros((1, 3)),
                         clean_count=np.zeros((1, 3)), hit_count=np.zeros((1, 3)))

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            EpisodeStats(sinr_db=np.zeros((1, 2)), snr_db=np.zeros((1, 2)),
                         hit_sinr_db=np.zeros((1, 2)), count=np.array([[1, -1]]),
                         clean_count=np.zeros((1, 2)), hit_count=np.zeros((1, 2)))


def random_learners(rng, m, a, n_rows):
    """A stacked state of m radars on random rows of an n_rows-radar episode:
    zero-probability subbands, kappa on in some rows and off in others, a
    loss clip of 5 dB in some rows, the baseline on in some rows."""
    probs = rng.dirichlet(np.ones(a), size=m)
    probs[rng.random((m, a)) < 0.2] = 0.0
    probs[np.arange(m), rng.integers(0, a, m)] += 0.5
    probs /= probs.sum(axis=1, keepdims=True)
    on = np.arange(m) % 2 == 0
    return NoRegretState(
        radars=rng.permutation(n_rows)[:m], loss=rng.normal(0.0, 50.0, (m, a)), probs=probs,
        c_eta=rng.uniform(0.1, 2.0, m), c_gamma=np.where(on, rng.uniform(0.05, 1.0, m), 50.0),
        kappa=np.where(on, 0.9 / a, 0.0), loss_clip_db=np.where(on, 5.0, 600.0),
        baseline_delta_db=np.where(~on, rng.uniform(0.0, 2.0, m), np.nan), tau=3)


def random_episode(rng, state, n_rows):
    """Stats of one episode in which each radar plays only subbands it gives
    positive probability: some unplayed (NaN), some rows with no clean chirp."""
    a = state.probs.shape[1]
    rows = []
    for i in range(n_rows):
        r = np.flatnonzero(state.radars == i)
        live = state.probs[r[0]] > 0 if r.size else np.ones(a, dtype=bool)
        count = np.where(live & (rng.random(a) < 0.6), rng.integers(1, 5, a), 0)
        clean_count = np.zeros(a, dtype=int) if i % 3 == 1 else rng.integers(0, count + 1)
        sinr = np.where(count > 0, rng.uniform(-20.0, 40.0, a), np.nan)
        snr = np.where(clean_count > 0, rng.uniform(5.0, 40.0, a), np.nan)
        hit = count - clean_count
        rows.append(RadarEpisodeStats(sinr, snr, np.where(hit > 0, sinr - 3.0, np.nan),
                                      count, clean_count, hit))
    return stack_stats(rows)


class TestStackedStepMatchesPerRadarOracle:
    """``noregret_update`` on stacked rows against the per-radar oracle, bit for bit."""

    @pytest.mark.parametrize("a", [2, 6, 9, 16])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_random_episodes(self, m, a):
        rng = np.random.default_rng(100 * m + a)
        n_rows = m + 1
        state = random_learners(rng, m, a, n_rows)
        clipped = zeroed = False
        for _ in range(15):
            stats = random_episode(rng, state, n_rows)
            got = noregret_update(state, stats)
            want = oracles.per_radar_noregret_update(state, stats)
            assert got.loss.tobytes() == want.loss.tobytes()
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.tau == want.tau == state.tau + 1
            step = np.abs(got.loss - state.loss)
            clipped |= bool(np.any(step == state.loss_clip_db[:, None]))
            zeroed |= bool(np.any((got.probs == 0) & (state.kappa[:, None] > 0)))
            state = got
        assert clipped and (zeroed or a == 2)

    def test_rows_follow_their_radars(self):
        # Radar 1's learner reads stats row 1, whatever its position in the state.
        rng = np.random.default_rng(0)
        state = random_learners(rng, 2, 6, 2)
        stats = random_episode(rng, state, 2)
        flipped = replace(state, radars=state.radars[::-1], loss=state.loss[::-1],
                          probs=state.probs[::-1], **{
                              name: getattr(state, name)[::-1]
                              for name in hopping.NOREGRET_PARAMS})
        a, b = noregret_update(state, stats), noregret_update(flipped, stats)
        assert a.probs.tobytes() == b.probs[::-1].tobytes()


def test_successor_states_equal_rebuilt_states():
    # The step skips the constructor's checks on the fields it copies; a
    # chain that rebuilds NoRegretState(**fields) after every step (every
    # check run again) holds the same fields, bit for bit, for 50 episodes.
    rng = np.random.default_rng(50)
    names = [f.name for f in dataclasses.fields(NoRegretState)]
    fast = rebuilt = random_learners(rng, 3, 6, 4)
    start = fast.tau
    for _ in range(50):
        stats = random_episode(rng, fast, 4)
        fast = noregret_update(fast, stats)
        step = noregret_update(rebuilt, stats)
        rebuilt = NoRegretState(**{name: getattr(step, name) for name in names})
        for name in names:
            a, b = np.asarray(getattr(fast, name)), np.asarray(getattr(rebuilt, name))
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert fast.tau == start + 50


def test_step_rejects_a_loss_that_is_not_finite():
    # A played subband whose SINR is NaN would make the loss NaN.
    with pytest.raises(ValueError, match="loss entries must be finite"):
        noregret_update(_stacked(), stats_from([np.nan, 1.0, np.nan, np.nan],
                                                count=[1, 1, 0, 0]))


def _stacked(**overrides):
    fields = dict(radars=[0], loss=np.zeros((1, 4)), probs=np.full((1, 4), 0.25),
                  c_eta=[1.0], c_gamma=[1.0], kappa=[0.0], loss_clip_db=[600.0],
                  baseline_delta_db=[np.nan])
    return NoRegretState(**(fields | overrides))


def _radar(**overrides):
    fields = dict(loss=np.zeros(4), strategy=uniform_policy(4), kappa=0.0)
    return oracles.RadarNoRegretState(**(fields | overrides))


# (per-radar oracle call, stacked call, the error both raise)
VALIDATION_CASES = {
    "loss-not-finite": (lambda: _radar(loss=[np.inf, 0, 0, 0]),
                        lambda: _stacked(loss=[[np.inf, 0, 0, 0]]), ValueError),
    "loss-shape": (lambda: _radar(loss=np.zeros(3)),
                   lambda: _stacked(loss=np.zeros((1, 3))), ValueError),
    "strategy-not-finite": (lambda: MixedStrategy(np.array([np.nan, 1.0])),
                            lambda: _stacked(probs=[[np.nan, 1.0, 0, 0]]), ValueError),
    "strategy-negative": (lambda: MixedStrategy(np.array([-0.1, 1.1])),
                          lambda: _stacked(probs=[[-0.1, 1.1, 0, 0]]), ValueError),
    "strategy-sum": (lambda: MixedStrategy(np.array([0.5, 0.4])),
                     lambda: _stacked(probs=[[0.5, 0.4, 0, 0]]), ValueError),
    "kappa-range": (lambda: hard_threshold(uniform_policy(4), 0.25),
                    lambda: _stacked(kappa=[0.25]), ValueError),
    "played-at-zero": (
        lambda: oracles.noregret_update(_radar(strategy=pure_strategy(1, 4)),
                                        row_stats([20.0, np.nan, np.nan, np.nan])),
        lambda: noregret_update(_stacked(probs=[[0.0, 1.0, 0.0, 0.0]]),
                                stats_from([20.0, np.nan, np.nan, np.nan])),
        RuntimeError),
    "stats-length": (lambda: oracles.noregret_update(_radar(), row_stats([1.0, np.nan])),
                     lambda: noregret_update(_stacked(), stats_from([1.0, np.nan])),
                     ValueError),
    "negative-count": (lambda: row_stats([1.0, 2.0], count=[1, -1]),
                       lambda: stats_from([1.0, 2.0], count=[1, -1]), ValueError),
}


@pytest.mark.parametrize("case", VALIDATION_CASES)
def test_stacked_validation_raises_as_per_radar(case):
    oracle, stacked, error = VALIDATION_CASES[case]
    with pytest.raises(error):
        oracle()
    with pytest.raises(error):
        stacked()
