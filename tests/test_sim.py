"""Scenario orchestration tests.

A brute-force interval-intersection oracle checks the overlap weights the
simulator computes, and genie-mode runs are cross-checked against
collisions recomputed independently from the recorded action sequences.
"""

from dataclasses import replace

import numpy as np
import pytest

import hopsim.signal as sig
from hopsim import hopping, sim
from hopsim.game import RegretLedger, cce_deviation_gap, external_regret
from hopsim.sim import (
    LinkSpec,
    RadarSpec,
    ScenarioConfig,
    ScenarioError,
    genie_utility_table,
    overlap_geometry,
    overlap_weight,
    run_scenario,
    validate_config,
)


def chirp(pri_us=20.0, active_us=16.0, k=64, subbands=6, adc_hz=2e6):
    return sig.ChirpParams(f_c=77e9, subband_hz=150e6, n_subbands=subbands,
                           pri_s=pri_us * 1e-6, active_s=active_us * 1e-6,
                           adc_hz=adc_hz, chirps_per_frame=k)


def target(snr_db=20.0):
    return sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=snr_db)


def two_radar_config(policies=("uniform", "uniform"), frames=4, seed=0,
                     inr_db=30.0, params=None, k=(64, 32), **kwargs):
    params = params or [{}] * len(policies)
    radars = tuple(
        RadarSpec(chirp=chirp(pri_us=20.0 * (k[0] // ki), active_us=16.0 * (k[0] // ki), k=ki),
                  policy=pol, policy_params=dict(par), targets=(target(),))
        for pol, par, ki in zip(policies, params, k))
    links = (LinkSpec(0, 1, inr_db), LinkSpec(1, 0, inr_db))
    return ScenarioConfig(radars=radars, links=links, frames=frames,
                          seed=seed, **kwargs)


class TestValidateConfig:
    def test_empty_radar_list(self):
        cfg = ScenarioConfig(radars=())
        assert validate_config(cfg) == ["radars: list must not be empty"]

    def test_collects_every_violation(self):
        bad = RadarSpec(chirp=chirp(subbands=4), policy="psychic", targets=())
        good = RadarSpec(chirp=chirp(), policy="uniform", targets=(target(),))
        cfg = ScenarioConfig(radars=(good, bad), frames=0)
        msgs = validate_config(cfg)
        assert any("share f_c" in m for m in msgs)
        assert any("unknown policy" in m for m in msgs)
        assert any("at least one target" in m for m in msgs)
        assert any("frames" in m for m in msgs)

    def test_chirps_not_divisible_by_episodes(self):
        cfg = ScenarioConfig(
            radars=(RadarSpec(chirp=chirp(k=50), targets=(target(),)),),
            episodes_per_frame=4)
        assert any("not divisible" in m for m in validate_config(cfg))

    def test_frame_duration_mismatch(self):
        r1 = RadarSpec(chirp=chirp(pri_us=20, k=64), targets=(target(),))
        r2 = RadarSpec(chirp=chirp(pri_us=40, k=64), targets=(target(),))
        cfg = ScenarioConfig(radars=(r1, r2))
        assert any("frame durations" in m for m in validate_config(cfg))

    def test_fixed_policy_requires_subband(self):
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(), policy="fixed", targets=(target(),)),))
        assert any("fixed policy" in m for m in validate_config(cfg))
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(), policy="fixed",
                      policy_params={"subband": 3}, targets=(target(),)),))
        assert validate_config(cfg) == []

    def test_bad_link_indices(self):
        cfg = ScenarioConfig(
            radars=(RadarSpec(chirp=chirp(), targets=(target(),)),),
            links=(LinkSpec(0, 0, 30.0), LinkSpec(0, 5, 30.0)))
        msgs = validate_config(cfg)
        assert sum("links[" in m for m in msgs) == 2

    def test_run_scenario_raises_with_messages(self):
        with pytest.raises(ScenarioError) as err:
            run_scenario(ScenarioConfig(radars=()))
        assert err.value.messages


def brute_force_collisions(params_list, actions):
    """O(n^2) interval intersection: per victim chirp, (source, chirp, fraction)."""
    out = []
    for i, pi in enumerate(params_list):
        rows = [[] for _ in range(len(actions[i]))]
        for q in range(len(actions[i])):
            s0, e0 = q * pi.pri_s, q * pi.pri_s + pi.active_s
            for j, pj in enumerate(params_list):
                if j == i:
                    continue
                for m in range(len(actions[j])):
                    s1, e1 = m * pj.pri_s, m * pj.pri_s + pj.active_s
                    frac = (min(e0, e1) - max(s0, s1)) / pi.active_s
                    if frac > 0 and actions[j][m] == actions[i][q]:
                        rows[q].append((j, m, frac))
        out.append(rows)
    return out


class TestCollisionTable:
    def test_matches_brute_force_on_random_actions(self):
        rng = np.random.default_rng(7)
        params = [chirp(pri_us=20, active_us=16, k=16),
                  chirp(pri_us=40, active_us=32, k=8)]
        for _ in range(10):
            actions = [rng.integers(0, 3, size=16), rng.integers(0, 3, size=8)]
            want = brute_force_collisions(params, actions)
            for i, j in ((0, 1), (1, 0)):
                geometry = overlap_geometry(params[i], params[j],
                                            actions[i].size, actions[j].size)
                got = overlap_weight(geometry, actions[i], actions[j])
                for q, row in enumerate(want[i]):
                    assert got[q] == pytest.approx(sum(f for _, _, f in row))

    def test_single_radar_never_collides(self):
        # Every chirp on one subband: a radar must not collide with itself.
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(k=8), policy="fixed", policy_params={"subband": 2},
                      targets=(target(),)),), frames=2)
        m = run_scenario(cfg)
        np.testing.assert_array_equal(m.interference_rate, 0.0)
        actions = [m.aligned_actions[:8, 0]]
        assert all(row == [] for row in brute_force_collisions([chirp(k=8)], actions)[0])


class TestGenieUtilityTable:
    def test_clean_and_colliding_cells(self):
        cfg = two_radar_config()
        table = genie_utility_table(cfg)
        # distinct subbands: pure SNR
        assert table.values[0][0, 1] == pytest.approx(20.0)
        # same subband at INR 30: 10*log10(100/1001) = -10.004 dB
        assert table.values[0][2, 2] == pytest.approx(-10.004, abs=1e-3)
        assert table.values[1][2, 2] == pytest.approx(-10.004, abs=1e-3)

    def test_single_radar_all_snr(self):
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(), targets=(target(),)),))
        table = genie_utility_table(cfg)
        for a in range(6):
            assert table.values[0][a] == pytest.approx(20.0)


class CountingRng:
    """A random generator that logs the name and output size of every draw."""

    def __init__(self, rng, log):
        self._rng, self._log = rng, log

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._log.append((name, np.size(out)))
            return out
        return draw


class TestRunScenario:
    def test_deterministic_given_seed(self):
        cfg = two_radar_config(("noregret", "noregret"), frames=3, seed=11)
        m1, m2 = run_scenario(cfg), run_scenario(cfg)
        np.testing.assert_array_equal(m1.strategies, m2.strategies)
        np.testing.assert_array_equal(m1.interference_rate, m2.interference_rate)
        np.testing.assert_array_equal(m1.aligned_actions, m2.aligned_actions)
        np.testing.assert_array_equal(m1.profiles[0].mags_db, m2.profiles[0].mags_db)

    def test_seed_changes_the_run(self):
        a = run_scenario(two_radar_config(frames=3, seed=0))
        b = run_scenario(two_radar_config(frames=3, seed=1))
        assert not np.array_equal(a.aligned_actions, b.aligned_actions)

    def test_genie_rate_matches_recomputed_collisions(self):
        cfg = two_radar_config(frames=4, seed=3)
        m = run_scenario(cfg)
        params = [spec.chirp for spec in cfg.radars]
        s_frame = 64
        for frame in range(cfg.frames):
            block = m.aligned_actions[frame * s_frame:(frame + 1) * s_frame]
            actions = [block[:, 0], block[::2, 1]]
            table = brute_force_collisions(params, actions)
            for i in range(2):
                rate = np.mean([len(r) > 0 for r in table[i]])
                assert m.interference_rate[frame, i] == pytest.approx(rate)

    def test_single_radar_interference_free(self):
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(), targets=(target(),)),), frames=3)
        m = run_scenario(cfg)
        np.testing.assert_array_equal(m.interference_rate, 0.0)
        np.testing.assert_allclose(m.mean_sinr_db, 20.0, atol=1.0)
        np.testing.assert_allclose(m.cumulative_regret_db, 0.0, atol=1e-9)

    def test_genie_sinr_matches_snr_in_every_frame(self):
        # Drawn powers (frames before the last) and sampled ones (the last)
        # both read 10 log10(1 + SNR), up to the scatter of 32 chirps of
        # 320 samples (about 0.006 dB).
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(adc_hz=20e6), targets=(target(),)),),
            frames=4, episodes_per_frame=2, seed=6)
        m = run_scenario(cfg)
        np.testing.assert_allclose(m.mean_sinr_db, 10.0 * np.log10(101.0), atol=0.05)

    @pytest.mark.parametrize("genie", [True, False])
    def test_noise_samples_drawn_only_for_sample_frames(self, monkeypatch, genie):
        # Genie mode synthesizes noise only in the final frame, for the
        # range profile; the detector needs samples in every frame.
        log = []
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: CountingRng(make(seed), log))
        cfg = two_radar_config(frames=3, genie_detection=genie)
        run_scenario(cfg)
        per_frame = sum(2 * spec.chirp.n_samples * spec.chirp.chirps_per_frame
                        for spec in cfg.radars)
        chirps = sum(spec.chirp.chirps_per_frame for spec in cfg.radars)
        drawn = {name: sum(size for n, size in log if n == name)
                 for name in ("standard_normal", "noncentral_chisquare")}
        if genie:
            assert drawn == {"standard_normal": per_frame,
                             "noncentral_chisquare": (cfg.frames - 1) * chirps}
        else:
            assert drawn == {"standard_normal": cfg.frames * per_frame,
                             "noncentral_chisquare": 0}

    def test_fixed_policies_distinct_vs_shared_subband(self):
        quiet = two_radar_config(("fixed", "fixed"), frames=2, k=(64, 64),
                                 params=[{"subband": 0}, {"subband": 3}])
        m = run_scenario(quiet)
        np.testing.assert_array_equal(m.interference_rate, 0.0)
        loud = two_radar_config(("fixed", "fixed"), frames=2, k=(64, 64),
                                params=[{"subband": 2}, {"subband": 2}])
        m = run_scenario(loud)
        np.testing.assert_array_equal(m.interference_rate, 1.0)

    def test_strategy_snapshots_on_simplex(self):
        cfg = two_radar_config(("noregret", "uniform"), frames=4)
        m = run_scenario(cfg)
        assert m.strategies.shape == (4, 2, 6)
        np.testing.assert_allclose(m.strategies.sum(axis=2), 1.0, atol=1e-12)
        assert np.all(m.strategies >= 0)

    def test_threshold_detection_tracks_genie(self):
        # The detector-driven rate should track ground truth within a few
        # per cent of chirps at INR 30.
        genie = run_scenario(two_radar_config(frames=3, seed=5,
                                              genie_detection=True))
        blind = run_scenario(two_radar_config(frames=3, seed=5,
                                              genie_detection=False))
        diff = np.abs(genie.interference_rate - blind.interference_rate)
        assert diff.max() <= 0.05

    def test_regret_decays_against_stationary_opponent(self):
        # Exponential weights against a fixed interferer: per-episode
        # average regret at the end should sit well below the early value.
        cfg = two_radar_config(
            ("noregret", "fixed"), frames=40, seed=2, k=(64, 64),
            params=[{"c_eta": 0.4, "c_gamma": 0.1, "baseline_delta_db": 1.0},
                    {"subband": 0}])
        m = run_scenario(cfg)
        avg_early = m.cumulative_regret_db[9, 0] / 10
        avg_late = m.cumulative_regret_db[39, 0] / 40
        assert avg_late <= 0.7 * avg_early

    def test_regret_comes_from_one_running_curve(self):
        # external_regret_db is the curve's last entry, cumulative_regret_db
        # its episode ends, and on the aligned clock the CCE gap of the
        # empirical joint is exactly regret per step.
        cfg = two_radar_config(("noregret", "uniform"), frames=3, seed=4)
        m = run_scenario(cfg)
        steps = m.aligned_actions.shape[0]
        for i in range(2):
            ledger = RegretLedger(
                player=i,
                realized_db=m.genie_table.values[i][tuple(m.aligned_actions.T)],
                opponent_actions=np.delete(m.aligned_actions, i, axis=1))
            running = external_regret(ledger, m.genie_table)
            assert m.external_regret_db[i] == running[-1]
            np.testing.assert_array_equal(m.cumulative_regret_db[:, i],
                                          running[[63, 127, 191]])
            gap = cce_deviation_gap(m.joint_distribution, m.genie_table, i)
            assert gap == pytest.approx(m.external_regret_db[i] / steps, rel=0, abs=1e-9)

    def test_policies_recorded(self):
        m = run_scenario(two_radar_config(("uniform", "noregret"), frames=2))
        assert m.policies == ("uniform", "noregret")


class TestNashSolveSharing:
    """Nash agents share one solve per distinct estimated table per episode."""

    EXPLORE = 3

    def run_counting(self, monkeypatch, cfg, per_agent=False):
        """Metrics and the number of solves through hopping's solver."""
        calls = []
        solve = hopping.solve_nash_welfare_max
        with monkeypatch.context() as mp:
            mp.setattr(hopping, "solve_nash_welfare_max",
                       lambda table, mode="auto": calls.append(mode) or solve(table, mode))
            if per_agent:
                # Reference: every agent solves its own table, no sharing.
                mp.setattr(sim, "nash_explore_update",
                           lambda state, all_stats, solved:
                           hopping.nash_explore_update(state, all_stats))
            return run_scenario(cfg), len(calls)

    def nash_config(self, floors):
        return two_radar_config(
            ("nash", "nash"), frames=self.EXPLORE + 2, seed=1,
            params=[{"explore_episodes": self.EXPLORE, "floor_db": f} for f in floors])

    def test_equal_tables_solve_once_per_episode(self, monkeypatch):
        cfg = self.nash_config((-10.0, -10.0))
        shared, n_shared = self.run_counting(monkeypatch, cfg)
        alone, n_alone = self.run_counting(monkeypatch, cfg, per_agent=True)
        assert (n_shared, n_alone) == (self.EXPLORE, 2 * self.EXPLORE)
        np.testing.assert_array_equal(shared.strategies, alone.strategies)

    def test_different_floors_solve_separately(self, monkeypatch):
        # Without links no collision is ever observed, so each radar's
        # collision cells keep its own floor and the two tables differ.
        cfg = replace(self.nash_config((-10.0, -20.0)), links=())
        shared, n_shared = self.run_counting(monkeypatch, cfg)
        alone, n_alone = self.run_counting(monkeypatch, cfg, per_agent=True)
        assert n_shared == n_alone == 2 * self.EXPLORE
        np.testing.assert_array_equal(shared.strategies, alone.strategies)
