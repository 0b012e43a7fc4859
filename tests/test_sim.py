"""Scenario orchestration tests.

A brute-force interval-intersection oracle checks the overlap weights the
simulator computes, and genie-mode runs are cross-checked against
collisions recomputed independently from the recorded action sequences.
"""

import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hopsim.signal as sig
from hopsim import hopping, sim
from hopsim.cli import parse_config
from hopsim.game import cce_deviation_gap, empirical_joint, external_regret
from hopsim.sim import (
    LinkSpec,
    RadarSpec,
    ScenarioConfig,
    ScenarioError,
    genie_utility_table,
    overlap_geometry,
    run_scenario,
    validate_config,
)

import oracles
from oracles import (
    bundled_config_path,
    cce_deviation_gap_dense,
    closed_form_equilibria_2p,
    collision_table,
    dense_arm_utilities,
    dense_genie_table,
    dense_mass,
    external_regret_dense,
    final_frame_profile,
    overlap_weight,
    overlap_weights,
    profile_rows,
    support_enumeration_2p,
    unpruned_overlap_geometry,
    welfare_max_profile,
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

    def test_zero_episodes_per_frame(self):
        # The divisibility check must not divide by zero first.
        cfg = ScenarioConfig(
            radars=(RadarSpec(chirp=chirp(), targets=(target(),)),), episodes_per_frame=0)
        assert validate_config(cfg) == ["run: frames and episodes_per_frame must be positive"]

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_noise_power_finite_and_positive(self, value):
        cfg = replace(two_radar_config(), noise_power=value)
        assert validate_config(cfg) == [f"run.noise_power: {value!r} not finite and > 0"]

    @pytest.mark.parametrize("genie", [True, False])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_detection_factor_finite(self, genie, value):
        # An infinite factor would leave the detector silent; the genie
        # mode does not read it, but the value is still rejected.
        cfg = replace(two_radar_config(), genie_detection=genie, detection_factor=value)
        assert validate_config(cfg) == [
            f"run.detection_factor: {value!r} not finite and > 1"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_link_inr_finite(self, value):
        cfg = two_radar_config()
        cfg = replace(cfg, links=(cfg.links[0], LinkSpec(1, 0, value)))
        assert validate_config(cfg) == [f"links[2].inr_db: {value!r} not finite"]

    @pytest.mark.parametrize("value", [4000.0, -4000.0])
    def test_link_inr_linear_power_finite_and_positive(self, value):
        cfg = two_radar_config()
        cfg = replace(cfg, links=(cfg.links[0], LinkSpec(1, 0, value)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_config(cfg) == [
                f"links[2].inr_db: {value!r} dB has a linear power not finite and > 0"]

    # The chirp's delay window [0, 16 us) spans ranges [0, 2400) m; by the
    # 64th chirp a target at 100 m/s has moved 0.126 m.
    @pytest.mark.parametrize("range_m, velocity_mps", [
        (0.1, -100.0), (0.12599, -100.0), (0.126, -100.0), (0.2, -100.0),
        (2399.8, 100.0), (2399.9, 100.0), (2399.99, -100.0), (2400.5, -100.0), (2500.0, 0.0),
    ])
    def test_target_delay_check_matches_synthesis(self, range_m, velocity_mps):
        # Exactly the targets whose reference echo synthesis fails are
        # rejected; the simulator's synthesis relies on this check.
        cfg = two_radar_config()
        tgt = sig.Target(range_m=range_m, velocity_mps=velocity_mps, snr_db=20.0)
        cfg = replace(cfg, radars=(replace(cfg.radars[0], targets=(target(), tgt)),
                                   *cfg.radars[1:]))
        ch = cfg.radars[0].chirp
        try:
            oracles.echo_frame(ch, tgt, np.zeros(ch.chirps_per_frame))
            fails = False
        except ValueError:
            fails = True
        errors = validate_config(cfg)
        assert len(errors) == fails
        assert all(e.startswith("radars[1].targets[2]: target at") for e in errors)

    @pytest.mark.parametrize("name, value, kind", [
        ("frames", 2.5, "int"), ("seed", 1.5, "int"), ("episodes_per_frame", 1.0, "int"),
        ("genie_detection", 0, "bool"), ("noise_power", "1", "float")])
    def test_run_field_type_named(self, name, value, kind):
        # Only the type is reported: the field's value checks are skipped.
        cfg = replace(two_radar_config(), **{name: value})
        assert validate_config(cfg) == [f"run.{name}: expected {kind}, got {value!r}"]

    def test_mistyped_frames_skip_the_checks_that_read_them(self):
        # The Nash exploration bound and the per-step cell guard read frames.
        cfg = two_radar_config(("nash", "nash"), frames="4")
        assert validate_config(cfg) == ["run.frames: expected int, got '4'"]

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


def three_waveform_config():
    """Five radars on three waveforms of one frame duration, with a repeated
    link (0 <- 1) and one-way links."""
    waves = [(20, 16, 60), (30, 24, 40), (40, 32, 30)]
    chirps = [chirp(*waves[w][:2], k=waves[w][2]) for w in (0, 1, 0, 2, 1)]
    links = ((0, 1, 30.0), (0, 1, 25.0), (0, 2, 30.0), (0, 3, 30.0), (0, 4, 30.0),
             (1, 0, 30.0), (2, 4, 30.0), (3, 1, 30.0), (3, 2, 30.0), (4, 2, 30.0))
    return ScenarioConfig(radars=tuple(RadarSpec(chirp=c, targets=(target(),)) for c in chirps),
                          links=tuple(LinkSpec(*link) for link in links))


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

    @pytest.mark.parametrize("victim,source", [
        ((20, 16, 60), (40, 32, 30)),   # table1's waveforms: one live column
        ((40, 32, 30), (20, 16, 60)),
        ((30, 24, 40), (20, 16, 60)),   # 20/30 us PRIs: several live columns
        ((20, 16, 60), (30, 24, 40)),
        ((40, 39, 30), (10, 3, 120)),   # up to four source chirps per victim chirp
    ])
    def test_pruned_geometry_keeps_brute_force_sums(self, victim, source):
        params = [chirp(*victim[:2], k=victim[2]), chirp(*source[:2], k=source[2])]
        cand, frac = geometry = overlap_geometry(*params, victim[2], source[2])
        assert cand.shape == frac.shape and frac.any(axis=0).all()
        rng = np.random.default_rng(3)
        for actions in ([np.zeros(victim[2], int), np.zeros(source[2], int)],
                        [rng.integers(0, 3, size=victim[2]), rng.integers(0, 3, size=source[2])]):
            want = [sum(f for _, _, f in row) for row in brute_force_collisions(params, actions)[0]]
            assert overlap_weight(geometry, *actions).tolist() == want

    @pytest.mark.parametrize("victim,source", [
        ((20, 16, 60), (40, 32, 30)),
        ((30, 24, 40), (20, 16, 60)),
        ((40, 39, 30), (10, 3, 120)),     # 7 columns, 4 live: pruned
        ((160, 150, 30), (20, 19.9, 240)),  # 11 columns, 8 live: kept
        ((160, 150, 30), (20, 15, 240)),
    ])
    def test_geometry_keeps_the_unpruned_sums(self, victim, source):
        # Dropping dead columns changes no weight by a bit: below 8 columns
        # numpy adds in order; from 8 on, its pairwise sum would regroup the
        # live terms (a pruned copy of the 11-column pairs differs), so
        # those geometries keep every column.
        params = [chirp(*victim[:2], k=victim[2]), chirp(*source[:2], k=source[2])]
        full = unpruned_overlap_geometry(*params, victim[2], source[2])
        geometry = overlap_geometry(*params, victim[2], source[2])
        n_cand = full[0].shape[1]
        assert not full[1].any(axis=0).all()
        assert geometry[0].shape[1] == (n_cand if n_cand >= 8 else full[1].any(axis=0).sum())
        rng = np.random.default_rng(11)
        for _ in range(20):
            acts = rng.integers(0, 2, size=victim[2])
            stacked = rng.integers(0, 2, size=(2, source[2]))
            want = np.array([overlap_weight(full, acts, row) for row in stacked])
            assert overlap_weights(geometry, acts, stacked).tobytes() == want.tobytes()

    def test_grouped_weights_match_per_pair_oracle(self):
        # Three waveforms of one frame duration, a repeated link (0 <- 1)
        # and one-way links: each victim's weights, stacked by group and
        # gathered once per source waveform, equal the per-pair oracle and
        # the per-victim oracle bit for bit, in link order.
        cfg = three_waveform_config()
        chirps = [spec.chirp for spec in cfg.radars]
        k = [c.chirps_per_frame for c in chirps]
        groups = sim._radar_groups(cfg, sim.link_table(cfg))
        # radars 1 and 4 share a waveform and a link count; 0 and 2 differ in link count
        assert [g.radars.tolist() for g in groups] == [[0], [1, 4], [2], [3]]
        rng = np.random.default_rng(5)
        for _ in range(10):
            acts = [rng.integers(0, 3, size=kk) for kk in k]
            for group in groups:
                got = sim._group_weights(group, np.concatenate(acts))
                for r, i in enumerate(group.radars):
                    sources = sorted({link.source for link in cfg.links if link.victim == i})
                    want = np.array([overlap_weight(
                        overlap_geometry(chirps[i], chirps[j], k[i], k[j]), acts[i], acts[j])
                        for j in sources])
                    assert got[r].tobytes() == want.reshape(len(sources), k[i]).tobytes()
                    per_victim = oracles.link_groups(chirps, k, i, sources)
                    assert got[r].tobytes() == oracles.link_weights(per_victim, acts, i).tobytes()
                    for geometry, _, members in per_victim:
                        stacked = np.array([acts[j] for j in members])
                        assert overlap_weights(geometry, acts[i], stacked).tobytes() == np.array(
                            [overlap_weight(geometry, acts[i], row) for row in stacked]).tobytes()

    @pytest.mark.parametrize("columns", range(1, 8))
    def test_in_order_weights_equal_the_summed_product(self, columns):
        # Below 8 columns _group_weights adds each column's weighted hits in
        # turn; that equals numpy's sum over the (pairs, K_v, C) product's
        # last axis bit for bit. Random overlaps in (0, 1], some columns
        # dead for a chirp, 3 victims of 2 links each on 2 subbands.
        rng = np.random.default_rng(columns)
        n_r, n_l, k_v, k_s = 3, 2, 40, 30
        subbands = rng.integers(0, 2, size=n_r * k_v + n_r * n_l * k_s)
        frac = np.where(rng.random((k_v, columns)) < 0.2, 0.0, 1.0 - rng.random((k_v, columns)))
        group = SimpleNamespace(
            power=np.ones((n_r, n_l, 1)),
            chirps=np.arange(n_r * k_v).reshape(n_r, k_v),
            links=(((rng.integers(0, k_s, size=(k_v, columns)), frac),
                    n_r * k_v + np.arange(n_r * n_l * k_s).reshape(n_r * n_l, k_s),
                    np.repeat(np.arange(n_r), n_l), rng.permutation(n_r * n_l)),))
        for _ in range(5):
            got = sim._group_weights(group, subbands)
            assert got.tobytes() == oracles.summed_group_weights(group, subbands).tobytes()
            assert 0 < np.count_nonzero(got) < got.size
            subbands = rng.permutation(subbands)

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
        rows = np.array([[0, 1], [2, 2]])
        table = sim.link_table(cfg)
        u0 = genie_utility_table(cfg, rows, 0, table)
        # distinct subbands: pure SNR
        assert u0[0, 0] == pytest.approx(20.0)
        # same subband at INR 30: 10*log10(100/1001) = -10.004 dB
        assert u0[1, 2] == pytest.approx(-10.004, abs=1e-3)
        assert genie_utility_table(cfg, rows, 1, table)[1, 2] == pytest.approx(-10.004, abs=1e-3)

    def test_single_radar_all_snr(self):
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(), targets=(target(),)),))
        u = genie_utility_table(cfg, np.arange(6)[:, None], 0, sim.link_table(cfg))
        for a in range(6):
            assert u[a] == pytest.approx(20.0)


class TestLinkTable:
    def test_repeated_links_add_in_config_order(self):
        cfg = replace(two_radar_config(), links=(LinkSpec(0, 1, 30.0), LinkSpec(0, 1, 25.0)))
        table = sim.link_table(cfg)
        assert table[0, 1] == sig.db_power(30.0) + sig.db_power(25.0)
        assert table.tolist() == [[0.0, table[0, 1]], [0.0, 0.0]]

    def test_self_and_out_of_range_links_absent(self):
        # Each of these is reported by validate_config and never synthesized.
        cfg = replace(two_radar_config(), links=(
            LinkSpec(1, 1, 30.0), LinkSpec(0, 2, 30.0), LinkSpec(-1, 0, 30.0),
            LinkSpec(2, 1, 30.0), LinkSpec(1, 0, 20.0)))
        assert sim.link_table(cfg).tolist() == [[0.0, 0.0], [sig.db_power(20.0), 0.0]]
        assert validate_config(cfg) == [
            f"links[{li}]: victim/source indices invalid" for li in (1, 2, 3, 4)]

    def test_unlinked_victims_have_zero_rows(self):
        # Of three radars, radar 1 is a source only.
        table = sim.link_table(linked_config(3))
        assert table[1].tolist() == [0.0, 0.0, 0.0]
        assert np.count_nonzero(table, axis=1).tolist() == [2, 0, 1]
        assert sim.link_table(linked_config(1)).tolist() == [[0.0]]
        assert not sim.link_table(replace(linked_config(4), links=())).any()

    def test_sources_are_those_the_per_radar_oracle_links(self):
        cfg = three_waveform_config()
        table = sim.link_table(cfg)
        for i, groups in enumerate(oracles.PerRadarLinks(cfg).groups):
            sources = [0] * sum(len(rows) for _, rows, _ in groups)
            for _, rows, members in groups:
                for row, j in zip(rows, members):
                    sources[row] = j
            want = sorted({link.source for link in cfg.links if link.victim == i})
            assert np.flatnonzero(table[i]).tolist() == sources == want


# Directed (victim, source, INR dB) links per radar count: unlinked pairs,
# one-way links, and repeated links whose INRs sum. Radar 1 of four has
# three sources whose utility changes bits if their INRs are added in
# descending source order.
LINK_SETS = {
    1: (),
    2: ((0, 1, 30.0),),
    3: ((0, 1, 20.0), (0, 2, 25.0), (0, 2, 10.0), (2, 1, 30.0)),
    4: ((0, 1, 27.0), (0, 2, 25.0), (0, 3, 5.0), (1, 0, 18.0), (2, 3, 22.0),
        (2, 3, 22.0), (3, 2, 5.0), (3, 0, 27.0)),
}


def linked_config(n, seed=0):
    radars = tuple(RadarSpec(chirp=chirp(k=16, subbands=4),
                             targets=(target(snr_db=15.0 + 2.5 * i),)) for i in range(n))
    links = tuple(LinkSpec(v, src, inr) for v, src, inr in LINK_SETS[n])
    return ScenarioConfig(radars=radars, links=links, frames=3, seed=seed)


class TestPerLinkEvaluation:
    """Per-link genie evaluation against the dense game table it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_table_on_random_play(self, n):
        cfg = linked_config(n)
        table = dense_genie_table(cfg)
        links = sim.link_table(cfg)
        actions = np.random.default_rng(n).integers(0, 4, size=(400, n))
        joint, support_row = empirical_joint(actions, 4)
        for i in range(n):
            per_arm = genie_utility_table(cfg, actions, i, links)
            assert per_arm.tobytes() == dense_arm_utilities(table, actions, i).tobytes()
            # run_scenario evaluates the support rows and gathers them to the steps
            gathered = genie_utility_table(cfg, joint.rows, i, links)[support_row]
            assert gathered.tobytes() == per_arm.tobytes()
            running = oracles.external_regret(per_arm, actions[:, i])
            assert running.tobytes() == external_regret_dense(table, actions, i).tobytes()
            bounds = np.arange(9, 400, 10)
            at_bounds = external_regret(genie_utility_table(cfg, joint.rows, i, links),
                                        support_row, actions[:, i], bounds)
            assert at_bounds.tobytes() == running[bounds].tobytes()
            gap = cce_deviation_gap(joint, genie_utility_table(cfg, joint.rows, i, links), i)
            assert gap == pytest.approx(
                cce_deviation_gap_dense(dense_mass(joint), table, i), rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_run_metrics_match_dense_table(self, n):
        cfg = linked_config(n, seed=10 + n)
        m = run_scenario(cfg)
        table = dense_genie_table(cfg)
        mass = dense_mass(m.joint_distribution)
        assert mass.sum() == pytest.approx(1.0)
        for i in range(n):
            running = external_regret_dense(table, m.aligned_actions, i)
            assert m.external_regret_db[i] == running[-1]
            np.testing.assert_array_equal(m.cumulative_regret_db[:, i], running[15::16])
            assert m.cce_gap_db[i] == pytest.approx(
                cce_deviation_gap_dense(mass, table, i), rel=0, abs=1e-12)


class TestEvaluationAtEpisodeBounds:
    """A run's joint and regret curves against the lexsort joint and the
    full-horizon running regret of ``oracles``, read at the episode bounds."""

    @pytest.mark.parametrize("workload", ["table1", "crowd-8"])
    def test_bundled_runs(self, workload):
        path = (bundled_config_path("table1") if workload == "table1" else Path(__file__)
                .resolve().parents[1] / "perfbench" / "workloads" / f"{workload}.yaml")
        cfg = replace(parse_config(path.read_text()), seed=5)
        m = run_scenario(cfg)
        joint, support_row = oracles.empirical_joint(m.aligned_actions, cfg.n_subbands)
        assert m.joint_distribution.rows.tobytes() == joint.rows.tobytes()
        assert m.joint_distribution.mass.tobytes() == joint.mass.tobytes()
        table = sim.link_table(cfg)
        steps = m.aligned_actions.shape[0]
        bounds = np.arange(1, cfg.total_episodes + 1) * (steps // cfg.total_episodes) - 1
        for i in range(cfg.n_radars):
            per_arm = genie_utility_table(cfg, joint.rows, i, table)[support_row]
            running = oracles.external_regret(per_arm, m.aligned_actions[:, i])
            assert m.cumulative_regret_db[:, i].tobytes() == running[bounds].tobytes()
            assert m.external_regret_db[i] == running[-1]


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

    @pytest.mark.parametrize("episodes_per_frame,k", [(1, (64, 32)), (4, (64, 16))])
    def test_aligned_actions_follow_each_radars_chirp_clock(self, monkeypatch,
                                                            episodes_per_frame, k):
        # Aligned step s of a frame shows radar i's chirp (s K_i) // S of
        # the subbands it drew over the frame's episodes.
        cfg = two_radar_config(("noregret", "uniform"), frames=3, seed=4, k=k,
                               episodes_per_frame=episodes_per_frame)
        actions, sample = [], sim.sample_subbands

        def recording_sample(probs, rng, size):  # radars draw in index order
            actions.append(sample(probs, rng, size))
            return actions[-1].copy()

        monkeypatch.setattr(sim, "sample_subbands", recording_sample)
        m = run_scenario(cfg)
        per_episode = len(actions) // (cfg.frames * episodes_per_frame)
        s_frame = max(k)
        for frame in range(cfg.frames):
            drawn = actions[frame * episodes_per_frame * per_episode:][
                :episodes_per_frame * per_episode]
            for i, k_i in enumerate(k):
                steps = (np.arange(s_frame) * k_i) // s_frame
                want = np.concatenate(drawn[i::per_episode])[steps]
                np.testing.assert_array_equal(
                    m.aligned_actions[frame * s_frame:(frame + 1) * s_frame, i], want)

    def test_single_radar_interference_free(self):
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(), targets=(target(),)),), frames=3)
        m = run_scenario(cfg)
        np.testing.assert_array_equal(m.interference_rate, 0.0)
        np.testing.assert_allclose(m.mean_sinr_db, 20.0, atol=1.0)
        np.testing.assert_allclose(m.cumulative_regret_db, 0.0, atol=1e-9)

    def test_genie_sinr_matches_snr_in_every_frame(self):
        # The drawn powers of every frame, the final one (which also draws
        # its hop sums) included, read 10 log10(1 + SNR), up to the scatter
        # of 32 chirps of 320 samples (about 0.006 dB).
        cfg = ScenarioConfig(radars=(
            RadarSpec(chirp=chirp(adc_hz=20e6), targets=(target(),)),),
            frames=4, episodes_per_frame=2, seed=6)
        m = run_scenario(cfg)
        np.testing.assert_allclose(m.mean_sinr_db, 10.0 * np.log10(101.0), atol=0.05)

    @pytest.mark.parametrize("genie", [True, False])
    def test_noise_samples_drawn_only_for_sample_frames(self, monkeypatch, genie):
        # Genie mode draws every chirp's clean power and, in the final
        # frame, the noise of each episode's (N_s, A) hop sums; the detector
        # synthesizes the (N_s, K) block of every episode.
        log = []
        make = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: CountingRng(make(seed), log))
        cfg = two_radar_config(frames=3, genie_detection=genie, episodes_per_frame=2)
        run_scenario(cfg)
        per_frame = sum(2 * spec.chirp.n_samples * spec.chirp.chirps_per_frame
                        for spec in cfg.radars)
        hop_sums = cfg.episodes_per_frame * sum(2 * spec.chirp.n_samples * spec.chirp.n_subbands
                                            for spec in cfg.radars)
        chirps = sum(spec.chirp.chirps_per_frame for spec in cfg.radars)
        drawn = {name: sum(size for n, size in log if n == name)
                 for name in ("standard_normal", "noncentral_chisquare")}
        if genie:
            assert drawn == {"standard_normal": hop_sums,
                             "noncentral_chisquare": cfg.frames * chirps}
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
        joint = m.joint_distribution
        table = sim.link_table(cfg)
        for i in range(2):
            running = oracles.external_regret(
                genie_utility_table(cfg, m.aligned_actions, i, table), m.aligned_actions[:, i])
            assert m.external_regret_db[i] == running[-1]
            np.testing.assert_array_equal(m.cumulative_regret_db[:, i],
                                          running[[63, 127, 191]])
            gap = cce_deviation_gap(joint, genie_utility_table(cfg, joint.rows, i, table), i)
            assert gap == pytest.approx(m.external_regret_db[i] / steps, rel=0, abs=1e-9)

    def test_policies_recorded(self):
        m = run_scenario(two_radar_config(("uniform", "noregret"), frames=2))
        assert m.policies == ("uniform", "noregret")


class TestNashSolveSharing:
    """Nash radars share one solve per distinct floored estimate and mode per
    episode, and whole runs equal those of the per-radar oracle bit for bit."""

    EXPLORE = 3

    def run_counting(self, monkeypatch, cfg, reference=None):
        """Metrics and the number of solves through hopping's solver; with a
        ``PerRadarNash`` reference, its updates and commits run in place of sim's."""
        calls = []
        solve = hopping.solve_nash_welfare_max
        with monkeypatch.context() as mp:
            mp.setattr(hopping, "solve_nash_welfare_max",
                       lambda snr, hit, mode: calls.append(mode) or solve(snr, hit, mode))
            if reference is not None:
                mp.setattr(sim, "nash_explore_update", reference.explore_update)
                mp.setattr(sim, "nash_commit", reference.commit)
            return run_scenario(cfg), len(calls)

    def matching_reference(self, monkeypatch, cfg):
        """The run's solve count, checked against the per-radar oracle's run, and the oracle."""
        got, n_got = self.run_counting(monkeypatch, cfg)
        reference = oracles.PerRadarNash()
        want, n_want = self.run_counting(monkeypatch, cfg, reference)
        assert_metrics_identical(got, want)
        assert n_got == n_want == sum(reference.keys)
        return n_got, reference

    def nash_config(self, floors):
        return two_radar_config(
            ("nash", "nash"), frames=self.EXPLORE + 2, seed=1,
            params=[{"explore_episodes": self.EXPLORE, "floor_db": f} for f in floors])

    def test_equal_tables_solve_once_per_episode(self, monkeypatch):
        n, reference = self.matching_reference(monkeypatch, self.nash_config((-10.0, -10.0)))
        # Each radar solving its own table would solve twice per episode.
        assert (n, sum(reference.updates)) == (self.EXPLORE, 2 * self.EXPLORE)

    def test_different_floors_solve_separately(self, monkeypatch):
        # Without links no collision is ever observed, so each radar's
        # collision cells keep its own floor and the two tables differ.
        cfg = replace(self.nash_config((-10.0, -20.0)), links=())
        n, reference = self.matching_reference(monkeypatch, cfg)
        assert n == sum(reference.updates) == 2 * self.EXPLORE

    def test_radars_on_their_own_parameters(self, monkeypatch):
        # Different floors and modes: two solves per episode while both
        # radars explore, then one for the radar that explores 5 episodes.
        cfg = two_radar_config(
            ("nash", "nash"), frames=4, seed=2, episodes_per_frame=2,
            params=[{"explore_episodes": 2, "floor_db": -20.0, "solver_mode": "pure"},
                    {"explore_episodes": 5, "floor_db": -10.0}])
        n, reference = self.matching_reference(monkeypatch, cfg)
        assert reference.updates == [2, 2, 1, 1, 1]
        assert n == 7

    def test_three_nash_radars_beside_a_noregret_radar(self, monkeypatch):
        # The first two nash radars agree on floor and mode, so they share
        # a solve while both explore; the last one solves on its own.
        params = [{"explore_episodes": 3}, {"explore_episodes": 5},
                  {"c_eta": 0.4, "c_gamma": 0.1},
                  {"explore_episodes": 4, "floor_db": -15.0, "solver_mode": "pure"}]
        radars = tuple(RadarSpec(chirp=chirp(subbands=4),
                                 policy="noregret" if i == 2 else "nash",
                                 policy_params=p, targets=(target(15.0 + 2 * i),))
                       for i, p in enumerate(params))
        links = tuple(LinkSpec(v, s, 20.0 + v + s) for v in range(4) for s in range(4) if v != s)
        cfg = ScenarioConfig(radars=radars, links=links, frames=4, episodes_per_frame=2, seed=6)
        n, reference = self.matching_reference(monkeypatch, cfg)
        assert reference.updates == [3, 3, 3, 2, 1]
        assert reference.keys == [2, 2, 2, 2, 1] and n == 9


def assert_metrics_identical(got, want):
    """Every ``RunMetrics`` array equal bit for bit, profiles included."""
    for f in fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "joint_distribution":
            pairs = [(a.rows, b.rows), (a.mass, b.mass)]
        elif f.name == "profiles":
            assert a.keys() == b.keys()
            pairs = [(getattr(a[i], n), getattr(b[i], n))
                     for i in a for n in ("ranges_m", "mags_db")]
        elif f.name == "policies":
            assert a == b
            continue
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name


class TestStackedPolicyStep:
    """One estimate and one no-regret step per episode for all radars, against
    the per-radar oracles run in their place."""

    POLICIES = [("uniform", {}),
                ("noregret", {"c_eta": 0.4, "c_gamma": 0.1, "baseline_delta_db": 1.0}),
                ("fixed", {"subband": 2}),
                ("noregret", {"kappa": 0.0, "loss_clip_db": 30.0})]

    def config(self, seed, genie):
        radars = tuple(
            RadarSpec(chirp=chirp(pri_us=20.0 * (1 + i % 2), active_us=16.0 * (1 + i % 2),
                                  k=64 // (1 + i % 2)),
                      policy=policy, policy_params=params, targets=(target(15.0 + 2 * i),))
            for i, (policy, params) in enumerate(self.POLICIES))
        links = tuple(LinkSpec(v, s, 20.0 + v + s) for v in range(4) for s in range(4) if v != s)
        return ScenarioConfig(radars=radars, links=links, frames=6, episodes_per_frame=2,
                              seed=seed, genie_detection=genie)

    @pytest.mark.parametrize("genie", [True, False])
    @pytest.mark.parametrize("seed", [4, 13])
    def test_mixed_policies_match_per_radar_oracles(self, monkeypatch, seed, genie):
        cfg = self.config(seed, genie)
        got = run_scenario(cfg)
        monkeypatch.setattr(sim, "noregret_update", oracles.per_radar_noregret_update)
        monkeypatch.setattr(sig, "estimate_episode_sinr", oracles.per_radar_estimate)
        want = run_scenario(cfg)
        assert_metrics_identical(got, want)
        # Every episode's rows of the radars that never learn, bit for bit.
        for i, row in ((0, np.full(6, 1 / 6)), (2, np.eye(6)[2])):
            assert got.strategies[:, i].tobytes() == np.tile(row, (12, 1)).tobytes()
        # The learners moved, each on its own parameters.
        learned = got.strategies[-1, [1, 3]]
        assert not np.allclose(learned, 1 / 6) and not np.allclose(learned[0], learned[1])


class TestRadarGroups:
    """Whole runs on stacked radar groups against the per-radar link weights,
    echo phases and Gram energies (``oracles.PerRadarLinks``) run in their place."""

    @staticmethod
    def run_both(monkeypatch, cfg):
        got = run_scenario(cfg)
        with monkeypatch.context() as mp:
            oracles.PerRadarLinks(cfg).install(mp)
            want = run_scenario(cfg)
        assert_metrics_identical(got, want)
        return got

    @staticmethod
    def crowd(genie, episodes_per_frame):
        """Eight radars alternating two waveforms, as crowd-8 does. Radars 0 and 6
        form one group; radar 2 has two targets and radar 4 no incoming link,
        so each is its own group on the same waveform; radars 5 and 7 have 3
        links from sources of both waveforms, in different orders, so they
        group apart from 1 and 3, which hear every other radar."""
        policies = ["noregret", "uniform"] * 4
        radars = tuple(
            RadarSpec(chirp=chirp(pri_us=20.0 * (1 + i % 2), active_us=16.0 * (1 + i % 2),
                                  k=64 // (1 + i % 2)),
                      policy=policies[i], policy_params={"c_eta": 0.4} if i % 2 == 0 else {},
                      targets=(sig.Target(15.0 + 2 * i, -15.0, 20.0),)
                      + ((sig.Target(33.0, 5.0, 12.0),) if i == 2 else ()))
            for i in range(8))
        heard = {0: range(8), 1: range(8), 2: range(8), 3: range(8), 4: (), 5: (0, 1, 2),
                 6: range(8), 7: (1, 2, 4)}
        links = tuple(LinkSpec(v, s, 20.0 + v + s) for v in range(8) for s in heard[v] if s != v)
        return ScenarioConfig(radars=radars, links=links + (LinkSpec(0, 1, 25.0),), frames=3,
                              episodes_per_frame=episodes_per_frame, seed=3,
                              genie_detection=genie)

    @pytest.mark.parametrize("genie", [True, False])
    @pytest.mark.parametrize("episodes_per_frame", [1, 2])
    def test_crowd_matches_per_radar_oracles(self, monkeypatch, genie, episodes_per_frame):
        cfg = self.crowd(genie, episodes_per_frame)
        groups = sim._radar_groups(cfg, sim.link_table(cfg))
        assert [g.radars.tolist() for g in groups] == [[0, 6], [1, 3], [2], [4], [5, 7]]
        m = self.run_both(monkeypatch, cfg)
        assert m.interference_rate[:, 4].max() == 0.0 < m.interference_rate[:, 5].max()

    @pytest.mark.parametrize("k", [1, 7, 8, 129, 512])
    def test_row_means_equal_per_radar_means(self, k):
        # run_scenario takes each group's interference rates and mean SINRs
        # as row sums over K; numpy sums each contiguous row as it sums the
        # radar's own (K,) vector, so the means equal np.mean's bit for bit.
        rng = np.random.default_rng(k)
        ratio, flags = rng.lognormal(0.0, 3.0, (5, k)), rng.random((5, k)) < 0.3
        assert (ratio.sum(axis=1) / k).tolist() == [np.mean(row) for row in ratio]
        assert (flags.sum(axis=1) / k).tolist() == [float(np.mean(row)) for row in flags]

    def test_single_radar_matches_per_radar_oracles(self, monkeypatch):
        cfg = ScenarioConfig(radars=(RadarSpec(
            chirp=chirp(), policy="noregret",
            targets=(target(), sig.Target(31.0, 4.0, 9.0))),), frames=3, seed=8)
        self.run_both(monkeypatch, cfg)

    def test_geometry_of_eight_columns_matches_per_radar_oracles(self, monkeypatch):
        # 160/150 us victims against 20/19.9 us sources: 11 candidate columns,
        # all kept, so numpy sums each weight pairwise. On 2 subbands about
        # half of a victim chirp's 8 overlapping source chirps collide, so
        # the order of the sum shows in its last bits.
        waves = [(160, 150, 30), (20, 19.9, 240), (20, 19.9, 240), (160, 150, 30)]
        radars = tuple(RadarSpec(chirp=chirp(*w[:2], k=w[2], subbands=2), policy="uniform",
                                 targets=(target(),)) for w in waves)
        links = tuple(LinkSpec(v, s, 30.0) for v in range(4) for s in range(4) if v != s)
        cfg = ScenarioConfig(radars=radars, links=links, frames=2, seed=4)
        victims = sim._radar_groups(cfg, sim.link_table(cfg))[0]
        assert victims.radars.tolist() == [0, 3]
        assert max(cand.shape[1] for (cand, _), *_ in victims.links) >= 8
        self.run_both(monkeypatch, cfg)

    def test_chunked_crowd_matches_per_radar_oracles_in_bounded_memory(self, monkeypatch):
        # 16 radars on table1's 20 us waveform, all 240 links: one group
        # whose stacked arrays need two chunks. The chunks hold at most one
        # SAMPLE_BLOCK_GUARD float block above the per-radar run's peak.
        table1 = parse_config(bundled_config_path("table1").read_text())
        spec = replace(table1.radars[0], policy="uniform", policy_params={})
        cfg = ScenarioConfig(
            radars=tuple(replace(spec, targets=(replace(spec.targets[0], range_m=15.0 + i),))
                         for i in range(16)),
            links=tuple(LinkSpec(v, s, 30.0) for v in range(16) for s in range(16) if v != s),
            frames=2, seed=2)
        assert [len(g.radars) for g in sim._radar_groups(cfg, sim.link_table(cfg))] == [12, 4]

        def traced(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        got, peak = traced(lambda: run_scenario(cfg))
        with monkeypatch.context() as mp:
            oracles.PerRadarLinks(cfg).install(mp)
            want, oracle_peak = traced(lambda: run_scenario(cfg))
        assert_metrics_identical(got, want)
        assert peak - oracle_peak < 8 * sim.SAMPLE_BLOCK_GUARD


class TestEchoTermsAcrossEpisodes:
    """Each group holds ``signal.echo_chirp_terms`` for every episode offset,
    formed once a run; every frame's episode at an offset reads them."""

    @pytest.mark.parametrize("episodes_per_frame", [1, 2, 4])
    def test_group_holds_one_offset(self, monkeypatch, episodes_per_frame):
        cfg = replace(TestRadarGroups.crowd(True, 1), episodes_per_frame=episodes_per_frame)
        built, formed = [], []
        radar_groups, chirp_terms = sim._radar_groups, sig.echo_chirp_terms

        def record_groups(config, table):
            built.extend(radar_groups(config, table))
            return built

        def record_terms(params, echo, k0, k):
            formed.append(k0)
            return chirp_terms(params, echo, k0, k)

        with monkeypatch.context() as mp:
            mp.setattr(sim, "_radar_groups", record_groups)
            mp.setattr(sig, "echo_chirp_terms", record_terms)
            got = run_scenario(cfg)
        assert len(formed) == len(built) * episodes_per_frame
        for group in built:
            k = group.chirps.shape[1]
            echo = sig.echo_constants(group.chirp, [cfg.radars[i].targets for i in group.radars])
            assert len(group.echo_terms) == episodes_per_frame
            for ep, terms in enumerate(group.echo_terms):
                want = chirp_terms(group.chirp, echo, ep * k, k)
                assert [t.shape for t in terms] == [echo.shape[1:3] + (k,)] * 2
                assert all(a.tobytes() == b.tobytes() for a, b in zip(terms, want))
        # The coefficients equal the per-radar, per-target oracle's.
        with monkeypatch.context() as mp:
            oracles.PerRadarLinks(cfg).install(mp)
            want = run_scenario(cfg)
        assert_metrics_identical(got, want)


class TestSlopeClasses:
    """Each victim's sources summed by slope class against the one-row-per-link
    synthesis (``oracles.PerLinkRows``) run in its place."""

    # Three waveforms of one frame duration, each its own slope.
    WAVES = {"a": (20, 16, 60), "b": (40, 32, 30), "c": (30, 24, 40)}

    def config(self, waves, links, genie, policy="uniform"):
        radars = tuple(
            RadarSpec(chirp=chirp(*self.WAVES[w][:2], k=self.WAVES[w][2]), policy=policy,
                      targets=(sig.Target(15.0 + 2 * i, -15.0, 20.0),))
            for i, w in enumerate(waves))
        return ScenarioConfig(radars=radars, links=tuple(LinkSpec(*link) for link in links),
                              frames=3, episodes_per_frame=2, seed=6, genie_detection=genie)

    @staticmethod
    def recorded(monkeypatch, cfg):
        """The run's metrics and every ``_measure_group`` call's outputs."""
        calls = []
        measure = sim._measure_group

        def record(group, *args):
            flags, clean, intf, sums = measure(group, *args)
            calls.append((group.radars.tolist(), flags.copy(), clean.copy(), intf.copy(),
                          [None if s is None else s.copy() for s in sums]))
            return flags, clean, intf, sums

        monkeypatch.setattr(sim, "_measure_group", record)
        return run_scenario(cfg), calls

    def run_both(self, monkeypatch, cfg):
        with monkeypatch.context() as mp:
            got = self.recorded(mp, cfg)
        with monkeypatch.context() as mp:
            oracles.PerLinkRows(cfg).install(mp)
            want = self.recorded(mp, cfg)
        return got, want

    @pytest.mark.parametrize("genie", [True, False])
    def test_classes_match_per_link_rows(self, monkeypatch, genie):
        # Radars on waveforms a, b, a, b, c, every pair linked at 20-34 dB:
        # victims on a and b hear 4 sources of 3 slopes, the c victim 4 of
        # 2. Uniform play keeps both runs' actions and draws in step, so
        # each episode's outputs differ only by rounding.
        links = [(v, s, 20.0 + 2 * v + s) for v in range(5) for s in range(5) if v != s]
        cfg = self.config("ababc", links, genie)
        groups = sim._radar_groups(cfg, sim.link_table(cfg))
        assert [(g.radars.tolist(), g.power.shape[1], g.gram_s.shape[1]) for g in groups] == [
            ([0, 2], 4, 3), ([1, 3], 4, 3), ([4], 4, 2)]
        (got, calls), (want, oracle_calls) = self.run_both(monkeypatch, cfg)
        assert got.aligned_actions.tobytes() == want.aligned_actions.tobytes()
        assert len(calls) == len(oracle_calls) == 3 * 2 * len(groups)
        for (radars, flags, clean, intf, sums), (radars0, flags0, clean0, intf0, sums0) in zip(
                calls, oracle_calls):
            assert radars == radars0 and flags.tobytes() == flags0.tobytes()
            np.testing.assert_allclose(clean, clean0, rtol=1e-12, atol=0)
            np.testing.assert_allclose(intf, intf0, rtol=1e-12, atol=0)
            if genie:  # exactly 0 where no link hits, and only there
                assert ((intf == 0) == ~flags).all() and ((intf0 == 0) == ~flags).all()
            for s, s0 in zip(sums, sums0):
                assert (s is None) == (s0 is None)
                if s is not None:
                    assert np.abs(s - s0).max() <= 1e-12 * np.abs(s0).max()
        assert any(s is not None for *_, sums in calls for s in sums)
        assert 0 < got.interference_rate.mean() < 1

    @pytest.mark.parametrize("genie", [True, False])
    def test_one_source_per_slope_is_bit_for_bit(self, monkeypatch, genie):
        # Every victim hears one source of each slope, in the order its
        # links first reach the slopes: each class row is one link's row.
        links = [(v, s, 25.0 + v - s) for v in range(3) for s in range(3) if v != s]
        cfg = self.config("abc", links, genie, policy="noregret")
        assert [g.gram_s.shape[1] for g in sim._radar_groups(cfg, sim.link_table(cfg))] == [2] * 3
        (got, calls), (want, _) = self.run_both(monkeypatch, cfg)
        assert_metrics_identical(got, want)
        assert 0 < got.interference_rate.mean() < 1

    def test_radars_hearing_other_slopes_group_apart(self):
        # Radars 0 and 1 share a waveform, a target and a link count, but
        # hear sources of different slopes: each keeps its one class row,
        # so no radar holds more than T + L rows.
        cfg = self.config("aabc", [(0, 2, 30.0), (1, 3, 30.0)], genie=True)
        groups = sim._radar_groups(cfg, sim.link_table(cfg))
        assert [(g.radars.tolist(), g.gram_s.shape[1]) for g in groups] == [
            ([0], 1), ([1], 1), ([2], 0), ([3], 0)]
        assert [rows.shape[0] for g in groups for rows in g.rows] == [2, 2, 1, 1]

    def test_table1_is_bit_for_bit(self, monkeypatch):
        cfg = replace(parse_config(bundled_config_path("table1").read_text()), frames=6)
        (got, _), (want, _) = self.run_both(monkeypatch, cfg)
        assert_metrics_identical(got, want)


class TestStagedSolverOnExploreTables:
    """The closed-form solve on the estimates a nash run floors."""

    def test_matches_loop_oracle_end_to_end(self, monkeypatch):
        cfg = parse_config(bundled_config_path("table1").read_text())
        cfg = replace(cfg, frames=8, radars=tuple(
            replace(r, policy="nash", policy_params={"explore_episodes": 6})
            for r in cfg.radars))
        solved = []  # the (snr, hit) of every solve
        solve = hopping.solve_nash_welfare_max

        def recording(snr, hit, mode):
            solved.append((snr, hit))
            return solve(snr, hit, mode)

        def loop_oracle(snr, hit, mode):
            table = collision_table(snr, hit)
            return profile_rows(welfare_max_profile(table, support_enumeration_2p(table)))

        monkeypatch.setattr(hopping, "solve_nash_welfare_max", recording)
        got = run_scenario(cfg)
        monkeypatch.setattr(hopping, "solve_nash_welfare_max", loop_oracle)
        want = run_scenario(cfg)
        for name in ("strategies", "interference_rate", "aligned_actions"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        # Every equilibrium found, not only the welfare-max one the run plays.
        assert len(solved) == 6
        for snr, hit in solved:
            expected = support_enumeration_2p(collision_table(snr, hit))
            found = closed_form_equilibria_2p(snr, hit)
            assert len(found[0]) == len(expected)
            for x, y, q in zip(*found, expected):
                for s, t in zip((x, y), q.strategies):
                    assert np.flatnonzero(np.round(s, 12)).tolist() \
                        == np.flatnonzero(np.round(t.probs, 12)).tolist()
                    np.testing.assert_allclose(s, t.probs, rtol=0, atol=1e-12)


class TestPureSolverEndToEnd:
    """Runs whose Nash solves take the pure path, three radars in 'auto' mode
    and two in 'pure' mode, against the welfare max of the dense table's
    pure equilibria solved in their place."""

    def config(self, n_radars, mode):
        params = {"explore_episodes": 4, "solver_mode": mode}
        if n_radars == 2:
            return two_radar_config(("nash", "nash"), frames=4, seed=5, params=[params] * 2,
                                    episodes_per_frame=2)
        radars = tuple(RadarSpec(chirp=chirp(subbands=4), policy="nash", policy_params=params,
                                 targets=(target(15.0 + 2 * i),)) for i in range(n_radars))
        links = tuple(LinkSpec(v, s, 20.0 + v + s)
                      for v in range(n_radars) for s in range(n_radars) if v != s)
        return ScenarioConfig(radars=radars, links=links, frames=4, episodes_per_frame=2, seed=5)

    @pytest.mark.parametrize("n_radars,mode", [(3, "auto"), (2, "pure")])
    def test_matches_dense_oracle(self, monkeypatch, n_radars, mode):
        cfg = self.config(n_radars, mode)
        solved = []

        def dense_oracle(snr, hit, mode):
            solved.append(mode)
            return profile_rows(welfare_max_profile(collision_table(snr, hit), []))

        got = run_scenario(cfg)
        monkeypatch.setattr(hopping, "solve_nash_welfare_max", dense_oracle)
        want = run_scenario(cfg)
        assert solved and set(solved) == {mode}
        assert_metrics_identical(got, want)
        # Every radar committed to one subband, none shared.
        committed = got.strategies[-1]
        assert np.all(committed.max(axis=1) == 1.0)
        assert len(set(committed.argmax(axis=1))) == n_radars


class TestNashCommitTiming:
    """A nash radar plays its explore profiles, then its committed slice."""

    def played_and_profiles(self, monkeypatch, explore, frames, episodes_per_frame):
        """Radar 0's strategy per episode and its row after each explore update."""
        profiles = []
        update = sim.nash_explore_update

        def recording(state, stats):
            nxt = update(state, stats)
            profiles.append(nxt.probs[0].copy())
            return nxt

        monkeypatch.setattr(sim, "nash_explore_update", recording)
        cfg = two_radar_config(("nash", "uniform"), frames=frames, seed=3,
                               episodes_per_frame=episodes_per_frame,
                               params=[{"explore_episodes": explore}, {}])
        return run_scenario(cfg).strategies[:, 0], profiles

    # The last case explores for every episode of the run, so the commit
    # comes after the final episode and is never played.
    @pytest.mark.parametrize("explore, frames, episodes_per_frame",
                             [(3, 6, 1), (5, 4, 2), (4, 4, 1)])
    def test_explores_then_commits(self, monkeypatch, explore, frames, episodes_per_frame):
        played, profiles = self.played_and_profiles(
            monkeypatch, explore, frames, episodes_per_frame)
        assert len(profiles) == explore
        np.testing.assert_array_equal(played[0], np.full(6, 1 / 6))
        for e in range(1, explore):
            np.testing.assert_array_equal(played[e], profiles[e - 1])
        committed = profiles[-1]
        for e in range(explore, frames * episodes_per_frame):
            np.testing.assert_array_equal(played[e], committed)


class TestFinalFrameProfiles:
    """Each final-frame episode adds its (N_s, A) hop sums to its radar's,
    and every radar's profile is taken from them after the frame loop."""

    @pytest.mark.parametrize("genie", [True, False])
    @pytest.mark.parametrize("episodes_per_frame", [1, 4])
    def test_matches_post_loop_oracle(self, monkeypatch, episodes_per_frame, genie):
        cfg = two_radar_config(("noregret", "uniform"), frames=3, seed=5,
                               episodes_per_frame=episodes_per_frame, genie_detection=genie)
        sums = [[] for _ in cfg.radars]
        # (radar) per final-frame episode, "fft" per range FFT, "profile" per range profile
        events = []
        measure, range_fft = sig.measure_episode, sig.range_fft
        range_profile = sig.range_profile_at_velocity

        def recording_measure(*args, hop_weights, **kw):
            *meas, hop_sums = measure(*args, hop_weights=hop_weights, **kw)
            if hop_weights is not None:  # radars measure in index order within an episode
                radar = sum(map(len, sums)) % cfg.n_radars
                sums[radar].append(hop_sums.copy())
                events.append(radar)
            return *meas, hop_sums

        def recording_fft(samples):
            events.append("fft")
            return range_fft(samples)

        def recording_profile(*args):
            events.append("profile")
            return range_profile(*args)

        monkeypatch.setattr(sig, "measure_episode", recording_measure)
        monkeypatch.setattr(sig, "range_fft", recording_fft)
        monkeypatch.setattr(sig, "range_profile_at_velocity", recording_profile)
        m = run_scenario(cfg)
        monkeypatch.undo()

        # Only the sums of a complete frame are transformed, one FFT per radar.
        assert events == [0, 1] * episodes_per_frame + ["fft", "profile"] * 2
        assert sorted(m.profiles) == [0, 1]
        for i, ch in enumerate(spec.chirp for spec in cfg.radars):
            assert all(s.shape == (ch.n_samples, ch.n_subbands) for s in sums[i])
            want = sig.range_profile_at_velocity(
                sig.range_fft(sum(sums[i])),
                np.arange(ch.n_subbands) * ch.subband_hz, np.arange(ch.n_samples // 2),
                sig.default_eps_grid(ch), ch)
            assert m.profiles[i].ranges_m.tobytes() == want.ranges_m.tobytes()
            assert m.profiles[i].mags_db.tobytes() == want.mags_db.tobytes()

    @pytest.mark.parametrize("episodes_per_frame", [1, 4])
    def test_detector_profiles_match_synthesize_then_fft_oracle(self, monkeypatch,
                                                                episodes_per_frame):
        # The detector's final-frame blocks, range-transformed chirp by
        # chirp and then summed by hop, give the profiles to 1e-9 dB.
        cfg = two_radar_config(("noregret", "uniform"), frames=3, seed=5,
                               episodes_per_frame=episodes_per_frame, genie_detection=False)
        blocks, actions = [], []
        sample, detect = sim.sample_subbands, sig.detect_interference

        def recording_sample(probs, rng, size):  # radars draw in index order
            actions.append(sample(probs, rng, size))
            return actions[-1].copy()

        def recording_detect(samples, *args, **kw):
            blocks.append(samples.copy())
            return detect(samples, *args, **kw)

        monkeypatch.setattr(sim, "sample_subbands", recording_sample)
        monkeypatch.setattr(sig, "detect_interference", recording_detect)
        m = run_scenario(cfg)
        monkeypatch.undo()

        last = -cfg.n_radars * episodes_per_frame  # the final frame, radars alternating
        for i, spec in enumerate(cfg.radars):
            ch = spec.chirp
            want = final_frame_profile(
                np.concatenate(blocks[last:][i::cfg.n_radars], axis=1),
                np.concatenate(actions[last:][i::cfg.n_radars]) * ch.subband_hz,
                np.arange(ch.n_samples // 2), spec.targets[0].velocity_mps,
                sig.default_eps_grid(ch), ch)
            np.testing.assert_array_equal(m.profiles[i].ranges_m, want.ranges_m)
            assert np.max(np.abs(m.profiles[i].mags_db - want.mags_db)) <= 1e-9

    def test_genie_peak_memory_under_one_block(self):
        # table1's blocks are 320 x 512 complex samples. Genie mode
        # synthesizes none; the final frame holds only (N_s, A) hop sums.
        cfg = replace(parse_config(bundled_config_path("table1").read_text()), frames=3)
        run_scenario(replace(cfg, frames=1))  # warm caches (FFT plans) untraced
        tracemalloc.start()
        try:
            run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 320 * 512 * 16

    def test_detector_peak_memory_under_one_block_above_its_workspace(self):
        # The run-scoped workspace holds the detector's block and the noise
        # worker two (2, N_s, K) noise blocks; the final frame adds only its
        # (N_s, A) hop sums and the profile's rows.
        cfg = replace(parse_config(bundled_config_path("table1").read_text()),
                      genie_detection=False, frames=3)
        size = max(spec.chirp.n_samples * spec.chirp.chirps_per_frame for spec in cfg.radars)
        ws = sig.SampleWorkspace(*((spec.chirp.n_samples, spec.chirp.chirps_per_frame)
                                   for spec in cfg.radars))
        workspace = sum(buf.nbytes for buf in (ws.x, ws.scratch, ws.power, ws.mask))
        workspace += 2 * np.empty((2, size)).nbytes
        del ws
        run_scenario(replace(cfg, frames=1))  # warm caches (FFT plans) untraced
        tracemalloc.start()
        try:
            run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - workspace < 320 * 512 * 16

    def test_crowd_peak_memory_does_not_grow_with_radars(self):
        # crowd-8's blocks are 320 x 512 (or 640 x 256) complex samples each.
        # Holding every radar's final frame until the loop ends costs about
        # one block per extra radar; range processing each radar's frame
        # when it completes keeps at most one alive.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "crowd-8.yaml"
        crowd = replace(parse_config(path.read_text()), frames=3)
        pair = replace(crowd, radars=crowd.radars[:2],
                       links=tuple(l for l in crowd.links if l.victim < 2 and l.source < 2))
        block = 320 * 512 * 16

        def peak(cfg):
            run_scenario(replace(cfg, frames=1))  # warm caches (FFT plans) untraced
            tracemalloc.start()
            try:
                run_scenario(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(crowd) - peak(pair) < 2 * block


class TestNoiseWorker:
    """Detector runs draw each radar-episode's noise block on a worker thread,
    one block ahead of the episode that adds it (``sim._prefetched_noise``)."""

    @staticmethod
    def config():
        # Two radars of one waveform that hear each other: one group of two.
        cfg = two_radar_config(("noregret", "noregret"), frames=3, seed=4, k=(64, 64),
                               episodes_per_frame=2, genie_detection=False)
        assert [g.radars.tolist() for g in sim._radar_groups(cfg, sim.link_table(cfg))] == [[0, 1]]
        return cfg

    def test_worker_equals_in_thread_fills(self, monkeypatch):
        # The worker's blocks are the two fills a radar once made on the
        # calling thread, even with the threads switching every microsecond:
        # one group of two 64-chirp blocks, and table1-detector's 320 x 512
        # and 640 x 256 blocks, which alternate in the same two buffers.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
        table1 = replace(parse_config((path / "table1-detector.yaml").read_text()), frames=3)
        for cfg in (self.config(), table1):
            interval = sys.getswitchinterval()
            try:
                sys.setswitchinterval(1e-6)
                got = run_scenario(cfg)
            finally:
                sys.setswitchinterval(interval)
            with monkeypatch.context() as mp:
                mp.setattr(sim, "_prefetched_noise", oracles.in_thread_noise)
                want = run_scenario(cfg)
            assert_metrics_identical(got, want)
            assert 0 < got.interference_rate.mean() < 1

    def test_import_leaves_the_executor_out(self):
        # The worker's executor imports concurrent.futures and logging, about
        # 8 ms that only detector runs pay: importing the CLI loads neither.
        src = str(Path(sim.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", "import sys, hopsim.cli; print(sorted({'concurrent.futures', "
             "'logging'} & sys.modules.keys()))"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_worker_joined_after_a_run(self, monkeypatch):
        before = threading.active_count()
        during = []
        update = sim.noregret_update

        def counting_update(*args):
            during.append(threading.active_count())
            return update(*args)

        monkeypatch.setattr(sim, "noregret_update", counting_update)
        run_scenario(self.config())
        assert during and set(during) <= {before, before + 1} and before + 1 in during
        assert threading.active_count() == before

    def test_worker_joined_after_a_failed_episode(self, monkeypatch):
        before = threading.active_count()
        update, calls = sim.noregret_update, []

        def failing_update(*args):
            calls.append(threading.active_count())
            if len(calls) == 3:
                raise KeyError("episode 3")
            return update(*args)

        monkeypatch.setattr(sim, "noregret_update", failing_update)
        with pytest.raises(KeyError, match="episode 3"):
            run_scenario(self.config())
        assert calls[-1] == before + 1 and threading.active_count() == before

    def test_failed_fill_raises_from_run_scenario(self, monkeypatch):
        # Only the worker draws standard normals in detector mode; the fifth
        # fill raises, and the run raises that exception object.
        raised, fills = [], []
        make = np.random.default_rng

        class FailingFills:
            def __init__(self, rng):
                self._rng = rng

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def standard_normal(self, *args, **kwargs):
                fills.append(threading.current_thread())
                if len(fills) == 5:
                    raised.append(FloatingPointError("fill 5"))
                    raise raised[-1]
                return self._rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FailingFills(make(seed)))
        before = threading.active_count()
        with pytest.raises(FloatingPointError) as info:
            run_scenario(self.config())
        assert info.value is raised[0]
        assert len(fills) == 5 and threading.main_thread() not in fills
        assert threading.active_count() == before
