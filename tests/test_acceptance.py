"""End-to-end acceptance checks on the two-radar benchmark scenario.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the corresponding bound. Scenario runs are cached
module-wide so criteria that share runs do not recompute them.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import hopsim.signal as sig
from hopsim.cli import parse_config
from hopsim.game import cce_deviation_gap
from hopsim.sim import RadarSpec, run_scenario

import oracles
from oracles import UtilityTable, bundled_config_path, enumerate_pure_nash, pure_actions

N_SEEDS = 20
_BASE = parse_config(bundled_config_path("table1").read_text())
_CACHE = {}


def table1_metrics(policy: str, seed: int, frames: int = 50):
    """Benchmark run with every radar on the given policy, memoized."""
    key = (policy, seed, frames)
    if key not in _CACHE:
        radars = tuple(
            RadarSpec(chirp=r.chirp,
                      policy=policy,
                      policy_params=dict(r.policy_params) if policy == "noregret" else {},
                      targets=r.targets)
            for r in _BASE.radars)
        cfg = replace(_BASE, radars=radars, frames=frames, seed=seed)
        _CACHE[key] = run_scenario(cfg)
    return _CACHE[key]


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_nash_interference_elimination():
    good = 0
    for seed in range(N_SEEDS):
        m = table1_metrics("nash", seed)
        commit_rate = m.interference_rate[10:]
        final = m.strategies[-1]
        pure = np.all(np.max(final, axis=1) == 1.0)
        committed = np.argmax(final, axis=1)
        if np.all(commit_rate == 0.0) and pure and len(set(committed)) == 2:
            good += 1
    ok = good >= 19
    report(1, "nash commit-phase interference elimination", ok,
           f"{good}/{N_SEEDS} seeds with zero commit-phase collisions and distinct subbands")
    assert ok


def test_criterion_2_noregret_anticoordination():
    good = 0
    for seed in range(N_SEEDS):
        m = table1_metrics("noregret", seed)
        support = [m.strategies[-1, i] > 0 for i in range(2)]
        late_rate = m.interference_rate[-10:].mean(axis=0).max()
        if (support[0].sum() >= 2 and support[1].sum() >= 2
                and not np.any(support[0] & support[1]) and late_rate < 0.05):
            good += 1
    ok = good >= 18
    report(2, "no-regret disjoint multi-subband supports", ok,
           f"{good}/{N_SEEDS} seeds with disjoint >=2-subband supports and <5% late interference")
    assert ok


def test_criterion_3_regret_decay():
    avg20, avg80 = [], []
    for seed in range(N_SEEDS):
        m = table1_metrics("noregret", seed, frames=80)
        avg20.append(m.cumulative_regret_db[19] / 20.0)
        avg80.append(m.cumulative_regret_db[79] / 80.0)
    med20 = np.median(avg20, axis=0)
    med80 = np.median(avg80, axis=0)
    ok = bool(np.all(med80 <= 0.7 * med20))
    report(3, "average regret decay from 20 to 80 episodes", ok,
           f"median per-episode regret {med20.round(1)} -> {med80.round(1)} dB "
           f"(ratios {(med80 / med20).round(3)}, bound 0.7)")
    assert ok


def test_criterion_4_cce_gap_bounded_by_regret():
    worst = -np.inf
    checked = 0
    for policy in ("uniform", "noregret", "nash"):
        for seed in range(N_SEEDS):
            m = table1_metrics(policy, seed)
            steps = m.aligned_actions.shape[0]
            slack = m.cce_gap_db - m.external_regret_db / steps
            worst = max(worst, float(slack.max()))
            checked += slack.size
    ok = worst <= 1e-6
    report(4, "equilibrium gap bounded by average regret", ok,
           f"max(gap - regret/K) = {worst:.3e} over {checked} radar-runs (bound 1e-6)")
    assert ok


def test_criterion_5_estimator_fidelity():
    ch = _BASE.radars[0].chirp
    tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
    link = oracles.InterferenceLink(source=1, inr_db=30.0)
    rng = np.random.default_rng(0)
    k = 256
    # victim alternates subbands 1 and 4; a co-located equal-PRI radar
    # sits on subband 1, overlapping every chirp in full
    subbands = np.tile([1, 4], k // 2)
    hops = subbands * ch.subband_hz
    echo = oracles.echo_frame(ch, tgt, hops)
    noise = (rng.standard_normal((ch.n_samples, k))
             + 1j * rng.standard_normal((ch.n_samples, k))) / np.sqrt(2.0)
    clean = echo + noise
    intf = np.stack([
        oracles.dechirped_interference(ch, link, ch, i, subbands[i] == 1, rng)
        for i in range(k)], axis=1)
    clean, intf = np.mean(np.abs(clean) ** 2, axis=0), np.mean(np.abs(intf) ** 2, axis=0)
    stats = oracles.radar_stats(sig.estimate_episode_sinr(
        subbands, subbands == 1, clean / (intf + 1.0), clean / 1.0, [k], ch.n_subbands), 0)
    want_hit = 10 * np.log10(oracles.theoretical_sinr(100.0, 1000.0, 1.0))
    want_clean = 10 * np.log10(oracles.theoretical_sinr(100.0, 0.0, 1.0))
    err_hit = abs(stats.sinr_db[1] - want_hit)
    err_clean = abs(stats.sinr_db[4] - want_clean)
    err_snr = abs(stats.snr_db[4] - want_clean)
    ok = max(err_hit, err_clean, err_snr) <= 1.0
    report(5, "windowed estimates track closed-form ratios", ok,
           f"|error| dB: collided {err_hit:.3f}, clean {err_clean:.3f}, "
           f"snr {err_snr:.3f} (bound 1.0, {k // 2} chirps/subband)")
    assert ok


def _synth_frame(ch, tgt, hops_hz, rng):
    echo = oracles.echo_frame(ch, tgt, hops_hz)
    noise = (rng.standard_normal((ch.n_samples, hops_hz.size))
             + 1j * rng.standard_normal((ch.n_samples, hops_hz.size))) / np.sqrt(2.0)
    return echo + noise


def _profile(ch, frame, subbands, bins, v):
    """The simulator's range path: hop sums at v, their range FFT, the phase product."""
    spectrum = sig.range_fft(frame @ sig.hop_sum_weights(ch, subbands, v))
    return sig.range_profile_at_velocity(spectrum, np.arange(ch.n_subbands) * ch.subband_hz,
                                         bins, sig.default_eps_grid(ch), ch)


def test_criterion_6_range_recovery():
    ch = _BASE.radars[0].chirp
    tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
    k = 256
    coarse_ok = fine_ok = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(trial)
        subbands = rng.integers(0, ch.n_subbands, size=k)
        frame = _synth_frame(ch, tgt, subbands * ch.subband_hz, rng)
        rfft = sig.range_fft(frame)
        bin_hat = int(np.argmax(np.mean(np.abs(rfft) ** 2, axis=1)))
        coarse = bin_hat * ch.range_bin_m
        if abs(coarse - tgt.range_m) <= ch.coarse_bin_m:
            coarse_ok += 1
        profile = _profile(ch, frame, subbands, [bin_hat], tgt.velocity_mps)
        fine = profile.ranges_m[np.argmax(profile.mags_db)]
        if abs(fine - tgt.range_m) <= 0.1667:
            fine_ok += 1
    ok = coarse_ok >= 95 and fine_ok >= 95
    report(6, "coarse and fine range recovery", ok,
           f"coarse within 1 m: {coarse_ok}/{trials}, "
           f"fine within 0.1667 m: {fine_ok}/{trials} (bound 95)")
    assert ok


def test_criterion_7_resolution_ordering():
    ch = _BASE.radars[0].chirp
    tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
    k = 512
    bands = {"six": 6, "three": 3, "one": 1}
    widths = {}
    for name, n_bands in bands.items():
        per_seed = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            subbands = rng.integers(0, n_bands, size=k)
            frame = _synth_frame(ch, tgt, subbands * ch.subband_hz, rng)
            profile = _profile(ch, frame, subbands, np.arange(14, 27), tgt.velocity_mps)
            per_seed.append(sig.mainlobe_width(profile))
        widths[name] = float(np.median(per_seed))
    r6 = widths["six"] / widths["one"]
    r3 = widths["three"] / widths["one"]
    ordered = widths["six"] < widths["three"] < widths["one"]
    ok = (ordered
          and abs(r6 - 1 / 6) <= 0.25 / 6
          and abs(r3 - 1 / 3) <= 0.25 / 3)
    report(7, "mainlobe width shrinks with hopped bandwidth", ok,
           f"widths m: 6-band {widths['six']:.3f}, 3-band {widths['three']:.3f}, "
           f"1-band {widths['one']:.3f}; ratios {r6:.3f}/{r3:.3f} "
           f"vs 0.167/0.333 +-25%")
    assert ok


def test_criterion_8_noise_floor_and_sinr_ordering():
    def off_peak_median(profile):
        db = profile.mags_db - profile.mags_db.max()
        peak = int(np.argmax(db))
        mask = np.ones(db.size, bool)
        mask[max(0, peak - 20):peak + 21] = False
        return float(np.median(db[mask]))

    good = 0
    for seed in range(N_SEEDS):
        floors, sinrs = {}, {}
        for policy in ("uniform", "noregret", "nash"):
            m = table1_metrics(policy, seed)
            floors[policy] = off_peak_median(m.profiles[0])
            sinrs[policy] = float(m.mean_sinr_db[-1].mean())
        if (floors["uniform"] > max(floors["noregret"], floors["nash"])
                and min(sinrs["noregret"], sinrs["nash"]) > sinrs["uniform"]):
            good += 1
    ok = good >= 18
    report(8, "uniform hopping pays in noise floor and SINR", ok,
           f"{good}/{N_SEEDS} seeds with higher uniform off-peak floor "
           f"and lower uniform final SINR")
    assert ok


def test_headline_noregret_outresolves_nash():
    # The abstract's claim: No-Regret Hopping spreads each radar over more
    # subbands than Nash Hopping commits to, so its final-frame mainlobe is
    # narrower. Reads criterion 8's cached runs; every seed, both radars.
    good = 0
    widths = {"noregret": [], "nash": []}
    support = {"noregret": [], "nash": []}
    for seed in range(N_SEEDS):
        for policy in widths:
            m = table1_metrics(policy, seed)
            widths[policy].append([sig.mainlobe_width(m.profiles[i]) for i in range(2)])
            support[policy].append(np.count_nonzero(m.strategies[-1], axis=1))
        if (np.all(np.less(widths["noregret"][-1], widths["nash"][-1]))
                and np.all(support["noregret"][-1] > support["nash"][-1])):
            good += 1
    ok = good == N_SEEDS
    print(f"headline claim (noregret out-resolves nash): {'PASS' if ok else 'FAIL'} - "
          f"{good}/{N_SEEDS} seeds with both radars narrower and on more subbands; "
          f"widest noregret {np.max(widths['noregret']):.3f} m, narrowest nash "
          f"{np.min(widths['nash']):.3f} m; supports {np.min(support['noregret'])}-"
          f"{np.max(support['noregret'])} vs {np.min(support['nash'])}-"
          f"{np.max(support['nash'])} subbands (bound {N_SEEDS}/{N_SEEDS})")
    assert ok


def brute_force_pure_nash(table: UtilityTable):
    n, a = table.n_players, table.n_subbands
    out = []
    for joint in itertools.product(range(a), repeat=n):
        if all(
            table.values[i][joint] >= table.values[i][
                joint[:i] + (dev,) + joint[i + 1:]]
            for i in range(n) for dev in range(a)
        ):
            out.append(joint)
    return out


def brute_force_cce_gap(mass: np.ndarray, table: UtilityTable, player: int):
    expected = float(np.sum(mass * table.values[player]))
    best = -np.inf
    for dev in range(table.n_subbands):
        dev_util = np.take(table.values[player], dev, axis=player)
        marg = np.sum(mass, axis=player)
        best = max(best, float(np.sum(marg * dev_util)))
    return best - expected


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(123)
    mismatches = 0
    for trial in range(200):
        a = int(rng.integers(2, 5))
        table = UtilityTable(rng.uniform(-30.0, 30.0, size=(2, a, a)))
        got = {pure_actions(p) for p in enumerate_pure_nash(table)}
        if got != set(brute_force_pure_nash(table)):
            mismatches += 1
            continue
        mass = rng.random((a, a))
        mass /= mass.sum()
        joint = oracles.joint_from_dense(mass)
        for player in range(2):
            per_arm = oracles.dense_arm_utilities(table, joint.rows, player)
            got = cce_deviation_gap(joint, per_arm, player)
            want = brute_force_cce_gap(mass, table, player)
            if abs(got - want) > 1e-9:
                mismatches += 1
                break
    ok = mismatches == 0
    report(9, "solvers agree with brute-force checkers", ok,
           f"{200 - mismatches}/200 random two-player tables matched exactly")
    assert ok
