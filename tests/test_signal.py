"""Baseband physics: synthesis, detection, estimation, range processing."""
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import hopsim.signal as sig

import oracles


def table1_params(pri_s=20e-6, chirps=512):
    return sig.ChirpParams(f_c=77e9, subband_hz=150e6, n_subbands=6,
                           pri_s=pri_s, active_s=0.8 * pri_s, adc_hz=20e6,
                           chirps_per_frame=chirps)


C_HALF = sig.C / 2.0


def detect(samples, noise_power, *args, **kw):
    """``detect_interference`` in a workspace of its own."""
    return sig.detect_interference(samples, noise_power, *args, **kw,
                                   workspace=sig.SampleWorkspace(np.shape(samples)))


def quadratic_phase_fit(samples, adc_hz):
    """Least-squares fit of unwrapped phase to a + b t + c t^2; returns c."""
    t = np.arange(samples.size) / adc_hz
    phase = np.unwrap(np.angle(samples))
    coeffs = np.polyfit(t, phase, 2)
    return coeffs[0]


class TestChirpParams:
    def test_table1_derived_quantities(self):
        p = table1_params()
        assert p.slope == pytest.approx(150e6 / 16e-6)
        assert p.n_samples == 320
        assert oracles.total_bandwidth(p) == pytest.approx(900e6)
        assert p.coarse_bin_m == pytest.approx(1.0)
        assert oracles.fine_bin_m(p) == pytest.approx(1.0 / 6.0)
        assert p.range_bin_m == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            table1_params(pri_s=-1.0)
        with pytest.raises(ValueError):
            sig.ChirpParams(f_c=77e9, subband_hz=150e6, n_subbands=6,
                            pri_s=20e-6, active_s=25e-6, adc_hz=20e6,
                            chirps_per_frame=512)

    @pytest.mark.parametrize("name, value", [("f_c", np.nan), ("pri_s", np.inf),
                                             ("subband_hz", np.inf), ("adc_hz", np.nan),
                                             ("active_s", -np.inf)])
    def test_non_finite_field_named(self, name, value):
        with pytest.raises(ValueError, match=f"chirp {name} {value!r} not finite"):
            replace(table1_params(), **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("n_subbands", np.nan), ("n_subbands", 6.0), ("n_subbands", True), ("n_subbands", 0),
        ("chirps_per_frame", 2.5), ("chirps_per_frame", True), ("chirps_per_frame", -512),
        ("chirps_per_frame", "512")])
    def test_non_integer_count_named(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"chirp {name} {value!r} not an integer >= 1")):
            replace(table1_params(), **{name: value})

    def test_numpy_integer_counts_accepted(self):
        p = replace(table1_params(), n_subbands=np.int64(6), chirps_per_frame=np.int32(512))
        assert (p.n_subbands, p.chirps_per_frame) == (6, 512)

    def test_hop_offsets(self):
        p = table1_params()
        np.testing.assert_allclose(oracles.hop_offsets_hz(p, np.arange(6)),
                                   np.arange(6) * 150e6)
        assert oracles.subband_start_hz(p, 0) == 77e9


class TestTargetValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_range_m(self, value):
        with pytest.raises(ValueError, match="range_m"):
            sig.Target(range_m=value, velocity_mps=0.0, snr_db=20.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_velocity_mps(self, value):
        with pytest.raises(ValueError, match="velocity_mps"):
            sig.Target(range_m=20.0, velocity_mps=value, snr_db=20.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 4000.0, -4000.0])
    def test_snr_db(self, value):
        # 10^400 overflows a float and 10^-400 is 0: neither is a power.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"snr_db {value!r} dB has a linear power"):
                sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=value)

    def test_snr_db_extremes_with_a_power_accepted(self):
        for value in (3000.0, -3000.0):
            assert 0 < sig.db_power(value) < np.inf
            sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=value)


def first_outside_elementwise(params, tgt):
    """The first chirp of the frame the elementwise oracle flags, or None."""
    outside = np.flatnonzero(
        oracles.delay_outside_chirp(params, tgt, np.arange(params.chirps_per_frame)))
    return int(outside[0]) if outside.size else None


class TestFirstChirpOutside:
    def test_matches_the_elementwise_test_on_random_targets(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            p = table1_params(pri_s=rng.uniform(5e-6, 80e-6), chirps=int(rng.integers(1, 3000)))
            reach = C_HALF * p.active_s  # the range whose delay is T_a
            tgt = sig.Target(range_m=rng.uniform(0.01, 1.2) * reach,
                             velocity_mps=rng.choice([-1, 1]) * 10.0 ** rng.uniform(-2, 5),
                             snr_db=20.0)
            assert sig.first_chirp_outside(p, tgt) == first_outside_elementwise(p, tgt)

    @pytest.mark.parametrize("edge", ["zero", "active"])
    def test_matches_the_elementwise_test_at_the_edges(self, edge):
        # Targets a few ulps either side of a delay of exactly 0 or T_a at
        # chirp j, including the frame's last chirp and chirp 0.
        rng = np.random.default_rng(7)
        found = set()
        for _ in range(40):
            p = table1_params(pri_s=rng.uniform(5e-6, 80e-6), chirps=int(rng.integers(2, 3000)))
            last = p.chirps_per_frame - 1
            for j in (0, 1, last, int(rng.integers(0, last + 1))):
                v = rng.uniform(1.0, 400.0)
                if edge == "zero":
                    v, r = -v, j * v * p.pri_s
                else:
                    r = C_HALF * p.active_s - j * v * p.pri_s
                if not r > 0:
                    continue
                for steps in range(-3, 4):
                    tgt = sig.Target(range_m=float(r + steps * math.ulp(r)), velocity_mps=v,
                                     snr_db=20.0)
                    got = sig.first_chirp_outside(p, tgt)
                    assert got == first_outside_elementwise(p, tgt)
                    found.add(got == last)
        assert found == {True, False}  # the frame's last chirp was the first outside

    def test_overflowing_delay_is_outside(self):
        p = table1_params(chirps=2**31)
        tgt = sig.Target(range_m=20.0, velocity_mps=1e300, snr_db=20.0)
        assert sig.first_chirp_outside(p, tgt) == 1
        assert sig.first_chirp_outside(p, replace(tgt, velocity_mps=-1e300)) == 1
        assert sig.first_chirp_outside(p, replace(tgt, velocity_mps=0.0)) is None


class TestTxChirpPhase:
    def test_zero_at_t0(self):
        assert oracles.tx_chirp_phase(table1_params(), 77e9, 0.0) == 0.0

    def test_plugin_value(self):
        p = table1_params()
        t = 1e-6
        expect = 2 * np.pi * (77e9 * t + 0.5 * p.slope * t * t)
        assert oracles.tx_chirp_phase(p, 77e9, t) == pytest.approx(expect)

    def test_monotone_in_t(self):
        p = table1_params()
        t = np.linspace(0, p.active_s * 0.99, 200)
        phase = oracles.tx_chirp_phase(p, 77e9, t)
        assert np.all(np.diff(phase) > 0)

    def test_t_out_of_range(self):
        p = table1_params()
        with pytest.raises(ValueError):
            oracles.tx_chirp_phase(p, 77e9, p.active_s)


class TestCoarseDecompose:
    def test_split(self):
        p = table1_params()
        rbar, eps = sig.coarse_decompose(p, 20.3)
        assert rbar == pytest.approx(20.0)
        assert eps == pytest.approx(0.3)
        assert abs(eps) <= sig.C / (4 * p.subband_hz) + 1e-12


class TestDechirpedEcho:
    def test_static_target_no_hop_constant_tone(self):
        p = table1_params()
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        c0 = oracles.dechirped_echo(p, tgt, 0, 0.0)
        c5 = oracles.dechirped_echo(p, tgt, 5, 0.0)
        np.testing.assert_allclose(c0, c5, atol=1e-12)
        # single tone at beat frequency -f_r: constant modulus
        np.testing.assert_allclose(np.abs(c0), np.abs(c0[0]), rtol=1e-12)

    def test_doppler_frequency_table1(self):
        p = table1_params()
        f_d = -2.0 * (-15.0) * p.pri_s * p.f_c / sig.C
        assert f_d == pytest.approx(0.154)

    def test_range_frequency_table1(self):
        p = table1_params()
        f_r = 2.0 * 20.0 * p.slope / sig.C
        assert f_r == pytest.approx(1.25e6)
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        samples = oracles.dechirped_echo(p, tgt, 0, 0.0)
        # the measured tone frequency equals -f_r
        dphase = np.angle(samples[1:] * np.conj(samples[:-1]))
        measured = np.mean(dphase) * p.adc_hz / (2 * np.pi)
        assert measured == pytest.approx(-f_r, rel=1e-9)

    def test_amplitude_from_snr(self):
        p = table1_params()
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        samples = oracles.dechirped_echo(p, tgt, 0, 0.0, noise_power=2.0)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(200.0)

    def test_beyond_unambiguous_range(self):
        p = table1_params()
        tgt = sig.Target(range_m=3000.0, velocity_mps=0.0, snr_db=20.0)
        with pytest.raises(ValueError):
            oracles.dechirped_echo(p, tgt, 0, 0.0)

    def test_echo_frame_matches_per_chirp(self):
        p = table1_params(chirps=8)
        tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
        hops = np.array([0.0, 150e6, 300e6, 0.0, 750e6, 150e6, 0.0, 600e6])
        frame = oracles.echo_frame(p, tgt, hops, phase0=0.3)
        for k in range(8):
            single = oracles.dechirped_echo(p, tgt, k, hops[k], phase0=0.3)
            np.testing.assert_allclose(frame[:, k], single, atol=1e-9)


class TestDechirpedInterference:
    def test_no_collision_zero(self):
        p = table1_params()
        link = oracles.InterferenceLink(source=1, inr_db=30.0)
        out = oracles.dechirped_interference(p, link, p, 0, False,
                                         np.random.default_rng(0))
        assert np.all(out == 0)

    def test_equal_slopes_constant_modulus_tone(self):
        p = table1_params()
        link = oracles.InterferenceLink(source=1, inr_db=30.0)
        out = oracles.dechirped_interference(p, link, p, 0, True,
                                         np.random.default_rng(0))
        np.testing.assert_allclose(np.abs(out), np.abs(out[0]), rtol=1e-12)
        # zero residual slope: phase is constant
        np.testing.assert_allclose(np.angle(out * np.conj(out[0])), 0.0,
                                   atol=1e-9)

    def test_residual_slope_quadratic_phase_fit(self):
        victim = table1_params(pri_s=20e-6, chirps=512)
        source = table1_params(pri_s=40e-6, chirps=256)
        link = oracles.InterferenceLink(source=1, inr_db=30.0)
        out = oracles.dechirped_interference(victim, link, source, 0, True,
                                         np.random.default_rng(1))
        # fit only samples whose instantaneous frequency is within Nyquist
        # (the residual sweep aliases later in the chirp)
        n_fit = int(0.5 * victim.adc_hz**2 / (victim.slope - source.slope))
        c2 = quadratic_phase_fit(out[:n_fit], victim.adc_hz)
        expect = np.pi * (victim.slope - source.slope)
        assert c2 == pytest.approx(expect, rel=1e-6)

    def test_inr_power_scaling(self):
        p = table1_params()
        link = oracles.InterferenceLink(source=1, inr_db=30.0)
        out = oracles.dechirped_interference(p, link, p, 0, True,
                                         np.random.default_rng(2),
                                         noise_power=1.0)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(1000.0)


class TestComposeReceived:
    def test_empty_zero_noise(self):
        out = oracles.compose_received([], [], 0.0, np.random.default_rng(0))
        assert out.size == 0

    def test_single_echo_no_noise_passthrough(self):
        echo = np.exp(1j * np.linspace(0, 6, 64))
        out = oracles.compose_received([echo], [], 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(out, echo)

    def test_noise_power_concentration(self):
        rng = np.random.default_rng(3)
        out = oracles.compose_received([np.zeros(4096, dtype=complex)], [], 2.0, rng)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(2.0, rel=0.05)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            oracles.compose_received([np.zeros(4)], [np.zeros(5)], 1.0,
                                 np.random.default_rng(0))

    def test_power_additivity(self):
        rng = np.random.default_rng(4)
        n = 8192
        echo = np.sqrt(3.0) * np.exp(2j * np.pi * 0.17 * np.arange(n))
        intf = np.sqrt(5.0) * np.exp(2j * np.pi * 0.31 * np.arange(n)
                                     + 1j * 0.7)
        out = oracles.compose_received([echo], [intf], 2.0, rng)
        assert np.mean(np.abs(out) ** 2) == pytest.approx(10.0, rel=0.05)


class TestTheoreticalSinr:
    def test_reduces_to_snr(self):
        assert oracles.theoretical_sinr(100.0, 0.0, 1.0) == pytest.approx(100.0)

    def test_zero_db_case(self):
        assert oracles.theoretical_sinr(100.0, 90.0, 10.0) == pytest.approx(1.0)

    def test_monotone_in_interference(self):
        vals = [oracles.theoretical_sinr(100.0, i, 1.0) for i in (0.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(ValueError):
            oracles.theoretical_sinr(1.0, 1.0, 0.0)


class TestDetectInterference:
    def test_pure_noise_rarely_flags(self):
        rng = np.random.default_rng(5)
        flags = 0
        for _ in range(1000):
            x = (rng.standard_normal(320) + 1j * rng.standard_normal(320)) \
                * np.sqrt(0.5)
            flag, _, _ = detect(x, 1.0)
            flags += flag
        assert flags <= 10

    def test_interference_at_inr30_detected(self):
        p = table1_params()
        source = table1_params(pri_s=40e-6, chirps=256)
        tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
        link = oracles.InterferenceLink(source=1, inr_db=30.0)
        rng = np.random.default_rng(6)
        detected = 0
        trials = 200
        for k in range(trials):
            echo = oracles.dechirped_echo(p, tgt, 0, 0.0)
            intf = oracles.dechirped_interference(p, link, source, 0, True, rng)
            x = oracles.compose_received([echo], [intf], 1.0, rng)
            flag, _, _ = detect(x, 1.0)
            detected += flag
        assert detected >= 0.99 * trials

    def test_split_is_a_partition(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        flag, clean, intf = detect(x, 0.01)
        assert flag and clean > 0 and intf > 0
        np.testing.assert_allclose(clean + intf, np.mean(np.abs(x) ** 2), rtol=1e-12)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            detect(np.zeros(8, dtype=complex), 1.0, factor=1.0)

    @staticmethod
    def mixed_block():
        """24 echo chirps, every third one interfered, then 16 noise-only chirps."""
        p = table1_params()
        source = table1_params(pri_s=40e-6, chirps=256)
        tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
        link = oracles.InterferenceLink(source=1, inr_db=30.0)
        rng = np.random.default_rng(10)
        block = np.stack([
            oracles.compose_received(
                [oracles.dechirped_echo(p, tgt, k, 0.0)],
                [oracles.dechirped_interference(p, link, source, k, k % 3 == 0, rng)],
                1.0, rng)
            for k in range(24)], axis=1)
        # Noise-only chirps spanning 40 dB make each column's spectral
        # median, and so its threshold, differ from its neighbours'.
        scales = np.logspace(0.0, 2.0, 16)
        noise = (rng.standard_normal((p.n_samples, 16))
                 + 1j * rng.standard_normal((p.n_samples, 16))) * scales
        return np.concatenate([block, noise], axis=1)

    def test_block_equals_per_chirp_calls(self):
        # The simulator detects a whole (N_s, K) block at once; each column
        # must come out as a call on that chirp alone would. The flags are
        # exact; a block's per-column mean adds the samples in another
        # order than a 1-D mean does, so the powers agree to rounding.
        block = self.mixed_block()
        flags, clean, est = detect(block, 1.0)
        assert flags.shape == (40,) and flags.any() and not flags.all()
        for k in range(block.shape[1]):
            flag_k, clean_k, est_k = detect(block[:, k], 1.0)
            assert flags[k] == flag_k
            np.testing.assert_allclose(clean[k], clean_k, rtol=1e-12)
            np.testing.assert_allclose(est[k], est_k, rtol=1e-12)

    def test_powers_equal_sample_split_oracle(self):
        block = self.mixed_block()
        cases = [(x, sig.DEFAULT_DETECTION_FACTOR)
                 for x in [block] + [block[:, k] for k in range(block.shape[1])]]
        # A low factor puts many noise samples next to the threshold, so
        # any change in the median moves some of them across it; the odd
        # length takes the median from a single middle rank.
        rng = np.random.default_rng(12)
        noise = rng.standard_normal((320, 2000)) + 1j * rng.standard_normal((320, 2000))
        cases += [(noise, 1.1), (noise[:319], 1.1)]
        for x, factor in cases:
            flags, clean, intf = detect(x, 1.0, factor)
            ref_flags, ref_clean, ref_est = oracles.detect_interference_samples(x, 1.0, factor)
            np.testing.assert_array_equal(flags, ref_flags)
            np.testing.assert_array_equal(clean, np.mean(np.abs(ref_clean) ** 2, axis=0))
            np.testing.assert_array_equal(intf, np.mean(np.abs(ref_est) ** 2, axis=0))


def estimate(n_subbands, *radars):
    """``estimate_episode_sinr`` of radars, each an ``oracles.ChirpMeasurements``,
    their chirps' subbands, flags and ratios concatenated in order."""
    return sig.estimate_episode_sinr(
        *(np.concatenate([getattr(m, name) for m in radars])
          for name in ("subbands", "flagged", "sinr", "snr")),
        [m.subbands.size for m in radars], n_subbands)


class TestEstimateEpisodeSinr:
    def test_single_clean_chirp(self):
        meas = oracles.ChirpMeasurements(
            subbands=np.array([2]), clean_power=np.array([100.0]),
            interference_power=np.array([0.0]), flagged=np.array([False]),
            noise_power=1.0)
        stats = estimate(6, meas)
        assert stats.sinr_db[0, 2] == pytest.approx(20.0)
        assert stats.snr_db[0, 2] == pytest.approx(20.0)
        assert stats.count[0, 2] == 1

    def test_linear_mean_of_two_chirps(self):
        meas = oracles.ChirpMeasurements(
            subbands=np.array([0, 0]), clean_power=np.array([10.0, 20.0]),
            interference_power=np.array([0.0, 0.0]),
            flagged=np.array([True, True]), noise_power=1.0)
        stats = estimate(2, meas)
        assert stats.sinr_db[0, 0] == pytest.approx(10.0 * np.log10(15.0))

    def test_unplayed_subband_is_nan(self):
        meas = oracles.ChirpMeasurements(
            subbands=np.array([0]), clean_power=np.array([5.0]),
            interference_power=np.array([0.0]), flagged=np.array([False]),
            noise_power=1.0)
        stats = estimate(3, meas)
        assert np.isnan(stats.sinr_db[0, 1]) and np.isnan(stats.sinr_db[0, 2])
        assert stats.count[0, 1] == 0

    def test_flag_split_feeds_snr_and_hit_estimates(self):
        meas = oracles.ChirpMeasurements(
            subbands=np.array([0, 0]), clean_power=np.array([100.0, 100.0]),
            interference_power=np.array([0.0, 900.0]),
            flagged=np.array([False, True]), noise_power=1.0)
        stats = estimate(1, meas)
        assert stats.snr_db[0, 0] == pytest.approx(20.0)
        assert stats.hit_sinr_db[0, 0] == pytest.approx(10.0 * np.log10(100 / 901))
        assert stats.clean_count[0, 0] == 1 and stats.hit_count[0, 0] == 1

    def test_estimator_consistency_with_theory(self):
        # >=100 chirps per subband, fixed conditions: estimate within 1 dB
        p = table1_params()
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        rng = np.random.default_rng(8)
        n_chirps = 120
        clean_p = np.empty(n_chirps)
        intf_p = np.zeros(n_chirps)
        for k in range(n_chirps):
            echo = oracles.dechirped_echo(p, tgt, 0, 0.0)
            x = oracles.compose_received([echo], [], 1.0, rng)
            clean_p[k] = np.mean(np.abs(x) ** 2)
        meas = oracles.ChirpMeasurements(
            subbands=np.zeros(n_chirps, dtype=int), clean_power=clean_p,
            interference_power=intf_p, flagged=np.zeros(n_chirps, dtype=bool),
            noise_power=1.0)
        stats = estimate(1, meas)
        theory = 10.0 * np.log10(oracles.theoretical_sinr(100.0, 0.0, 1.0) + 1.0)
        assert abs(stats.sinr_db[0, 0] - theory) <= 1.0


    def test_stacked_rows_equal_per_radar_oracle(self):
        # Radars with different chirp counts, unplayed subbands, all-flagged
        # and never-flagged radars, and a zero clean power (the floor).
        rng = np.random.default_rng(3)
        meas = []
        for k, flag_share in [(7, 0.5), (40, 1.0), (1, 0.0), (300, 0.3)]:
            clean = rng.exponential(50.0, k)
            clean[0] = 0.0
            meas.append(oracles.ChirpMeasurements(
                subbands=rng.integers(0, 5, k), clean_power=clean,
                interference_power=rng.exponential(500.0, k) * (rng.random(k) < 0.5),
                flagged=rng.random(k) < flag_share, noise_power=1.0))
        got = estimate(6, *meas)
        for i, m in enumerate(meas):
            want = oracles.estimate_episode_sinr(m, 6)
            for name in ("sinr_db", "snr_db", "hit_sinr_db", "count", "clean_count",
                         "hit_count"):
                assert getattr(got, name).shape == (4, 6)
                assert getattr(got, name)[i].tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("subband", [-1, 3])
    def test_subband_outside_the_band_rejected(self, subband):
        # A stacked bin past the band would land in the next radar's row.
        meas = oracles.ChirpMeasurements(
            subbands=np.array([0, subband]), clean_power=np.ones(2),
            interference_power=np.zeros(2), flagged=np.zeros(2, dtype=bool),
            noise_power=1.0)
        with pytest.raises(ValueError, match="subbands must lie"):
            estimate(3, meas, meas)


def assert_block_close(actual, reference, rtol=1e-12):
    """Max deviation within ``rtol`` of the block's largest magnitude.

    Samples are sums of terms up to ~30x the noise; where they cancel, a
    per-element relative bound would measure that cancellation.
    """
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= rtol * np.max(np.abs(reference))


class TestNoiselessBasis:
    """The run-scoped rows against the per-chirp echo and interference oracles."""

    def test_block_equals_per_chirp_oracles(self):
        p = table1_params()
        targets = (sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0),
                   sig.Target(range_m=35.0, velocity_mps=-10.0, snr_db=5.0))
        # The first and last sources share the victim's slope.
        sources = [table1_params(), table1_params(pri_s=40e-6, chirps=256), table1_params()]
        links = [oracles.InterferenceLink(source=j, inr_db=inr)
                 for j, inr in enumerate((30.0, 25.0, 33.0))]
        noise, k0, k = 2.0, 96, 24
        rng = np.random.default_rng(3)
        phases = rng.uniform(0.0, 2.0 * np.pi, 2)
        hops = rng.integers(0, 6, k) * p.subband_hz
        collide = rng.random((3, k)) < 0.6
        rows, gram = sig.noiseless_basis(p, targets, sources, noise)
        # Summed over samples: N_s times each echo's power, N_s for each residual chirp.
        powers = noise * 10.0 ** (np.array([20.0, 5.0]) / 10.0)
        np.testing.assert_allclose(np.diag(gram), p.n_samples * np.r_[powers, 1.0, 1.0, 1.0],
                                   rtol=1e-12)
        # Each link's amplitude on chirp k, drawn as the oracle draws it.
        drawn, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        amps = np.zeros((3, k), dtype=complex)
        for kk in range(k):
            for j, link in enumerate(links):
                if collide[j, kk]:
                    amps[j, kk] = np.sqrt(noise * 10.0 ** (link.inr_db / 10.0)) * np.exp(
                        1j * drawn.uniform(0.0, 2.0 * np.pi))
        slow = [oracles.echo_slow(p, tgt, hops, ph, k0) for tgt, ph in zip(targets, phases)]
        block = rows.T @ np.concatenate([slow, amps])
        ref = np.stack([
            sum(oracles.dechirped_echo(p, tgt, k0 + kk, hops[kk], noise, ph)
                for tgt, ph in zip(targets, phases))
            + sum(oracles.dechirped_interference(p, link, src, kk, collide[j, kk], ref_rng,
                                                 noise)
                  for j, (link, src) in enumerate(zip(links, sources)))
            for kk in range(k)], axis=1)
        assert_block_close(block, ref)
        assert collide.any(axis=1).all() and not collide.all()


    def test_tones_are_the_echo_terms(self):
        # Each target row is its amplitude times its beat tone, bit for bit.
        p = table1_params()
        targets = (sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0),
                   sig.Target(range_m=35.3, velocity_mps=-10.0, snr_db=5.0))
        rows, _ = sig.noiseless_basis(p, targets, [table1_params()], 2.0)
        t = np.arange(p.n_samples) / p.adc_hz
        for row, tgt in zip(rows, targets):
            _, _, f_r, _, amp = oracles.echo_terms(p, tgt, 2.0)
            assert row.tobytes() == (amp * np.exp(-2j * np.pi * f_r * t)).tobytes()

class TestGenieStatistics:
    """The per-chirp powers genie mode draws instead of synthesizing samples."""

    def test_echo_energy_equals_column_norms(self):
        p = table1_params(chirps=64)
        # 0.4 m apart: the fast-time tones are far from orthogonal over one chirp
        targets = (sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0),
                   sig.Target(range_m=20.4, velocity_mps=-10.0, snr_db=14.0))
        phases = (0.3, 2.1)
        hops = np.random.default_rng(4).integers(0, 6, 16) * p.subband_hz
        rows, gram = sig.noiseless_basis(p, targets, [], 2.0)
        assert abs(gram[0, 1]) > 0.5 * np.sqrt(gram[0, 0].real * gram[1, 1].real)
        block = sum(oracles.echo_frame(p, t, hops, noise_power=2.0, phase0=ph, k0=5)
                    for t, ph in zip(targets, phases))
        slow = np.array([oracles.echo_slow(p, t, hops, ph, 5) for t, ph in zip(targets, phases)])
        energy = sig.column_energy(gram[None], slow[None])[0]
        np.testing.assert_allclose(energy, np.sum(np.abs(block) ** 2, axis=0), rtol=1e-9)

    def test_interference_gram_equals_sample_mean(self):
        victim = table1_params()
        # two sources share the victim's slope (b = 1, coherent), one does not
        sources = [table1_params(), table1_params(), table1_params(pri_s=40e-6)]
        rng = np.random.default_rng(9)
        amps = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        bases, gram = sig.noiseless_basis(victim, (), sources, 1.0)
        samples = sum(np.outer(b, a) for b, a in zip(bases, amps))
        power = sig.column_energy(gram[None], amps[None])[0] / victim.n_samples
        np.testing.assert_allclose(power, np.mean(np.abs(samples) ** 2, axis=0), rtol=1e-9)
        link_power = np.sum(np.abs(amps) ** 2, axis=0)
        assert np.max(np.abs(power / link_power - 1.0)) > 0.1

    def test_clean_power_draw_matches_sample_path(self):
        # N = 320 samples per chirp at 20 dB SNR, 20k chirps per path
        p = table1_params()
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        n, noise, draws, chunk = p.n_samples, 1.0, 20_000, 1_000
        hops = np.zeros(chunk)
        _, gram = sig.noiseless_basis(p, (tgt,), [], noise)
        slow = oracles.echo_slow(p, tgt, hops, 0.0, 0)
        energy = sig.column_energy(gram[None], slow[None, None])[0]
        rng = np.random.default_rng(2024)
        drawn = np.concatenate([sig._clean_power_draw(energy, n, noise, rng)
                                for _ in range(draws // chunk)])
        echo = oracles.echo_frame(p, tgt, hops, noise_power=noise)
        sampled = np.concatenate([
            oracles.sampled_genie_powers(echo, np.zeros_like(echo), noise, rng)[0]
            for _ in range(draws // chunk)])
        q = np.linspace(1, 99, 99)
        assert np.max(np.abs(np.percentile(drawn, q) - np.percentile(sampled, q))) < 0.1
        e2 = energy[0]
        mean = noise + e2 / n
        var = (noise / (2 * n)) ** 2 * 2 * (2 * n + 4 * e2 / noise)
        for powers in (drawn, sampled):
            assert np.mean(powers) == pytest.approx(mean, rel=0.03)
            assert np.var(powers) == pytest.approx(var, rel=0.03)


class TestMeasureEpisode:
    """``measure_episode`` against the branch ``run_scenario`` once inlined."""

    K, K0, NOISE = 48, 96, 2.0

    def inputs(self):
        p = table1_params()
        # The first and last sources share the victim's slope and add
        # coherently; chirps hit by two or three sources fix the order in
        # which their interference is summed.
        sources = [table1_params(), table1_params(pri_s=40e-6, chirps=256), table1_params()]
        rng = np.random.default_rng(21)
        weights = rng.uniform(0.2, 1.0, (3, self.K)) * (rng.random((3, self.K)) < 0.5)
        assert ((weights > 0).sum(axis=0) >= 2).any() and not (weights > 0).any(axis=0).all()
        inr = 10.0 ** (np.array([30.0, 25.0, 33.0]) / 10.0)
        amps = np.sqrt(self.NOISE * inr[:, None] * weights) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, weights.shape))
        targets = (sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0),
                   sig.Target(range_m=35.0, velocity_mps=-10.0, snr_db=5.0))
        return (p, targets, rng.uniform(0.0, 2.0 * np.pi, 2), rng.integers(0, 6, self.K),
                weights, amps, sources)

    def measure(self, rng, last, genie=True):
        p, targets, phases, subbands, weights, amps, sources = self.inputs()
        return oracles.radar_measure_episode(
            p, targets, phases, subbands, self.K0, amps,
            *sig.noiseless_basis(p, targets, sources, self.NOISE), self.NOISE, rng,
            genie_flags=(weights > 0).any(axis=0) if genie else None,
            hop_weights=self.hop_weights() if last else None,
            workspace=None if genie else sig.SampleWorkspace((p.n_samples, self.K)))

    def hop_weights(self):
        p, *_, subbands = self.inputs()[:4]
        return sig.hop_sum_weights(p, subbands, -15.0, self.K0)

    def inline(self, rng, genie):
        p, targets, phases, subbands, weights, amps, sources = self.inputs()
        return oracles.measure_episode_inline(
            p, targets, phases, subbands * p.subband_hz, self.K0, self.K,
            sum(weights, np.zeros(self.K)), list(amps), sources, self.NOISE,
            rng, genie, sig.DEFAULT_DETECTION_FACTOR)

    @pytest.mark.parametrize("genie, last", [(True, False), (True, True),
                                             (False, False), (False, True)])
    def test_matches_inline_branch(self, genie, last):
        # One matmul and the Gram forms round differently from the outer
        # products and sample means: equal to 1e-12, not bit for bit. The
        # random draws, and so the generator state, are the same.
        subbands = self.inputs()[3]
        rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        flagged, clean, intf, sums = self.measure(rng_new, last, genie)
        flags, p_clean, p_int, noiseless, samples = self.inline(rng_old, genie)
        np.testing.assert_array_equal(flagged, flags)
        np.testing.assert_allclose(clean, p_clean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(intf, p_int, rtol=1e-12, atol=0)
        assert (sums is None) == (not last)
        if last and not genie:
            assert_block_close(sums, samples @ self.hop_weights())
        elif last:
            # Genie hop sums: the noiseless sums, then the noise of chirp
            # sums on each of the A subbands, real parts then imaginary parts.
            sigma = np.sqrt(self.NOISE / 2.0 * np.bincount(subbands, minlength=6))
            noise = sigma * (rng_old.standard_normal((320, 6))
                             + 1j * rng_old.standard_normal((320, 6)))
            assert_block_close(sums, noiseless @ self.hop_weights() + noise)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert flags.any() and not flags.all()

    def test_hop_sum_normals_follow_the_genie_powers(self):
        # A final genie episode draws its powers as any other does, then
        # 2 N_s A normals for the hop sums.
        p = self.inputs()[0]
        rng, skipped = np.random.default_rng(8), np.random.default_rng(8)
        *meas, sums = self.measure(rng, last=True)
        *ref, none = self.measure(skipped, last=False)
        assert none is None and sums.shape == (p.n_samples, p.n_subbands)
        for got, want in zip(meas, ref):  # flags, clean and interference powers
            np.testing.assert_array_equal(got, want)
        skipped.standard_normal(2 * p.n_samples * p.n_subbands)
        assert rng.bit_generator.state == skipped.bit_generator.state


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the ECDFs."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                         - np.searchsorted(b, grid, side="right") / b.size))


class TestGenieHopSumNoise:
    """Genie hop sums against the hop sums of the oracle's synthesized blocks."""

    TRIALS = 300

    def residuals(self, genie):
        """(trials, N_s, A) hop sums minus their noiseless value, over sigma sqrt(n_h)."""
        episode = TestMeasureEpisode()
        weights = episode.hop_weights()
        rng = np.random.default_rng(17 if genie else 18)
        noiseless = episode.inline(np.random.default_rng(0), True)[3] @ weights
        if genie:
            sums = [episode.measure(rng, last=True)[3] for _ in range(self.TRIALS)]
        else:
            sums = [episode.inline(rng, False)[4] @ weights for _ in range(self.TRIALS)]
        n_h = np.bincount(episode.inputs()[3], minlength=6)
        assert n_h.min() >= 4 and np.unique(n_h).size > 2
        return (np.array(sums) - noiseless) / np.sqrt(episode.NOISE * n_h)

    def test_mean_variance_and_law_match_the_oracle(self):
        genie, oracle = self.residuals(True), self.residuals(False)
        n = self.TRIALS * genie.shape[1]
        for z in (genie, oracle):
            # per column: mean the noiseless sums, variance n_h sigma^2,
            # split evenly between the real and imaginary parts
            assert np.max(np.abs(z.mean(axis=(0, 1)))) < 5.0 / np.sqrt(n)
            np.testing.assert_allclose(np.mean(np.abs(z) ** 2, axis=(0, 1)), 1.0, atol=0.03)
            np.testing.assert_allclose(np.mean(z.real ** 2, axis=(0, 1)), 0.5, atol=0.02)
        # KS at alpha = 0.001 on the normalized real and imaginary parts:
        # genie against the oracle, and genie against N(0, 1/2)
        erf = np.vectorize(math.erf)
        for part in (np.real, np.imag):
            g = np.sort(part(genie).ravel())
            assert ks_distance(g, part(oracle).ravel()) < 1.95 * np.sqrt(2.0 / g.size)
            cdf = 0.5 * (1.0 + erf(g))  # N(0, 1/2): Phi(x sqrt 2)
            steps = np.arange(1, g.size + 1) / g.size
            assert max(np.max(steps - cdf), np.max(cdf - steps + 1.0 / g.size)) \
                < 1.95 / np.sqrt(g.size)


class TestSampleWorkspace:
    """Episodes sharing one ``SampleWorkspace`` measure as calls on their own do."""

    @staticmethod
    def episode(victim, k, seed):
        """measure_episode arguments for a (N_s, k) block of ``victim``."""
        rng = np.random.default_rng(seed)
        sources = [table1_params(), table1_params(pri_s=40e-6, chirps=256)]
        weights = rng.uniform(0.2, 1.0, (2, k)) * (rng.random((2, k)) < 0.4)
        amps = np.sqrt(2.0 * 1e3 * weights) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (2, k)))
        targets = (sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0),
                   sig.Target(range_m=35.0, velocity_mps=-10.0, snr_db=5.0))
        return (victim, targets, rng.uniform(0.0, 2.0 * np.pi, 2), rng.integers(0, 6, k),
                0, amps, *sig.noiseless_basis(victim, targets, sources, 2.0), 2.0), weights

    def test_shared_workspace_equals_fresh_calls(self):
        short, long = table1_params(), table1_params(pri_s=40e-6, chirps=256)
        assert short.n_samples * 512 == long.n_samples * 256
        # (victim, chirps, genie, last): both table1 blocks, a smaller
        # block after them, then final-frame episodes in both modes.
        calls = [(short, 512, False, False), (long, 256, False, False),
                 (short, 48, False, False), (short, 512, False, True),
                 (long, 256, True, True), (short, 48, True, True), (long, 256, False, False)]
        ws = sig.SampleWorkspace((short.n_samples, 512), (long.n_samples, 256))
        for seed, (victim, k, genie, last) in enumerate(calls):
            args, weights = self.episode(victim, k, seed)
            flags = (weights > 0).any(axis=0) if genie else None
            hop_weights = sig.hop_sum_weights(victim, args[3], -15.0) if last else None
            shared, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
            *meas, sums = oracles.radar_measure_episode(*args, shared, genie_flags=flags,
                                              hop_weights=hop_weights, workspace=ws)
            *ref, ref_sums = oracles.radar_measure_episode(
                *args, fresh, genie_flags=flags, hop_weights=hop_weights,
                workspace=sig.SampleWorkspace((victim.n_samples, k)))
            for got, want in zip(meas, ref):  # flags, clean and interference powers
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(sums, ref_sums)
            assert shared.bit_generator.state == fresh.bit_generator.state

    def test_detector_reads_its_samples_only(self):
        # A single chirp and an odd length after a block, in one workspace.
        block = TestDetectInterference.mixed_block()
        ws = sig.SampleWorkspace(block.shape)
        for x in (block, block[:, 3], block[:319], block[:319, 5]):
            before = x.copy()
            got = sig.detect_interference(x, 1.0, workspace=ws)
            for a, b in zip(got, detect(x, 1.0)):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(x, before)


class TestRangeFft:
    def test_tone_peak_bin(self):
        p = table1_params()
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        samples = oracles.dechirped_echo(p, tgt, 0, 0.0)[:, None]
        spec = sig.range_fft(samples)
        f_r = 2.0 * 20.0 * p.slope / sig.C
        assert int(np.argmax(np.abs(spec[:, 0]))) == round(f_r * p.n_samples / p.adc_hz)

    def test_table1_target_bin_20(self):
        p = table1_params()
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        spec = sig.range_fft(oracles.dechirped_echo(p, tgt, 0, 0.0)[:, None])
        assert int(np.argmax(np.abs(spec[:, 0]))) == 20

    def test_zero_input(self):
        assert np.all(sig.range_fft(np.zeros((16, 3), dtype=complex)) == 0)

    def test_parseval(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
        spec = sig.range_fft(x)
        assert np.sum(np.abs(spec) ** 2) == pytest.approx(
            np.sum(np.abs(x) ** 2), rel=1e-9)


def synth_frame(p, tgt, hops, seed=0, noise_power=1.0):
    rng = np.random.default_rng(seed)
    echo = oracles.echo_frame(p, tgt, hops)
    nz = np.sqrt(noise_power / 2) * (
        rng.standard_normal(echo.shape) + 1j * rng.standard_normal(echo.shape))
    return echo + nz


def profile_of(p, frame, subbands, bins, v, eps):
    """The simulator's range path: hop sums at v, their range FFT, the phase product."""
    spectrum = sig.range_fft(frame @ sig.hop_sum_weights(p, subbands, v))
    return sig.range_profile_at_velocity(spectrum, np.arange(p.n_subbands) * p.subband_hz,
                                         bins, eps, p)


class TestFineRangeDoppler:
    def test_no_hop_flat_in_eps(self):
        p = table1_params(chirps=64)
        tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
        subbands = np.zeros(64, dtype=int)
        frame = synth_frame(p, tgt, subbands * p.subband_hz, noise_power=0.0)
        profile = profile_of(p, frame, subbands, [20], -15.0, sig.default_eps_grid(p))
        assert np.ptp(profile.mags_db) < 1e-6

    def test_grid_bounds_enforced(self):
        p = table1_params(chirps=8)
        with pytest.raises(ValueError):
            sig.range_profile_at_velocity(np.zeros((320, 8), dtype=complex),
                                          np.zeros(8), [20], np.array([1.0]), p)

    def test_true_parameters_achieve_argmax(self):
        p = table1_params(chirps=128)
        rng = np.random.default_rng(10)
        hits = 0
        trials = 40
        v_true, eps_true = -15.0, 1.0 / 12.0
        for trial in range(trials):
            tgt = sig.Target(range_m=20.0 + eps_true, velocity_mps=v_true,
                             snr_db=10.0)
            subbands = rng.integers(0, 6, size=128)
            frame = synth_frame(p, tgt, subbands * p.subband_hz, seed=trial)
            v_grid = np.linspace(-20, -10, 21)
            eps_grid = sig.default_eps_grid(p)
            surf = np.stack([profile_of(p, frame, subbands, [20], v, eps_grid).mags_db
                             for v in v_grid])
            vi, ei = np.unravel_index(np.argmax(surf), surf.shape)
            if abs(v_grid[vi] - v_true) <= 0.5 \
                    and abs(eps_grid[ei] - eps_true) <= oracles.fine_bin_m(p) / 2:
                hits += 1
        assert hits >= 0.95 * trials

    def test_single_subband_eps_flat(self):
        p = table1_params(chirps=64)
        tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
        subbands = np.full(64, 2)
        frame = synth_frame(p, tgt, subbands * p.subband_hz, noise_power=0.0)
        profile = profile_of(p, frame, subbands, [20], -15.0, sig.default_eps_grid(p))
        assert np.ptp(profile.mags_db) < 1e-6


class TestSweepMatchesPerBinOracle:
    """The hop-sum filter against the per-bin einsum matched filter."""

    # the two table1 waveforms: K=512 / N_s=320 and K=256 / N_s=640
    WAVEFORMS = [(20e-6, 512), (40e-6, 256)]

    def _frame(self, p, hops, seed):
        tgt = sig.Target(range_m=20.3, velocity_mps=-15.0, snr_db=15.0)
        return synth_frame(p, tgt, hops, seed=seed)

    def _check(self, p, frame, hops, bins, profile_at):
        eps = sig.default_eps_grid(p)
        rfft = sig.range_fft(frame)
        for v in (-15.0, -14.0, 3.0):
            profile = profile_at(v, eps)
            # ascending bins: the profile is in (bin, offset) order
            np.testing.assert_array_equal(
                profile.ranges_m, (bins[:, None] * p.range_bin_m + eps).ravel())
            got = profile.mags_db.reshape(len(bins), eps.size)
            ref = np.stack([oracles.fine_range_doppler(rfft, hops, int(b), np.array([v]),
                                                       eps, p)[0] for b in bins])
            assert np.max(np.abs(got - ref)) <= 1e-9
            assert np.array_equal(np.argmax(got, axis=1), np.argmax(ref, axis=1))
            assert np.argmax(profile.mags_db) == np.argmax(ref)

    @pytest.mark.parametrize("pri_s, chirps", WAVEFORMS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_subband_hops(self, pri_s, chirps, seed):
        # the simulator's path: sums over the A subbands, then their FFT
        p = table1_params(pri_s=pri_s, chirps=chirps)
        rng = np.random.default_rng(40 + seed)
        subbands = rng.integers(0, p.n_subbands, size=chirps)
        frame = self._frame(p, subbands * p.subband_hz, seed)
        bins = np.array([0, 5, 19, 20, 21, 33, p.n_samples // 2 - 1, p.n_samples - 1])
        self._check(p, frame, subbands * p.subband_hz, bins,
                    lambda v, eps: profile_of(p, frame, subbands, bins, v, eps))

    @pytest.mark.parametrize("pri_s, chirps", WAVEFORMS)
    def test_arbitrary_float_hops(self, pri_s, chirps):
        # every chirp its own hop: one sum per chirp
        p = table1_params(pri_s=pri_s, chirps=chirps)
        rng = np.random.default_rng(7)
        hops = rng.uniform(0.0, oracles.total_bandwidth(p), size=chirps)
        frame = self._frame(p, hops, 3)
        bins = np.array([2, 19, 20, 21, 40])
        self._check(p, frame, hops, bins, lambda v, eps: sig.range_profile_at_velocity(
            *oracles.grouped_hop_sums(sig.range_fft(frame), hops, v, p), bins, eps, p))


class TestHopSumWeights:
    @pytest.mark.parametrize("k0", [0, 96])
    def test_match_grouped_template(self, k0):
        # Chirps k0.. of a frame summed into their subbands' columns, as
        # the distinct-hop grouping sums them; unused subbands stay zero.
        p = table1_params()
        subbands = np.random.default_rng(k0).choice([0, 2, 3, 5], size=48)
        frame = synth_frame(p, sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0),
                            subbands * p.subband_hz)
        weights = sig.hop_sum_weights(p, subbands, -15.0, k0)
        ref, hops = oracles.grouped_hop_sums(frame, subbands * p.subband_hz, -15.0, p, k0)
        np.testing.assert_array_equal(hops, np.array([0, 2, 3, 5]) * p.subband_hz)
        sums = frame @ weights
        assert_block_close(sums[:, [0, 2, 3, 5]], ref)
        assert np.all(sums[:, [1, 4]] == 0)
        np.testing.assert_allclose(np.sum(np.abs(weights) ** 2, axis=0),
                                   np.bincount(subbands, minlength=6), rtol=1e-12)


class TestSweepValidation:
    def _args(self):
        p = table1_params(chirps=8)
        spectrum = np.ones((p.n_samples, 8), dtype=complex)
        return p, spectrum, np.zeros(8)

    @pytest.mark.parametrize("bad", [-1, 320, 10_000])
    def test_coarse_bin_outside_fft_rows(self, bad):
        p, spectrum, hops = self._args()
        with pytest.raises(ValueError, match="coarse_bins"):
            sig.range_profile_at_velocity(spectrum, hops, [3, bad], sig.default_eps_grid(p), p)

    @pytest.mark.parametrize("n_hops", [7, 9])
    def test_hop_count_must_match_chirps(self, n_hops):
        # one hop per column of the spectrum
        p, spectrum, _ = self._args()
        with pytest.raises(ValueError, match="hops_hz"):
            sig.range_profile_at_velocity(spectrum, np.zeros(n_hops), [3],
                                          sig.default_eps_grid(p), p)


class TestRangeProfile:
    def _profile(self, hops_choice, seed=0, r=20.0, v=-15.0, snr=20.0,
                 chirps=256):
        p = table1_params(chirps=chirps)
        rng = np.random.default_rng(seed)
        subbands = rng.choice(hops_choice, size=chirps)
        tgt = sig.Target(range_m=r, velocity_mps=v, snr_db=snr)
        frame = synth_frame(p, tgt, subbands * p.subband_hz, seed=seed + 1)
        return profile_of(p, frame, subbands, np.arange(160), v, sig.default_eps_grid(p)), p

    def test_table1_peak_at_truth(self):
        profile, p = self._profile(np.arange(6))
        assert abs(profile.ranges_m[np.argmax(profile.mags_db)] - 20.0) <= oracles.fine_bin_m(p)

    def test_resolution_law_subband_count(self):
        # -3 dB width shrinks with the hopped bandwidth: 1, then contiguous
        # 3-subband, then all 6 subbands.
        widths = {}
        for label, choice in (("one", [0]), ("three", [0, 1, 2]),
                              ("six", list(range(6)))):
            acc = []
            for seed in range(5):
                profile, p = self._profile(np.array(choice), seed=seed,
                                           snr=30.0)
                acc.append(sig.mainlobe_width(profile))
            widths[label] = float(np.median(acc))
        assert widths["six"] < widths["three"] < widths["one"]
        assert widths["three"] / widths["one"] == pytest.approx(1 / 3, rel=0.25)
        assert widths["six"] / widths["one"] == pytest.approx(1 / 6, rel=0.25)

    def test_two_targets_one_fine_bin_apart(self):
        p = table1_params(chirps=512)
        rng = np.random.default_rng(11)
        subbands = rng.integers(0, 6, size=512)
        hops = subbands * p.subband_hz
        t1 = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=25.0)
        t2 = sig.Target(range_m=20.0 + oracles.fine_bin_m(p) * 2, velocity_mps=-15.0,
                        snr_db=25.0)
        echo = oracles.echo_frame(p, t1, hops) + oracles.echo_frame(p, t2, hops)
        nz = np.sqrt(0.5) * (rng.standard_normal(echo.shape)
                             + 1j * rng.standard_normal(echo.shape))
        step = p.coarse_bin_m / 24  # twice default_eps_grid's density
        eps = -p.coarse_bin_m / 2.0 + step * (np.arange(24) + 0.5)
        profile = profile_of(p, echo + nz, subbands, np.arange(18, 24), -15.0, eps)
        # both targets appear as local maxima near their true ranges
        for r_true in (20.0, 20.0 + oracles.fine_bin_m(p) * 2):
            near = np.abs(profile.ranges_m - r_true) <= oracles.fine_bin_m(p) / 2
            far = np.abs(profile.ranges_m - r_true) > oracles.fine_bin_m(p) / 2
            band = (profile.ranges_m > 19.0) & (profile.ranges_m < 21.5)
            assert profile.mags_db[near].max() >= profile.mags_db[far & band].max() - 3.0


class TestMainlobeWidth:
    def test_triangular_peak_interpolated(self):
        r = np.arange(11, dtype=float)
        m = -np.abs(r - 5.0) * 2.0  # 2 dB per meter slope
        profile = sig.FineRangeProfile(ranges_m=r, mags_db=m)
        assert sig.mainlobe_width(profile) == pytest.approx(3.0)
