"""Baseband physics: synthesis, detection, estimation, range processing."""
import numpy as np
import pytest

import hopsim.signal as sig

import oracles


def table1_params(pri_s=20e-6, chirps=512):
    return sig.ChirpParams(f_c=77e9, subband_hz=150e6, n_subbands=6,
                           pri_s=pri_s, active_s=0.8 * pri_s, adc_hz=20e6,
                           chirps_per_frame=chirps)


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
        assert p.total_bandwidth == pytest.approx(900e6)
        assert p.coarse_bin_m == pytest.approx(1.0)
        assert p.fine_bin_m == pytest.approx(1.0 / 6.0)
        assert p.range_bin_m == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            table1_params(pri_s=-1.0)
        with pytest.raises(ValueError):
            sig.ChirpParams(f_c=77e9, subband_hz=150e6, n_subbands=6,
                            pri_s=20e-6, active_s=25e-6, adc_hz=20e6,
                            chirps_per_frame=512)

    def test_hop_offsets(self):
        p = table1_params()
        np.testing.assert_allclose(oracles.hop_offsets_hz(p, np.arange(6)),
                                   np.arange(6) * 150e6)
        assert oracles.subband_start_hz(p, 0) == 77e9


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
        frame = sig.echo_frame(p, tgt, hops, phase0=0.3)
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
            flag, _, _ = sig.detect_interference(x, 1.0)
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
            flag, _, _ = sig.detect_interference(x, 1.0)
            detected += flag
        assert detected >= 0.99 * trials

    def test_split_is_a_partition(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        flag, clean, intf = sig.detect_interference(x, 0.01)
        assert flag and clean > 0 and intf > 0
        np.testing.assert_allclose(clean + intf, np.mean(np.abs(x) ** 2), rtol=1e-12)

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            sig.detect_interference(np.zeros(8, dtype=complex), 1.0, factor=1.0)

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
        flags, clean, est = sig.detect_interference(block, 1.0)
        assert flags.shape == (40,) and flags.any() and not flags.all()
        for k in range(block.shape[1]):
            flag_k, clean_k, est_k = sig.detect_interference(block[:, k], 1.0)
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
            flags, clean, intf = sig.detect_interference(x, 1.0, factor)
            ref_flags, ref_clean, ref_est = oracles.detect_interference_samples(x, 1.0, factor)
            np.testing.assert_array_equal(flags, ref_flags)
            np.testing.assert_array_equal(clean, np.mean(np.abs(ref_clean) ** 2, axis=0))
            np.testing.assert_array_equal(intf, np.mean(np.abs(ref_est) ** 2, axis=0))


class TestEstimateEpisodeSinr:
    def test_single_clean_chirp(self):
        meas = sig.ChirpMeasurements(
            subbands=np.array([2]), clean_power=np.array([100.0]),
            interference_power=np.array([0.0]), flagged=np.array([False]),
            noise_power=1.0)
        stats = sig.estimate_episode_sinr(meas, 6)
        assert stats.sinr_db[2] == pytest.approx(20.0)
        assert stats.snr_db[2] == pytest.approx(20.0)
        assert stats.count[2] == 1

    def test_linear_mean_of_two_chirps(self):
        meas = sig.ChirpMeasurements(
            subbands=np.array([0, 0]), clean_power=np.array([10.0, 20.0]),
            interference_power=np.array([0.0, 0.0]),
            flagged=np.array([True, True]), noise_power=1.0)
        stats = sig.estimate_episode_sinr(meas, 2)
        assert stats.sinr_db[0] == pytest.approx(10.0 * np.log10(15.0))

    def test_db_mean_option(self):
        meas = sig.ChirpMeasurements(
            subbands=np.array([0, 0]), clean_power=np.array([10.0, 1000.0]),
            interference_power=np.array([0.0, 0.0]),
            flagged=np.array([False, False]), noise_power=1.0)
        stats = sig.estimate_episode_sinr(meas, 1, db_average=True)
        assert stats.sinr_db[0] == pytest.approx(20.0)  # mean of 10 and 30 dB

    def test_unplayed_subband_is_nan(self):
        meas = sig.ChirpMeasurements(
            subbands=np.array([0]), clean_power=np.array([5.0]),
            interference_power=np.array([0.0]), flagged=np.array([False]),
            noise_power=1.0)
        stats = sig.estimate_episode_sinr(meas, 3)
        assert np.isnan(stats.sinr_db[1]) and np.isnan(stats.sinr_db[2])
        assert stats.count[1] == 0

    def test_flag_split_feeds_snr_and_hit_estimates(self):
        meas = sig.ChirpMeasurements(
            subbands=np.array([0, 0]), clean_power=np.array([100.0, 100.0]),
            interference_power=np.array([0.0, 900.0]),
            flagged=np.array([False, True]), noise_power=1.0)
        stats = sig.estimate_episode_sinr(meas, 1)
        assert stats.snr_db[0] == pytest.approx(20.0)
        assert stats.hit_sinr_db[0] == pytest.approx(10.0 * np.log10(100 / 901))
        assert stats.clean_count[0] == 1 and stats.hit_count[0] == 1

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
        meas = sig.ChirpMeasurements(
            subbands=np.zeros(n_chirps, dtype=int), clean_power=clean_p,
            interference_power=intf_p, flagged=np.zeros(n_chirps, dtype=bool),
            noise_power=1.0)
        stats = sig.estimate_episode_sinr(meas, 1)
        theory = 10.0 * np.log10(oracles.theoretical_sinr(100.0, 0.0, 1.0) + 1.0)
        assert abs(stats.sinr_db[0] - theory) <= 1.0


class TestGenieStatistics:
    """The per-chirp powers genie mode draws instead of synthesizing samples."""

    def test_echo_energy_equals_column_norms(self):
        p = table1_params(chirps=64)
        # 0.4 m apart: the fast-time tones are far from orthogonal over one chirp
        targets = (sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0),
                   sig.Target(range_m=20.4, velocity_mps=-10.0, snr_db=14.0))
        phases = (0.3, 2.1)
        hops = np.random.default_rng(4).integers(0, 6, 16) * p.subband_hz
        fast = [sig._echo_factors(p, t, hops, 2.0, ph, 5)[0] for t, ph in zip(targets, phases)]
        assert abs(np.vdot(*fast)) > 0.5 * np.linalg.norm(fast[0]) * np.linalg.norm(fast[1])
        block = sum(sig.echo_frame(p, t, hops, noise_power=2.0, phase0=ph, k0=5)
                    for t, ph in zip(targets, phases))
        energy = sig._echo_energy(p, targets, phases, hops, 2.0, 5)
        np.testing.assert_allclose(energy, np.sum(np.abs(block) ** 2, axis=0), rtol=1e-9)

    def test_interference_gram_equals_sample_mean(self):
        victim = table1_params()
        # two sources share the victim's slope (b = 1, coherent), one does not
        sources = [table1_params(), table1_params(), table1_params(pri_s=40e-6)]
        rng = np.random.default_rng(9)
        amps = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
        bases, gram = sig.interference_bases(victim, sources)
        samples = sum(np.outer(b, a) for b, a in zip(bases, amps))
        power = sig._column_energy(gram, amps)
        np.testing.assert_allclose(power, np.mean(np.abs(samples) ** 2, axis=0), rtol=1e-9)
        link_power = np.sum(np.abs(amps) ** 2, axis=0)
        assert np.max(np.abs(power / link_power - 1.0)) > 0.1

    def test_clean_power_draw_matches_sample_path(self):
        # N = 320 samples per chirp at 20 dB SNR, 20k chirps per path
        p = table1_params()
        tgt = sig.Target(range_m=20.0, velocity_mps=0.0, snr_db=20.0)
        n, noise, draws, chunk = p.n_samples, 1.0, 20_000, 1_000
        hops = np.zeros(chunk)
        energy = sig._echo_energy(p, (tgt,), (0.0,), hops, noise, 0)
        rng = np.random.default_rng(2024)
        drawn = np.concatenate([sig._clean_power_draw(energy, n, noise, rng)
                                for _ in range(draws // chunk)])
        echo = sig.echo_frame(p, tgt, hops, noise_power=noise)
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
                weights, amps, *sig.interference_bases(p, sources))

    @pytest.mark.parametrize("genie, last", [(True, False), (True, True),
                                             (False, False), (False, True)])
    def test_matches_inline_branch(self, genie, last):
        p, targets, phases, subbands, weights, amps, bases, gram = self.inputs()
        rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        meas, samples = sig.measure_episode(
            p, targets, phases, subbands, self.K0, amps, bases, gram, self.NOISE, rng_new,
            sampled=last, genie_flags=(weights > 0).any(axis=0) if genie else None)
        flags, p_clean, p_int, ref_samples = oracles.measure_episode_inline(
            p, targets, phases, subbands * p.subband_hz, self.K0, self.K,
            sum(weights, np.zeros(self.K)), list(amps), list(bases), gram, self.NOISE,
            rng_old, genie, last, sig.DEFAULT_DETECTION_FACTOR)
        np.testing.assert_array_equal(meas.subbands, subbands)
        np.testing.assert_array_equal(meas.flagged, flags)
        np.testing.assert_array_equal(meas.clean_power, p_clean)
        np.testing.assert_array_equal(meas.interference_power, p_int)
        assert meas.noise_power == self.NOISE
        assert (samples is None) == (genie and not last)
        if samples is not None:
            np.testing.assert_array_equal(samples, ref_samples)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert flags.any() and not flags.all()


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
    echo = sig.echo_frame(p, tgt, hops)
    nz = np.sqrt(noise_power / 2) * (
        rng.standard_normal(echo.shape) + 1j * rng.standard_normal(echo.shape))
    return echo + nz


class TestFineRangeDoppler:
    def test_no_hop_flat_in_eps(self):
        p = table1_params(chirps=64)
        tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
        hops = np.zeros(64)
        frame = synth_frame(p, tgt, hops, noise_power=0.0)
        rfft = sig.range_fft(frame)
        eps = sig.default_eps_grid(p)
        surf = sig.sweep_coarse_bins(rfft, hops, [20], np.array([-15.0]), eps, p).mags_db[0]
        assert np.ptp(surf[0]) < 1e-6

    def test_grid_bounds_enforced(self):
        p = table1_params(chirps=8)
        with pytest.raises(ValueError):
            sig.sweep_coarse_bins(np.zeros((320, 8), dtype=complex),
                                  np.zeros(8), [20], np.array([0.0]),
                                  np.array([1.0]), p)

    def test_true_parameters_achieve_argmax(self):
        p = table1_params(chirps=128)
        rng = np.random.default_rng(10)
        hits = 0
        trials = 40
        v_true, eps_true = -15.0, 1.0 / 12.0
        for trial in range(trials):
            tgt = sig.Target(range_m=20.0 + eps_true, velocity_mps=v_true,
                             snr_db=10.0)
            hops = rng.integers(0, 6, size=128) * p.subband_hz
            frame = synth_frame(p, tgt, hops, seed=trial)
            rfft = sig.range_fft(frame)
            v_grid = np.linspace(-20, -10, 21)
            eps_grid = sig.default_eps_grid(p)
            surf = sig.sweep_coarse_bins(rfft, hops, [20], v_grid, eps_grid, p).mags_db[0]
            vi, ei = np.unravel_index(np.argmax(surf), surf.shape)
            if abs(v_grid[vi] - v_true) <= 0.5 and abs(eps_grid[ei] - eps_true) <= p.fine_bin_m / 2:
                hits += 1
        assert hits >= 0.95 * trials

    def test_single_subband_eps_flat(self):
        p = table1_params(chirps=64)
        tgt = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=20.0)
        hops = np.full(64, 2 * p.subband_hz)
        frame = synth_frame(p, tgt, hops, noise_power=0.0)
        rfft = sig.range_fft(frame)
        surf = sig.sweep_coarse_bins(rfft, hops, [20], np.array([-15.0]),
                                     sig.default_eps_grid(p), p).mags_db[0]
        assert np.ptp(surf[0]) < 1e-6


class TestSweepMatchesPerBinOracle:
    """The grouped sweep against the per-bin einsum matched filter."""

    # the two table1 waveforms: K=512 / N_s=320 and K=256 / N_s=640
    WAVEFORMS = [(20e-6, 512), (40e-6, 256)]

    def _frame(self, p, hops, seed):
        tgt = sig.Target(range_m=20.3, velocity_mps=-15.0, snr_db=15.0)
        return sig.range_fft(synth_frame(p, tgt, hops, seed=seed))

    def _check(self, p, rfft, hops, bins):
        v_grid = np.array([-15.0, -14.0, 3.0])
        eps = sig.default_eps_grid(p)
        surf = sig.sweep_coarse_bins(rfft, hops, bins, v_grid, eps, p)
        ref = np.stack([oracles.fine_range_doppler(rfft, hops, int(b), v_grid, eps, p)
                        for b in bins])
        assert surf.mags_db.shape == ref.shape == (len(bins), 3, eps.size)
        assert np.max(np.abs(surf.mags_db - ref)) <= 1e-9
        flat = surf.mags_db.reshape(len(bins), -1)
        assert np.array_equal(np.argmax(flat, axis=1),
                              np.argmax(ref.reshape(len(bins), -1), axis=1))
        oracle_surf = sig.RangeVelocitySurface(
            coarse_bins=surf.coarse_bins, v_grid=surf.v_grid, eps_grid=surf.eps_grid,
            mags_db=ref, range_bin_m=surf.range_bin_m)
        for v in v_grid:
            got = sig.range_profile_at_velocity(surf, v)
            want = sig.range_profile_at_velocity(oracle_surf, v)
            assert got.coarse_bin == want.coarse_bin
            assert np.argmax(got.mags_db) == np.argmax(want.mags_db)

    @pytest.mark.parametrize("pri_s, chirps", WAVEFORMS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_subband_hops(self, pri_s, chirps, seed):
        p = table1_params(pri_s=pri_s, chirps=chirps)
        rng = np.random.default_rng(40 + seed)
        hops = rng.integers(0, p.n_subbands, size=chirps) * p.subband_hz
        rfft = self._frame(p, hops, seed)
        bins = np.array([0, 5, 19, 20, 21, 33, p.n_samples // 2 - 1, p.n_samples - 1])
        self._check(p, rfft, hops, bins)

    @pytest.mark.parametrize("pri_s, chirps", WAVEFORMS)
    def test_arbitrary_float_hops(self, pri_s, chirps):
        # every chirp its own hop: one group per chirp
        p = table1_params(pri_s=pri_s, chirps=chirps)
        rng = np.random.default_rng(7)
        hops = rng.uniform(0.0, p.total_bandwidth, size=chirps)
        rfft = self._frame(p, hops, 3)
        self._check(p, rfft, hops, np.array([2, 19, 20, 21, 40]))


class TestSweepValidation:
    def _args(self):
        p = table1_params(chirps=8)
        rfft = np.ones((p.n_samples, 8), dtype=complex)
        return p, rfft, np.zeros(8)

    @pytest.mark.parametrize("bad", [-1, 320, 10_000])
    def test_coarse_bin_outside_fft_rows(self, bad):
        p, rfft, hops = self._args()
        with pytest.raises(ValueError, match="coarse_bins"):
            sig.sweep_coarse_bins(rfft, hops, [3, bad], np.array([0.0]),
                                  sig.default_eps_grid(p), p)

    @pytest.mark.parametrize("n_hops", [7, 9])
    def test_hop_count_must_match_chirps(self, n_hops):
        p, rfft, _ = self._args()
        with pytest.raises(ValueError, match="hops_hz"):
            sig.sweep_coarse_bins(rfft, np.zeros(n_hops), [3], np.array([0.0]),
                                  sig.default_eps_grid(p), p)


class TestRangeProfile:
    def _profile(self, hops_choice, seed=0, r=20.0, v=-15.0, snr=20.0,
                 chirps=256):
        p = table1_params(chirps=chirps)
        rng = np.random.default_rng(seed)
        hops = rng.choice(hops_choice, size=chirps) * p.subband_hz
        tgt = sig.Target(range_m=r, velocity_mps=v, snr_db=snr)
        frame = synth_frame(p, tgt, hops, seed=seed + 1)
        rfft = sig.range_fft(frame)
        surf = sig.sweep_coarse_bins(rfft, hops, np.arange(160),
                                     np.array([v]), sig.default_eps_grid(p), p)
        return sig.range_profile_at_velocity(surf, v), p

    def test_table1_peak_at_truth(self):
        profile, p = self._profile(np.arange(6))
        assert abs(profile.ranges_m[np.argmax(profile.mags_db)] - 20.0) <= p.fine_bin_m

    def test_off_grid_velocity_rejected(self):
        profile, p = self._profile(np.arange(6))
        surf = sig.RangeVelocitySurface(
            coarse_bins=np.array([20]), v_grid=np.array([-15.0]),
            eps_grid=np.array([0.0]), mags_db=np.zeros((1, 1, 1)),
            range_bin_m=1.0)
        with pytest.raises(ValueError):
            sig.range_profile_at_velocity(surf, -14.0)

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
        hops = rng.integers(0, 6, size=512) * p.subband_hz
        t1 = sig.Target(range_m=20.0, velocity_mps=-15.0, snr_db=25.0)
        t2 = sig.Target(range_m=20.0 + p.fine_bin_m * 2, velocity_mps=-15.0,
                        snr_db=25.0)
        echo = sig.echo_frame(p, t1, hops) + sig.echo_frame(p, t2, hops)
        nz = np.sqrt(0.5) * (rng.standard_normal(echo.shape)
                             + 1j * rng.standard_normal(echo.shape))
        rfft = sig.range_fft(echo + nz)
        step = p.coarse_bin_m / 24  # twice default_eps_grid's density
        eps = -p.coarse_bin_m / 2.0 + step * (np.arange(24) + 0.5)
        surf = sig.sweep_coarse_bins(rfft, hops, np.arange(18, 24),
                                     np.array([-15.0]), eps, p)
        profile = sig.range_profile_at_velocity(surf, -15.0)
        # both targets appear as local maxima near their true ranges
        for r_true in (20.0, 20.0 + p.fine_bin_m * 2):
            near = np.abs(profile.ranges_m - r_true) <= p.fine_bin_m / 2
            far = np.abs(profile.ranges_m - r_true) > p.fine_bin_m / 2
            band = (profile.ranges_m > 19.0) & (profile.ranges_m < 21.5)
            assert profile.mags_db[near].max() >= profile.mags_db[far & band].max() - 3.0


class TestMainlobeWidth:
    def test_triangular_peak_interpolated(self):
        r = np.arange(11, dtype=float)
        m = -np.abs(r - 5.0) * 2.0  # 2 dB per meter slope
        profile = sig.FineRangeProfile(ranges_m=r, mags_db=m, coarse_bin=5,
                                       velocity_mps=0.0)
        assert sig.mainlobe_width(profile) == pytest.approx(3.0)
