"""Command-line layer tests: config parsing, artifact emission, report."""

import json

import numpy as np
import pytest
import yaml

from hopsim.cli import (
    ConfigError,
    ReportError,
    RunManifest,
    _parse_seeds,
    _write_joint_csv,
    cmd_report,
    cmd_run,
    main,
    parse_config,
    render_config,
)

from hopsim.game import empirical_joint
from hopsim.sim import run_scenario

from oracles import (
    bundled_config_path,
    cmd_run_collect_then_emit,
    dense_mass,
    joint_from_dense,
    write_joint_csv_rows,
)

SMALL_CFG = """
radars:
  - carrier_hz: 77.0e+9
    subband_hz: 150.0e+6
    subbands: 6
    pri_s: 20.0e-6
    adc_hz: 2.0e+6
    chirps_per_frame: 64
    policy: uniform
  - carrier_hz: 77.0e+9
    subband_hz: 150.0e+6
    subbands: 6
    pri_s: 40.0e-6
    adc_hz: 2.0e+6
    chirps_per_frame: 32
    policy: noregret
    policy_params:
      c_eta: 0.4
      c_gamma: 0.1
      baseline_delta_db: 1.0
targets:
  - radar: 1
    range_m: 20.0
    velocity_mps: -15.0
    snr_db: 20.0
  - radar: 2
    range_m: 20.0
    snr_db: 20.0
links:
  - victim: 1
    source: 2
    inr_db: 30.0
  - victim: 2
    source: 1
    inr_db: 30.0
run:
  frames: 2
  seed: 0
"""


class TestParseConfig:
    def test_small_document(self):
        cfg = parse_config(SMALL_CFG)
        assert cfg.n_radars == 2
        assert cfg.n_subbands == 6
        assert cfg.frames == 2
        assert cfg.radars[1].policy == "noregret"
        assert cfg.radars[1].policy_params["c_eta"] == pytest.approx(0.4)
        # 1-based YAML indices become 0-based internally
        assert (cfg.links[0].victim, cfg.links[0].source) == (0, 1)
        # default active time is 80% of the PRI
        assert cfg.radars[0].chirp.active_s == pytest.approx(16e-6)
        assert cfg.radars[1].targets[0].velocity_mps == 0.0

    def test_round_trip_through_render(self):
        cfg = parse_config(SMALL_CFG)
        again = parse_config(render_config(cfg))
        assert again == cfg

    def test_bundled_table1(self):
        path = bundled_config_path("table1")
        cfg = parse_config(path.read_text())
        assert cfg.frames == 50
        assert cfg.genie_detection is True
        assert [r.chirp.chirps_per_frame for r in cfg.radars] == [512, 256]
        assert all(r.policy == "noregret" for r in cfg.radars)
        assert sorted((l.victim, l.source) for l in cfg.links) == [(0, 1), (1, 0)]
        assert all(l.inr_db == 30.0 for l in cfg.links)
        assert all(t.range_m == 20.0 and t.velocity_mps == -15.0
                   for r in cfg.radars for t in r.targets)

    def test_collects_all_errors(self):
        bad = """
radars:
  - carrier_hz: 77.0e+9
    subbands: 6
    chirps_per_frame: 64
targets:
  - radar: 1
    range_m: -5.0
    snr_db: 20.0
"""
        with pytest.raises(ConfigError) as err:
            parse_config(bad)
        msgs = err.value.messages
        assert any("subband_hz" in m for m in msgs)
        assert any("pri_s" in m for m in msgs)
        assert any("targets[1]" in m for m in msgs)

    def test_not_yaml(self):
        with pytest.raises(ConfigError):
            parse_config(": {{{")
        with pytest.raises(ConfigError):
            parse_config("- just\n- a list\n")

    def test_scenario_invariants_surface_as_config_errors(self):
        doc = yaml.safe_load(SMALL_CFG)
        doc["run"]["episodes_per_frame"] = 3   # 64 % 3 != 0
        with pytest.raises(ConfigError) as err:
            parse_config(yaml.safe_dump(doc))
        assert any("not divisible" in m for m in err.value.messages)


class TestParseSeeds:
    def test_count_form(self):
        assert _parse_seeds("4") == [0, 1, 2, 3]

    def test_list_form(self):
        assert _parse_seeds("0, 5,9") == [0, 5, 9]

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            _parse_seeds("")
        with pytest.raises(ValueError):
            _parse_seeds("0")
        with pytest.raises(ValueError, match="non-negative"):
            _parse_seeds("-1,2")

    def test_rejects_repeated_seed(self):
        with pytest.raises(ValueError, match="seed 3 is repeated"):
            _parse_seeds("3,3")
        with pytest.raises(ValueError, match="seed 7 is repeated"):
            _parse_seeds("7, 2, 9, 07")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = parse_config(SMALL_CFG)
    manifest = cmd_run(config, out, [0, 1])
    return out, manifest


class TestCmdRun:
    def test_layout_and_row_counts(self, run_dir):
        out, manifest = run_dir
        assert manifest.seeds == [0, 1]
        for seed in (0, 1):
            seed_dir = out / f"seed_{seed}"
            strategies = (seed_dir / "strategies.csv").read_text().splitlines()
            assert strategies[0] == "episode,radar,subband,probability"
            assert len(strategies) == 1 + 2 * 2 * 6     # episodes*radars*subbands
            interference = (seed_dir / "interference.csv").read_text().splitlines()
            assert len(interference) == 1 + 2 * 2
            joint = (seed_dir / "joint_dist.csv").read_text().splitlines()
            assert joint[0] == "joint_action,mass"
            # support rows only (at most 6**2), in C order, each with positive mass
            labels = [tuple(map(int, row.split(",")[0].split("-"))) for row in joint[1:]]
            assert labels == sorted(set(labels)) and 1 <= len(labels) <= 36
            assert all(float(row.split(",")[1]) > 0.0 for row in joint[1:])
            assert (seed_dir / "profile_uniform.csv").is_file()
            assert (seed_dir / "profile_noregret.csv").is_file()

    def test_joint_distribution_sums_to_one(self, run_dir):
        out, _ = run_dir
        rows = (out / "seed_0" / "joint_dist.csv").read_text().splitlines()[1:]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_manifest_checksums_match_files(self, run_dir):
        out, manifest = run_dir
        import hashlib
        for rel, digest in manifest.files.items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out, manifest = run_dir
        again = cmd_run(parse_config(SMALL_CFG), tmp_path, [0])
        for rel in again.files:
            assert (tmp_path / rel).read_bytes() == (out / rel).read_bytes()

    def test_manifest_loads_back(self, run_dir):
        out, manifest = run_dir
        loaded = RunManifest.load(out)
        assert loaded.seeds == manifest.seeds
        assert loaded.files == manifest.files
        assert loaded.config == yaml.safe_load(render_config(parse_config(SMALL_CFG)))


    def test_emitting_per_seed_keeps_the_manifest(self, tmp_path, monkeypatch):
        # Seeds are emitted as their runs finish, on two threads, in the
        # given (unsorted) order; the result equals emitting after all runs.
        monkeypatch.setenv("HOPSIM_THREADS", "2")
        config = parse_config(SMALL_CFG)
        seeds = [2, 0, 1]
        got = cmd_run(config, tmp_path / "streamed", seeds)
        expected = cmd_run_collect_then_emit(config, tmp_path / "collected", seeds)
        assert got.seeds == expected.seeds == seeds
        assert list(got.files) == list(expected.files)
        assert got.files == expected.files and got.summary == expected.summary
        assert ((tmp_path / "streamed" / "manifest.json").read_bytes()
                == (tmp_path / "collected" / "manifest.json").read_bytes())
        for rel in got.files:
            assert ((tmp_path / "streamed" / rel).read_bytes()
                    == (tmp_path / "collected" / rel).read_bytes())


class TestJointCsv:
    """The support writer equals the per-row writer with zero-mass rows dropped."""

    def assert_same_bytes(self, tmp_path, joint):
        _write_joint_csv(tmp_path / "support.csv", joint)
        write_joint_csv_rows(tmp_path / "rows.csv", dense_mass(joint))
        got = (tmp_path / "support.csv").read_text()
        dense = (tmp_path / "rows.csv").read_text().splitlines(keepends=True)
        nonzero = [line for line in dense[1:] if float(line.split(",")[1]) != 0.0]
        assert got == dense[0] + "".join(nonzero)
        return got.splitlines()

    @pytest.mark.parametrize("n,a", [(1, 4), (2, 6), (3, 12)])
    def test_random_joints(self, tmp_path, n, a):
        rng = np.random.default_rng(10 * n + a)
        joint = empirical_joint(rng.integers(0, a, (n, 500)).T, a)
        lines = self.assert_same_bytes(tmp_path, joint)
        assert len(lines) == 1 + joint.mass.size
        assert lines[0] == "joint_action,mass"
        if n == 3:  # two-digit labels such as "10-1-12"
            assert any(max(map(int, line.split(",")[0].split("-"))) >= 10 for line in lines[1:])
        else:
            assert len(lines) == 1 + a**n  # 500 steps play every joint action

    def test_exponent_and_non_dyadic_masses(self, tmp_path):
        mass = np.zeros((3, 3))
        mass[0, 1] = 1e-05
        mass[1, 0] = mass[2, 2] = 1.0 / 3.0
        mass[0, 2] = 1.0 - mass.sum()
        mass[2, 1] = 7e-300
        lines = self.assert_same_bytes(tmp_path, joint_from_dense(mass))
        assert lines[1] == "1-2,1e-05"
        assert lines[3] == "2-1,0.3333333333333333"
        assert lines[4] == "3-2,7e-300"

    def test_signed_zero_keeps_its_text(self, tmp_path):
        # The per-row writer prints -0.0 and 0.0 as such; both are zero
        # mass, so neither row is in the support.
        mass = np.array([[0.5, -0.0], [0.0, 0.5]])
        write_joint_csv_rows(tmp_path / "rows.csv", mass)
        assert (tmp_path / "rows.csv").read_text().splitlines()[2:4] == ["1-2,-0.0", "2-1,0.0"]
        lines = self.assert_same_bytes(tmp_path, joint_from_dense(mass))
        assert lines[1:] == ["1-1,0.5", "2-2,0.5"]

    def test_real_scenario_joint(self, tmp_path):
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"].append(dict(doc["radars"][1]))
        doc["targets"].append(dict(doc["targets"][1], radar=3))
        doc["links"].append({"victim": 3, "source": 1, "inr_db": 20.0})
        joint = run_scenario(parse_config(yaml.safe_dump(doc))).joint_distribution
        assert joint.n_players == 3 and 6 < joint.mass.size < 6**3
        self.assert_same_bytes(tmp_path, joint)


class TestReport:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ReportError):
            RunManifest.load(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{\"seeds\": [0]}")
        with pytest.raises(ReportError):
            RunManifest.load(tmp_path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: doc["seeds"].append(1), "missing or malformed summary entry '1'"),
        (lambda doc: doc["summary"]["0"].pop("cce_gap_db"), "summary entry 'cce_gap_db'"),
        (lambda doc: doc["summary"]["0"]["mainlobe_width_m"].update(ghost=1.0),
         "seed 0 has a mainlobe width for unrun policy 'ghost'"),
    ])
    def test_report_rejects_inconsistent_summary(self, tmp_path, capsys, corrupt, message):
        cmd_run(parse_config(SMALL_CFG), tmp_path, [0])
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        assert main(["report", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"corrupt manifest {path}" in err and message in err

    def test_report_table(self, tmp_path):
        cmd_run(parse_config(SMALL_CFG), tmp_path, [0])
        text = cmd_report([tmp_path])
        lines = text.splitlines()
        assert "policy" in lines[0]
        body = {ln.split()[0] for ln in lines[1:]}
        assert body == {"uniform", "noregret"}

    def test_report_requires_directories(self):
        with pytest.raises(ValueError):
            cmd_report([])


class TestMainExitCodes:
    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["run", "--config", "x"]) == 1   # missing --out

    def test_bad_seed_spec(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seeds", "zero"]) == 1

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seeds=-1,2"]) == 1
        assert "--seeds: seeds must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_is_usage_error(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("HOPSIM_THREADS", threads)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert (f"HOPSIM_THREADS must be a positive integer, got {threads!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_repeated_seed_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seeds", "3,3"]) == 1
        assert "--seeds: seed 3 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: not UTF-8 text" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_invalid_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("radars: []\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_manifest_dir(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 3

    def test_successful_run_and_report(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["report", str(out)]) == 0
        assert "policy" in capsys.readouterr().out


def crowd_doc(n_radars, policy, subbands=6):
    """SMALL_CFG's first radar repeated n times under one policy, no links."""
    doc = yaml.safe_load(SMALL_CFG)
    params = {"noregret": doc["radars"][1]["policy_params"], "nash": {"explore_episodes": 1}}
    doc["radars"] = [dict(doc["radars"][0], subbands=subbands, policy=policy,
                          policy_params=params[policy])] * n_radars
    doc["targets"] = [dict(doc["targets"][0], radar=r + 1) for r in range(n_radars)]
    del doc["links"]
    return doc


def exit_code_and_errors(tmp_path, capsys, doc):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


class TestStrictConfig:
    """Every config problem exits with code 2 and names its field."""

    @pytest.mark.parametrize("section,field,value", [
        ("run", "genie_detection", "false"),
        ("run", "db_average", "true"),
        ("run", "db_average", 1),
        ("run", "frames", 2.7),
        ("run", "frames", 2.0),
        ("run", "frames", True),
        ("run", "seed", "3"),
        ("radars", "subbands", 6.5),
        ("radars", "chirps_per_frame", False),
        ("radars", "pri_s", True),
        ("targets", "radar", 1.5),
        ("links", "victim", "1"),
    ])
    def test_mistyped_field_rejected(self, tmp_path, capsys, section, field, value):
        doc = yaml.safe_load(SMALL_CFG)
        if section == "run":
            doc["run"][field] = value
            ctx = "run"
        else:
            doc[section][0][field] = value
            ctx = f"{section}[1]"
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"{ctx}: field {field!r}" in err

    @pytest.mark.parametrize("section,field,value", [
        ("links", "inr_db", float("nan")),
        ("targets", "velocity_mps", float("nan")),
        ("targets", "snr_db", float("-inf")),
        ("radars", "adc_hz", float("inf")),
        ("run", "noise_power", float("inf")),
        ("run", "detection_factor", "nan"),
    ])
    def test_non_finite_float_rejected(self, tmp_path, capsys, section, field, value):
        doc = yaml.safe_load(SMALL_CFG)
        if section == "run":
            doc["run"][field] = value
            ctx = "run"
        else:
            doc[section][0][field] = value
            ctx = f"{section}[1]"
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"{ctx}: field {field!r} must be finite" in err

    def test_noregret_needs_two_subbands(self, tmp_path, capsys):
        doc = yaml.safe_load(SMALL_CFG)
        for radar in doc["radars"]:
            radar["subbands"] = 1
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert "radars[2]: noregret policy needs at least two subbands" in err
        assert "radars[1]" not in err  # a uniform radar may use one subband

    def test_negative_run_seed_rejected(self, tmp_path, capsys):
        doc = yaml.safe_load(SMALL_CFG)
        doc["run"]["seed"] = -1
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert "run.seed: -1 must be non-negative" in err

    @pytest.mark.parametrize("n_radars,ok", [(8, True), (10, False)])
    def test_joint_action_space_guard(self, n_radars, ok):
        # Nash radars solve dense game tables: 6**8 joint actions fit;
        # 6**10 would allocate about 4.8 GB, so it is rejected before
        # anything runs.
        doc = crowd_doc(n_radars, "nash")
        if ok:
            assert parse_config(yaml.safe_dump(doc)).n_radars == n_radars
        else:
            with pytest.raises(ConfigError) as err:
                parse_config(yaml.safe_dump(doc))
            assert err.value.messages == [
                "radars: 10 radars on 6 subbands give 60466176 joint actions, "
                "above the 10000000 the dense game tables allow"]

    @pytest.mark.parametrize("n_radars,subbands,ok", [
        (8, 6, True), (21, 2, True), (22, 2, False), (23, 2, False)])
    def test_table_cell_guard(self, tmp_path, capsys, n_radars, subbands, ok):
        # n * A**n table cells: 8 nash radars on 6 subbands hold 1.3e7;
        # 22 on 2 subbands pass the joint-action guard (2**22 < 1e7) but
        # would hold 9.2e7.
        doc = crowd_doc(n_radars, "nash", subbands)
        if ok:
            assert parse_config(yaml.safe_dump(doc)).n_radars == n_radars
            return
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        cells = n_radars * subbands**n_radars
        assert (f"radars: {n_radars} radars on {subbands} subbands give dense game "
                f"tables of {cells} cells, above the 50000000 allowed") in err
        assert not (tmp_path / "o").exists()

    def test_dense_table_guards_apply_only_with_nash(self):
        # noregret crowds are evaluated per link and hold no dense table.
        assert parse_config(yaml.safe_dump(crowd_doc(16, "noregret"))).n_radars == 16
        doc = crowd_doc(16, "noregret")
        doc["radars"][5] = crowd_doc(1, "nash")["radars"][0]
        with pytest.raises(ConfigError) as err:
            parse_config(yaml.safe_dump(doc))
        assert err.value.messages == [
            "radars: 16 radars on 6 subbands give 2821109907456 joint actions, "
            "above the 10000000 the dense game tables allow"]

    def test_frame_guard(self, tmp_path, capsys):
        # 10**9 frames of table1 would record 6e12 per-step cells.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["run"]["frames"] = 10**9
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert ("run.frames: 1000000000 frames give 6144000000000 per-step cells for "
                "2 radars on 6 subbands, above the 50000000 allowed") in err
        assert not (tmp_path / "o").exists()

    def test_sample_block_guard(self, tmp_path, capsys):
        # At 100 GHz sampling, radar 2's 32 us chirps hold 3.2M samples:
        # 819M per 256-chirp frame, about 13 GB of complex samples.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["radars"][1]["adc_hz"] = 1.0e11
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert ("radars[2]: 3200000 samples per chirp x 256 chirps give 819200000 "
                "samples per frame, above the 4194304 allowed") in err
        assert "radars[1]" not in err
        assert not (tmp_path / "o").exists()

    def test_numeric_string_still_reads_as_float(self):
        # YAML 1.1 reads 20e6 (no dot) as a string; float fields take it.
        cfg = parse_config(SMALL_CFG.replace("adc_hz: 2.0e+6", "adc_hz: 2e6", 1))
        assert cfg.radars[0].chirp.adc_hz == 2e6

    @pytest.mark.parametrize("policy,key,value", [
        ("noregret", "ceta", 0.4),
        ("noregret", "c_eta", -1),
        ("noregret", "c_eta", float("inf")),
        ("noregret", "loss_clip_db", float("nan")),
        ("nash", "floor_db", float("-inf")),
        ("noregret", "c_gamma", "0.1"),
        ("noregret", "kappa", 0.5),
        ("noregret", "loss_clip_db", True),
        ("nash", "explore_episodes", "abc"),
        ("nash", "explore_episodes", 3),
        ("nash", "solver_mode", "mixed"),
        ("fixed", "subband", "x"),
        ("fixed", "subband", 6),
        ("uniform", "c_eta", 0.4),
    ])
    def test_bad_policy_param_rejected(self, tmp_path, capsys, policy, key, value):
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"][1]["policy"] = policy
        doc["radars"][1]["policy_params"] = {key: value}
        if policy == "fixed" and key != "subband":
            doc["radars"][1]["policy_params"]["subband"] = 0
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"radars[2].policy_params.{key}:" in err

    def test_missing_fixed_subband_named(self, tmp_path, capsys):
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"][1].update(policy="fixed", policy_params={})
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert "radars[2].policy_params.subband:" in err

    @pytest.mark.parametrize("policy,params", [
        ("noregret", {"c_eta": 0.4, "c_gamma": 0.1, "baseline_delta_db": 1.0,
                      "kappa": 0.0, "loss_clip_db": 50}),
        ("nash", {"explore_episodes": 2, "floor_db": -10, "solver_mode": "pure"}),
        ("fixed", {"subband": 5}),
        ("uniform", {}),
    ])
    def test_accepted_policy_params_parse(self, policy, params):
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"][1]["policy"] = policy
        doc["radars"][1]["policy_params"] = params
        cfg = parse_config(yaml.safe_dump(doc))
        assert cfg.radars[1].policy_params == params

    def test_target_for_missing_radar_rejected(self, tmp_path, capsys):
        doc = yaml.safe_load(SMALL_CFG)
        doc["targets"].append({"radar": 3, "range_m": 20.0, "snr_db": 20.0})
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert "targets[3]: radar 3" in err

    @pytest.mark.parametrize("section", ["targets", "links", "radars"])
    def test_non_mapping_entry_rejected(self, tmp_path, capsys, section):
        doc = yaml.safe_load(SMALL_CFG)
        doc[section].insert(0, 7)
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"{section}[1]: must be a mapping" in err

    @pytest.mark.parametrize("section,value", [
        ("targets", 7), ("links", {"victim": 1}), ("radars", "one"), ("run", [1])])
    def test_malformed_section_rejected(self, tmp_path, capsys, section, value):
        doc = yaml.safe_load(SMALL_CFG)
        doc[section] = value
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"{section}: must be a" in err
