"""Command-line layer tests: config parsing, artifact emission, report."""

import copy
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import hopsim
from hopsim import cli
from hopsim.cli import (
    FIELDS,
    ReportError,
    RunManifest,
    _emit_seed,
    _parse_seeds,
    _write_joint_csv,
    cmd_report,
    cmd_run,
    config_document,
    main,
    parse_config,
)

from hopsim.game import empirical_joint
from hopsim.signal import ChirpParams, Target
from hopsim.sim import (
    SAMPLE_BLOCK_GUARD,
    LinkSpec,
    RadarSpec,
    ScenarioConfig,
    ScenarioError,
    run_scenario,
    validate_config,
)

from oracles import (
    bundled_config_path,
    cmd_run_collect_then_emit,
    dense_mass,
    emit_seed_per_value,
    joint_from_dense,
    render_config,
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


def defaulted_document() -> str:
    """SMALL_CFG with a nash and a noregret radar, every parameter left at its
    default, over the default exploration's 10 frames."""
    doc = yaml.safe_load(SMALL_CFG)
    doc["radars"][0]["policy"] = "nash"
    del doc["radars"][1]["policy_params"]
    doc["run"]["frames"] = 10
    return yaml.safe_dump(doc)


def named_document(source: str) -> str:
    """A config document by name: SMALL_CFG, the bundled table1, the crowd-8
    workload, or ``defaulted_document``."""
    if source == "crowd-8":
        return (Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
                / "crowd-8.yaml").read_text()
    return {"small": SMALL_CFG, "table1": bundled_config_path("table1").read_text(),
            "defaulted": defaulted_document()}[source]


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

    @pytest.mark.parametrize("source", ["small", "table1", "crowd-8", "defaulted"])
    def test_document_matches_rendered_yaml(self, source):
        # The manifest stores config_document; its YAML round trip is the reference.
        cfg = parse_config(named_document(source))
        assert json.dumps(config_document(cfg), sort_keys=True) == json.dumps(
            yaml.safe_load(render_config(cfg)), sort_keys=True)

    def test_defaulted_parameters_written_resolved(self):
        # The manifest's config is the resolved one: every policy parameter
        # with its value, an unset baseline as null, which parses back as off.
        cfg = parse_config(defaulted_document())
        params = [radar["policy_params"] for radar in config_document(cfg)["radars"]]
        assert params == [
            {"explore_episodes": 10, "floor_db": -10.0, "solver_mode": "auto"},
            {"c_eta": 1.0, "c_gamma": 1.0, "kappa": 0.04, "loss_clip_db": 600.0,
             "baseline_delta_db": None}]
        assert "baseline_delta_db: null" in render_config(cfg)
        assert parse_config(render_config(cfg)) == cfg

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
        with pytest.raises(ScenarioError) as err:
            parse_config(bad)
        msgs = err.value.messages
        assert any("subband_hz" in m for m in msgs)
        assert any("pri_s" in m for m in msgs)
        assert any("targets[1]" in m for m in msgs)

    def test_not_yaml(self):
        with pytest.raises(ScenarioError):
            parse_config(": {{{")
        with pytest.raises(ScenarioError):
            parse_config("- just\n- a list\n")

    def test_parse_error_messages_quote_the_line(self):
        # libyaml parses first and quotes nothing; a document it rejects is
        # parsed again by the pure-Python loader, whose message carries the
        # line and a caret under the column.
        with pytest.raises(ScenarioError) as err:
            parse_config("a: b: c")
        assert err.value.messages == [
            "YAML parse error: mapping values are not allowed here\n"
            '  in "<unicode string>", line 1, column 5:\n'
            "    a: b: c\n"
            "        ^"]
        with pytest.raises(ScenarioError) as err:
            parse_config("run:\n  frames: 2\n  frames: 3\n")
        assert err.value.messages == ["YAML parse error: key 'frames' on line 3 repeats line 2"]

    @pytest.mark.parametrize("source", ["small", "table1", "crowd-8", "defaulted"])
    def test_both_loaders_agree(self, source):
        # The fast loader rejects repeated keys itself and builds the same
        # documents as the pure-Python one.
        text = named_document(source)
        doc = yaml.load(text, Loader=cli._FastLoader)
        assert repr(doc) == repr(yaml.load(text, Loader=cli._Loader))
        with pytest.raises(yaml.constructor.ConstructorError, match="repeats line 2"):
            yaml.load("run:\n  frames: 2\n  frames: 3\n", Loader=cli._FastLoader)

    def test_scenario_invariants_surface_as_config_errors(self):
        doc = yaml.safe_load(SMALL_CFG)
        doc["run"]["episodes_per_frame"] = 3   # 64 % 3 != 0
        with pytest.raises(ScenarioError) as err:
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

    @pytest.mark.parametrize("text", ["1,,2", ",4", "7,,", ",", "3, ,5"])
    def test_rejects_empty_entry(self, text):
        with pytest.raises(ValueError, match="empty entry"):
            _parse_seeds(text)

    def test_one_trailing_comma_lists_one_seed(self):
        assert _parse_seeds("7,") == [7]
        assert _parse_seeds("0, 5,9 ,") == [0, 5, 9]

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

    def test_reused_directory_lists_only_this_runs_files(self, tmp_path):
        # A fixed-policy run leaves profile_fixed.csv behind; the next run
        # into the same directory has no fixed radar and must not list it.
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"][1].update(policy="fixed", policy_params={"subband": 0})
        cmd_run(parse_config(yaml.safe_dump(doc)), tmp_path, [0])
        manifest = cmd_run(parse_config(SMALL_CFG), tmp_path, [0])
        assert (tmp_path / "seed_0" / "profile_fixed.csv").is_file()
        assert sorted(manifest.files) == [
            f"seed_0/{name}.csv" for name in ("interference", "joint_dist", "profile_noregret",
                                               "profile_uniform", "regret", "strategies")]
        listed = json.loads((tmp_path / "manifest.json").read_text())["files"]
        assert listed == manifest.files

    @pytest.mark.parametrize("variant", ["genie", "detector", "nash"])
    def test_artifacts_equal_the_per_value_formatting(self, tmp_path, variant):
        # _emit_seed formats tolist() floats; the oracle indexes each value
        # out of its array and formats repr(float(value)). Byte for byte.
        doc = yaml.safe_load(SMALL_CFG)
        doc["run"]["frames"] = 4
        if variant == "detector":
            doc["run"]["genie_detection"] = False
        if variant == "nash":
            doc["radars"][0].update(policy="nash", policy_params={"explore_episodes": 2})
        metrics = run_scenario(parse_config(yaml.safe_dump(doc)))
        files, _ = _emit_seed(tmp_path / "new", 5, metrics)
        emit_seed_per_value(tmp_path / "old", 5, metrics)
        names = sorted(path.name for path in (tmp_path / "old" / "seed_5").iterdir())
        assert sorted(Path(rel).name for rel in files) == names and len(names) == 6
        for name in names:
            assert (tmp_path / "new" / "seed_5" / name).read_bytes() == (
                tmp_path / "old" / "seed_5" / name).read_bytes(), name

    def test_manifest_loads_back(self, run_dir):
        out, manifest = run_dir
        loaded = RunManifest.load(out)
        assert loaded.seeds == manifest.seeds
        assert loaded.files == manifest.files
        assert loaded.config == yaml.safe_load(render_config(parse_config(SMALL_CFG)))


    def test_emitting_per_seed_keeps_the_manifest(self, tmp_path):
        # Seeds are emitted as their runs finish, in the given (unsorted)
        # order; the result equals emitting after all runs.
        self.assert_streamed_equals_collected(tmp_path, parse_config(SMALL_CFG))

    def test_emitting_per_seed_keeps_the_manifest_in_detector_mode(self, tmp_path):
        # Detector mode synthesizes every episode in a run's sample
        # workspace; one seed's run must leave nothing in it for the next.
        config = parse_config(SMALL_CFG.replace("  seed: 0", "  seed: 0\n  genie_detection: false"))
        assert not config.genie_detection
        self.assert_streamed_equals_collected(tmp_path, config)

    @staticmethod
    def assert_streamed_equals_collected(tmp_path, config):
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
        joint, _ = empirical_joint(rng.integers(0, a, (n, 500)).T, a)
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
        assert joint.rows.shape[1] == 3 and 6 < joint.mass.size < 6**3
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
        (lambda doc: doc["summary"]["0"]["mainlobe_width_m"].update(noregret="x"),
         "summary entry 'x' is not a number"),
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

    @pytest.mark.parametrize("write", [
        lambda path, doc: path.write_text("[]"),
        lambda path, doc: path.write_bytes(json.dumps(doc).encode() + b"\xff"),
        lambda path, doc: path.write_text(json.dumps(dict(doc, summary={"0": dict(
            doc["summary"]["0"], final_interference_rate=["x", 0.0])}))),
    ], ids=["top-level-list", "not-utf8", "string-rate"])
    def test_report_rejects_malformed_manifest(self, tmp_path, capsys, write):
        cmd_run(parse_config(SMALL_CFG), tmp_path, [0])
        path = tmp_path / "manifest.json"
        write(path, json.loads(path.read_text()))
        assert main(["report", str(tmp_path)]) == 3
        assert f"hopsim: corrupt manifest {path}: " in capsys.readouterr().err

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
    def test_module_run_warns_nothing(self):
        src = str(Path(hopsim.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "hopsim.cli",
                               "--help"], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

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

    @pytest.mark.parametrize("count", ["99999999999999999999999", "1000001"])
    def test_seed_count_above_guard_is_usage_error(self, tmp_path, capsys, count):
        # The count form builds its seed list; a count beyond any run is refused first.
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seeds", count]) == 1
        assert capsys.readouterr().err.startswith(
            f"hopsim: error: --seeds: seed count {count} not in [1, 1000000]")
        assert not (tmp_path / "o").exists()

    def test_repeated_seed_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seeds", "3,3"]) == 1
        assert "--seeds: seed 3 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seeds", ["1,,2", ",4"])
    def test_empty_seed_entry_is_usage_error(self, tmp_path, capsys, seeds):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seeds", seeds]) == 1
        assert f"--seeds: empty entry in seed specification {seeds!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_trailing_comma_runs_one_seed(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(SMALL_CFG)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "7,"]) == 0
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [7]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "seed_7"]

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


class TestSaturatedDetector:
    """Every sample above the detector threshold leaves each chirp a clean power
    of 0; the episode mean SINR is floored at 1e-300 (-3000 dB), never -inf."""

    def test_artifacts_and_manifest_stay_finite(self, tmp_path, capsys):
        workload = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
        doc = yaml.safe_load((workload / "table1-detector.yaml").read_text())
        for radar in doc["radars"]:
            radar.update(policy="fixed", policy_params={"subband": 0})
        for link in doc["links"]:
            link["inr_db"] = 60.0
        doc["run"]["frames"] = 2
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "1"]) == 0
        rows = np.loadtxt(out / "seed_0" / "interference.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 2] == 1.0) and np.all(rows[:, 3] == -3000.0)

        def reject(name):
            raise ValueError(f"manifest holds {name}")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
        assert manifest["summary"]["0"]["final_mean_sinr_db"] == [-3000.0, -3000.0]
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "inf" not in capsys.readouterr().out


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
        ("run", "frames", 2.7),
        ("run", "frames", 2.0),
        ("run", "frames", True),
        ("run", "seed", "3"),
        ("radars", "subbands", 6.5),
        ("radars", "chirps_per_frame", False),
        ("radars", "pri_s", True),
        ("radars", "pri_s", "20.0e-6"),
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
        # A Nash solve passes over every joint action: 6**8 of them fit;
        # 6**10 (6e7) is above the guard, so it is rejected before
        # anything runs.
        doc = crowd_doc(n_radars, "nash")
        if ok:
            assert parse_config(yaml.safe_dump(doc)).n_radars == n_radars
        else:
            with pytest.raises(ScenarioError) as err:
                parse_config(yaml.safe_dump(doc))
            assert err.value.messages == [
                "radars: 10 radars on 6 subbands give 60466176 joint actions, "
                "above the 10000000 the Nash solver enumerates"]

    @pytest.mark.parametrize("n_radars,subbands,ok", [
        (8, 6, True), (21, 2, True), (22, 2, True), (23, 2, True), (24, 2, False)])
    def test_table_cell_guard(self, tmp_path, capsys, n_radars, subbands, ok):
        # The Nash solver holds no n * A**n table, so only the joint
        # actions bound a nash crowd: 23 radars on 2 subbands (8.4e6) fit,
        # 24 (1.7e7) do not.
        doc = crowd_doc(n_radars, "nash", subbands)
        if ok:
            assert parse_config(yaml.safe_dump(doc)).n_radars == n_radars
            return
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert (f"radars: {n_radars} radars on {subbands} subbands give "
                f"{subbands**n_radars} joint actions, above the 10000000 the Nash "
                "solver enumerates") in err
        assert not (tmp_path / "o").exists()

    def test_dense_table_guards_apply_only_with_nash(self):
        # noregret crowds are evaluated per link and enumerate no joint actions.
        assert parse_config(yaml.safe_dump(crowd_doc(16, "noregret"))).n_radars == 16
        doc = crowd_doc(16, "noregret")
        doc["radars"][5] = crowd_doc(1, "nash")["radars"][0]
        with pytest.raises(ScenarioError) as err:
            parse_config(yaml.safe_dump(doc))
        assert err.value.messages == [
            "radars: 16 radars on 6 subbands give 2821109907456 joint actions, "
            "above the 10000000 the Nash solver enumerates"]

    @pytest.mark.parametrize("subbands,modes,named", [
        (13, ("auto", "auto"), ()), (14, ("auto", "pure"), (1,)),
        (14, ("auto", "auto"), (1, 2)), (14, ("pure", "pure"), ())])
    def test_support_pair_guard(self, tmp_path, capsys, subbands, modes, named):
        # A 2-radar 'auto' solve enumerates (2^A - 1) + A(A - 1) 2^(A - 2)
        # support pairs: 327,679 on 13 subbands (about 0.5 s and 200 MB per
        # solve), 761,855 on 14.
        doc = crowd_doc(2, "nash", subbands)
        doc["radars"] = [dict(r, policy_params=dict(r["policy_params"], solver_mode=mode))
                         for r, mode in zip(doc["radars"], modes)]
        if not named:
            assert validate_config(parse_config(yaml.safe_dump(doc))) == []
            return
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        for i in (1, 2):
            assert (f"radars[{i}].policy_params.solver_mode: 'auto' on 2 radars and 14 "
                    "subbands enumerates 761855 support pairs per solve, above the "
                    "500000 allowed; use 'pure'" in err) == (i in named)
        assert not (tmp_path / "o").exists()

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
        doc["run"]["genie_detection"] = False
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert ("radars[2]: 3200000 samples per chirp x 256 chirps per episode give "
                "819200000 samples per episode, above the 4194304 allowed") in err
        assert "radars[1]" not in err
        assert not (tmp_path / "o").exists()

    def test_sample_block_guard_is_per_episode(self, tmp_path, capsys):
        # At 700 MHz sampling radar 2's frame holds 22,400 x 256 samples,
        # above the guard, but detector mode synthesizes one episode at a
        # time: two episodes per frame need half that block.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["radars"][1]["adc_hz"] = 7.0e8
        doc["run"]["genie_detection"] = False
        doc["run"]["episodes_per_frame"] = 2
        config = parse_config(yaml.safe_dump(doc))
        n_s = config.radars[1].chirp.n_samples
        assert n_s * 128 <= SAMPLE_BLOCK_GUARD < n_s * 256
        assert validate_config(config) == []
        doc["run"]["episodes_per_frame"] = 1
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert (f"radars[2]: {n_s} samples per chirp x 256 chirps per episode give "
                f"{n_s * 256} samples per episode, above the 4194304 allowed") in err
        assert "radars[1]" not in err
        assert not (tmp_path / "o").exists()

    def test_genie_basis_guard(self, tmp_path, capsys):
        # Genie mode holds radar 2's target row and its one linked source's
        # residual chirp over 3.2M samples, plus 256 coefficients each.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["radars"][1]["adc_hz"] = 1.0e11
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert ("radars[2]: 2 noiseless rows (targets and linked sources) x (3200000 "
                "samples per chirp + 256 chirps per episode) give 6400512 values, above "
                "the 4194304 allowed") in err
        assert "radars[1]" not in err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def linked_crowd(n_radars, adc_hz, genie):
        """n uniform radars on one subband, one 16 us chirp per frame, all pairs linked."""
        ch = ChirpParams(f_c=77e9, subband_hz=150e6, n_subbands=1, pri_s=20e-6, active_s=16e-6,
                         adc_hz=adc_hz, chirps_per_frame=1)
        return ScenarioConfig(
            radars=(RadarSpec(chirp=ch, targets=(Target(20.0, 0.0, 20.0),)),) * n_radars,
            links=tuple(LinkSpec(v, s, 30.0) for v in range(n_radars) for s in range(n_radars)
                        if v != s),
            genie_detection=genie)

    @staticmethod
    def rendered_exit_code_and_errors(tmp_path, capsys, config):
        (tmp_path / "c.yaml").write_text(render_config(config))
        code = main(["run", "--config", str(tmp_path / "c.yaml"), "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("genie", [True, False])
    def test_noiseless_rows_bounded_in_both_modes(self, tmp_path, capsys, genie):
        # Each of 11 radars would hold its target row and 10 residual chirps
        # of 2^22 samples: 738 MB a radar, 8.1 GB for the run, in either mode.
        cfg = self.linked_crowd(11, 2**22 / 16.0e-6, genie)
        messages = validate_config(cfg)
        assert messages == [
            f"radars[{i}]: 11 noiseless rows (targets and linked sources) x (4194304 samples "
            "per chirp + 1 chirps per episode) give 46137355 values, above the 4194304 allowed"
            for i in range(1, 12)]
        code, err = self.rendered_exit_code_and_errors(tmp_path, capsys, cfg)
        assert code == 2 and messages[0] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("genie", [True, False])
    def test_noiseless_rows_bounded_over_the_run(self, tmp_path, capsys, genie):
        # 2^18 samples: each radar's 11 rows fit, the run's 121 do not.
        cfg = self.linked_crowd(11, 2**18 / 16.0e-6, genie)
        message = ("radars: the 11 radars' noiseless rows x (samples per chirp + chirps per "
                   "episode) give 31719545 values in all, above the 4194304 allowed")
        assert validate_config(cfg) == [message]
        code, err = self.rendered_exit_code_and_errors(tmp_path, capsys, cfg)
        assert code == 2 and message in err
        assert not (tmp_path / "o").exists()
        assert validate_config(self.linked_crowd(3, 2**18 / 16.0e-6, genie)) == []  # 9 rows fit

    def test_range_profile_guard(self, tmp_path, capsys):
        # 1.6M samples per chirp: genie mode's 2 x (1.6M + 256) rows and
        # coefficients pass, but the final frame's profile would hold an
        # (800k, 6, 12) phase tensor, about 0.9 GB.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["radars"][1]["adc_hz"] = 5.0e10
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert ("radars[2]: the final-frame range profile's 800000 coarse bins x 6 "
                "subbands x 12 fine offsets give 57600000 phase terms, above the "
                "4194304 allowed") in err
        assert "noiseless rows" not in err and "radars[1]" not in err
        assert not (tmp_path / "o").exists()

    def test_genie_mode_builds_no_sample_block(self):
        # 16,384 and 8,192 chirps per frame give 5,242,880-sample frame
        # blocks: too large for the detector, but genie mode only holds
        # 2 x (320 + 16,384) and 2 x (640 + 8,192) values per radar.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["radars"][0]["chirps_per_frame"] = 16384
        doc["radars"][1]["chirps_per_frame"] = 8192
        assert validate_config(parse_config(yaml.safe_dump(doc))) == []
        doc["run"]["genie_detection"] = False
        with pytest.raises(ScenarioError) as err:
            parse_config(yaml.safe_dump(doc))
        assert [m.split(":")[0] for m in err.value.messages] == ["radars[1]", "radars[2]"]

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

    def test_exponent_float_policy_param_runs_as_float(self, tmp_path, capsys):
        # YAML 1.1 reads 4e-1 (no dot) as a string; float fields take it.
        text = SMALL_CFG.replace("c_eta: 0.4", "c_eta: 4e-1", 1)
        assert "c_eta: 4e-1" in text
        assert parse_config(text) == parse_config(SMALL_CFG)
        (tmp_path / "c.yaml").write_text(text)
        assert main(["run", "--config", str(tmp_path / "c.yaml"), "--out",
                     str(tmp_path / "o"), "--seeds", "1"]) == 0
        manifest = RunManifest.load(tmp_path / "o")
        assert manifest.config["radars"][1]["policy_params"]["c_eta"] == 0.4

    def test_text_float_policy_param_rejected(self, tmp_path, capsys):
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"][1]["policy_params"]["c_eta"] = "abc"
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert "radars[2].policy_params.c_eta: expected float, got 'abc'" in err

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
        ("targets", 7), ("links", {"victim": 1}), ("radars", "one"), ("run", [1]),
        ("targets", 0), ("links", ""), ("run", []), ("run", 0)])
    def test_malformed_section_rejected(self, tmp_path, capsys, section, value):
        doc = yaml.safe_load(SMALL_CFG)
        doc[section] = value
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"{section}: must be a" in err

    @pytest.mark.parametrize("value", [0, [], "c_eta"])
    def test_malformed_policy_params_rejected(self, tmp_path, capsys, value):
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"][1]["policy_params"] = value
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"radars[2].policy_params: must be a mapping, got {value!r}" in err

    def test_null_run_reads_as_absent(self):
        doc = yaml.safe_load(SMALL_CFG)
        doc["run"] = None
        cfg = parse_config(yaml.safe_dump(doc))
        assert (cfg.frames, cfg.seed, cfg.genie_detection) == (50, 0, True)

    @pytest.mark.parametrize("where,key,label", [
        ((), "linkz", "linkz"),
        (("radars", 1), "adc_hzz", "radars[2].adc_hzz"),
        (("targets", 0), "snr", "targets[1].snr"),
        (("links", 1), "inr", "links[2].inr"),
        (("run",), "sede", "run.sede"),
    ])
    def test_unknown_field_rejected(self, tmp_path, capsys, where, key, label):
        doc = yaml.safe_load(SMALL_CFG)
        section = doc
        for step in where:
            section = section[step]
        section[key] = 1
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        accepted = ", ".join(FIELDS[where[0]] if where else FIELDS)
        assert f"{label}: unknown field (accepted: {accepted})" in err

    def test_removed_db_average_is_unknown(self, tmp_path, capsys):
        # The estimator averages linear ratios only; the dB-average switch is gone.
        doc = yaml.safe_load(SMALL_CFG)
        doc["run"] = {"db_average": True}
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert "run.db_average: unknown field" in err

    def test_target_reaching_the_radar_within_a_frame_rejected(self, tmp_path, capsys):
        # At 100 m/s a target 1 m away reaches the radar before table1's
        # 512-chirp frame ends; the delay would leave the chirp mid-run.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["targets"][0].update(range_m=1.0, velocity_mps=-100.0)
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert "radars[1].targets[1]: target at 1.0 m moving at -100.0 m/s" in err
        assert "from chirp 502 of 512" in err

    def test_doppler_product_beyond_float_range_rejected(self, tmp_path, capsys):
        # 2 v PRI f_c = 2 x 5e4 m/s x 20 us x 1.7e308 Hz overflows a float
        # before the division by c would bring it back in range.
        doc = yaml.safe_load(SMALL_CFG)
        for radar in doc["radars"]:
            radar["carrier_hz"] = 1.7e308
        doc["targets"][0].update(range_m=1500.0, velocity_mps=-5.0e4)
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert ("radars[1].targets[1]: velocity -50000.0 m/s gives a Doppler product "
                "2 v PRI f_c above the largest float") in err
        assert "radars[2]" not in err

    @pytest.mark.parametrize("radar, target, message", [
        # subband_hz / active_s = 1e305 / 16 us overflows.
        ({"subband_hz": 1.0e305, "pri_s": 20e-6, "active_s": 16e-6}, {},
         "radars[1]: chirp slope subband_hz / active_s inf above the largest float"),
        # The slope is finite, but v (k (a B_a)) = 10 x 63 x 5e305 is not.
        ({"subband_hz": 1.0e305, "pri_s": 2.0, "active_s": 1.0, "adc_hz": 4.0},
         {"velocity_mps": 10.0},
         "radars[1].targets[1]: velocity 10.0 m/s gives a hop phase 2 pi (2/c) PRI v k a B_a "
         "above the largest float at the frame's last chirp and subband"),
        # The slope is 1e307 and a still target has no hop phase, but 2 R slope overflows.
        ({"subband_hz": 1.0e305, "pri_s": 2e-2, "active_s": 1e-2, "adc_hz": 1e4},
         {"velocity_mps": 0.0},
         "radars[1].targets[1]: range 20.0 m gives a beat product 2 R slope above the "
         "largest float"),
    ])
    def test_chirp_phase_beyond_float_range_rejected(self, tmp_path, capsys, radar, target,
                                                     message):
        # Each once ran with NaN phases and wrote NaN into manifest.json.
        doc = yaml.safe_load(SMALL_CFG)
        doc["radars"], doc["links"] = doc["radars"][:1], []
        doc["targets"] = doc["targets"][:1]
        doc["radars"][0].update(radar)
        doc["targets"][0].update(target)
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert err == f"hopsim: invalid scenario config:\n  {message}\n"
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_residual_chirp_phase_beyond_float_range_rejected(self, tmp_path, capsys):
        # Slopes 1.6e308 and 8e307 Hz/s: pi (a_1 - a_2) overflows, and the
        # residual chirps of both links were NaN (a traceback from noregret).
        doc = yaml.safe_load(SMALL_CFG)
        for radar, scale in zip(doc["radars"], (1, 2)):
            radar.update(subband_hz=1.6e305, pri_s=2e-3 * scale, active_s=1e-3 * scale,
                         adc_hz=4e3)
        for tgt in doc["targets"]:
            tgt.update(range_m=0.5, velocity_mps=0.0)
        code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert err == "hopsim: invalid scenario config:\n" + "".join(
            f"  links[{li}]: the slopes of radars[{v}] and radars[{s}] give a residual chirp "
            "phase pi (a_v - a_s) t^2 above the largest float\n"
            for li, v, s in ((1, 1, 2), (2, 2, 1)))
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("section,field", [("targets", "snr_db"), ("links", "inr_db")])
    @pytest.mark.parametrize("value", [4000.0, -4000.0])
    def test_power_beyond_float_range_rejected(self, tmp_path, capsys, section, field, value):
        # 10^400 overflows a float and 10^-400 is 0: neither is a power.
        doc = yaml.safe_load(SMALL_CFG)
        doc[section][0][field] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = exit_code_and_errors(tmp_path, capsys, doc)
        assert code == 2
        assert f"{section}[1]" in err and field in err
        assert f"{value!r} dB has a linear power not finite and > 0" in err

    @pytest.mark.parametrize("genie", [True, False])
    @pytest.mark.parametrize("section, other_db", [("targets", 30.0), ("links", 20.0)])
    def test_energy_bound(self, tmp_path, capsys, genie, section, other_db):
        # table1 at noise power 1e300. Radar 2 has 640 samples per chirp, one
        # target and one link; its 2 N_s noise (1 + sqrt(SNR) + sqrt(INR))^2
        # reaches the largest float where the varied power's root is ``edge``.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["run"].update(noise_power=1.0e300, frames=1, genie_detection=genie)
        field = {"targets": "snr_db", "links": "inr_db"}[section]
        edge = math.sqrt(sys.float_info.max / (2 * 640 * 1.0e300)) - 1.0 - 10.0 ** (other_db / 20)
        for delta_db, ok in ((-1e-3, True), (1e-3, False)):
            doc[section][1][field] = 20.0 * math.log10(edge) + delta_db
            code, err = exit_code_and_errors(tmp_path, capsys, doc)
            if ok:
                assert code == 0 and err == ""
            else:
                assert code == 2
                assert ("run.noise_power: 1e+300 with radars[2].targets[1], links[2] gives "
                        "radars[2] a chirp energy bound") in err
                assert "radars[1]" not in err

    @pytest.mark.parametrize("genie", [True, False])
    def test_energy_bound_sums_repeated_links(self, tmp_path, capsys, genie):
        # Radar 2's INR split over two links 2 <- 1 whose linear powers sum
        # to the edge of test_energy_bound: the pair forms one amplitude,
        # sqrt of the summed power, so the bound holds it, not the sum of roots.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["run"].update(noise_power=1.0e300, frames=1, genie_detection=genie)
        doc["links"].append(dict(doc["links"][1]))
        edge = math.sqrt(sys.float_info.max / (2 * 640 * 1.0e300)) - 1.0 - 10.0
        for delta_db, ok in ((-1e-3, True), (1e-3, False)):
            for link in doc["links"][1:]:
                link["inr_db"] = 20.0 * math.log10(edge) + delta_db - 10.0 * math.log10(2.0)
            code, err = exit_code_and_errors(tmp_path, capsys, doc)
            if ok:
                assert code == 0 and err == ""
                m = run_scenario(parse_config(yaml.safe_dump(doc)))
                for values in (m.strategies, m.interference_rate, m.mean_sinr_db,
                               m.cumulative_regret_db, m.cce_gap_db, m.profiles[1].mags_db):
                    assert np.isfinite(values).all()
            else:
                assert code == 2
                assert ("run.noise_power: 1e+300 with radars[2].targets[1], links[2], links[3] "
                        "gives radars[2] a chirp energy bound") in err
                assert "radars[1]" not in err

    @pytest.mark.parametrize("old, new, key", [
        ("  frames: 2\n", "  frames: 50\n  frames: 2\n", "frames"),
        ("    subbands: 6\n", "    subbands: 6\n    subbands: 4\n", "subbands"),
    ])
    def test_repeated_key_rejected(self, tmp_path, capsys, old, new, key):
        # The later copy of a key would silently replace the earlier one;
        # radars[1] on 4 subbands would then fault radars[2] for not sharing them.
        text = SMALL_CFG.replace(old, new, 1)
        line = text.splitlines().index(new.splitlines()[0]) + 1
        cfg = tmp_path / "c.yaml"
        cfg.write_text(text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"key {key!r} on line {line + 1} repeats line {line}" in err
        assert "must share" not in err


# Runs cli.main on each argv of the JSON list in argv[2] under an address
# space limit of argv[1] bytes; prints each exit code, or the traceback of
# an exception main let through, then the process's peak RSS in kB. A
# process's ru_maxrss starts at the peak RSS of the process it was spawned
# from (here the test runner), so the runs go to a fork of this fresh
# interpreter, whose ru_maxrss starts at the interpreter's few MB.
UNDER_LIMIT = """\
import os, sys
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
import contextlib, io, json, resource, traceback
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
from hopsim.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            results.append([main(argv), err.getvalue()])
    except BaseException:
        results.append([None, err.getvalue() + traceback.format_exc()])
print(json.dumps([results, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""
ADDRESS_LIMIT = 2 << 30


def main_under_limit(argvs):
    """``main`` on each argv in one child process under ``ADDRESS_LIMIT``:
    the (exit code or None, stderr) of each, and the child's peak RSS in MB."""
    src = str(Path(hopsim.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", UNDER_LIMIT, str(ADDRESS_LIMIT),
                           json.dumps(argvs)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    results, max_rss_kb = json.loads(done.stdout.splitlines()[-1])
    return results, max_rss_kb / 1024


FUZZ_VALUES = [0, -1, 1e300, -1e300, 2**31, "nan", None, []]


def exit_codes_of_mutations(tmp_path, cases):
    """Each (name, document, leaf path, value) case's document with that leaf
    set to the value, run through ``main`` under the limit. Asserts that each
    exits 0 or 2 and that each exit 0 leaves seed 0's manifest free of NaN and
    Infinity; returns the exit codes."""
    argvs = []
    for i, (_, doc, path, value) in enumerate(cases):
        mutated = copy.deepcopy(doc)
        node = mutated
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = tmp_path / f"c{i}.yaml"
        cfg.write_text(yaml.safe_dump(mutated))
        argvs.append(["run", "--config", str(cfg), "--out", str(tmp_path / f"o{i}")])
    results, _ = main_under_limit(argvs)

    def reject(name):
        raise ValueError(f"manifest holds {name}")

    codes = []
    for (name, _, path, value), argv, (code, err) in zip(cases, argvs, results):
        assert code in (0, 2), (name, path, value, err)
        if code == 0:
            manifest = json.loads((Path(argv[-1]) / "manifest.json").read_text(),
                                  parse_constant=reject)
            assert manifest["seeds"] == [0]
        codes.append(code)
    return codes


def leaf_paths(node, path=()):
    """The key/index path of every scalar in a YAML document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


class TestConfigsUnderAnAddressLimit:
    """No config, however large or malformed, gets past ``main`` as a
    traceback or an allocation: each exits 0 or 2."""

    def test_oversized_frames_rejected_before_allocating(self, tmp_path):
        # One frame of 2**32 and 2**31 chirps: a per-chirp array of either
        # radar's frame would need 16 GiB or more.
        doc = yaml.safe_load(bundled_config_path("table1").read_text())
        doc["radars"][0]["chirps_per_frame"] = 2**32
        doc["radars"][1]["chirps_per_frame"] = 2**31
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        [(code, err)], max_rss_mb = main_under_limit(
            [["run", "--config", str(cfg), "--out", str(tmp_path / "o")]])
        assert code == 2, err
        assert "radars[1]: " in err and "radars[2]: " in err
        assert "from chirp 66668 of 4294967296" in err
        assert max_rss_mb < 100
        assert not (tmp_path / "o").exists()

    def test_detector_run_exits_0(self, tmp_path):
        # A detector run draws its noise on a thread of its own, under the
        # limit as anywhere else.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
        doc = yaml.safe_load((path / "table1-detector.yaml").read_text())
        doc["run"]["frames"] = 2
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        [(code, err)], _ = main_under_limit(
            [["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seeds", "2"]])
        assert code == 0, err
        assert (tmp_path / "o" / "manifest.json").is_file()
        assert (tmp_path / "o" / "seed_1" / "interference.csv").is_file()

    def test_mutated_configs_exit_0_or_2(self, tmp_path):
        # 200 seeded mutations of SMALL_CFG's leaves (2 frames) to values
        # that are out of range, huge, not numbers or not scalars.
        doc = yaml.safe_load(SMALL_CFG)
        cases = random.Random(31).sample(
            [("small", doc, path, value) for path in leaf_paths(doc) for value in FUZZ_VALUES],
            200)
        codes = exit_codes_of_mutations(tmp_path, cases)
        assert 0 < codes.count(0) < codes.count(2)

    def test_mutated_shipped_configs_exit_0_or_2(self, tmp_path):
        # 25 seeded mutations of each shipped config's leaves: the bundled
        # table1 and the benchmark workloads, which are only read, cut to 2
        # frames. Nash radars explore for those 2 episodes, or every config
        # of theirs would fail the exploration bound.
        workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
        rng = random.Random(2)
        cases = []
        for path in [bundled_config_path("table1"), *sorted(workloads.glob("*.yaml"))]:
            doc = yaml.safe_load(path.read_text())
            doc["run"]["frames"] = 2
            for radar in doc["radars"]:
                if "explore_episodes" in radar.get("policy_params", {}):
                    radar["policy_params"]["explore_episodes"] = 2
            cases += [(path.name, doc, *case) for case in rng.sample(
                [(leaf, value) for leaf in leaf_paths(doc) for value in FUZZ_VALUES], 25)]
        codes = exit_codes_of_mutations(tmp_path, cases)
        assert 0 < codes.count(0) < codes.count(2)
