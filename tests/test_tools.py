"""tools/metrics_digest.py: one SHA-256 line per RunMetrics array; tools/crowd_config.py:
an N-radar crowd scenario; tools/ab.py: alternating in-process timings of two trees,
for one or several configs per call."""
import ast
import json
import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from hopsim.cli import parse_config
from hopsim.sim import RunMetrics

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name="metrics_digest"):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_workloads():
    """The names of ``perfbench/run.py``'s WORKLOADS, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS":
            return {key.value for key in node.value.keys}
    raise AssertionError("perfbench/run.py defines no WORKLOADS")


def test_reads_the_benchmark_workloads():
    paths = load_tool().workload_paths()
    assert set(paths) == benchmark_workloads()
    assert all(path.is_file() for path in paths.values())


def test_one_line_per_array(capsys):
    tool = load_tool()
    assert tool.main(["--workload", "table1-genie", "--seeds", "0,1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    by_seed = {}
    for line in lines:
        workload, seed, field, *digest = line.split(" ")
        assert workload == "table1-genie" and len(digest[-1]) == 64
        by_seed.setdefault(seed, {})[field] = " ".join(digest)
    assert set(by_seed) == {"seed=0", "seed=1"}
    # Every RunMetrics field is covered; the joint and the profiles per array.
    names = {name.split(".")[0].split("[")[0] for name in by_seed["seed=0"]}
    assert names == {f.name for f in fields(RunMetrics)}
    assert {"profiles[0].mags_db", "profiles[1].mags_db"} <= set(by_seed["seed=0"])
    assert by_seed["seed=0"]["strategies"] != by_seed["seed=1"]["strategies"]
    assert by_seed["seed=0"]["policies"] == by_seed["seed=1"]["policies"]


def test_config_files_beside_workloads(tmp_path, capsys):
    # A config outside the benchmark digests as the same scenario does
    # under its workload name, and its lines are named by its path.
    path = tmp_path / "copy.cfg"
    path.write_text(load_tool().workload_paths()["table1-genie"].read_text())
    tool = load_tool()
    assert tool.main(["--config", str(path), "--seeds", "3"]) == 0
    alone = capsys.readouterr().out.splitlines()
    assert alone and all(line.startswith(f"{path} seed=3 ") for line in alone)
    assert tool.main(["--workload", "table1-genie", "--config", str(path), "--seeds", "3"]) == 0
    both = capsys.readouterr().out.splitlines()
    assert both == [line.replace(str(path), "table1-genie", 1) for line in alone] + alone


def test_crowd_config_of_eight_is_the_crowd_workload(capsys):
    assert load_tool("crowd_config").main(["8"]) == 0
    crowd = parse_config(capsys.readouterr().out)
    assert crowd == parse_config((ROOT / "perfbench" / "workloads" / "crowd-8.yaml").read_text())
    assert load_tool("crowd_config").main(["0"]) == 1


def test_ab_aa_run_alternates_and_writes_its_summary(tmp_path, capsys):
    # An A/A of this checkout on a 2-frame table1: the fields and the
    # alternation order, not the timings.
    text = (ROOT / "src" / "hopsim" / "data" / "table1.cfg").read_text()
    assert "  frames: 50\n" in text
    config = tmp_path / "table1-2.cfg"
    config.write_text(text.replace("  frames: 50\n", "  frames: 2\n"))
    out = tmp_path / "bench.json"
    out.write_text('{"kept": 1}\n')
    tool = load_tool("ab")
    assert tool.main(["--base", str(ROOT), "--config", str(config), "--seeds", "3", "--aa",
                      "--json", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in printed[1:4]] == [["0", "base"], ["1", "change"],
                                                          ["2", "base"]]
    assert printed[-1].startswith("change wins ")
    saved = json.loads(out.read_text())
    assert set(saved) == {"kept", f"{config} aa"}
    run = saved[f"{config} aa"]
    assert run["config"] == str(config) and run["change"] == "copy of base"
    assert run["seeds"] == [0, 1, 2]
    assert run["order"] == [["base", "change"], ["change", "base"], ["base", "change"]]
    assert all(len(run["seconds"][side]) == 3 and min(run["seconds"][side]) > 0
               for side in ("base", "change"))
    summary = run["summary"]
    assert summary["pairs"] == 3 and 0 <= summary["wins"] <= 3 and summary["median_ratio"] > 0
    for side in ("base", "change"):
        assert summary[side]["q1"] <= summary[side]["median"] <= summary[side]["q3"]
    # Each side's digest lines of every seed, as tools/metrics_digest.py prints
    # them; an A/A agrees.
    assert printed[-2] == "digests equal on every seed: True"
    assert run["digests_equal"] is True and run["digests"]["base"] == run["digests"]["change"]
    assert load_tool().main(["--config", str(config), "--seeds", "0,1,2"]) == 0
    assert run["digests"]["base"] == capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("seeds", ["1,,2", ",4", "7,,", "3,3", "-1"])
def test_bad_seed_lists_are_usage_errors(seeds, capsys):
    # As for hopsim run --seeds: an empty entry, a repeated or a negative
    # seed exits 2 with a usage message, before any run.
    with pytest.raises(SystemExit) as exit_info:
        load_tool().main(["--workload", "table1-genie", "--seeds", seeds])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "error: --seeds: " in captured.err and captured.out == ""


def test_one_trailing_comma_is_one_seed(capsys):
    tool = load_tool()
    assert tool.main(["--workload", "table1-genie", "--seeds", "7,"]) == 0
    trailing = capsys.readouterr().out.splitlines()
    assert tool.main(["--workload", "table1-genie", "--seeds", "7"]) == 0
    assert trailing == capsys.readouterr().out.splitlines()
    assert trailing and all(line.startswith("table1-genie seed=7 ") for line in trailing)


def test_ab_times_several_configs_in_one_call(tmp_path, capsys):
    # Two configs, one A/B each, in the order given: two summaries in the
    # output and two keys in the file, beside what it held.
    text = (ROOT / "src" / "hopsim" / "data" / "table1.cfg").read_text()
    detector = (ROOT / "perfbench" / "workloads" / "table1-detector.yaml").read_text()
    assert "  frames: 50\n" in text and "  frames: 50\n" in detector
    configs = [tmp_path / "genie.cfg", tmp_path / "detector.yaml"]
    for path, body in zip(configs, (text, detector)):
        path.write_text(body.replace("  frames: 50\n", "  frames: 2\n"))
    out = tmp_path / "bench.json"
    out.write_text('{"kept": 1}\n')
    tool = load_tool("ab")
    assert tool.main(["--base", str(ROOT), "--config", str(configs[0]), "--config",
                      str(configs[1]), "--seeds", "2", "--json", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    headers = [line for line in printed if line.startswith("seed  first")]
    assert headers == [f"seed  first   base_s   change_s  ratio  ({path})" for path in configs]
    assert sum(line.startswith("change wins ") for line in printed) == 2
    saved = json.loads(out.read_text())
    assert set(saved) == {"kept"} | {f"{path} ab" for path in configs}
    for path in configs:
        run = saved[f"{path} ab"]
        assert run["config"] == str(path) and run["change"] == "working tree"
        assert run["seeds"] == [0, 1] and run["summary"]["pairs"] == 2
        assert run["digests_equal"] is True
    genie, detector = (saved[f"{path} ab"]["digests"]["base"] for path in configs)
    assert genie != detector
    with pytest.raises(SystemExit) as exit_info:
        tool.main(["--base", str(ROOT)])
    assert exit_info.value.code == 2
