"""hopsim benchmark: one workload, a single-client closed loop of `hopsim run` calls.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call is ``hopsim.cli.cmd_run(config, out_dir, [seed])``: simulation,
CSV artifacts, manifest and the manifest's SHA re-verification, the same
path as ``hopsim run``. The workload seed ``N`` only generates the list
of simulation seeds the program receives. Calls run back to back, one at
a time, until the timed calls add up to ``S`` seconds and at least
``MIN_SEEDS`` seeds are done. Every call's artifacts are checked; a seed whose call raises
or whose outputs fail a check counts in ``failed``.

``--trace 0`` times the calls from outside and reports the end-to-end
metrics. ``--trace 1`` runs each seed once untraced and once with span
wrappers installed (see ``spans.py``) and reports per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

# One thread everywhere, fixed before numpy loads: the host has 2 shared
# cores, so thread-pool scaling would measure the neighbours, not hopsim.
PINNED_ENV = {"HOPSIM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

# table1-genie is the bundled config as shipped; the others are derived
# from it and kept beside the benchmark.
WORKLOADS = {
    "table1-genie": SRC / "hopsim" / "data" / "table1.cfg",
    "table1-detector": HERE / "workloads" / "table1-detector.yaml",
    "nash-explore": HERE / "workloads" / "nash-explore.yaml",
    "crowd-8": HERE / "workloads" / "crowd-8.yaml",
}
MIN_SEEDS = 2        # seeds every run completes; outputs_digest covers these
SETUP_WARMUP = 2     # untimed spawns: bytecode caches, then the page cache
SETUP_SAMPLES = 11   # fresh interpreters timed per run for setup_s
PARSE_SAMPLES = 5    # in-process parse_config calls timed for cli.parse_config_s
PROB_ATOL = 1e-9
GAP_ATOL = 1e-6

# A fresh interpreter up to a validated config: what every `hopsim run` pays.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import hopsim.cli
hopsim.cli.parse_config(open(sys.argv[2]).read())
print(repr(time.monotonic()))
"""


class SetupTimer:
    """Seconds from spawning an interpreter to its validated config.

    CLOCK_MONOTONIC is shared by every process on the host, so the child
    stamps the end and the parent the start. Host speed drifts over tens
    of seconds, so the samples are spread evenly over the measured calls
    instead of taken back to back. Untimed spawns first write the
    bytecode caches of a fresh checkout and warm the page cache.
    """

    def __init__(self, cfg_path: Path):
        self.cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(cfg_path)]
        self.samples: list[float] = []
        for _ in range(SETUP_WARMUP):
            self._spawn()

    def _spawn(self) -> float:
        t0 = time.monotonic()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        return float(done.stdout.strip().splitlines()[-1]) - t0

    def sample_due(self, measured: float, seconds: float):
        """Take the samples due once ``measured`` of ``seconds`` have run."""
        while (len(self.samples) < SETUP_SAMPLES
               and measured >= seconds * len(self.samples) / SETUP_SAMPLES):
            self.samples.append(self._spawn())

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(self._spawn())
        return statistics.median(self.samples)


def seed_stream(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def check_seed(out: Path, seed: int, config, manifest) -> list[str]:
    """Problems in one seed's artifacts; empty when every check passes."""
    problems = []
    for rel, digest in manifest.files.items():
        if hashlib.sha256((out / rel).read_bytes()).hexdigest() != digest:
            problems.append(f"{rel}: sha256 differs from the manifest")

    summary = manifest.summary[str(seed)]
    # Criterion 4: the CCE gap equals regret per aligned step.
    steps = config.frames * max(r.chirp.chirps_per_frame for r in config.radars)
    for i, (gap, regret) in enumerate(zip(summary["cce_gap_db"],
                                          summary["external_regret_db"])):
        if not gap <= regret / steps + GAP_ATOL:
            problems.append(f"radar {i + 1}: cce_gap_db {gap} > external_regret_db/steps")
    widths = list(summary["mainlobe_width_m"].values())
    if not widths or not np.all(np.isfinite(widths)):
        problems.append(f"mainlobe widths not finite: {widths}")

    seed_dir = out / f"seed_{seed}"
    intf = np.loadtxt(seed_dir / "interference.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.all((intf[:, 2] >= 0.0) & (intf[:, 2] <= 1.0)):
        problems.append("interference rate outside [0, 1]")
    if not np.all(np.isfinite(intf[:, 3])):
        problems.append("mean SINR not finite")

    strat = np.loadtxt(seed_dir / "strategies.csv", delimiter=",", skiprows=1, ndmin=2)
    sums = np.zeros((config.total_episodes, config.n_radars))
    np.add.at(sums, (strat[:, 0].astype(int) - 1, strat[:, 1].astype(int) - 1), strat[:, 3])
    if not np.all(np.abs(sums - 1.0) <= PROB_ATOL):
        problems.append("a strategies.csv (episode, radar) row does not sum to 1")
    return problems


def clean_step_frac(joint_csv: Path, config) -> float:
    """Joint-action mass with no linked pair of radars on the same subband."""
    # Joint actions are written "1-4-2"; mass values may hold "e-05".
    text = re.sub(r"(?<=\d)-(?=\d)", ",", joint_csv.read_text())
    rows = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
    actions, mass = rows[:, :-1].astype(int), rows[:, -1]
    clean = np.ones(len(rows), dtype=bool)
    for link in config.links:
        clean &= actions[:, link.victim] != actions[:, link.source]
    return float(mass[clean].sum())


def samples_synth(config) -> int:
    """Complex samples synthesized per seed: echo per target, noise, one
    interference term per incoming link, every chirp of every frame."""
    total = 0
    for i, spec in enumerate(config.radars):
        links_in = sum(1 for link in config.links if link.victim == i)
        total += (spec.chirp.n_samples * spec.chirp.chirps_per_frame
                  * (len(spec.targets) + 1 + links_in))
    return total * config.frames


def median_parse_seconds(cli, text: str) -> float:
    samples = []
    for _ in range(PARSE_SAMPLES):
        t0 = time.perf_counter()
        cli.parse_config(text)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def tail_percentile(samples: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    p = int(100 * (1 - 10 / n)) if n >= 20 else 0
    if p < 50:
        return f"no percentile above p50 has 10 samples beyond it at n={n}"
    return f"p{p}={statistics.quantiles(samples, n=100)[p - 1]:.6f}s"


class Call(NamedTuple):
    seconds: float
    files: dict     # artifact path -> sha256, sorted by path
    out: Path


class Loop:
    """Closed loop of single-seed ``cmd_run`` calls and their checks."""

    def __init__(self, hopsim, config, tmp: Path):
        self.cli, self.config, self.tmp = hopsim.cli, config, tmp
        self.sites = spans.lookup_sites(hopsim)
        self.attempted = 0
        self.failed = 0

    def call(self, seed: int, tag: str, tracer=None):
        """Run and check one seed; None if it failed."""
        out = self.tmp / f"{tag}-{seed}"
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.perf_counter()
                manifest = self.cli.cmd_run(self.config, out, [seed])
                seconds = time.perf_counter() - t0
            else:
                with tracer.installed(self.sites):
                    t0 = time.perf_counter()
                    with tracer.span("cli.cmd_run"):
                        manifest = self.cli.cmd_run(self.config, out, [seed])
                    seconds = time.perf_counter() - t0
            problems = check_seed(out, seed, self.config, manifest)
        except Exception:  # one failed seed must not end the run
            traceback.print_exc()
            problems = ["cmd_run or the output checks raised"]
        if problems:
            self.failed += 1
            print(f"seed {seed} ({tag}) FAILED: " + "; ".join(problems), file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            return None
        return Call(seconds, dict(sorted(manifest.files.items())), out)


def outputs_digest(per_seed: list[tuple[int, dict]]) -> str:
    h = hashlib.sha256()
    for seed, files in per_seed:
        h.update(f"seed {seed}\n".encode())
        for rel, digest in files.items():
            h.update(f"{rel} {digest}\n".encode())
    return h.hexdigest()


def run_untraced(loop: Loop, seeds, seconds: float, cfg_path: Path) -> dict:
    setup = SetupTimer(cfg_path)
    times, digests = [], []
    for seed in seeds:
        setup.sample_due(sum(times), seconds)
        if (sum(times) >= seconds and len(times) >= MIN_SEEDS) or loop.failed > MIN_SEEDS:
            break
        call = loop.call(seed, "run")
        if call is None:
            continue
        shutil.rmtree(call.out)
        times.append(call.seconds)
        if len(digests) < MIN_SEEDS:
            digests.append((seed, call.files))
    if not times:
        return None
    config = loop.config
    chirps = config.frames * sum(r.chirp.chirps_per_frame for r in config.radars)
    # The median call time is printed, not gated: host slow spells that
    # outlast a run moved it by up to 27% between runs; the total-based
    # chirps_per_s over the same calls moved less.
    print(f"run_s: n={len(times)} p50={statistics.median(times):.6f}s; "
          f"{tail_percentile(times)}")
    print(f"outputs_digest: {outputs_digest(digests)} over seeds {[s for s, _ in digests]}")
    return {
        "setup_s": (setup.median(), "s"),
        "chirps_per_s": (chirps * len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(loop: Loop, seeds, seconds: float, cfg_path: Path) -> dict:
    config = loop.config
    walls, plain_walls, layers, solves, nbytes, clean, digests = [], [], [], [], [], [], []
    for seed in seeds:
        measured = sum(walls) + sum(plain_walls)
        if (measured >= seconds and len(walls) >= MIN_SEEDS) or loop.failed > MIN_SEEDS:
            break
        # Alternate which of the pair runs first, so drift between the two
        # calls does not read as tracing overhead.
        tracer = spans.Tracer()
        if len(walls) % 2:
            traced = loop.call(seed, "traced", tracer)
            plain = loop.call(seed, "plain")
        else:
            plain = loop.call(seed, "plain")
            traced = loop.call(seed, "traced", tracer)
        if plain is None or traced is None:
            continue
        shutil.rmtree(plain.out)
        out = traced.out
        if traced.files != plain.files:
            loop.failed += 1
            print(f"seed {seed}: traced artifacts differ from untraced ones", file=sys.stderr)
            shutil.rmtree(out)
            continue
        walls.append(traced.seconds)
        plain_walls.append(plain.seconds)
        layers.append(spans.layer_totals(tracer.self_times()))
        solves.append(tracer.count("game.solve_nash_welfare_max"))
        nbytes.append(sum((out / rel).stat().st_size for rel in traced.files)
                      + (out / "manifest.json").stat().st_size)
        clean.append(clean_step_frac(out / f"seed_{seed}" / "joint_dist.csv", config))
        shutil.rmtree(out)
        if len(digests) < MIN_SEEDS:
            digests.append((seed, traced.files))
    if not walls:
        return None
    print(f"traced seeds: n={len(walls)}")
    print(f"outputs_digest: {outputs_digest(digests)} over seeds {[s for s, _ in digests]}")
    n, a = config.n_radars, config.n_subbands
    metrics = {name: (statistics.median(l[name] for l in layers), "s")
               for name in spans.LAYER_METRICS}
    metrics.update({
        "cli.parse_config_s": (median_parse_seconds(loop.cli, cfg_path.read_text()), "s"),
        "cli.artifact_bytes": (statistics.median(nbytes), "bytes"),
        "game.solve_calls": (statistics.median(solves), "count"),
        "game.table_cells": (n * a**n, "count"),
        "sim.samples_synth": (samples_synth(config), "count"),
        "hopping.clean_step_frac": (statistics.median(clean), "fraction"),
        "trace.coverage_frac": (sum(sum(l.values()) for l in layers) / sum(walls), "fraction"),
        "trace.overhead_frac": (sum(walls) / sum(plain_walls) - 1.0, "fraction"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cfg_path = WORKLOADS[args.workload]
    if not (SRC / "hopsim" / "__init__.py").is_file() or not cfg_path.is_file():
        print(f"perfbench: no hopsim sources at {SRC} (or no {cfg_path.name})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hopsim
    from hopsim import cli
    if Path(hopsim.__file__).resolve().parent != SRC / "hopsim":
        print(f"perfbench: imported hopsim from {hopsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    print(f"env: workload={args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"python={sys.version.split()[0]} numpy={np.__version__} "
          + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))
    config = cli.parse_config(cfg_path.read_text())
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        # Warm-up, untimed: first-call costs (thread pool, lazy numpy
        # state, CSV writer paths) that a seed sweep pays only once.
        table1 = cli.parse_config(WORKLOADS["table1-genie"].read_text())
        cli.cmd_run(replace(table1, frames=2), tmp / "warmup", [0])
        loop = Loop(hopsim, config, tmp)
        runner = run_traced if args.trace else run_untraced
        metrics = runner(loop, seed_stream(args.seed), args.seconds, cfg_path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if metrics is None:
        print("perfbench: no seed ran and passed its checks", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": float(v), "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
