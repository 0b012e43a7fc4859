"""In-process A/B timing of ``run_scenario`` between two source trees.

    python3 tools/ab.py --base REF|DIR (--workload NAME | --config PATH)...
                        [--seeds N] [--aa] [--json PATH]

The change is this checkout's ``src/``. The base is a directory that
holds a checkout, or a git ref of this repository, which is ``git
archive``d into a temporary directory. ``--aa`` times the base against a
second copy of itself, which is the noise floor. ``--workload`` and
``--config`` may each be given several times; the configs are timed one
after another, workloads first, each in the order given.

For each config, each side runs in one long-lived worker process. The
worker imports its own ``hopsim``, parses the config once and runs one
untimed warm-up, so interpreter start-up and parsing stay out of the
timings. Seeds 0 .. N-1 run on both sides in turn, and the side that runs
first alternates from one seed to the next. After each timed run the
worker takes the ``tools/metrics_digest.py`` lines of its metrics, outside
the timing. Every process runs its OpenMP and BLAS pools on one thread,
as ``perfbench/run.py`` does. Prints, per config, each seed's seconds,
each side's median and quartiles, whether the two sides' digests agree on
every seed, the change's wins and the median per-seed ratio change /
base. ``--json`` merges each config's result, digest lines included, into
that file under the key "<workload or config> ab" (or "aa").
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics_digest import workload_paths  # noqa: E402

PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# argv: src directory, tools directory, config path, config name. Reads one
# seed per line from stdin and answers each with a JSON line: the seconds its
# run took, then the run's digest lines.
WORKER = """\
import dataclasses, json, sys, time
sys.path[:0] = sys.argv[1:3]
from hopsim.cli import parse_config
from hopsim.sim import run_scenario
from metrics_digest import metrics_digests
config = parse_config(open(sys.argv[3]).read())
run_scenario(config)
print("ready", flush=True)
for line in sys.stdin:
    run = dataclasses.replace(config, seed=int(line))
    start = time.perf_counter()
    metrics = run_scenario(run)
    seconds = time.perf_counter() - start
    digests = [f"{sys.argv[4]} seed={run.seed} {field} {digest}"
               for field, digest in metrics_digests(metrics).items()]
    del metrics  # freed before the next timed run
    print(json.dumps([seconds, digests]), flush=True)
"""


class Worker:
    """One side's long-lived worker process."""

    def __init__(self, label: str, src: Path, config: Path, name: str):
        self.label = label
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, str(src), str(ROOT / "tools"), str(config), name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=os.environ | PINNED_ENV)
        self._expect("ready")

    def _expect(self, what: str) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.label} worker exited before answering {what}")
        return line.strip()

    def run(self, seed: int) -> tuple[float, list[str]]:
        """The seed's run seconds and its digest lines."""
        self.proc.stdin.write(f"{seed}\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self._expect(f"seed {seed}")))

    def close(self):
        self.proc.stdin.close()  # the worker's loop ends at end of input
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


def base_src(base: str, tmp: Path) -> Path:
    """The base's ``src`` directory: ``base`` itself if a directory, else the
    ``git archive`` of that ref of this repository, unpacked under ``tmp``."""
    if Path(base).is_dir():
        return Path(base) / "src"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tmp / "base", filter="data")
    return tmp / "base" / "src"


def summary(seconds: dict[str, list[float]]) -> dict:
    """Median and quartiles per side, the change's wins and the median ratio."""
    out = {}
    for side, values in seconds.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        out[side] = {"median": float(median), "q1": float(q1), "q3": float(q3)}
    base, change = (np.array(seconds[side]) for side in ("base", "change"))
    out["wins"] = int(np.count_nonzero(change < base))
    out["pairs"] = int(base.size)
    out["median_ratio"] = float(np.median(change / base))
    return out


def compare(name: str, config: Path, base: Path, change: Path, seeds: int) -> dict:
    """Time ``seeds`` seeds of one config on both sides; print and return the result."""
    workers, order = [], []
    seconds, digests = {"base": [], "change": []}, {"base": [], "change": []}
    try:
        for label, src in (("base", base), ("change", change)):
            workers.append(Worker(label, src, config, name))
        print(f"seed  first   base_s   change_s  ratio  ({name})")
        for seed in range(seeds):
            turn = workers if seed % 2 == 0 else workers[::-1]
            for worker in turn:
                run_s, lines = worker.run(seed)
                seconds[worker.label].append(run_s)
                digests[worker.label] += lines
            order.append([worker.label for worker in turn])
            b, c = seconds["base"][-1], seconds["change"][-1]
            print(f"{seed:<5} {turn[0].label:<7} {b:.5f}  {c:.5f}   {c / b:.3f}", flush=True)
    finally:
        for worker in workers:
            worker.close()

    stats = summary(seconds)
    for side in ("base", "change"):
        s = stats[side]
        print(f"{side:<7} median {s['median']:.5f} s, quartiles {s['q1']:.5f} .. {s['q3']:.5f}")
    digests_equal = digests["base"] == digests["change"]
    print(f"digests equal on every seed: {digests_equal}")
    print(f"change wins {stats['wins']}/{stats['pairs']}, "
          f"median ratio change/base {stats['median_ratio']:.3f}")
    return {"config": name, "seeds": list(range(seeds)), "order": order, "seconds": seconds,
            "summary": stats, "digests": digests, "digests_equal": digests_equal}


def main(argv=None) -> int:
    paths = workload_paths()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REF|DIR",
                        help="checkout directory or git ref to time against")
    parser.add_argument("--workload", action="append", default=[], choices=sorted(paths),
                        help="benchmark workload (repeatable)")
    parser.add_argument("--config", action="append", default=[], metavar="PATH",
                        help="scenario config file (repeatable)")
    parser.add_argument("--seeds", type=int, default=10, metavar="N",
                        help="seeds 0 .. N-1, each timed once per side (default: 10)")
    parser.add_argument("--aa", action="store_true",
                        help="time the base against a copy of itself")
    parser.add_argument("--json", metavar="PATH", help="merge the results into this file")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    runs = {name: paths[name] for name in args.workload} | {path: Path(path)
                                                            for path in args.config}
    if not runs:
        parser.error("give at least one --workload or --config")

    results = {}
    with tempfile.TemporaryDirectory(prefix="hopsim-ab-") as tmp:
        base = base_src(args.base, Path(tmp))
        change = ROOT / "src"
        if args.aa:
            change = Path(shutil.copytree(base, Path(tmp) / "copy" / "src"))
        for name, config in runs.items():
            results[name] = compare(name, config, base, change, args.seeds)
    if args.json:
        mode = "aa" if args.aa else "ab"
        host = {"machine": platform.machine(), "cpus": os.cpu_count(),
                "python": platform.python_version(), "numpy": np.__version__}
        path = Path(args.json)
        merged = json.loads(path.read_text()) if path.exists() else {}
        for name, result in results.items():
            merged[f"{name} {mode}"] = {
                "config": name, "base": args.base,
                "change": "copy of base" if args.aa else "working tree", "host": host,
                **{key: value for key, value in result.items() if key != "config"}}
        path.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
