"""Layer spans recorded from outside the hopsim package.

A ``Tracer`` replaces functions at the module attribute through which
hopsim looks each one up, records one span per call (name, start, end,
parent), and puts the originals back when the ``installed()`` block
exits. Nothing inside ``src/`` is edited.

Spans nest through one stack shared by every thread. ``cmd_run`` calls
``run_scenario`` on a pool worker thread, so a per-thread stack would
lose that parent link. Sharing the stack is exact only while one thread
runs at a time; the benchmark pins ``HOPSIM_THREADS=1`` and each wrapper
checks on exit that it closes the innermost open span.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass

# Span name -> per-layer metric that receives its self time. A span
# whose name is missing here still nests correctly but is left out of
# every layer total, so it shows up as lost trace coverage.
LAYER_OF = {
    "cli.cmd_run": "cli.cmd_run_self_s",
    "sim.run_scenario": "sim.run_scenario_self_s",
    "signal.echo_frame": "signal.echo_frame_s",
    "signal.coarse_decompose": "signal.echo_frame_s",
    "signal.estimate_episode_sinr": "signal.estimate_episode_sinr_s",
    "signal.range_fft": "signal.range_s",
    "signal.default_eps_grid": "signal.range_s",
    "signal.sweep_coarse_bins": "signal.range_s",
    "signal.fine_range_doppler": "signal.range_s",
    "signal.range_profile_at_velocity": "signal.range_s",
    "signal.mainlobe_width": "signal.range_s",
    "hopping.sample_subbands": "hopping.sample_subbands_s",
    "hopping.noregret_update": "hopping.update_self_s",
    "hopping.nash_explore_update": "hopping.update_self_s",
    "hopping.nash_commit": "hopping.update_self_s",
    "game.solve_nash_welfare_max": "game.solve_s",
    "sim.genie_utility_table": "game.eval_s",
    "game.empirical_joint": "game.eval_s",
    "game.external_regret": "game.eval_s",
    "game.cce_deviation_gap": "game.eval_s",
}
LAYER_METRICS = tuple(dict.fromkeys(LAYER_OF.values()))


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


def _span_name(fn) -> str:
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


def lookup_sites(hopsim) -> list[tuple[object, str]]:
    """(module, attribute) pairs through which hopsim calls each traced layer."""
    sim, game = hopsim.sim, hopsim.game
    sites = [(hopsim.cli, "run_scenario"), (hopsim.hopping, "solve_nash_welfare_max")]
    sites += [(sim, name) for name in ("noregret_update", "nash_explore_update",
                                       "nash_commit", "sample_subbands",
                                       "genie_utility_table")]
    sites += [(sim, name) for name, obj in vars(sim).items()
              if inspect.isfunction(obj) and obj.__module__ == game.__name__]
    sites += [(hopsim.signal, name) for name, obj in vars(hopsim.signal).items()
              if inspect.isfunction(obj) and not name.startswith("_")
              and obj.__module__ == hopsim.signal.__name__]
    return sites


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                  name=name, start=time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self._stack.pop() != sp.id:
                raise RuntimeError(f"span {name} closed out of order: threads interleaved")

    def wrap(self, fn):
        name = _span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self, sites):
        """Replace every (module, attribute) site by its traced wrapper."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr in sites]
        try:
            for mod, attr, fn in saved:
                setattr(mod, attr, self.wrap(fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name.

        Self time is a span's duration minus the part of it that the
        union of its children's intervals covers, so nested spans (the
        solve inside a Nash update) are never counted twice.
        """
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            children.setdefault(sp.parent, []).append(sp)
        totals: dict[str, float] = {}
        for sp in self.spans:
            covered, reach = 0.0, sp.start
            for kid in sorted(children.get(sp.id, []), key=lambda k: k.start):
                lo, hi = max(kid.start, reach), min(kid.end, sp.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[sp.name] = totals.get(sp.name, 0.0) + (sp.end - sp.start) - covered
        return totals

    def count(self, name: str) -> int:
        return sum(1 for sp in self.spans if sp.name == name)


def layer_totals(self_times: dict[str, float]) -> dict[str, float]:
    """Sum span self times into the per-layer metrics of ``LAYER_OF``."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for name, seconds in self_times.items():
        if name in LAYER_OF:
            out[LAYER_OF[name]] += seconds
    return out
