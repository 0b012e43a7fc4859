"""Signal-level simulator for decentralized frequency-hopping FMCW radars.

Modules:
  game     anti-coordination equilibrium solver, regret and CCE metrics
  hopping  explore-then-commit and no-regret schedulers, each radar one stacked row
  signal   chirp synthesis, interference, SINR estimation, fine-range recovery
  sim      multi-radar scenario orchestration
  cli      command-line runner and report generator
"""

import importlib

from . import game, hopping, signal, sim

__all__ = ["cli", "game", "hopping", "signal", "sim"]
__version__ = "0.1.0"


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m hopsim.cli`` runs it only once.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
