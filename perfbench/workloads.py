"""The two workloads: inputs, set-up and the fixed command cycle of one iteration.

An iteration is always the same cycle of CLI commands, never one command
drawn from a mix, so iteration times are unimodal.

* ``campaign``: ``table --set default --seeds s``, 24 trials (3 environments
  x 4 noise cases x eq12a/eq11), one item per trial.
* ``files``: ``ambiguity --scenario demos/scenario_benchmark.json
  --variant V --seed s --svg`` for the four variants, one item per surface;
  ``s`` stays that of the first iteration, so every later iteration must
  write the same bytes.  Then ``transform --input signal.csv --kind K`` for
  the four transforms on one seeded N=2048 signal, one item per spectrum.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("campaign", "files")
SCENARIO = os.path.join("demos", "scenario_benchmark.json")
VARIANTS = ("eq11", "eq12a", "eq12b", "eq12c")
KINDS = ("ndft", "dft", "nfft", "fft")
N_SPECTRA = 2048


def import_signadd(root: str):
    """Import signadd from the checkout's ``src``, never from elsewhere."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import signadd

    if not os.path.abspath(signadd.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported signadd from {signadd.__file__}, not {src}")
    return signadd


def signal_path(work: str) -> str:
    return os.path.join(work, "signal.csv")


def iteration_seed(seed: int, i: int) -> int:
    """Trial seed of iteration ``i``: advances from the workload seed."""
    return abs(seed) * 1000 + i


def write_signal(path: str, seed: int) -> np.ndarray:
    """Seeded complex Gaussian signal as the ``re,im`` CSV the CLI reads."""
    rng = np.random.default_rng([abs(seed), N_SPECTRA])
    x = rng.standard_normal(N_SPECTRA) + 1j * rng.standard_normal(N_SPECTRA)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("re,im\n")
        fh.writelines(f"{float(v.real)!r},{float(v.imag)!r}\n" for v in x)
    return x


def read_signal(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([complex(float(re), float(im)) for re, im in rows])


@dataclass(frozen=True)
class Command:
    label: str          # table, a variant or a transform kind
    argv: tuple         # arguments of signadd.cli.main
    out: str            # output prefix
    items: int
    seed: int           # the trial seed, or the run seed the input came from


def commands(workload: str, work: str, seed: int, i: int, trials: int) -> list:
    """The commands of iteration ``i``.  Each iteration writes into its own
    folder under the same file names, so repeated outputs match byte for
    byte (the CSVs name their manifest)."""
    s = iteration_seed(seed, i)
    folder = os.path.join(work, f"it{i:03d}")
    if workload == "campaign":
        out = os.path.join(folder, "table")
        return [Command("table", ("table", "--set", "default", "--seeds", str(s),
                                  "--out", out), out, trials, s)]
    s = iteration_seed(seed, 0)
    return [Command(v, ("ambiguity", "--scenario", SCENARIO, "--variant", v,
                        "--seed", str(s), "--svg", "--out", os.path.join(folder, v)),
                    os.path.join(folder, v), 1, s) for v in VARIANTS] + [
        Command(k, ("transform", "--input", signal_path(work), "--kind", k,
                    "--out", os.path.join(folder, k)), os.path.join(folder, k), 1, seed)
        for k in KINDS]


def setup(workload: str, work: str) -> int:
    """Load the workload's inputs and build its first twiddle tables.

    Returns the number of items in one campaign iteration (trials), or 0.
    """
    import signadd

    if workload == "campaign":
        rows = signadd.default_table_rows()
        signadd.twiddle_table(rows[0][1].n)
        return len(rows)
    signadd.twiddle_table(signadd.load_scenario(SCENARIO).n)
    signadd.twiddle_table(read_signal(signal_path(work)).size)
    return 0
