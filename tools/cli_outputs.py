"""SHA-256 of every file a fixed matrix of CLI commands writes.

    python3 tools/cli_outputs.py ROOT OUT

Runs ``python -m signadd`` from the checkout ``ROOT`` (its ``src``), with
every path absolute, writing into the new or empty directory ``OUT``.  Prints
``<sha256>  <name>``, sorted by name, for each output except the manifests,
which carry a timestamp, and for the standard output of each command that
prints (saved as ``<prefix>.stdout``).  Two checkouts write the same bytes
exactly when they print the same lines:

    python3 tools/cli_outputs.py PARENT /tmp/a > a.txt
    python3 tools/cli_outputs.py . /tmp/b > b.txt
    diff a.txt b.txt

The matrix: ``ambiguity --svg`` for the four variants at seeds 0 and 7 on
``demos/scenario_benchmark.json``; ``transform --svg`` for the four kinds on
a seeded N=2048 signal CSV with planted signed zeros, and on ``--tone 3
--n 256``; ``table --seeds 0`` for the default set and for
``demos/table_set_example.json``, and for a set whose environment names
need quoting or are not ASCII; ``opcount`` at the default sizes and at
``2,16,64,1024``.

``tests/cli_outputs.sha256`` holds the lines for the current checkout, and
``tests/test_cli.py`` runs the same matrix in one process (``run_in_process``,
through ``signadd.cli.main``) and compares.  After a deliberate output
change, regenerate it with

    python3 tools/cli_outputs.py . "$(mktemp -d)" > tests/cli_outputs.sha256
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

VARIANTS = ("eq11", "eq12a", "eq12b", "eq12c")
KINDS = ("dft", "fft", "ndft", "nfft")
INPUTS = ("signal.csv", "table_set.json")  # written by the tool, not hashed


def write_signal(path: Path) -> None:
    """Seeded complex Gaussian samples, N=2048, with signed zeros planted in
    both parts, as the ``re,im`` CSV the CLI reads."""
    rng = np.random.default_rng(2048)
    re, im = rng.standard_normal((2, 2048))
    re[::97], im[::89], im[5::101] = -0.0, 0.0, -0.0
    re[7] = im[7] = -0.0
    rows = "".join(f"{a!r},{b!r}\n" for a, b in zip(re.tolist(), im.tolist()))
    path.write_text("re,im\n" + rows, encoding="utf-8")


def write_quoted_table_set(root: Path, path: Path) -> None:
    """A table set of three ``none``/eq11 rows on the scenario of
    ``demos/table_set_example.json``, under environment names that the CSV
    must quote or that are not ASCII."""
    example = json.loads((root / "demos" / "table_set_example.json").read_text(encoding="utf-8"))
    scenario = example["environments"][0]["scenario"]
    names = ['far, "quiet"', "two\nlines", "Zürich–Süd 雷达"]
    doc = {"environments": [{"name": name, "scenario": scenario} for name in names],
           "noises": [{"kind": "none"}], "variants": ["eq11"]}
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")


def commands(root: Path, out: Path) -> dict:
    """Output prefix name -> CLI arguments before ``--out``."""
    scenario = str(root / "demos" / "scenario_benchmark.json")
    cmds = {f"ambiguity_{v}_seed{s}": ["ambiguity", "--scenario", scenario, "--variant", v,
                                       "--seed", str(s), "--svg"]
            for v in VARIANTS for s in (0, 7)}
    for k in KINDS:
        cmds[f"input_{k}"] = ["transform", "--kind", k, "--input", str(out / "signal.csv"),
                              "--svg"]
        cmds[f"tone_{k}"] = ["transform", "--kind", k, "--tone", "3", "--n", "256", "--svg"]
    cmds["table_default"] = ["table", "--set", "default", "--seeds", "0"]
    cmds["table_example"] = ["table", "--set", str(root / "demos" / "table_set_example.json"),
                             "--seeds", "0"]
    cmds["table_quoted"] = ["table", "--set", str(out / "table_set.json"), "--seeds", "0"]
    cmds["opcount_default"] = ["opcount"]
    cmds["opcount_sizes"] = ["opcount", "--n-list", "2,16,64,1024"]
    return cmds


def run_subprocess(root: Path, out: Path, args: list[str]) -> bytes:
    """Standard output of ``python -m signadd ARGS`` on the checkout ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-m", "signadd", *args], cwd=out, env=env,
                         capture_output=True)
    if run.returncode != 0:
        raise SystemExit(f"cli_outputs: {' '.join(args)} exited {run.returncode}: "
                         f"{run.stderr.decode(errors='replace')}")
    return run.stdout


def run_in_process(root: Path, out: Path, args: list[str]) -> bytes:
    """Standard output of ``signadd.cli.main(ARGS)`` in this process, with
    whichever ``signadd`` it imports."""
    from signadd import cli

    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"cli_outputs: {' '.join(args)} exited {code}")
    return stdout.getvalue().encode()


def output_hashes(root: Path, out: Path, run=run_subprocess) -> list[str]:
    """``<sha256>  <name>`` of each output of the matrix, run by ``run`` into
    the new or empty directory ``out``, sorted by name."""
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"cli_outputs: {out} is not empty")
    write_signal(out / "signal.csv")
    write_quoted_table_set(root, out / "table_set.json")
    for name, args in commands(root, out).items():
        stdout = run(root, out, [*args, "--out", str(out / name)])
        if stdout:
            (out / f"{name}.stdout").write_bytes(stdout)
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}"
            for path in sorted(out.iterdir())
            if path.name not in INPUTS and not path.name.endswith(".manifest.json")]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    print("\n".join(output_hashes(*(Path(a).resolve() for a in argv))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
