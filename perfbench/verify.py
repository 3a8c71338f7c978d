"""What each workload's outputs must be, checked after the timed run.

Every command's outputs are checked; the oracles run once per run, on the
first iteration; a corrupted copy of one output proves the checks bite.
"""

from __future__ import annotations

import hashlib
import os

import checks
import workloads


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, list]] = []
        self.selftest = ""

    def record(self, what: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append((what, problems))
        return not problems


def _sha(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def _surface_oracles(signadd, oracles, surfaces, rng, ledger, fingerprints):
    """Op counts and values of in-process surfaces, one eq12a row against the
    recursive oracle, every eq11 row against np.fft.fft."""
    for v, (trial, surf) in surfaces.items():
        fingerprints[f"{v}.values"] = _sha(surf.values)
        ledger.record(f"{v} AmbiguitySurface.op_counts", checks.count_problems(
            v, surf.op_counts, *checks.surface_counts(v, trial.l_bins, trial.n)))
    trial, surf = surfaces["eq12a"]
    l = int(rng.integers(surf.l_bins))
    ledger.record(f"eq12a row {l} against nfft_recursive",
                  checks.nfft_row_problems(signadd, oracles, trial, surf, l))
    ledger.record("eq11 rows against np.fft.fft", checks.eq11_problems(signadd, *surfaces["eq11"]))


class Campaign:
    def __init__(self, signadd, oracles, work):
        self.signadd, self.oracles = signadd, oracles
        self.rows = signadd.default_table_rows()
        self.expected = [(env, v, scn.noise.label()) for env, scn, v in self.rows]
        self.first = []

    def command(self, it, c):
        path = c["out"] + ".table.csv"
        rows, problems = checks.table_csv_problems(path, self.expected, it["seed"])
        if it["index"] == 0:
            self.first = rows
        return path, problems, lambda p: checks.table_csv_problems(p, self.expected, it["seed"])[1]

    def once(self, s0, rng, ledger, fingerprints):
        sd = self.signadd
        r = int(rng.integers(len(self.rows)))
        env, scn, variant = self.rows[r]
        rep = sd.run_scenario(scn, variant, s0)
        row = self.first[r] if r < len(self.first) else {}
        ledger.record(
            f"trial {env}/{variant}/{scn.noise.label()} seed {s0} recomputed by run_scenario",
            [] if (rep.overall == row.get("performance")
                   and repr(float(rep.sidelobe_floor_db)) == row.get("sidelobe_floor_db"))
            else [f"run_scenario gives {rep.overall} {float(rep.sidelobe_floor_db)!r}, table {row}"])
        j = int(rng.choice([i for i, (_, _, v) in enumerate(self.rows) if v == "eq12a"]))
        trial = sd.radar.reseed_scenario(self.rows[j][1], s0)
        surfaces = {v: (trial, sd.surface_for_scenario(trial, v)) for v in ("eq12a", "eq11")}
        _surface_oracles(sd, self.oracles, surfaces, rng, ledger, fingerprints)


class Surface:
    """Iteration 0 against in-process surfaces; later iterations repeat the
    same commands and must write the same bytes."""

    def __init__(self, signadd, oracles, work):
        self.signadd, self.oracles = signadd, oracles
        self.scenario = signadd.load_scenario(workloads.SCENARIO)
        self.first = {}
        self.prints = {}

    def command(self, it, c):
        v, out = c["label"], c["out"]
        path = out + ".surface.csv"
        if v in self.prints:
            same = checks.output_fingerprints(out) == self.prints[v]
            return path, [] if same else [f"{out}.* differ from the first iteration's"], None
        trial = self.signadd.radar.reseed_scenario(self.scenario, it["seed"])
        surf = self.signadd.surface_for_scenario(trial, v)
        self.first[v] = (trial, surf)
        self.prints[v] = checks.output_fingerprints(out)
        problems = checks.surface_csv_problems(path, surf) + checks.cut_problems(out, surf)
        problems += checks.manifest_problems(out, *checks.surface_counts(v, trial.l_bins, trial.n))
        return path, problems, lambda p: checks.surface_csv_problems(p, surf)

    def once(self, s0, rng, ledger, fingerprints):
        _surface_oracles(self.signadd, self.oracles, self.first, rng, ledger, fingerprints)


class Spectra:
    def __init__(self, signadd, oracles, work):
        self.signadd, self.oracles = signadd, oracles
        self.x = workloads.read_signal(workloads.signal_path(work))
        fns = {"ndft": signadd.ndft, "dft": signadd.dft_exact,
               "nfft": signadd.nfft, "fft": signadd.fft_exact}
        self.refs = {k: fns[k](self.x) for k in workloads.KINDS}

    def command(self, it, c):
        ref = self.refs[c["label"]]
        path = c["out"] + ".spectrum.csv"
        problems = checks.spectrum_csv_problems(path, ref)
        problems += checks.manifest_problems(
            c["out"], *checks.transform_counts(c["label"], self.x.size))
        return path, problems, lambda p: checks.spectrum_csv_problems(p, ref)

    def once(self, s0, rng, ledger, fingerprints):
        x, refs = self.x, self.refs
        for k, ref in refs.items():
            fingerprints[f"{k}.values"] = _sha(ref.bins)
            ledger.record(f"{k} Spectrum.op_counts", checks.count_problems(
                k, ref.op_counts, *checks.transform_counts(k, x.size)))
        ledger.record("nfft against nfft_recursive",
                      [] if self.oracles.nfft_recursive(x).tobytes() == refs["nfft"].bins.tobytes()
                      else ["nfft differs from nfft_recursive bit for bit"])
        ks = rng.choice(x.size, size=8, replace=False)
        ledger.record("8 sampled ndft bins against the double loop",
                      checks.ndft_bin_problems(self.signadd, self.oracles, x, refs["ndft"], ks))
        for k in ("dft", "fft"):
            ledger.record(f"{k} against np.fft.fft", checks.exact_spectrum_problems(x, refs[k]))


class Files:
    """The surface commands, then the spectra commands, each checked as above."""

    def __init__(self, signadd, oracles, work):
        self.surface = Surface(signadd, oracles, work)
        self.spectra = Spectra(signadd, oracles, work)

    def command(self, it, c):
        part = self.surface if c["label"] in workloads.VARIANTS else self.spectra
        return part.command(it, c)

    def once(self, s0, rng, ledger, fingerprints):
        self.surface.once(s0, rng, ledger, fingerprints)
        self.spectra.once(s0, rng, ledger, fingerprints)


def table_counts(signadd, traced_tables: list, ledger) -> None:
    """TableRow.op_counts summed over each traced ``table`` command (one
    campaign seed) against the cost model."""
    rows = signadd.default_table_rows()
    model = [sum(checks.surface_counts(v, scn.l_bins, scn.n)[i] for _, scn, v in rows)
             for i in (0, 1)]
    for counts in traced_tables:
        got = [sum(c[i] for c in counts) for i in (0, 1)]
        ledger.record("TableRow.op_counts of one campaign seed",
                      [] if got == model else [f"(mf, mul) {got} != cost model {model}"])


VERIFIERS = {"campaign": Campaign, "files": Files}


def verify(workload, signadd, root, work, iterations, ledger, fingerprints, rng) -> dict:
    """Check all outputs; return items completed cleanly per iteration index."""
    verifier = VERIFIERS[workload](signadd, checks.load_oracles(root), work)
    items = {}
    selftest = None
    for it in iterations:
        items[it["index"]] = 0
        for c in it["commands"]:
            path, problems, recheck = verifier.command(it, c)
            if c["rc"] != 0:
                problems.insert(0, f"exit status {c['rc']}")
            if ledger.record(f"{c['label']} seed {it['seed']}", problems):
                items[it["index"]] += c["items"]
            if it["index"] == 0:
                fingerprints.update({c["label"] + k: v
                                     for k, v in checks.output_fingerprints(c["out"]).items()})
                selftest = selftest or (path, recheck)
    verifier.once(iterations[0]["seed"], rng, ledger, fingerprints)
    path, recheck = selftest
    what = f"self-test: a corrupted copy of {os.path.basename(path)} counts as failed"
    caught = recheck(checks.corrupted_copy(path))
    ledger.record(what, [] if caught else ["the output check passed a corrupted file"])
    ledger.selftest = f"{what}: {caught[0] if caught else 'NOT CAUGHT'}"
    return items
