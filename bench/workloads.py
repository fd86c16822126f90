"""The benchmark's workloads: inputs drawn from the seed, the CLI calls that
make up one repeat, and the checks on what those calls print.

Each workload is a closed loop with one client: the benchmark calls
`surfquant.cli.main(argv)` in-process and starts the next repeat when the
last one has returned.  A repeat's checks run outside its timed region.
"""

import contextlib
import io
import json

import numpy as np


def run_cli(main, argv):
    """Call the CLI entry point in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class Workload:
    """One set of CLI inputs.

    Subclasses set `argvs` (the CLI calls of one repeat), `items` (work items
    per repeat), `checks` (correctness checks per repeat), may change
    `warmup_repeats`, and implement
    `check`, which returns how many of those checks failed.
    """

    name = ""
    # Untimed repeats before the timed ones: the first warms the allocator
    # and the code paths the lazy build does not reach.
    warmup_repeats = 1

    def __init__(self, seed, tiny=False):
        self.seed = int(seed)
        self._first_outputs = None

    @classmethod
    def lazy_build(cls, surfquant, tiny=False):
        """Build what the program builds lazily on first use (timed as set-up)."""

    def repeat(self, main):
        return [run_cli(main, argv) for argv in self.argvs]

    def output_bytes(self, outputs):
        return sum(len(text.encode()) for _, text in outputs)

    def _same_as_first(self, outputs):
        """1 if the printed bytes differ from the first repeat's, else 0."""
        texts = [text for _, text in outputs]
        if self._first_outputs is None:
            self._first_outputs = texts
        return 0 if texts == self._first_outputs else 1


class VerifySweep(Workload):
    """`surfquant verify` on its default matrix: 25 points per chart, lmax 3,
    3 trig fields, 250 checks.  The commutator suites dominate, and every
    (chart, point) is evaluated about 200 times.  The matrix has no random
    input, so the seed does not enter."""

    name = "verify_sweep"
    # lazy_build already makes the only thing verify caches, and one repeat
    # takes about a third of a run, so none is spent on warming up.
    warmup_repeats = 0
    TINY_OPTIONS = ["--points", "1", "--lmax", "0", "--trig", "1",
                    "--order", "8", "--parseval-lmax", "0"]

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.argvs = [["verify"] + (self.TINY_OPTIONS if tiny else [])]
        self.report_checks = 64 if tiny else 250
        self.items = self.report_checks
        self.checks = self.report_checks + 1  # every report entry, plus their count

    @classmethod
    def lazy_build(cls, surfquant, tiny=False):
        # the sympy-lambdified Y_lm library, cached for the process
        surfquant.field_library(*((0, 1) if tiny else (3, 3)))

    def check(self, outputs):
        (code, text), = outputs
        report = json.loads(text)
        entries = report["checks"]
        failed = sum(1 for c in entries if c["pass"] is not True)
        failed += max(0, self.report_checks - len(entries))
        counted = report["total"] == len(entries) == self.report_checks
        consistent = code == 0 and report["all_pass"] is True and report["failed"] == 0
        return min(self.checks, failed + (0 if counted and consistent else 1))


def torus_curvatures(a, b, v):
    """Closed-form (M, K) of the torus chart in the package's convention
    (outward normal, M = -(k1 + k2)/2, K = k1 k2)."""
    w = a + b * np.cos(v)
    return -(a + 2.0 * b * np.cos(v)) / (2.0 * b * w), np.cos(v) / (b * w)


class GeomGrid(Workload):
    """`surfquant geom` on a seeded torus at 10,000 distinct seeded points with
    three shell offsets.  Charts, geometry and the CSV writer do the work;
    each frame is used once.  The points go to 20 calls of 500 points, since
    argparse's cost grows with the square of the number of `--point` flags."""

    name = "geom_grid"
    TOLERANCE = 1e-10
    CALLS = 20

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        rng = np.random.default_rng([self.seed, 1])
        self.major = float(rng.uniform(1.5, 3.0))
        self.minor = float(self.major * rng.uniform(0.2, 0.45))
        # Offsets well inside the focal distance min(b, a - b), so no shell folds.
        q3 = np.sort(rng.uniform(-0.3, 0.3, size=3)) * self.minor
        self.q3 = [float(f"{x:.4g}") for x in q3]
        self.batch = 1 if tiny else 500
        self.argvs = []
        for batch in rng.uniform(0.0, 2.0 * np.pi, size=(self.CALLS, self.batch, 2)):
            argv = ["geom", "--surface", "torus",
                    "--param", f"major_radius={self.major!r}",
                    "--param", f"minor_radius={self.minor!r}",
                    "--q3=" + ",".join(repr(x) for x in self.q3)]
            for q1, q2 in batch.tolist():
                argv += ["--point", f"{q1!r},{q2!r}"]
            self.argvs.append(argv)
        self.items = self.CALLS * self.batch
        # (M, K) per point, plus per call the row count and the same bytes
        self.checks = self.items + 2 * self.CALLS

    def check(self, outputs):
        failed = self.CALLS * self._same_as_first(outputs)
        for code, text in outputs:
            header, *lines = text.splitlines()
            col = {name: i for i, name in enumerate(header.split(","))}
            rows = np.array([line.split(",") for line in lines], dtype=float).reshape(-1, len(col))
            failed += 0 if code == 0 and len(rows) == self.batch else 1
            m_ref, k_ref = torus_curvatures(self.major, self.minor, rows[:, col["q2"]])
            bad = (np.abs(rows[:, col["M"]] - m_ref) > self.TOLERANCE) | (
                np.abs(rows[:, col["K"]] - k_ref) > self.TOLERANCE
            )
            failed += int(np.count_nonzero(bad)) + max(0, self.batch - len(rows))
        return min(self.checks, failed)


class MomentumSpectrum(Workload):
    """`surfquant distribution --compare-closed` for l = 0, 1, 2 on a dense
    p-grid of 10,001 samples.  Spectra and quadrature do the work, with a
    large P x N phase matrix per call.  The seed draws the grid spacing; the
    sample count stays fixed so every seed does the same work."""

    name = "momentum_spectrum"
    L_VALUES = (0, 1, 2)
    DEVIATION_LIMIT = 1e-8
    PARITY_LIMIT = 1e-14

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        rng = np.random.default_rng([self.seed, 2])
        half = 100 if tiny else 5_000
        self.dp = float(f"{rng.uniform(0.0009, 0.0011):.7f}")
        self.pmax = half * self.dp
        self.samples = 2 * half + 1
        self.argvs = [
            ["distribution", "--l", str(l), "--pmax", repr(self.pmax),
             "--dp", repr(self.dp), "--compare-closed"]
            for l in self.L_VALUES
        ]
        self.items = self.samples * len(self.L_VALUES)
        # per l: closed-form deviation, parity, row count, same bytes
        self.checks = 4 * len(self.L_VALUES)

    def check(self, outputs):
        failed = 0
        for code, text in outputs:
            *table, summary = text.splitlines()
            deviation = float(summary.partition("max_density_deviation=")[2] or "nan")
            header = table[0].split(",")
            density = np.array(
                [float(line.split(",")[header.index("density")]) for line in table[1:]]
            )
            failed += 0 if code == 0 and deviation <= self.DEVIATION_LIMIT else 1
            failed += 0 if np.all(np.abs(density - density[::-1]) <= self.PARITY_LIMIT) else 1
            failed += 0 if len(density) == self.samples else 1
        return failed + len(outputs) * self._same_as_first(outputs)


WORKLOADS = {w.name: w for w in (VerifySweep, GeomGrid, MomentumSpectrum)}
