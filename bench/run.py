"""The surfquant benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Runs one workload (see workloads.py) from the root of a source checkout:

* set-up: a fresh interpreter imports surfquant and makes the workload's
  lazy builds, SETUP_RUNS times (once with --tiny); `setup_s` is the median
  process lifetime;
* then, in this process, a closed loop of repeats, each calling
  `surfquant.cli.main(argv)` and checking what it printed, for S seconds;
  the workload's warm-up repeats come first and are left out of the timings.

Every set-up process and every repeat sits between two runs of a fixed
reference computation (reference.py), and the end-to-end times are in
reference seconds: the measured time times REF_NOMINAL_S / the mean of the
two reference times.  That cancels the drift of a shared host's speed.  The
times as measured are in `.bench_out/`, and per layer as `wall_s.raw_s` and
`machine.ref_s`.

With `--trace 0` the result holds the end-to-end metrics.  With `--trace 1`
it holds the per-layer metrics: untraced and traced (tracer.py) repeats
take turns for S seconds, and the set-up is broken down under
`python3 -X importtime`.  Per-layer counts and times are per repeat.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` (correctness checks) and `metrics`.  The line before
it records the machine.  Samples and spans are written to `.bench_out/`.
`--tiny` shrinks every input to a minimum, for the self-test.
"""

import os

# One load-generating thread; BLAS gets one thread too (no more than nproc).
# Set before numpy is first imported, here or in a child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import REF_NOMINAL_S, reference_slot, speed_factor  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minimal inputs (self-test)")
    return parser.parse_args(argv)


# -- set-up in fresh interpreters --------------------------------------------


def _probe(workload, tiny, python_flags=()):
    """Run setup_probe.py in a fresh interpreter; return (lifetime, its split, stderr)."""
    argv = [sys.executable, *python_flags, str(BENCH / "setup_probe.py"), workload.name]
    argv += ["--tiny"] if tiny else []
    t0 = time.perf_counter()
    child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                           timeout=CHILD_TIMEOUT_S, check=True)
    lifetime = time.perf_counter() - t0
    return lifetime, json.loads(child.stdout.splitlines()[-1]), child.stderr


def parse_importtime(log):
    """Import seconds of surfquant, and of scipy and sympy with what they pull in.

    `-X importtime` prints "import time: self | cumulative | module" lines
    in post-order, nesting shown as two spaces per level; read in reverse,
    parents come first.  A package's time is the cumulative time of its
    imports that are not nested in another import of the same package.
    """
    entries = []
    for line in log.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].rstrip()
        depth = (len(module) - len(module.lstrip()) - 1) // 2
        entries.append((depth, module.strip(), int(fields[1])))
    package_us = {"surfquant": 0, "scipy": 0, "sympy": 0}
    enclosing = []  # (depth, top-level package) of the imports around this one
    for depth, module, cumulative_us in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        top = module.split(".")[0]
        if top in package_us and all(pkg != top for _, pkg in enclosing):
            package_us[top] += cumulative_us
        enclosing.append((depth, top))
    return {name: us / 1e6 for name, us in package_us.items()}


def import_breakdown(workload, tiny):
    """setup.* per-layer metrics from one fresh child under `-X importtime`."""
    _, split, log = _probe(workload, tiny, ("-X", "importtime"))
    seconds = parse_importtime(log)
    return {
        "setup.import_s": seconds["surfquant"],
        "setup.import.scipy_s": seconds["scipy"],
        "setup.import.sympy_s": seconds["sympy"],
        "setup.build_s": split["build_s"],
    }


# -- the closed loop ---------------------------------------------------------


class Loop:
    """Samples and check counts of one closed-loop phase.  `wall` and `cpu`
    are in reference seconds, `raw_wall` in seconds as measured, and `ref`
    holds the reference slots' times, one before each repeat and one after."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.raw_wall = []
        self.ref = []
        self.attempted = 0
        self.failed = 0
        self.bytes_out = 0

    def once(self, workload, cli, tracer=None):
        outputs = None
        if not self.ref:
            self.ref.append(reference_slot())
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outputs = workload.repeat(cli.main)
            else:
                outputs = tracer.repeat(workload.repeat, cli.main)
        except (Exception, SystemExit):  # a repeat that raises fails all its checks
            traceback.print_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
        self.ref.append(reference_slot(t1 - t0))
        factor = speed_factor(self.ref[-2], self.ref[-1])
        self.raw_wall.append(t1 - t0)
        self.wall.append((t1 - t0) * factor)
        self.cpu.append((c1 - c0) * factor)
        self.attempted += workload.checks
        self.failed += workload.checks if outputs is None else _check(workload, outputs)
        if outputs is not None:
            self.bytes_out += workload.output_bytes(outputs)


def _time_left(start, seconds, loops):
    """True while one more round, at the median pace so far, would end by
    about `seconds` (within half a round); always true before the first."""
    if not all(loop.raw_wall for loop in loops):
        return True
    pace = sum(statistics.median(loop.raw_wall) for loop in loops)
    return time.perf_counter() - start + pace / 2 < seconds


def _check(workload, outputs):
    try:
        return workload.check(outputs)
    except Exception:  # unreadable output fails every check of the repeat
        traceback.print_exc()
        return workload.checks


def tail(samples):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it; (0.0, 0.0) when there are fewer than eleven samples."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return 0.0, 0.0
    return 100.0 * k / len(ordered), ordered[k - 1]


def end_to_end(workload, seconds, tiny):
    lifetimes, splits, setup_slots = setup_times(workload, tiny)
    import surfquant
    from surfquant import cli

    workload.lazy_build(surfquant, tiny)
    # Warm-up repeats run inside the measured seconds and their checks count,
    # but their times stay out of the medians.
    warmup, loop = Loop(), Loop()
    start = time.perf_counter()
    for _ in range(workload.warmup_repeats):
        warmup.once(workload, cli)
    while _time_left(start, seconds, [loop]):
        loop.once(workload, cli)
    wall = statistics.median(loop.wall)
    metrics = {
        "setup_s": statistics.median(lifetimes) * speed_factor(*setup_slots),
        "wall_s": wall,
        "cpu_s": statistics.median(loop.cpu),
        "items_per_s": workload.items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {"setup_runs": [dict(lifetime_s=s, **split) for s, split in zip(lifetimes, splits)],
              "setup_ref_s": setup_slots,
              "warmup_wall_s": warmup.raw_wall, "wall_s": loop.wall, "cpu_s": loop.cpu,
              "raw_wall_s": loop.raw_wall, "ref_s": loop.ref}
    return metrics, warmup.attempted + loop.attempted, warmup.failed + loop.failed, record


def setup_times(workload, tiny):
    """SETUP_RUNS fresh set-up processes, with a reference slot before each
    and after the last: (lifetimes as measured, their splits, the slots).
    A parent that waits on a child meets the host at an odd moment, so the
    set-up is scaled by the mean of all its slots, not slot by slot."""
    lifetimes, splits, slots = [], [], [reference_slot()]
    for _ in range(1 if tiny else SETUP_RUNS):
        lifetime, split, _ = _probe(workload, tiny)
        slots.append(reference_slot(lifetime))
        lifetimes.append(lifetime)
        splits.append(split)
    return lifetimes, splits, slots


def per_layer(workload, seconds, tiny):
    from tracer import Tracer

    metrics = import_breakdown(workload, tiny)
    import surfquant
    from surfquant import cli

    workload.lazy_build(surfquant, tiny)
    # Untraced and traced repeats take turns, so both meet the same machine.
    plain, traced, tracer = Loop(), Loop(), Tracer()
    start = time.perf_counter()
    while _time_left(start, seconds, [plain, traced]):
        plain.once(workload, cli)
        tracer.install()
        try:
            traced.once(workload, cli, tracer)
        finally:
            tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans_{workload.name}.npz")
    repeats = len(traced.wall)
    metrics.update(tracer.layer_metrics(repeats))
    metrics["cli.bytes_out"] = traced.bytes_out / repeats
    metrics["trace.overhead_s"] = statistics.median(traced.wall) - statistics.median(plain.wall)
    pct, value = tail(plain.wall)
    metrics["wall_s.samples"] = float(len(plain.wall))
    metrics["wall_s.raw_s"] = statistics.median(plain.raw_wall)
    metrics["machine.ref_s"] = statistics.median(plain.ref + traced.ref)
    metrics["wall_s.tail_pct"] = pct
    metrics["wall_s.tail_s"] = value
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    metrics["fail_frac"] = failed / attempted
    record = {"wall_s": plain.wall, "traced_wall_s": traced.wall,
              "raw_wall_s": plain.raw_wall, "traced_raw_wall_s": traced.raw_wall,
              "ref_s": plain.ref, "traced_ref_s": traced.ref}
    return metrics, attempted, failed, record


# -- the machine -------------------------------------------------------------


def machine_record(args):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no git metadata
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT_S)
            git_sha = git.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "blas_threads": BLAS_THREADS,
        "ref_nominal_s": REF_NOMINAL_S,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "surfquant" / "__init__.py").is_file():
        print(f"error: no surfquant package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    machine = machine_record(args)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, record = measure(workload, args.seconds, args.tiny)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result_{args.workload}_trace{args.trace}.json", "w") as fh:
        json.dump({"machine": machine, "samples": record, **result}, fh, indent=1)
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


def metric_units(kind):
    """name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
