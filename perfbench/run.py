"""isccsim benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the simulator is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
alternates untraced and traced operations on the same inputs and reports the
per-layer metrics plus the tracing overhead. Timings are in reference
seconds: host seconds corrected by the host speed sampled while they ran
(see bench_speed.py); host seconds are printed alongside. Every operation's
simulated outputs are checked and hashed; a failed check or an exception
counts as a failed operation and makes the exit code 1. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
PROBE = os.path.join(HERE, "setup_probe.py")

WORKLOAD_NAMES = ("episode-n1000-serial", "train-n50", "oracle-tiny")
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("client_rounds_per_s", "client-rounds/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)
# setup_s is the median over this many fresh probe processes.
SETUP_PROBES = 5
# In-process builds of the inputs; setup.build_s is their median.
BUILD_REPEATS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10


# -- arithmetic ---------------------------------------------------------------------


def tail_percentile(samples, ladder=TAIL_LADDER, beyond=TAIL_BEYOND):
    """Highest ladder percentile with at least ``beyond`` samples above its rank.

    Nearest-rank definition: the q-th percentile of n sorted samples is the
    sample at 1-based rank ceil(q/100 * n). Returns (q, value) or None.
    """
    xs = sorted(samples)
    n = len(xs)
    found = None
    for q in ladder:
        rank = math.ceil(Fraction(repr(q)) * n / 100)  # exact: 99.9% of 10000 is 9990
        if rank >= 1 and n - rank >= beyond:
            found = (q, xs[rank - 1])
    return found


def digest(record) -> str:
    """SHA-256 of a canonical JSON form; floats keep every digit (repr)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digest(digests: dict) -> str:
    return digest(sorted(digests.items()))


@dataclass
class Tally:
    """Attempted and failed operations, and the digest of each input."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    gains: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def observe(self, outcome) -> bool:
        """Count one finished operation; False if it failed a check.

        A repeat of an input must reproduce the first digest exactly.
        """
        problems = list(outcome.problems)
        d = digest(outcome.record)
        first = self.digests.setdefault(outcome.key, d)
        if first != d:
            problems.append(f"{outcome.key}: simulated outputs differ from an earlier repeat")
        self.gains.setdefault(outcome.key, outcome.gain)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return False
        return True

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Sample:
    seconds: float        # host seconds
    client_rounds: int
    ref_seconds: float    # the same operation in reference seconds

    @property
    def scale(self) -> float:
        """Factor from this operation's host span times to reference seconds."""
        return self.ref_seconds / self.seconds


def run_op(workload, inp, tally: Tally, before=None, after=None):
    """Attempt one operation; returns a Sample, or None if it failed.

    Only ``workload.op`` is timed, with the host speed sampled while it
    runs. ``before``/``after`` bracket the timed call (they install and
    remove tracing); the check runs after both.
    """
    from bench_speed import Speedometer

    tally.attempted += 1
    gc.collect()
    try:
        if before is not None:
            before()
        try:
            with Speedometer() as speed:
                t0 = time.perf_counter()
                raw = workload.op(inp)
                seconds = time.perf_counter() - t0
        finally:
            if after is not None:
                after()
        outcome = workload.check(inp, raw)
    except Exception as err:  # any exception is a failed operation, never retried
        traceback.print_exc(file=sys.stderr)
        tally.fail(f"{inp.key}: {type(err).__name__}: {err}")
        return None
    if not tally.observe(outcome):
        return None
    return Sample(seconds, outcome.client_rounds, speed.reference_seconds(seconds))


def throughput(samples) -> float:
    """Client-rounds per reference second."""
    return sum(s.client_rounds for s in samples) / sum(s.ref_seconds for s in samples)


# -- provenance ------------------------------------------------------------------------


def blas_info() -> dict:
    """BLAS library numpy uses and the thread count it runs with."""
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            base = os.path.basename(line.split()[-1])
            if "blas" in base.lower() and ".so" in base:
                libs.add(line.split()[-1])
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(path)
                return info
    return info


def git_commit(root: str):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def source_digest(src: str) -> str:
    """SHA-256 over the simulator's source files, which identifies the
    program also where no git metadata exists."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "isccsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(args, inputs) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": [inp.key for inp in inputs],
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "pid": os.getpid(),
    }


# -- measurement -----------------------------------------------------------------------


def measure(workload, inputs, seconds: float, tally: Tally, store=None, spans=None):
    """Operations on the inputs in turn until the next would end after
    ``seconds``. With a span store each untraced operation is followed by
    a traced one on the same input, whose spans carry the pair's index.
    Returns (untraced, traced) lists indexed by pair, None where an
    operation failed."""
    from bench_trace import install

    untraced, traced, iterations = [], [], []
    undo = []
    start = time.perf_counter()
    k = 0
    while True:
        t = time.perf_counter()
        inp = inputs[k % len(inputs)]
        untraced.append(run_op(workload, inp, tally))
        if store is not None:
            store.op_id = k
            traced.append(run_op(
                workload, inp, tally,
                before=lambda: undo.append(install(store, spans, "isccsim")),
                after=lambda: undo.pop()()))
        iterations.append(time.perf_counter() - t)
        k += 1
        if time.perf_counter() - start + statistics.median(iterations) > seconds:
            return untraced, traced


def probe_setup(workload_name: str, seed: int) -> list:
    """Reference seconds from spawning a fresh process to its inputs being
    built, for each of SETUP_PROBES probes run one after another. The host
    time is scaled by the speed the probe measured while importing."""
    from bench_speed import REFERENCE_KERNEL_S

    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, PROBE, workload_name, str(seed)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().split()
            seconds = time.perf_counter() - t0
            child.communicate(timeout=120)
        if len(line) != 3 or line[0] != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        kernel_s, spent = float(line[1]), float(line[2])
        times.append((seconds - spent) * REFERENCE_KERNEL_S / kernel_s)
    return times


def setup(workload, seed: int, traced_store=None, spans=None):
    """Build the inputs BUILD_REPEATS times; returns (inputs, reference
    seconds of each build, reference seconds of a traced build). With a span
    store, the traced build runs under operation id -1; its spans are scaled
    by the returned factor."""
    from bench_speed import Speedometer

    builds = []
    inputs = None
    for _ in range(BUILD_REPEATS):
        inputs = None  # each build starts without the previous one alive
        gc.collect()
        with Speedometer() as speed:
            t0 = time.perf_counter()
            inputs = workload.build(seed)
            seconds = time.perf_counter() - t0
        builds.append(speed.reference_seconds(seconds))
    traced = None
    if traced_store is not None:
        from bench_trace import install

        gc.collect()
        traced_store.op_id = -1
        undo = install(traced_store, spans, "isccsim")
        try:
            with Speedometer() as speed:
                t0 = time.perf_counter()
                workload.build(seed)
                seconds = time.perf_counter() - t0
        finally:
            undo()
        traced = Sample(seconds, 0, speed.reference_seconds(seconds))
    return inputs, builds, traced


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- reporting ----------------------------------------------------------------------------


def describe_timing(name: str, values, unit: str) -> str:
    med = statistics.median(values)
    tail = tail_percentile(values)
    if tail is None:
        tail_text = f"no tail percentile: {len(values)} samples, p50 needs {2 * TAIL_BEYOND}"
    else:
        tail_text = f"p{tail[0]:g} {tail[1]:.6g} {unit}"
    return f"{name}: median {med:.6g} {unit} over {len(values)} operations; {tail_text}"


def emit(correct: bool, tally: Tally, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name} = {shown} {units[name]}")
    for key in sorted(tally.digests):
        print(f"digest {key} {tally.digests[key]} gain={tally.gains[key]!r}")
    if tally.digests:
        print(f"digest run {run_digest(tally.digests)}")
    print(f"operations attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed_frac:g}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isccsim", "__init__.py")):
        print(f"isccsim sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_isccsim
    from bench_trace import SpanStore, aggregate

    import_s = time.perf_counter() - _T0
    workload = bench_isccsim.WORKLOADS[args.workload]
    tally = Tally()
    store = SpanStore() if args.trace else None
    spans = list(bench_isccsim.SPANS)
    inputs, builds, traced_build = setup(workload, args.seed, store, spans)
    build_s = statistics.median(builds)
    probes = probe_setup(args.workload, args.seed)
    setup_s = statistics.median(probes)
    print("provenance " + json.dumps(provenance(args, inputs), sort_keys=True))

    untraced, traced = measure(workload, inputs, args.seconds, tally, store, spans)
    plain = [x for x in untraced if x is not None]
    if plain:
        print(describe_timing("op_s", [x.ref_seconds for x in plain], "reference s"))
        print(describe_timing("host op_s", [x.seconds for x in plain], "s"))
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "op_s": statistics.median(x.ref_seconds for x in plain) if plain else None,
            "client_rounds_per_s": throughput(plain) if plain else None,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        metrics = {}
        seen = {k: x for k, x in enumerate(traced) if x is not None}
        if plain and seen:
            print(describe_timing("traced op_s", [x.ref_seconds for x in seen.values()],
                                  "reference s"))
            # Span times are scaled per operation, like the operation itself.
            wall = sum(x.ref_seconds for x in seen.values())
            metrics = bench_isccsim.layer_metrics(
                aggregate(store, {k: x.scale for k, x in seen.items()}),
                store.counters, len(seen), wall)
            setup_totals = aggregate(store, {-1: traced_build.scale})
            metrics.update({
                "setup.build_s": build_s,
                "setup.generate_scenario.self_s":
                    setup_totals.self_s.get("network.generate_scenario", 0.0),
                "tracing.op_wall_s": wall / len(seen),
                "tracing.setup_s_overhead":
                    (traced_build.ref_seconds - build_s) / setup_s,
                "tracing.op_s_overhead":
                    statistics.median(x.ref_seconds for x in seen.values())
                    / statistics.median(x.ref_seconds for x in plain) - 1.0,
                "tracing.client_rounds_per_s_overhead":
                    1.0 - throughput(seen.values()) / throughput(plain),
                "tracing.peak_rss_mb_overhead": store.nbytes / 2**20,
            })
            check_self_times(metrics, tally)
        units = {name: unit for name, unit, _ in bench_isccsim.PER_LAYER}
        metrics = {name: metrics.get(name) for name in units}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        store.save(path)
        print(f"spans {len(store)} written to {os.path.relpath(path, ROOT)}")

    print(f"setup_s: median {setup_s:.4f} reference s over {len(probes)} probe "
          f"processes; in this process import {import_s:.4f} host s, median build "
          f"{build_s:.4f} reference s over {len(builds)} builds")
    if args.workload == "train-n50" and metrics.get("client_rounds_per_s"):
        n = bench_isccsim.TRAIN_SCENARIO.num_clients
        print(f"train_steps_per_s: {metrics['client_rounds_per_s'] / n:.6g} env steps/s")
    correct = tally.failed == 0 and tally.attempted > 0 and all(
        v is not None for v in metrics.values())
    emit(correct, tally, metrics, units)
    return 0 if correct else 1


def check_self_times(metrics: dict, tally: Tally) -> None:
    """Self times plus uncovered time must add up to the traced wall time."""
    parts = sum(v for k, v in metrics.items() if k.endswith(".self_s")
                and not k.startswith("setup."))
    wall = metrics["tracing.op_wall_s"]
    if not math.isclose(parts, wall, rel_tol=1e-9, abs_tol=1e-12):
        tally.fail(f"self times sum to {parts!r} s, traced wall time is {wall!r} s")


if __name__ == "__main__":
    sys.exit(main())
