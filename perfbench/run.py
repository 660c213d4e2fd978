#!/usr/bin/env python3
"""switchlearn benchmark: learn seeded hidden systems through the public API,
verify every result, and print end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scaled-100 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from `src/`.
The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment, failures by exception type, sample counts and
the figures that have no bound. See perfbench/README.md for how each metric
is derived.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SETUP_REPEATS = 7
SETUP_SECONDS = 0.5
PROBE_INTERVAL = 0.25
PROBE_STEPS = 100
# Probe loop duration that defines the reference speed, about what the loop
# takes on an uncontended 2 GHz Xeon core.
PROBE_REFERENCE = 1.5e-3
# The ROADMAP north-star instance and its counts when this benchmark was defined.
SCALED_SEED = 2026
SCALED_BASELINE = {"io_queries": 84180, "output_computations": 2105,
                   "equivalence_queries": 5, "rounds": 5}
# Shapes of the randomized acceptance suite are drawn from this fixed stream.
SUITE_SHAPE_SEED = 20260811
SUITE_SIZE = 200
BOUNDED_SIZE = 6
COUNTS = ("io_queries", "output_computations", "equivalence_queries", "rounds")
# Counts whose per-system mean is steady across seeds on every workload; the
# number of rounds a system needs varies too much from system to system.
BOUNDED_COUNTS = ("io_queries", "output_computations")


@dataclass
class Entry:
    """One hidden system of a workload and the oracles that answer for it."""

    name: str
    hidden: object
    obs: object
    eq: object


@dataclass
class Outcome:
    sample: tuple | None = None  # SpeedProbe.timed sample of a verified learn
    counts: dict = field(default_factory=dict)
    io_spent: int = 0
    error: str | None = None
    problems: list = field(default_factory=list)
    label_err: float = 0.0

    def fingerprint(self):
        return (tuple(self.counts.get(k) for k in COUNTS), self.error, tuple(self.problems))


def rotated(sl, np, system, rng):
    """The same system in a random orthonormal basis: Q A Q^T keeps the
    automaton, the label structure and every matrix's conditioning."""
    q, r = np.linalg.qr(rng.standard_normal((system.d, system.d)))
    q = q * np.sign(np.diag(r))
    return sl.SwitchedSystem(fa=system.fa, matrices=tuple(q @ m @ q.T for m in system.matrices),
                             d=system.d)


def scaled_100(sl, np, seed):
    """The north-star instance, posed in a seeded basis so that every seed
    gives new matrices and the same learning work."""
    base = sl.benchgen.random_system(sl.GenConfig(
        num_nodes=100, num_events=5, num_labels=10, dim=20, seed=SCALED_SEED))
    hidden = rotated(sl, np, base, np.random.default_rng(seed))
    return [(f"scaled/s{SCALED_SEED}", hidden, "exact")]


def suite_small(sl, np, seed):
    """A fixed suite of small systems with shapes drawn as in the randomized
    acceptance suite, each posed in a seeded basis."""
    shapes = np.random.default_rng(SUITE_SHAPE_SEED)
    rng = np.random.default_rng(seed)
    systems = []
    for idx in range(SUITE_SIZE):
        nodes, events, labels, dim = (int(shapes.integers(1, 13)), int(shapes.integers(2, 5)),
                                      int(shapes.integers(1, 7)), int(shapes.integers(1, 6)))
        base = sl.benchgen.random_system(sl.GenConfig(nodes, events, labels, dim, idx))
        systems.append((f"n{nodes}e{events}l{labels}d{dim}/s{idx}", rotated(sl, np, base, rng),
                        "exact"))
    return systems


def blackbox_bounded(sl, np, seed):
    """Small systems learned fully black-box; generator seeds 2 and 3 fail
    with SingularBasis in every basis, which the run counts."""
    rng = np.random.default_rng(seed)
    return [(f"n5e2l3d3/s{idx}", rotated(sl, np, sl.benchgen.random_system(
        sl.GenConfig(5, 2, 3, 3, idx)), rng), "bounded") for idx in range(BOUNDED_SIZE)]


WORKLOADS = {"scaled-100": scaled_100, "suite-small": suite_small,
             "blackbox-bounded": blackbox_bounded}


def set_up(sl, np, workload, seed):
    """Generate the workload's hidden systems and build their oracles."""
    entries = []
    for name, hidden, eq_kind in WORKLOADS[workload](sl, np, seed):
        obs = sl.WhiteBoxObservationOracle(hidden)
        if eq_kind == "exact":
            eq = sl.WhiteBoxEquivalenceOracle(hidden)
        else:  # the CLI default search depth of `learn --eq bounded`
            eq = sl.BoundedTestingEquivalenceOracle(obs, 2 * hidden.fa.num_nodes + 1)
        entries.append(Entry(name, hidden, obs, eq))
    return entries


def attempt(sl, np, entry, probe, tracer=None):
    """Learn one system, timing only `learn`, then verify the result."""
    outcome = Outcome()
    io0 = entry.obs.stats.io_queries
    try:
        with tracer.recording() if tracer else nullcontext():
            result, sample = probe.timed(
                lambda: sl.learn(entry.obs, entry.eq, entry.hidden.fa.alphabet))
    except Exception as exc:  # every failure is recorded and counted, never skipped
        outcome.error = type(exc).__name__
        return outcome
    finally:
        outcome.io_spent = entry.obs.stats.io_queries - io0
    stats = result.stats_dict()
    outcome.counts = {k: stats[k] for k in COUNTS}

    def label_eq(a, b):
        err = float(np.max(np.abs(a - b)))
        outcome.label_err = max(outcome.label_err, err / sl.LABEL_TOL)
        return err <= sl.LABEL_TOL

    verifier = sl.WhiteBoxEquivalenceOracle(entry.hidden, label_eq=label_eq)
    if verifier.check(result.system) is not None:
        outcome.problems.append("not_equivalent")
    if result.system.fa.num_nodes > entry.hidden.fa.num_nodes:
        outcome.problems.append("node_bound")
    if any(outputs > sl.learner.max_outputs_for_counterexample(length)
           for length, outputs in result.counterexample_costs):
        outcome.problems.append("counterexample_cost")
    if not outcome.problems:
        outcome.sample = sample
    return outcome


class SpeedProbe:
    """Times a fixed reference loop, made of the same kind of small numpy
    operations and tuple-keyed dict updates as the library's hot paths.

    Other tenants of a shared machine can slow it by half for minutes at a
    time. The probe takes a reading between timed calls when the last one
    is PROBE_INTERVAL old, and every PROBE_INTERVAL during a timed call, from
    a timer signal. A timed call is scaled by PROBE_REFERENCE over the mean
    of the readings before, during and after it, which cancels that.
    """

    def __init__(self, np):
        self._a = np.linspace(-1.0, 1.0, 16).reshape(4, 4) + 2.0 * np.eye(4)
        self._np = np
        self.readings: list[float] = []
        self._last = -PROBE_INTERVAL

    def _loop(self) -> float:
        np, a = self._np, self._a
        start = time.perf_counter()
        x = np.eye(4)
        seen = {}
        for i in range(PROBE_STEPS):
            y = np.zeros((4, 4))
            for k in range(4):
                y += a[:, k, None] * x[k, :]
            x = y / np.max(np.abs(y))
            seen[(i % 97, i % 89)] = int(np.argmax(np.abs(x[:, 0])))
        return time.perf_counter() - start

    def _reading(self) -> float:
        return statistics.median(self._loop() for _ in range(3))

    def mark(self, force=False) -> int:
        """Take a reading if one is due; the index of the latest reading."""
        if force or time.perf_counter() - self._last >= PROBE_INTERVAL:
            self.readings.append(self._reading())
            self._last = time.perf_counter()
        return len(self.readings) - 1

    def timed(self, fn):
        """fn() and its sample (seconds, mark before, readings during); the
        readings' own time is not counted."""
        mark = self.mark()
        during = []
        spent = 0.0

        def on_alarm(signum, frame):
            nonlocal spent
            start = time.perf_counter()
            during.append(self._reading())
            spent += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            start = time.perf_counter()
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
        return value, (seconds - spent, mark, during)

    def scaled(self, seconds: float, mark: int, during: list[float]) -> float:
        """A sample from timed(), in seconds at the reference speed; needs
        the reading after it, which mark(force=True) guarantees."""
        around = self.readings[mark:mark + 2] + during
        return seconds * PROBE_REFERENCE / statistics.fmean(around)


def measure(sl, np, entries, seconds, probe):
    """One pass over every system, then more in the same order until
    `seconds` have passed. Returns the first outcome of each system, the
    samples of each system's verified learns, and the repeats that did not
    reproduce their first outcome."""
    start = time.perf_counter()
    samples = [[] for _ in entries]
    first = []
    mismatches = []
    i = 0
    while i < len(entries) or time.perf_counter() - start < seconds:
        k = i % len(entries)
        outcome = attempt(sl, np, entries[k], probe)
        if i < len(entries):
            first.append(outcome)
        elif outcome.fingerprint() != first[k].fingerprint():
            mismatches.append(entries[k].name)
        if outcome.sample is not None:
            samples[k].append(outcome.sample)
        i += 1
    probe.mark(force=True)
    return first, samples, mismatches


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "switchlearn" / "__init__.py").is_file():
        print(f"error: no switchlearn sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import switchlearn as sl

    probe = SpeedProbe(np)
    setup_times = []
    start = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        entries, setup_time = probe.timed(lambda: set_up(sl, np, args.workload, args.seed))
        setup_times.append(setup_time)
    first, samples, mismatches = measure(sl, np, entries, args.seconds, probe)
    per_system = [statistics.median(probe.scaled(*sample) for sample in s) for s in samples if s]
    if not per_system:
        print("error: no system of the workload was learned and verified", file=sys.stderr)
        return 1
    verified = [o for o in first if o.sample is not None]
    failures = [{"system": e.name, "error": o.error, "problems": o.problems}
                for e, o in zip(entries, first) if o.sample is None]
    counts_mean = {k: statistics.fmean(o.counts[k] for o in verified) for k in COUNTS}
    metrics = {
        "learn_s_p50": (statistics.median(per_system), "s"),
        "learn_s_mean": (statistics.fmean(per_system), "s"),
        **{k: (counts_mean[k], "count") for k in BOUNDED_COUNTS},
        "setup_s": (statistics.median(probe.scaled(*t) for t in setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(np),
        "attempted": len(entries), "verified": len(verified),
        "failed_frac": len(failures) / len(entries), "failures": failures,
        "learn_samples": sum(len(s) for s in samples),
        "learn_s_total": sum(per_system),
        "learn_s_p50_wall": statistics.median(statistics.median(t for t, *_ in s)
                                              for s in samples if s),
        "setup_s_wall": statistics.median(t for t, *_ in setup_times),
        "probe_s": {"median": statistics.median(probe.readings), "min": min(probe.readings),
                    "max": max(probe.readings), "readings": len(probe.readings)},
        "learn_s_p95": (statistics.quantiles(per_system, n=20, method="inclusive")[-1]
                        if len(entries) >= SUITE_SIZE else None),
        "counts_mean": counts_mean,
        "counts_sum": {k: sum(o.counts[k] for o in verified) for k in COUNTS},
        "label_err_max": max(o.label_err for o in verified),
        "nondeterministic": sorted(set(mismatches)),
        # equal across runs of one seed iff counts, rounds and failures repeat
        "fingerprint": hashlib.sha256(json.dumps(
            [o.fingerprint() for o in first]).encode()).hexdigest()[:16],
    }
    if args.workload == "scaled-100":
        report["baseline_counts_match"] = verified[0].counts == SCALED_BASELINE
    correct = not mismatches and not any(o.problems for o in first)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer.installed():
            with tracer.recording():
                set_up(sl, np, args.workload, args.seed)
            traced = [attempt(sl, np, entry, probe, tracer) for entry in entries]
            probe.mark(force=True)
        layer = tracer.metrics()
        traced_p50 = statistics.median(probe.scaled(*o.sample) for o in traced if o.sample)
        layer["tracing.overhead_s"] = traced_p50 - metrics["learn_s_p50"][0]
        layer["label_err_max"] = report["label_err_max"]
        io_spent = sum(o.io_spent for o in traced)
        report["io_columns_match"] = layer["oracle.exec_query.io_columns"] == io_spent
        correct = (correct and report["io_columns_match"]
                   and [o.fingerprint() for o in traced] == [o.fingerprint() for o in first])
        units = {"calls": "count", "self_s": "s", "overhead_s": "s", "hit_ratio": "ratio",
                 "cex_ratio": "ratio", "label_err_max": "label_tol"}
        report["end_to_end"] = {name: value for name, (value, _) in metrics.items()}
        metrics = {name: (value, units.get(name.rsplit(".", 1)[-1], "count"))
                   for name, value in layer.items()}

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct, "attempted": len(entries), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
