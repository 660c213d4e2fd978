"""Per-layer tracing installed from outside the library.

Each public function of interest is replaced, for the duration of a traced
pass, by a wrapper on the module or class that makes the call: `oracle`
binds `execute` and `compute_output` by name and `learner` binds
`cached_output` by name, so a wrapper installed on the defining module would
never run. Spans record count and self time (duration minus the durations of
directly nested spans); counters record work done at the same boundary.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from switchlearn import benchgen, learner, oracle, output_query


def recover_flops(d: int) -> int:
    """Multiply, add and divide operations of one `recover_transform` on a
    d x d basis as the elimination kernel performs them: forward elimination
    of the basis with d right-hand sides, then back substitution."""
    total = 0
    for col in range(d):
        below = d - col - 1
        total += below * (1 + 2 * (d - col))  # factors, basis row update
        total += below * 2 * d                # right-hand-side update
    for row in range(d):
        total += d * (2 * (d - row - 1) + 2)  # dot product, subtract, divide
    return total


# Recorded quantities reported for each span or counter group.
REPORTED = {
    "switched_system.execute": ("calls", "self_s", "matvec_cols"),
    "linalg.recover_transform": ("calls", "self_s", "flops_computed"),
    "output_query.compute_output": ("calls", "self_s"),
    "output_query.classify": ("calls", "self_s", "compares"),
    "output_query.cache": ("hits", "misses"),
    "learner.find_representative": ("calls", "self_s", "label_lookups"),
    "learner.close_store": ("self_s",),
    "learner.build_hypothesis": ("self_s",),
    "learner.process_counterexample": ("calls", "self_s", "outputs"),
    "oracle.exec_query": ("calls", "io_columns"),
    "oracle.eq_check": ("calls", "self_s"),
    "oracle.bounded": ("words_tested",),
    "automaton.language_equivalent": ("calls", "self_s"),
    "benchgen.random_system": ("self_s",),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _columns(x0) -> int:
    shape = getattr(x0, "shape", ())
    return shape[1] if len(shape) == 2 else 1


class Tracer:
    """Span and counter store; records only while `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._child_time: list[float] = []
        self._active: Counter = Counter()

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def span(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stats = self.stats[name]
            if before is not None:
                before(self, args)
            self._active[name] += 1
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += duration
                self._active[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += duration - child
            if after is not None:
                after(self, result)
            return result
        return wrapper

    def counter(self, fn, before):
        def wrapper(*args, **kwargs):
            if self.enabled:
                before(self, args)
            return fn(*args, **kwargs)
        return wrapper

    def _wrappers(self):
        """(owner, attribute, wrapper) for every instrumented call site."""
        def matvec_cols(t, args):  # execute(system, x0, word)
            cols = (len(args[2]) + 1) * _columns(args[1])
            t.stats["switched_system.execute"]["matvec_cols"] += cols

        def flops(t, args):  # recover_transform(basis, image, tol)
            t.stats["linalg.recover_transform"]["flops_computed"] += recover_flops(len(args[0]))

        def learner_output(t, args):
            if t.active("learner.process_counterexample"):
                t.stats["learner.process_counterexample"]["outputs"] += 1

        def bounded_word(t, args):
            t.stats["oracle.bounded"]["words_tested"] += 1

        def bounded_verdict(t, result):
            t.stats["oracle.bounded"]["counterexamples"] += result is not None

        def compares(t, args):  # classify(self, matrix)
            t.stats["output_query.classify"]["compares"] += len(args[0].canonical)

        def cache_lookup(t, args):  # cached_output(obs, registry, cache, word)
            hit = tuple(args[3]) in args[2]
            t.stats["output_query.cache"]["hits" if hit else "misses"] += 1
            if t.active("learner.find_representative"):
                t.stats["learner.find_representative"]["label_lookups"] += 1

        def io_columns(t, args):  # exec_query(self, x0, word)
            stats = t.stats["oracle.exec_query"]
            stats["calls"] += 1
            stats["io_columns"] += _columns(args[1])

        white_obs = oracle.WhiteBoxObservationOracle
        white_eq = oracle.WhiteBoxEquivalenceOracle
        bounded_eq = oracle.BoundedTestingEquivalenceOracle
        return [
            (oracle, "execute",
             self.span("switched_system.execute", oracle.execute, matvec_cols)),
            (output_query, "recover_transform",
             self.span("linalg.recover_transform", output_query.recover_transform, flops)),
            (output_query, "compute_output",
             self.span("output_query.compute_output", output_query.compute_output,
                       learner_output)),
            (oracle, "compute_output",
             self.span("output_query.compute_output", oracle.compute_output, bounded_word)),
            (output_query.LabelRegistry, "classify",
             self.span("output_query.classify", output_query.LabelRegistry.classify, compares)),
            (learner, "cached_output", self.counter(learner.cached_output, cache_lookup)),
            (learner, "find_representative",
             self.span("learner.find_representative", learner.find_representative)),
            (learner, "close_store", self.span("learner.close_store", learner.close_store)),
            (learner, "build_hypothesis",
             self.span("learner.build_hypothesis", learner.build_hypothesis)),
            (learner, "process_counterexample",
             self.span("learner.process_counterexample", learner.process_counterexample)),
            (white_obs, "exec_query", self.counter(white_obs.exec_query, io_columns)),
            (white_eq, "check", self.span("oracle.eq_check", white_eq.check)),
            (bounded_eq, "check",
             self.span("oracle.eq_check", bounded_eq.check, after=bounded_verdict)),
            (oracle, "language_equivalent",
             self.span("automaton.language_equivalent", oracle.language_equivalent)),
            (benchgen, "random_system",
             self.span("benchgen.random_system", benchgen.random_system)),
        ]

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        originals = []
        try:
            for owner, attr, wrapper in self._wrappers():
                originals.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    @contextmanager
    def recording(self):
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics, named module.function.quantity."""
        s = self.stats
        out = {f"{name}.{field}": s[name][field]
               for name, fields in REPORTED.items() for field in fields}
        cache, bounded = s["output_query.cache"], s["oracle.bounded"]
        out["output_query.cache.hit_ratio"] = _ratio(cache["hits"],
                                                     cache["hits"] + cache["misses"])
        out["oracle.bounded.cex_ratio"] = _ratio(bounded["counterexamples"],
                                                 bounded["words_tested"])
        return out
