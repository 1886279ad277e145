"""Spans and counters around calls into `modunfold`, kept in the benchmark.

A `Tracer` replaces public functions of the package's modules with timing
wrappers for the length of a `with` block and restores them afterwards.
Targets are resolved through `sys.modules`/`importlib`, never through
attribute access on the package, because `modunfold.unfold` is also the name
of a function.  A function is wrapped in every `modunfold` module namespace
that holds it, so callers that imported it by name (`from .unfold import
unfold`) see the wrapper too.  A target that no longer exists is skipped.

Each span records its duration and the time covered by its direct child
spans, so self time is duration minus children.  Spans are aggregated per
operation index of the workload's pass; the final figures are the set-up
bucket plus, for every operation of the pass, the mean over its repetitions,
i.e. one set-up plus one average pass.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "modunfold"

# (module, function) pairs whose calls become spans.
TARGETS = (
    ("signal_model", "generate_pulse_train"),
    ("signal_model", "estimate_inf_norm"),
    ("signal_model", "sample_signal"),
    ("modulo_adc", "acquire"),
    ("unfold", "unfold"),
    ("unfold", "residue_pre_estimate"),
    ("unfold", "windowed_first_difference"),
    ("unfold", "round_to_lattice"),
    ("unfold", "scaling_correction"),
    ("unfold", "recovery_lowpass"),
    ("dsp", "build_oob_system"),
    ("dsp", "design_lowpass"),
    ("dsp", "filter_zero_delay"),
    ("baselines", "conventional_adc"),
    ("guarantees", "estimate_interference_norm"),
    ("experiments", "run_experiment"),
)

SETUP = -1  # bucket for spans recorded while inputs are generated


def package_module(name: str):
    """`modunfold.<name>` as a module object, or None if it does not exist."""
    full = f"{PACKAGE}.{name}"
    try:
        importlib.import_module(full)
    except ImportError:
        return None
    return sys.modules.get(full)


class Tracer:
    """Installs span wrappers; collects durations and counters per bucket."""

    def __init__(self, counters=None):
        # counters: span name -> fn(tracer, args, kwargs, result, seconds);
        # computes operation counts after the span has closed.
        self._counters = counters or {}
        self._patched = []
        self._stack = []
        self.bucket = SETUP
        # bucket -> key -> value, where a key is a span name, a
        # (parent, child) pair, or a counter name.
        self.span_s = defaultdict(lambda: defaultdict(float))
        self.child_s = defaultdict(lambda: defaultdict(float))
        self.calls = defaultdict(lambda: defaultdict(int))
        self.sums = defaultdict(lambda: defaultdict(float))
        self.maxima = defaultdict(dict)
        self.minima = defaultdict(dict)
        self.distinct = defaultdict(set)
        self.visits = defaultdict(int)
        self.skipped = set()

    # -- counters, called from counter functions --------------------------
    def add(self, key: str, value: float) -> None:
        self.sums[self.bucket][key] += value

    def keep_max(self, key: str, value: float) -> None:
        box = self.maxima[self.bucket]
        box[key] = max(box.get(key, value), value)

    def keep_min(self, key: str, value: float) -> None:
        box = self.minima[self.bucket]
        box[key] = min(box.get(key, value), value)

    def note_distinct(self, key: str, value) -> None:
        self.distinct[key].add(value)

    # -- installation -----------------------------------------------------
    def __enter__(self):
        resolved = []
        for module_name, func_name in TARGETS:
            module = package_module(module_name)
            original = getattr(module, func_name, None) if module else None
            if callable(original):
                resolved.append((module_name, func_name, original))
            else:
                self.skipped.add(f"{module_name}.{func_name}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, func_name, original in resolved:
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for holder in modules:
                if holder.__dict__.get(func_name) is original:
                    self._patched.append((holder, func_name, original))
                    setattr(holder, func_name, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, func_name, original in reversed(self._patched):
            setattr(holder, func_name, original)
        self._patched.clear()
        return False

    def start_op(self, index: int) -> None:
        self.bucket = index
        self.visits[index] += 1

    def _wrap(self, name: str, func):
        counter = self._counters.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            began = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                ended = clock()
                self._stack.pop()
                duration = ended - began
                bucket = self.bucket
                self.span_s[bucket][name] += duration
                self.child_s[bucket][name] += frame[1]
                self.calls[bucket][name] += 1
                if parent is not None:
                    parent[1] += duration
                    self.span_s[bucket][(parent[0], name)] += duration
            if counter is not None:
                try:
                    counter(self, args, kwargs, result, duration)
                except (AttributeError, TypeError, ValueError, IndexError) as err:
                    # The package changed shape under the counter: drop the
                    # count rather than the run.
                    self.skipped.add(f"{name} counter: {err!r}")
            spent = (began - entered) + (clock() - ended)
            self.sums[self.bucket]["trace.overhead_s"] += spent
            # A child's bookkeeping is excluded from its parent's self time.
            if parent is not None:
                parent[1] += spent
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        return wrapper

    # -- aggregation --------------------------------------------------------
    def per_pass(self, table, buckets) -> dict:
        """Set-up bucket plus the mean over visits of every op bucket."""
        out = defaultdict(float)
        for bucket in buckets:
            scale = 1.0 if bucket == SETUP else 1.0 / max(self.visits[bucket], 1)
            for key, value in table[bucket].items():
                out[key] += value * scale
        return out

    def extreme(self, table, key, pick):
        values = [box[key] for box in table.values() if key in box]
        return pick(values) if values else 0.0
