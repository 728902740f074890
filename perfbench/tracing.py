"""Outside-in span tracing of the sqkd layers.

The tracer replaces the public functions of ``sqkd.linalg``, ``keyrate``,
``attack``, ``simulate`` and ``cli`` with wrappers that record one span per
call: span id, parent span id, name, start, end, task id and one integer
attribute.  Every module binding of a function is replaced, including the
names ``keyrate`` and ``cli`` import with ``from .linalg import ...``;
otherwise the entropy calls ``keyrate`` makes would go unmeasured.  Library
code is not edited, and ``uninstall`` restores every original binding, so
untraced tasks run the program exactly as users do.

Spans are kept in memory while a task runs.  ``Profile.add_task`` folds a
finished task's spans into per-name totals; the raw spans of the first few
traced tasks are kept whole and written out when the benchmark ends.
"""

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from array import array
from collections import defaultdict

LAYERS = ("linalg", "keyrate", "attack", "simulate", "cli")

# Private functions wrapped as well.  A Monte Carlo chunk is the unit the
# reproducibility contract fixes; its spans give the chunk count and show
# how the worker threads overlap.
PRIVATE = {"simulate": ("_simulate_chunk",)}

EIG_NAME = "linalg.hermitian_eigenvalues"
SPLIT_BY_DIM = ("attack.exact_collective_rate", "linalg.von_neumann_entropy")

# Raw spans of this many traced tasks are kept for the span file.
KEEP_TASKS = 2


def dim_class(d: int) -> str:
    """Ancilla dimensions of the workloads: 1, 2, 4 ('dsmall') and 32."""
    return "d32" if d == 32 else "dsmall" if d <= 4 else f"d{d}"


class Tracer:
    """Wraps the layer functions of ``sqkd``; records spans.

    A span's integer attribute is the matrix order for eigendecompositions
    and, for every other call, the ancilla dimension of the attack most
    recently passed to an ``attack`` function (0 before any).
    """

    def __init__(self):
        modules = {name: importlib.import_module(f"sqkd.{name}")
                   for name in LAYERS}
        self.spans: list[tuple] = []
        self.task_id = 0
        self.attack_dim = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._attack_cls = modules["attack"].CollectiveAttack
        self._bindings = []
        wrappers = {}
        for mod in modules.values():
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn):
                    continue
                origin = fn.__module__.rpartition(".")[2]
                if origin not in modules:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(origin, ()):
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(f"{origin}.{fn.__name__}", fn)
                self._bindings.append((mod, attr, fn, wrappers[fn]))

    def _wrap(self, name, fn):
        spans = self.spans
        local = self._local
        main_stack = self._main_stack
        ids = self._ids
        clock = time.perf_counter
        attack_cls = self._attack_cls
        is_eig = name == EIG_NAME
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:       # first call on a worker thread
                stack = local.stack = []
            # A worker thread's outermost span belongs to the span the
            # main thread is blocked in (run_protocol for pool chunks).
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else 0)
            if args and type(args[0]) is attack_cls:
                tracer.attack_dim = args[0].ancilla_dim
            attr = len(args[0]) if is_eig else tracer.attack_dim
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tracer.task_id, attr))

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def run_task(self, task_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span ``task`` of task ``task_id``."""
        self.task_id = task_id
        self.attack_dim = 0
        sid = next(self._ids)
        self._main_stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self._main_stack.pop()
            self.spans.append((sid, 0, "task", t0, t1, task_id, 0))

    def take(self) -> list[tuple]:
        """Remove and return every span recorded so far."""
        out = list(self.spans)
        self.spans.clear()
        return out


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _ancestor_named(sid, parent_of, name_of, target) -> bool:
    sid = parent_of.get(sid, 0)
    while sid:
        if name_of[sid] == target:
            return True
        sid = parent_of.get(sid, 0)
    return False


def exact_counts(spans) -> dict[str, int]:
    """Counts fixed by a task's inputs alone; they must repeat exactly."""
    calls = defaultdict(int)
    eig_ops = 0
    name_of = {}
    parent_of = {}
    for sid, parent, name, _, _, _, attr in spans:
        calls[name] += 1
        name_of[sid] = name
        parent_of[sid] = parent
        if name == EIG_NAME:
            eig_ops += attr ** 3
    in_threshold = sum(
        1 for sid, _, name, *_ in spans
        if name == "keyrate.key_rate_bound"
        and _ancestor_named(sid, parent_of, name_of, "keyrate.noise_threshold"))
    return {
        "simulate.chunks": calls["simulate._simulate_chunk"],
        "attack.extract_vectors.calls": calls["attack.extract_vectors"],
        "attack.attacks": calls["attack.validate_attack"],
        "keyrate.noise_threshold.calls": calls["keyrate.noise_threshold"],
        "keyrate.key_rate_bound.in_threshold": in_threshold,
        "linalg.eig_ops": eig_ops,
    }


class Profile:
    """Per-name call counts, total and self time over the traced tasks.

    For the names in ``SPLIT_BY_DIM``, ``dim_self`` and ``dim_durations``
    also keep self time and durations per (name, ancilla-dimension class).
    """

    def __init__(self):
        self.tasks = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(lambda: array("d"))
        self.dim_self = defaultdict(float)
        self.dim_durations = defaultdict(lambda: array("d"))
        self.task_counts: list[dict[str, int]] = []
        self.kept_spans: list[tuple] = []

    def add_task(self, spans) -> dict[str, int]:
        """Fold one task's spans in; return the task's exact counts."""
        self.tasks += 1
        if self.tasks <= KEEP_TASKS:
            self.kept_spans.extend(spans)
        children = defaultdict(list)
        for _, parent, _, t0, t1, _, _ in spans:
            children[parent].append((t0, t1))
        for sid, _, name, t0, t1, _, attr in spans:
            dur = t1 - t0
            own = dur - _covered(children.get(sid, ()), t0, t1)
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += own
            self.durations[name].append(dur)
            if name in SPLIT_BY_DIM:
                key = (name, dim_class(attr))
                self.dim_self[key] += own
                self.dim_durations[key].append(dur)
        counts = exact_counts(spans)
        self.task_counts.append(counts)
        return counts

    def per_task(self, table, key) -> float:
        return table.get(key, 0.0) / self.tasks if self.tasks else 0.0

    def p50(self, key) -> float:
        """Median duration of a name's calls, or of a (name, class) key's."""
        values = (self.dim_durations if isinstance(key, tuple) else self.durations).get(key)
        return statistics.median(values) if values else 0.0

    def layer_self(self, layer) -> float:
        """Self time per task of every span of one layer."""
        return sum(self.per_task(self.self_time, name) for name in self.self_time
                   if name.startswith(layer + "."))

    def table(self) -> list[dict]:
        """The count, total, self time and p50 of every wrapped call."""
        return [{"name": name, "calls": self.calls[name],
                 "total_s": self.total[name], "self_s": self.self_time[name],
                 "p50_s": self.p50(name)}
                for name in sorted(self.calls)]
