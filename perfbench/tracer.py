"""Outside-in tracer for the hopfsl2 layers.

The tracer wraps the package's public functions and a few scalar and algebra
methods from outside: no file under src/ knows about it.  A function imported
with ``from .linalg import rank`` is bound in several module namespaces (and
sometimes stored in module-level dicts such as the relation registry), so
every binding that *is* the original object gets the same wrapper, and
``uninstall`` puts every original back.

Self time comes from an explicit call stack: a call's self time is its
duration minus the durations of the wrapped calls made inside it.  Calls of
the scalar layers (``cyclo``, ``extfield``) and ``AlgebraParams.mul`` only
update counters, because there are millions of them; calls of the other
layers also record a span (id, parent span, job, name, start, end), kept in
memory up to ``span_cap`` and written out by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cyclo", "extfield", "linalg", "algebra", "modules", "fusion", "grothendieck")

# Layers whose calls are only counted, never recorded as spans.
COUNTER_ONLY_LAYERS = ("cyclo", "extfield")
COUNTER_ONLY_NAMES = ("algebra.AlgebraParams.mul",)

# Methods wrapped per class.  Module-level functions need no list: every
# public function a layer module defines is wrapped.  Hot predicates such as
# is_zero stay unwrapped; their cost lands in the caller's self time.
METHODS = {
    ("cyclo", "CycScalar"): ("__add__", "__sub__", "__mul__", "inv", "embed"),
    ("extfield", "ExtScalar"): ("__add__", "__sub__", "__mul__", "inv"),
    ("algebra", "AlgebraParams"): (
        "mul",
        "tensor_mul",
        "coproduct",
        "counit",
        "antipode",
        "check_hopf_axioms",
    ),
}


def _public_functions(module):
    """Public functions defined (not merely imported) in a module."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield obj


class Tracer:
    """Wraps the hopfsl2 layers, aggregates counters and keeps spans."""

    def __init__(self, span_cap: int = 300_000):
        self.span_cap = span_cap
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.pairs: dict[tuple[str, str], int] = {}  # (parent span name, child span name) -> calls
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.job_index = -1
        self.job_ids: list[str] = []
        # ratio bases, see begin_job and the hooks in _wrap
        self.coproduct_repeats = 0
        self.trace_vector_repeats = 0
        self.candidate_misses = 0
        self.gr_mul_pairs = 0
        self._stack: list[list] = []
        self._seen_coproduct: set = set()
        self._seen_trace_modules: dict[int, object] = {}
        self._patches: list[tuple] = []
        self._next_span = 0
        self._origin = time.perf_counter()

    # -- per-job state ------------------------------------------------------

    def begin_job(self, job_id: str) -> None:
        self.job_index += 1
        self.job_ids.append(job_id)

    def end_job(self) -> None:
        """Forget the job's seen arguments (and release the modules kept alive)."""
        self._seen_coproduct.clear()
        self._seen_trace_modules.clear()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        layer = name.split(".", 1)[0]
        spans_on = layer not in COUNTER_ONLY_LAYERS and name not in COUNTER_ONLY_NAMES
        pre = {
            "algebra.AlgebraParams.coproduct": self._pre_coproduct,
            "fusion.trace_vector": self._pre_trace_vector,
            "grothendieck.gr_mul": self._pre_gr_mul,
        }.get(name)
        is_candidates = name == "fusion.candidate_simples"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            parent = stack[-1] if stack else None
            # frame: [child seconds, span id (own, or inherited), span name, had span child]
            if spans_on:
                sid = self._next_span
                self._next_span += 1
                psid = parent[1] if parent is not None else -1
                if parent is not None:
                    parent[3] = True
                    key = (parent[2], name)
                    self.pairs[key] = self.pairs.get(key, 0) + 1
                frame = [0.0, sid, name, False]
            else:
                frame = [0.0, parent[1] if parent else -1, parent[2] if parent else "", False]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if spans_on:
                    if is_candidates and frame[3]:
                        self.candidate_misses += 1
                    if len(self.spans) < self.span_cap:
                        self.spans.append((sid, psid, self.job_index, name, t0, t1))
                    else:
                        self.spans_dropped += 1

        wrapper._perfbench_wrapped = fn
        return wrapper

    def _pre_coproduct(self, args, kwargs) -> None:
        e = args[1] if len(args) > 1 else kwargs["e"]
        key = tuple(sorted((m, c.key()) for m, c in e.terms.items()))
        if key in self._seen_coproduct:
            self.coproduct_repeats += 1
        else:
            self._seen_coproduct.add(key)

    def _pre_trace_vector(self, args, kwargs) -> None:
        m = args[1] if len(args) > 1 else kwargs["m"]
        if id(m) in self._seen_trace_modules:
            self.trace_vector_repeats += 1
        else:
            # keep the module alive so its id is not reused within the job
            self._seen_trace_modules[id(m)] = m

    def _pre_gr_mul(self, args, kwargs) -> None:
        a = args[1] if len(args) > 1 else kwargs["a"]
        b = args[2] if len(args) > 2 else kwargs["b"]
        self.gr_mul_pairs += len(a.entries) * len(b.entries)

    def install(self) -> None:
        """Wrap every binding of the traced callables in the hopfsl2 package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"hopfsl2.{layer}")
            for fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fn.__name__}", fn))
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"hopfsl2.{layer}"), cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                wrapper = self._wrap(f"{layer}.{cls_name}.{meth}", fn)
                # aliases such as __radd__ = __add__ share the wrapper
                for attr, value in list(cls.__dict__.items()):
                    if value is fn:
                        self._patches.append((cls, attr, fn))
                        setattr(cls, attr, wrapper)
        namespaces = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "hopfsl2" or name.startswith("hopfsl2."))
        ]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    # registries such as grothendieck.RELATIONS hold functions too
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append((value, key, item))
                            value[key] = hit[1]

    def uninstall(self) -> None:
        """Restore every original binding, in reverse order of patching."""
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results --------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def pair_calls(self, parent: str, child: str) -> int:
        return self.pairs.get((parent, child), 0)

    def write_spans(self, path) -> None:
        """One JSON object per line: span id, parent id, job id, name, start, end."""
        with open(path, "w") as fh:
            for sid, psid, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid,
                    "parent": psid,
                    "job": self.job_ids[job] if 0 <= job < len(self.job_ids) else None,
                    "name": name,
                    "start_s": round(t0 - self._origin, 9),
                    "end_s": round(t1 - self._origin, 9),
                }) + "\n")
