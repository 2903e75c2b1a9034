"""Per-layer spans recorded from outside the program.

A Tracer replaces public functions of the ginigraph modules with timing
wrappers. It patches every name that binds the function, because callers bind
it in different ways: ``trainer`` does ``from .models import fair_head_embed``
while ``models`` and ``losses`` call ``ad.<op>``. Methods are patched on their
class. The program itself is not changed.

Each span adds its duration to its name's inclusive time (only the outermost
span of a name counts, so nesting does not double count) and its self time,
the duration minus the time covered by its child spans.

Tape ops that record a backward closure get a second span, ``<op>_back``,
around that closure, so the backward sweep splits by op.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name, count hook, time the op's backward closure)
_FUNCTIONS = [
    ("autodiff", "gather_rows", "autodiff.gather_rows", "gather", True),
    ("autodiff", "segment_sum", "autodiff.segment_sum", None, True),
    ("autodiff", "segment_softmax", "autodiff.segment_softmax", None, True),
    ("autodiff", "quadratic_pair_form", "autodiff.quadratic_pair_form", None, True),
    ("autodiff", "spmm", "autodiff.spmm", None, True),
    ("autodiff", "matmul", "autodiff.matmul", None, True),
    ("models", "fair_head_embed", "models.fair_head_embed", None, False),
    ("models", "backbone_embed", "models.backbone_embed", None, False),
    ("losses", "utility_loss", "losses.utility_loss", None, False),
    ("losses", "smoothness_loss", "losses.smoothness_loss", None, False),
    ("losses", "group_welfare_loss", "losses.group_welfare_loss", None, False),
    ("losses", "combine_losses", "losses.combine_losses", None, False),
    ("trainer", "train", "trainer.train", "train", False),
    ("trainer", "pretrain", "trainer.pretrain", None, False),
    ("trainer", "evaluate", "trainer.evaluate", None, False),
    ("metrics", "trace_form", "metrics.trace_form", None, False),
    ("metrics", "rank_auc", "metrics.rank_auc", None, False),
    ("metrics", "compute_report", "metrics.compute_report", None, False),
    ("graph", "topo_similarity", "graph.topo_similarity", "similarity", False),
    ("graph", "attr_similarity", "graph.attr_similarity", "similarity", False),
    ("synthetic", "sbm_generate", "synthetic.sbm_generate", "sbm", False),
    ("cli", "cmd_similarity", "cli.similarity", None, False),
    ("cli", "cmd_audit", "cli.audit", None, False),
]

# (module, class, method, span name)
_METHODS = [
    ("autodiff", "Tape", "backward", "autodiff.backward"),
    ("trainer", "AdamState", "step", "trainer.adam_step"),
    ("gradnorm", "GradNormController", "step", "gradnorm.step"),
    ("graph", "SimilaritySet", "restrict", "graph.restrict"),
]

# Every file reader and writer of the graph module is one span name.
_IO_PREFIXES = ("read_", "write_")


class CountingGenerator(np.random.Generator):
    """A Generator that counts the variates it hands out in ``_counter[0]``."""


def _counting(method_name):
    base = getattr(np.random.Generator, method_name)

    def method(self, *args, **kwargs):
        out = base(self, *args, **kwargs)
        self._counter[0] += int(np.size(args[0]) if method_name == "shuffle" else np.size(out))
        return out

    method.__name__ = method_name
    return method


for _name in (
    "random", "normal", "standard_normal", "uniform", "integers", "choice",
    "binomial", "geometric", "poisson", "exponential", "permutation", "shuffle",
):
    setattr(CountingGenerator, _name, _counting(_name))


class Tracer:
    """Aggregated spans and counts of one process."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing: list[str] = []
        self._depth = defaultdict(int)
        self._stack: list[list[float]] = []

    def _enter(self, name):
        frame = [0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame, time.perf_counter()

    def _exit(self, name, frame, start):
        duration = time.perf_counter() - start
        self._stack.pop()
        self._depth[name] -= 1
        if self._stack:
            self._stack[-1][0] += duration
        self.self_time[name] += duration - frame[0]
        if self._depth[name] == 0:
            self.inclusive[name] += duration
        self.calls[name] += 1

    def wrap(self, name, fn, hook=None, time_backward=False):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, start = tracer._enter(name)
            try:
                result = tracer._call(fn, hook, args, kwargs)
            finally:
                tracer._exit(name, frame, start)
            if time_backward:
                tracer._wrap_backward(name + "_back", result)
            return result

        return wrapper

    def _call(self, fn, hook, args, kwargs):
        if hook == "sbm":
            return self._count_draws(fn, args, kwargs)
        result = fn(*args, **kwargs)
        if hook == "gather":
            self.counts["autodiff.gathered_elems"] += int(result.values.size)
        elif hook == "similarity":
            self.counts["graph.similarity_pairs"] += int(result.num_pairs)
        elif hook == "train":
            self.counts["trainer.epochs_run"] += int(result.epochs_run)
        return result

    def _count_draws(self, fn, args, kwargs):
        """Count the variates sbm_generate draws, through numpy's default_rng."""
        original = np.random.default_rng
        counter = [0]

        def default_rng(seed=None):
            if isinstance(seed, np.random.Generator):
                return seed
            rng = CountingGenerator(np.random.PCG64(seed))
            rng._counter = counter
            return rng

        np.random.default_rng = default_rng
        try:
            graph = fn(*args, **kwargs)
        finally:
            np.random.default_rng = original
        self.counts["synthetic.pairs_drawn"] += counter[0]
        self.counts["synthetic.edges"] += int(graph.num_edges)
        return graph

    def _wrap_backward(self, name, tensor):
        backward = getattr(tensor, "_backward", None)
        if backward is None:
            return
        tracer = self

        def timed(g):
            frame, start = tracer._enter(name)
            try:
                return backward(g)
            finally:
                tracer._exit(name, frame, start)

        tensor._backward = timed

    def install(self) -> None:
        """Patch the program's modules; call after importing ginigraph.cli."""
        loaded = [
            mod
            for key, mod in sys.modules.items()
            if (key == "ginigraph" or key.startswith("ginigraph.")) and mod is not None
        ]
        modules = {mod.__name__.rpartition(".")[2]: mod for mod in loaded}
        targets = list(_FUNCTIONS)
        graph = modules.get("graph")
        if graph is not None:
            targets += [
                ("graph", attr, "graph.io", None, False)
                for attr in sorted(vars(graph))
                if attr.startswith(_IO_PREFIXES) and callable(getattr(graph, attr))
            ]
        for module, attr, name, hook, backward in targets:
            fn = getattr(modules.get(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(name, fn, hook, backward)
            _rebind(loaded, fn, wrapped)
        for module, cls_name, attr, name in _METHODS:
            cls = getattr(modules.get(module), cls_name, None)
            fn = getattr(cls, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self.wrap(name, fn))


def _rebind(modules, original, wrapped) -> None:
    """Point every module-level name bound to original at wrapped."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
