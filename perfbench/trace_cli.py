"""Run the smootherlab CLI in this process with a span around each layer call.

    python3 perfbench/trace_cli.py SPANS.json <smootherlab arguments>

Before ``smootherlab.cli.main`` runs, the module attributes and methods that
the CLI's code looks up are replaced by wrappers that record a span (name,
start, end, parent span, thread id, attributes) and a few counts. Spans stay
in memory and are written to SPANS.json when the run ends. The wrappers call
the original functions unchanged, so the CSVs are the same as untraced ones.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        attrs: dict = {}
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "thread": threading.get_ident(), "attrs": attrs,
            })

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def traced(self, fn, name: str, note=None):
        """fn inside a span; note(attrs, args, kwargs, result) adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(attrs, args, kwargs, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        setattr(owner, attr, self.traced(getattr(owner, attr), name, note))


def _node_rows(tree) -> int:
    """Sum of node sizes: the rows every split search of the tree scanned.

    Children are created after their parent, so sizes fold up in reverse
    node order from the leaf counts.
    """
    left, right = tree.left.tolist(), tree.right.tolist()
    slot, counts = tree.leaf_slot.tolist(), tree.leaf_counts.tolist()
    size = [0] * len(left)
    for i in range(len(left) - 1, -1, -1):
        size[i] = int(counts[slot[i]]) if left[i] < 0 else size[left[i]] + size[right[i]]
    return sum(size)


def instrument(tracer: Tracer, cli) -> list:
    """Install the wrappers; returns (attrs, tree) pairs to count after the run."""
    from smootherlab import boosting, linear, trees
    from smootherlab.experiments import families, sweep

    grown: list = []

    def note_tree(attrs, args, kwargs, tree):
        grown.append((attrs, tree))

    def note_pcr(attrs, args, kwargs, result):
        p_pc = args[1] if len(args) > 1 else kwargs["p_pc"]
        attrs.update(n=args[0].shape[0], p=args[0].shape[1], p_pc=int(p_pc))

    def note_frequencies(attrs, args, kwargs, fmap):
        attrs.update(p_max=fmap.p_max)

    def note_boost(attrs, args, kwargs, model):
        attrs.update(
            rounds=model.n_rounds,
            n=model.n_train,
            leaves=sum(t.n_leaves for t in model.trees),
            state_bytes=sum(a.nbytes for a in model.tree_weight_rows)
            + sum(a.nbytes for a in model.corrections)
            + model.train_weight_state.nbytes,
        )

    def note_replay(attrs, args, kwargs, result):
        model, lids_per_round = args[0], args[1]
        attrs.update(rounds=min(len(lids_per_round), model.n_rounds))

    tracer.wrap(cli, "load_datasets", "dataset.load")
    for runner in ("run_sweep", "back_to_u", "run_grid", "peak_move"):
        tracer.wrap(cli, runner, "sweep.run")
    tracer.wrap(sweep, "write_csv", "tableio.write_csv",
                lambda a, args, kw, r: a.update(rows=len(args[2]),
                                                bytes=os.path.getsize(args[0])))
    tracer.wrap(families, "sample_frequencies", "rff.sample_frequencies", note_frequencies)
    tracer.wrap(families, "pcr_smoother", "linear.pcr_smoother", note_pcr)
    tracer.wrap(linear.PcrSmoother, "weight_matrix", "linear.weights")
    tracer.wrap(linear.PcrSmoother, "hat_matrix", "linear.weights")
    tracer.wrap(families, "fit_tree", "trees.fit_tree", note_tree)
    tracer.wrap(boosting, "fit_tree", "trees.fit_tree", note_tree)
    tracer.wrap(trees.RegressionTree, "leaf_ids", "trees.leaf_ids",
                lambda a, args, kw, lids: a.update(rows=len(lids)))
    tracer.wrap(trees.RegressionTree, "leaf_weight_rows", "trees.leaf_weight_rows")
    tracer.wrap(families, "fit_boost", "boosting.fit_boost", note_boost)
    tracer.wrap(boosting.BoostedModel, "weights_from_leaf_ids", "boosting.replay",
                note_replay)

    for family, cls in families.FAMILY_RUNNERS.items():
        def note_init(attrs, args, kwargs, result, family=family, cls=cls):
            attrs.update(family=family, n_train=args[1].n, n_test=args[2].n,
                         parallel_points=int(bool(cls.parallel_points)))

        tracer.wrap(cls, "__init__", "families.init", note_init)
        tracer.wrap(cls, "evaluate", "families.evaluate")

        def prefit_tasks(self, _original=cls.prefit_tasks):
            tasks = _original(self)
            tracer.count("sweep.prefit_tasks", len(tasks))
            return [tracer.traced(task, "sweep.prefit_task") for task in tasks]

        cls.prefit_tasks = prefit_tasks
    return grown


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code = 1
    try:
        with tracer.span("cli.run"):
            with tracer.span("cli.import"):
                import smootherlab.cli as cli
            grown = instrument(tracer, cli)
            code = cli.main(argv)
        for attrs, tree in grown:
            attrs.update(nodes=int(tree.feature.size), node_rows=_node_rows(tree))
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"counts": tracer.counts, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
