"""Workloads, the layer-by-layer composition the benchmark times, and the
checks on its outputs.

The composition calls the package's public functions in the order
`blockwalk.cli.build_model` and `blockwalk.cli.run_propagation` call them
(smooth, tree, partition, optimizer, bound, operator, then label spreading),
so a span can wrap each layer's call from outside the package. The dense
path is the one `blockwalk experiment` takes for `exact:gid`.
`check_composition` pins both paths to the CLI's own results.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from blockwalk import cli
from blockwalk.anchor_tree import agglomerate_anchors, build_cluster_tree, grow_anchors
from blockwalk.dataset import SyntheticSpec, block_topic_alphas, generate_synthetic, smooth
from blockwalk.model_io import load_model, save_model
from blockwalk.partition import auto_refine, coarsest_partition
from blockwalk.propagation import (
    PropagationConfig,
    TransitionModel,
    classify_one_vs_all,
    dense_transition_matrix,
    evaluate_accuracy,
    propagate_labels,
)
from blockwalk.variational import block_divergence_sums, exact_loglik, lower_bound, optimize_q

CLASSES = 3
KIND = "gid"
# Sweep budget for every compressed build: 4x the 14-15 sweeps the converging
# workloads need, so a stalled optimizer ends a round in seconds, not minutes.
MAX_SWEEPS = 60
DENSE_CAP = cli.DEFAULT_MAX_EXACT_N
# Row sums of the blocked product differ from the optimizer's own residual
# pass only by summation order.
ROWSUM_SLACK = 1e-12
MATMAT_REPEATS = 10
CHECK_DIM = 50
CONFIG = PropagationConfig(alpha=cli.DEFAULT_ALPHA, iterations=cli.DEFAULT_ITERS)

# Metrics of a traced run, with their units. Layers a workload does not run
# (the tree on the dense path, model_io without a save) report 0.
PER_LAYER_UNITS = {
    "dataset.generate_s": "s",
    "dataset.smooth_s": "s",
    "anchor_tree.build_s": "s",
    "anchor_tree.root_grow_s": "s",
    "anchor_tree.root_agglomerate_s": "s",
    "anchor_tree.nodes": "count",
    "anchor_tree.depth_sum": "count",
    "anchor_tree.stat_nnz": "count",
    "partition.build_s": "s",
    "partition.blocks": "count",
    "variational.block_sums_s": "s",
    "variational.optimize_s": "s",
    "variational.bound_s": "s",
    "variational.sweeps": "count",
    "variational.residual": "max_abs",
    "variational.converged": "bool",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.bytes": "B",
    "propagation.model_init_s": "s",
    "propagation.dense_matrix_s": "s",
    "propagation.matmat_s": "s",
    "propagation.propagate_s": "s",
    "propagation.product_bytes": "B_computed",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dim: int
    overlap: float
    mean_length: float
    partition: str  # "coarsest", "refine:<rounds>" or "dense"
    queries: int
    labeled_fraction: float
    through_disk: bool = False  # serve queries from a saved and reloaded model

    @property
    def dense(self):
        return self.partition == "dense"


# Why each workload exists, and which layers it loads and bypasses, is in
# README.md; BENCHMARK.json names the ones the regression gate runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tier1-n8000", 8000, 50, 0.3, 80.0, "coarsest", 3, 0.05),
        Workload("wide-d5000", 1000, 5000, 0.3, 80.0, "coarsest", 3, 0.05),
        Workload(
            "refine-apply-n4000", 4000, 50, 0.8, 20.0, "refine:2000", 5, 0.02,
            through_disk=True,
        ),
        Workload("dense-n4000", 4000, 50, 0.8, 20.0, "dense", 1, 0.02),
    )
}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span.

    A disabled tracer records nothing and costs one call per span."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._open = []

    def span(self, name):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name):
        parent = self._open[-1] if self._open else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def durations(self, name):
        return [s.end - s.start for s in self.spans if s.name == name]


# ---------------------------------------------------------------------------
# Inputs (the set-up phase)
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    data: object
    labels: object
    spec: object
    labeled: list  # one labeled id set per query
    y0s: list  # one-hot seeds, one per query


def make_corpus(w, seed):
    """Synthetic gid corpus of the workload; the seed alone fixes it."""
    alphas = block_topic_alphas(CLASSES, w.dim, w.overlap)
    spec = SyntheticSpec(alphas, np.full(CLASSES, w.mean_length), w.n, [seed, w.n])
    return generate_synthetic(spec)


def make_inputs(w, seed, tracer):
    """Corpus, divergence spec and the labeled subsets of every query."""
    with tracer.span("dataset.generate_s"):
        data, labels = make_corpus(w, seed)
    spec, _ = cli.make_divergence_spec(KIND, data, seed=seed)
    labeled = [
        cli.stratified_subset(
            data.ids, labels, w.labeled_fraction, np.random.default_rng([seed, q])
        )
        for q in range(w.queries)
    ]
    y0s = [cli.one_hot_seed(data.ids, labels, ids) for ids in labeled]
    return Inputs(data, labels, spec, labeled, y0s)


def same_inputs(a, b):
    return (
        a.data == b.data
        and a.labels.assignments == b.labels.assignments
        and a.labeled == b.labeled
    )


# ---------------------------------------------------------------------------
# The composition
# ---------------------------------------------------------------------------


@dataclass
class Fit:
    smoothed: object
    operator: object  # TransitionModel or DenseBaseline
    tree: object = None
    partition: object = None
    params: object = None
    report: object = None


def fit_compressed(data, spec, partition_mode, tracer):
    """smooth -> tree -> partition -> optimizer -> bound -> operator, as in
    `cli.build_model`, with the sweep budget passed explicitly."""
    with tracer.span("dataset.smooth_s"):
        smoothed = smooth(data, spec.epsilon)
    with tracer.span("anchor_tree.build_s"):
        tree = build_cluster_tree(smoothed, spec)
    with tracer.span("partition.build_s"):
        part = coarsest_partition(tree)
        if partition_mode.startswith("refine:"):
            part = auto_refine(part, tree, int(partition_mode.split(":", 1)[1]))
        elif partition_mode != "coarsest":
            raise ValueError(f"unsupported partition mode {partition_mode!r}")
    with tracer.span("variational.optimize_s"):
        params = optimize_q(tree, part, spec, smoothed, max_sweeps=MAX_SWEEPS)
    # the bound is taken before any save: on a loaded model it raises
    with tracer.span("variational.bound_s"):
        report = lower_bound(params, part, tree, spec, smoothed)
    with tracer.span("propagation.model_init_s"):
        model = TransitionModel(tree, part, params, spec)
    return Fit(smoothed, model, tree, part, params, report)


def fit_dense(data, spec, tracer):
    """The exact operator, as `cli._method_operator` builds it for exact:<kind>."""
    with tracer.span("dataset.smooth_s"):
        smoothed = smooth(data, spec.epsilon)
    with tracer.span("propagation.dense_matrix_s"):
        base = dense_transition_matrix(smoothed, spec, cap=DENSE_CAP, keep_w=False)
    return Fit(smoothed, base)


def fit(w, inputs, tracer):
    if w.dense:
        return fit_dense(inputs.data, inputs.spec, tracer)
    return fit_compressed(inputs.data, inputs.spec, w.partition, tracer)


def save_and_load(model, report, ids, path, tracer):
    with tracer.span("model_io.save_s"):
        save_model(path, model, report, ids)
    with tracer.span("model_io.load_s"):
        loaded, _, _ = load_model(path)
    return loaded


def query(operator, inputs, q, tracer):
    """One label-propagation query, as `cli.run_propagation` runs it."""
    with tracer.span("propagation.propagate_s"):
        scores = propagate_labels(operator, inputs.y0s[q], CONFIG)
    classes, _ = classify_one_vs_all(scores)
    acc = evaluate_accuracy(classes, inputs.labels, inputs.data.ids, inputs.labeled[q])
    return scores, acc


# ---------------------------------------------------------------------------
# One round: build, optional save/load, queries; then counts and checks
# ---------------------------------------------------------------------------


@dataclass
class Round:
    traced: bool
    attempted: int
    failed: int = 0
    build_s: float = math.nan
    query_s: list = field(default_factory=list)
    total_s: float = math.nan
    hits: float = 0.0  # correct predictions summed over queries
    scored: int = 0  # unlabeled rows summed over queries
    ell: float = math.nan
    counts: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)  # must repeat exactly
    problems: list = field(default_factory=list)  # failed output checks


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def tree_counts(tree):
    """Work bounds of the compressed operator, read off the fitted tree."""
    return {
        "anchor_tree.nodes": int(tree.n_nodes),
        # nodes on every root-to-leaf path: the nnz of the ancestor matrix
        "anchor_tree.depth_sum": int((tree.depth[tree.left < 0] + 1).sum()),
        "anchor_tree.stat_nnz": int(sum(s.s3.nnz + s.s4.nnz for s in tree.stats)),
    }


def product_bytes(fitted, n, classes):
    """Bytes one product on an N x C block moves, computed from array sizes,
    not measured. Compressed: block a, b and q, one parent index per node,
    the row-to-leaf map, the N x C input and output, and the up and down
    node accumulators. Dense: the N x N matrix, input and output."""
    if fitted.tree is None:
        return 8 * (n * n + 2 * n * classes)
    nodes, blocks = fitted.tree.n_nodes, fitted.partition.n_blocks
    return 8 * (3 * blocks + nodes + n) + 8 * classes * (2 * n + 2 * nodes)


def run_round(w, inputs, workdir, tracer):
    """Time one closed-loop round, each call waiting for the previous one;
    returns the round and the fitted operator (None when the build raised)."""
    r = Round(traced=tracer.enabled, attempted=1 + w.queries)
    t0 = time.perf_counter()
    try:
        fitted = fit(w, inputs, tracer)
    except Exception:  # a failed build is counted, and the loop goes on
        traceback.print_exc()
        r.failed = r.attempted
        return r, None
    r.build_s = time.perf_counter() - t0
    model_ok = True
    served = fitted.operator
    if fitted.params is not None:
        model_ok = fitted.params.converged and bool(
            np.all(np.isfinite(fitted.params.values)) and np.isfinite(fitted.report.ell)
        )
        if w.through_disk:
            path = os.path.join(workdir, "model.npz")
            try:
                served = save_and_load(
                    fitted.operator, fitted.report, inputs.data.ids, path, tracer
                )
            except Exception:
                traceback.print_exc()
                r.failed = r.attempted
                return r, fitted
    if not model_ok:
        r.failed += 1
    scores_all = []
    for q in range(w.queries):
        tq = time.perf_counter()
        try:
            scores, acc = query(served, inputs, q, tracer)
        except Exception:
            traceback.print_exc()
            r.failed += 1
            continue
        r.query_s.append(time.perf_counter() - tq)
        finite = bool(np.all(np.isfinite(scores)))
        if not (finite and model_ok):
            r.failed += 1
        if not finite:
            r.problems.append(f"query {q}: non-finite propagation scores")
        scored = len(inputs.data.ids) - len(inputs.labeled[q])
        r.hits += acc * scored
        r.scored += scored
        scores_all.append((q, scores, acc))
    r.total_s = time.perf_counter() - t0
    _count_and_check(r, w, inputs, fitted, served, scores_all, workdir)
    return r, fitted


def _count_and_check(r, w, inputs, fitted, served, scores_all, workdir):
    n = inputs.data.n_rows
    r.counts["propagation.product_bytes"] = product_bytes(fitted, n, CLASSES)
    if fitted.params is None:
        p = served.p
        rowsum_dev = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        allowed = ROWSUM_SLACK
    else:
        r.ell = fitted.report.ell
        r.counts.update(tree_counts(fitted.tree))
        r.counts["partition.blocks"] = fitted.partition.n_blocks
        r.counts["variational.sweeps"] = fitted.params.sweeps
        r.counts["variational.residual"] = fitted.params.residual
        r.counts["variational.converged"] = float(fitted.params.converged)
        rowsum_dev = float(np.max(np.abs(served.matmat(np.ones(n)) - 1.0)))
        allowed = fitted.params.residual + ROWSUM_SLACK
        r.fingerprint["ell"] = fitted.report.ell
        r.fingerprint["q"] = _digest(fitted.params.values)
        if w.through_disk:
            r.counts["model_io.bytes"] = os.path.getsize(os.path.join(workdir, "model.npz"))
            same = (
                np.array_equal(served.params.values, fitted.params.values)
                and np.array_equal(served.partition.a, fitted.partition.a)
                and np.array_equal(served.partition.b, fitted.partition.b)
                and np.array_equal(served.tree.perm, fitted.tree.perm)
            )
            if not same:
                r.problems.append("save/load round trip changed the model")
    if not rowsum_dev <= allowed:
        r.problems.append(
            f"operator row sums deviate from 1 by {rowsum_dev:.3e} > {allowed:.3e}"
        )
    for q, scores, acc in scores_all:
        r.fingerprint[f"scores{q}"] = _digest(scores)
        r.fingerprint[f"accuracy{q}"] = acc
    if r.scored and not r.hits / r.scored > 1.0 / CLASSES:
        r.problems.append(f"accuracy {r.hits / r.scored:.4f} is not above chance")
    r.fingerprint.update(r.counts)


def probe_layers(w, inputs, fitted, tracer):
    """Extra traced calls into single layers, made after a round's timing:
    the root scope's anchor growing and agglomeration, the block sums and
    single operator products."""
    y = inputs.y0s[0]
    if fitted.tree is not None:
        m = math.isqrt(inputs.data.n_rows - 1) + 1  # ceil(sqrt(N)), as the build
        with tracer.span("anchor_tree.root_grow_s"):
            anchors = grow_anchors(fitted.smoothed, inputs.spec, m)
        with tracer.span("anchor_tree.root_agglomerate_s"):
            agglomerate_anchors(anchors, inputs.spec)
        with tracer.span("variational.block_sums_s"):
            block_divergence_sums(fitted.tree, fitted.partition)
        for _ in range(MATMAT_REPEATS):
            with tracer.span("propagation.matmat_s"):
                fitted.operator.matmat(y)
    else:
        p = fitted.operator.p
        for _ in range(MATMAT_REPEATS):
            with tracer.span("propagation.matmat_s"):
                p @ y  # the product propagate_labels applies per iteration


def ell_per_point(w, inputs, rounds):
    """The bound per point; on the dense path, the exact log-likelihood per
    point, which every bound lies below."""
    n = inputs.data.n_rows
    if w.dense:
        smoothed = smooth(inputs.data, inputs.spec.epsilon)
        return exact_loglik(smoothed, inputs.spec, cap=DENSE_CAP) / n
    done = [r.ell for r in rounds if not math.isnan(r.ell)]
    return done[0] / n if done else math.nan


# ---------------------------------------------------------------------------
# Equivalence with the CLI's composition
# ---------------------------------------------------------------------------


def check_composition(w, seed, n=300):
    """Build a small corpus with the workload's path and partition both ways,
    through this module and through the CLI, and list every output that
    differs. The corpus has d=50, where every partition mode converges: the
    CLI has no sweep budget, and the wide-vocabulary stall would keep it
    sweeping for minutes."""
    data, _ = make_corpus(replace(w, n=n, dim=CHECK_DIM), seed)
    spec, _ = cli.make_divergence_spec(KIND, data, seed=seed)
    off = Tracer(False)
    problems = []
    if w.dense:
        ours = fit_dense(data, spec, off).operator
        args = argparse.Namespace(
            sigma=None, epsilon=None, max_exact_n=DENSE_CAP, partition="coarsest"
        )
        theirs, _ = cli._method_operator("exact", KIND, data, args, seed)
        if not np.array_equal(ours.p, theirs.p):
            problems.append("dense p differs from the CLI's exact operator")
        return problems
    mode = w.partition
    if mode.startswith("refine:"):
        mode = f"refine:{min(int(mode.split(':', 1)[1]), n)}"
    ours = fit_compressed(data, spec, mode, off)
    model, report, _, _ = cli.build_model(data, spec, mode)
    pairs = {
        "perm": (ours.tree.perm, model.tree.perm),
        "left": (ours.tree.left, model.tree.left),
        "right": (ours.tree.right, model.tree.right),
        "block a": (ours.partition.a, model.partition.a),
        "block b": (ours.partition.b, model.partition.b),
        "q": (ours.params.values, model.params.values),
        "ell": (ours.report.ell, report.ell),
    }
    for name, (a, b) in pairs.items():
        if not np.array_equal(a, b):
            problems.append(f"{name} differs from cli.build_model")
    return problems
