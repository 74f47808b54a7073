"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria with runtime limits assert them.
"""
import time

import numpy as np
import pytest

from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.cli import build_model, make_divergence_spec, run_propagation, stratified_subset
from blockwalk.dataset import SyntheticSpec, block_topic_alphas, generate_synthetic, smooth
from blockwalk.divergence import DivergenceSpec
from blockwalk.partition import auto_refine, coarsest_partition, finest_partition
from blockwalk.propagation import (
    PropagationConfig,
    TransitionModel,
    dense_transition_matrix,
    propagate_labels,
)
from blockwalk.variational import (
    block_divergence_sums,
    constraint_residuals,
    exact_loglik,
    lower_bound,
    optimize_q,
)

from conftest import random_count_matrix, sample_in_domain
from oracles import (
    bregman_divergence,
    closed_form_propagation,
    dense_q_matrix,
    euclidean_block_divergence_sum,
    pairwise_divergences,
    projected_ascent_q,
    reference_cluster_tree,
    steal_threshold,
    subtree_rows,
)


def _report(num, detail):
    print(f"\n[criterion {num:02d}] PASS  {detail}")


def _counts(rng, n, d, epsilon=0.5):
    return smooth(random_count_matrix(rng, n, d), epsilon)


DECOUPLING_KINDS = ("sq-euclidean", "gid", "itakura-saito")


@pytest.fixture(scope="module")
def decoupling_runs():
    """20 random count datasets (N=256, d=10), trees for three kinds."""
    rng = np.random.default_rng(101)
    runs = []
    t0 = time.perf_counter()
    for _ in range(20):
        data = _counts(rng, 256, 10)
        per_kind = {}
        for kind in DECOUPLING_KINDS:
            spec = DivergenceSpec(kind, 10, epsilon=0.5)
            tree = build_cluster_tree(data, spec)
            per_kind[kind] = (spec, tree, coarsest_partition(tree))
        runs.append((data, per_kind))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_01_decoupling_oracle(decoupling_runs):
    runs, build_elapsed = decoupling_runs
    t0 = time.perf_counter()
    worst = 0.0
    blocks = 0
    for data, per_kind in runs:
        dense = data.to_dense()
        for kind in DECOUPLING_KINDS:
            spec, tree, part = per_kind[kind]
            fast = block_divergence_sums(tree, part)
            full = pairwise_divergences(spec, dense, dense)
            for k in range(part.n_blocks):
                ra = subtree_rows(tree, int(part.a[k]))
                rb = subtree_rows(tree, int(part.b[k]))
                brute = float(full[np.ix_(ra, rb)].sum())
                rel = abs(fast[k] - brute) / max(1.0, abs(brute))
                worst = max(worst, rel)
                blocks += 1
            assert worst <= 1e-8
    elapsed = build_elapsed + (time.perf_counter() - t0)
    assert elapsed < 30.0
    _report(1, f"{blocks} blocks over 20 datasets x 3 kinds, worst rel err "
               f"{worst:.2e} <= 1e-8, runtime {elapsed:.1f}s < 30s")


def test_criterion_02_euclidean_reduction(decoupling_runs):
    runs, _ = decoupling_runs
    worst = 0.0
    for data, per_kind in runs:
        spec, tree, part = per_kind["sq-euclidean"]
        general_all = block_divergence_sums(tree, part)
        for k in range(part.n_blocks):
            a, b = int(part.a[k]), int(part.b[k])
            general = general_all[k]
            legacy = euclidean_block_divergence_sum(
                tree.stats[a], tree.stats[b], tree.size[a], tree.size[b], spec
            )
            worst = max(worst, abs(general - legacy) / max(1.0, abs(legacy)))
    assert worst <= 1e-9
    _report(2, f"general vs legacy squared-Euclidean block sums agree, "
               f"worst rel err {worst:.2e} <= 1e-9")


def test_criterion_03_finest_partition_exactness():
    rng = np.random.default_rng(103)
    data = _counts(rng, 64, 8)
    spec = DivergenceSpec("gid", 8, epsilon=0.5)
    tree = build_cluster_tree(data, spec)
    part = finest_partition(tree)
    params = optimize_q(tree, part, spec, data)
    dense = data.to_dense()
    d_mat = pairwise_divergences(spec, dense, dense)
    np.fill_diagonal(d_mat, np.inf)
    shift = d_mat.min(axis=1, keepdims=True)
    e = np.exp(shift - d_mat)
    p = e / e.sum(axis=1, keepdims=True)
    worst = 0.0
    for k in range(part.n_blocks):
        i = int(tree.perm[tree.start[int(part.a[k])]])
        j = int(tree.perm[tree.start[int(part.b[k])]])
        worst = max(worst, abs(params.values[k] - p[i, j]))
    assert worst <= 1e-8
    _report(3, f"finest-partition parameters equal the dense row softmax, "
               f"max abs err {worst:.2e} <= 1e-8")


def test_criterion_04_optimizer_oracle():
    rng = np.random.default_rng(104)
    worst_gap = 0.0
    worst_res = 0.0
    for inst in range(20):
        kind = DECOUPLING_KINDS[inst % 3]
        data = _counts(rng, 40, 6)
        spec = DivergenceSpec(kind, 6, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        part = coarsest_partition(tree)
        params = optimize_q(tree, part, spec, data)
        report = lower_bound(params, part, tree, spec, data)
        _, f_star = projected_ascent_q(tree, part, spec, data)
        ell_star = report.constant + f_star
        gap = abs(report.ell - ell_star) / abs(ell_star)
        res = float(np.max(np.abs(constraint_residuals(tree, part, params))))
        worst_gap = max(worst_gap, gap)
        worst_res = max(worst_res, res)
        assert gap <= 1e-6
        assert res <= 1e-9
    _report(4, f"20 instances (N=40, coarsest): worst oracle gap {worst_gap:.2e} "
               f"<= 1e-6, worst constraint residual {worst_res:.2e} <= 1e-9")


def test_criterion_05_no_steal_soundness_and_pruning_invariance():
    rng = np.random.default_rng(105)
    kinds = ["sq-euclidean", "gid", "kl", "itakura-saito", "logistic"]
    total = 0
    for kind in kinds:
        spec = DivergenceSpec(kind, 5)
        violations = 0
        for trial in range(1000):
            pc, pn = sample_in_domain(kind, rng, 2, 5)
            if trial % 2:
                x = sample_in_domain(kind, rng, 1, 5)[0]
            else:
                # points near the current pivot stress the bound hardest
                w = rng.uniform(0.6, 1.0)
                x = w * pc + (1 - w) * sample_in_domain(kind, rng, 1, 5)[0]
            thr, _ = steal_threshold(spec, pc, pn)
            d_curr = bregman_divergence(spec, x, pc)
            if d_curr <= thr:
                total += 1
                if bregman_divergence(spec, x, pn) < d_curr - 1e-12:
                    violations += 1
        assert violations == 0
    for kind in ("gid", "sq-euclidean"):
        data = _counts(rng, 2048, 10)
        spec = DivergenceSpec(kind, 10, epsilon=0.5)
        on = reference_cluster_tree(data, spec, use_pruning=True)
        off = build_cluster_tree(data, spec)
        assert np.array_equal(on.perm, off.perm)
        assert np.array_equal(on.left, off.left)
        assert np.array_equal(on.right, off.right)
    _report(5, f"0 no-steal violations over 1000 triples x {len(kinds)} kinds "
               f"({total} below-threshold cases); N=2048 trees identical to the "
               f"pruned reference's for gid and sq-euclidean")


def test_criterion_06_blocked_matvec():
    rng = np.random.default_rng(106)
    data = _counts(rng, 512, 8)
    spec = DivergenceSpec("gid", 8, epsilon=0.5)
    tree = build_cluster_tree(data, spec)
    worst = 0.0
    for part in (
        coarsest_partition(tree),
        auto_refine(coarsest_partition(tree), tree, 20),
    ):
        params = optimize_q(tree, part, spec, data)
        model = TransitionModel(tree, part, params, spec)
        q = dense_q_matrix(model)
        for _ in range(10):
            v = rng.normal(size=512)
            worst = max(worst, float(np.max(np.abs(model.matmat(v) - q @ v))))
        assert worst <= 1e-10
    _report(6, f"blocked product vs dense expansion at N=512: "
               f"max abs err {worst:.2e} <= 1e-10 over 10 vectors x 2 partitions")


def test_criterion_07_bound_ordering():
    rng = np.random.default_rng(107)
    data = _counts(rng, 128, 8)
    spec = DivergenceSpec("gid", 8, epsilon=0.5)
    tree = build_cluster_tree(data, spec)
    part = coarsest_partition(tree)
    ells = []
    for _ in range(6):  # coarsest + 5 refinement rounds
        params = optimize_q(tree, part, spec, data)
        ells.append(lower_bound(params, part, tree, spec, data).ell)
        part = auto_refine(part, tree, 1)
    exact = exact_loglik(data, spec)
    for a, b in zip(ells, ells[1:]):
        assert b >= a - 1e-9
    assert all(e <= exact + 1e-9 for e in ells)
    _report(7, f"bound nondecreasing over 5 refinements "
               f"({ells[0]:.4f} -> {ells[-1]:.4f}) and <= exact {exact:.4f} + 1e-9")


def test_criterion_08_propagation_defaults_and_closed_form():
    config = PropagationConfig()
    assert config.alpha == 0.01
    assert config.iterations == 300
    rng = np.random.default_rng(108)
    data = _counts(rng, 64, 8)
    spec = DivergenceSpec("gid", 8, epsilon=0.5)
    y0 = np.zeros((64, 3))
    for i in range(9):
        y0[i, i % 3] = 1.0
    base = dense_transition_matrix(data, spec)
    got_dense = propagate_labels(base, y0, config)
    want_dense = closed_form_propagation(base.p, y0, config.alpha)
    err_dense = float(np.max(np.abs(got_dense - want_dense)))
    tree = build_cluster_tree(data, spec)
    part = coarsest_partition(tree)
    model = TransitionModel(tree, part, optimize_q(tree, part, spec, data), spec)
    got_blocked = propagate_labels(model, y0, config)
    want_blocked = closed_form_propagation(dense_q_matrix(model), y0, config.alpha)
    err_blocked = float(np.max(np.abs(got_blocked - want_blocked)))
    assert err_dense <= 1e-10 and err_blocked <= 1e-10
    _report(8, f"defaults alpha=0.01, iterations=300; closed-form agreement at "
               f"N=64: dense {err_dense:.2e}, blocked {err_blocked:.2e} <= 1e-10")


def test_criterion_09_count_divergence_beats_euclidean():
    t0 = time.perf_counter()
    seed = 20240817
    synth = SyntheticSpec(
        block_topic_alphas(3, 200, overlap=0.7), np.full(3, 80.0), 1500, seed
    )
    data, labels = generate_synthetic(synth)
    accs = {}
    for kind in ("gid", "sq-euclidean"):
        spec, _ = make_divergence_spec(kind, data, seed=seed)
        model, _, _, _ = build_model(data, spec, "coarsest")
        accs[kind] = []
        for trial in range(5):
            rng = np.random.default_rng([seed, trial])
            labeled = stratified_subset(data.ids, labels, 0.05, rng)
            _, _, _, acc, _ = run_propagation(
                model, data.ids, labels, labeled, PropagationConfig()
            )
            accs[kind].append(acc)
    gid = np.array(accs["gid"])
    euc = np.array(accs["sq-euclidean"])
    wins = int(np.sum(gid > euc))
    elapsed = time.perf_counter() - t0
    assert gid.mean() > euc.mean()
    assert wins >= 4
    assert elapsed < 300.0
    _report(9, f"count-divergence model beats Euclidean on synthetic counts: "
               f"mean {gid.mean():.4f} vs {euc.mean():.4f}, wins {wins}/5, "
               f"runtime {elapsed:.0f}s < 300s")


SCALING_REPEATS = 3


def _seconds(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def test_criterion_10_scaling():
    # Each (path, size) time is the best of SCALING_REPEATS runs: the
    # minimum is the sample least disturbed by other load on the machine,
    # and one disturbed sample on a 4-point log-log fit moves a slope by
    # half a unit.
    t0 = time.perf_counter()
    seed = 42
    sizes = [1000, 2000, 4000, 8000]
    bvdt_times = []
    exact_times = []
    config = PropagationConfig()
    for n in sizes:
        synth = SyntheticSpec(
            block_topic_alphas(3, 50, overlap=0.3), np.full(3, 80.0), n, [seed, n]
        )
        data, labels = generate_synthetic(synth)
        rng = np.random.default_rng([seed, n])
        labeled = stratified_subset(data.ids, labels, 0.05, rng)
        spec, _ = make_divergence_spec("gid", data, seed=seed)

        def compressed():
            model, _, _, _ = build_model(data, spec, "coarsest")
            run_propagation(model, data.ids, labels, labeled, config)

        def dense():
            base = dense_transition_matrix(
                smooth(data, spec.epsilon), spec, cap=8192, keep_w=False
            )
            run_propagation(base, data.ids, labels, labeled, config)

        runs = [(_seconds(compressed), _seconds(dense)) for _ in range(SCALING_REPEATS)]
        bvdt_times.append(min(r[0] for r in runs))
        exact_times.append(min(r[1] for r in runs))
    logn = np.log(np.asarray(sizes, dtype=float))
    bvdt_slope = float(np.polyfit(logn, np.log(bvdt_times), 1)[0])
    exact_slope = float(np.polyfit(logn, np.log(exact_times), 1)[0])
    speedup = exact_times[-1] / bvdt_times[-1]
    elapsed = time.perf_counter() - t0
    seconds = ", ".join(
        f"N={n}: {b:.2f}s vs {e:.2f}s"
        for n, b, e in zip(sizes, bvdt_times, exact_times)
    )
    detail = (
        f"compressed vs dense, best of {SCALING_REPEATS}: {seconds}; compressed "
        f"slope {bvdt_slope:.2f} <= 1.7, dense slope {exact_slope:.2f} >= 1.9, "
        f"speedup at N=8000 {speedup:.1f}x >= 5x, runtime {elapsed:.0f}s < 900s"
    )
    assert bvdt_slope <= 1.7, detail
    assert exact_slope >= 1.9, detail
    assert speedup >= 5.0, detail
    assert elapsed < 900.0, detail
    _report(10, f"end-to-end scaling: {detail}")


def test_criterion_11_partition_count_laws():
    rng = np.random.default_rng(111)
    for n in range(2, 65):
        data = _counts(rng, n, 6)
        spec = DivergenceSpec("gid", 6, epsilon=0.5)
        tree = build_cluster_tree(data, spec)
        assert coarsest_partition(tree).n_blocks == 2 * (n - 1)
        assert finest_partition(tree).n_blocks == n * (n - 1)
    _report(11, "block count laws 2(N-1) and N(N-1) hold for all N in 2..64")
