"""Property tests over random small count corpora with forced duplicate rows:
the invariants the model rests on (tiling, unit row sums, the bound below
the exact log-likelihood, the decoupled block sums, the save/load round
trip)."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.dataset import DataMatrix, smooth
from blockwalk.divergence import DomainError, _check_domain
from blockwalk.model_io import load_model, save_model
from blockwalk.partition import auto_refine, coarsest_partition
from blockwalk.propagation import TransitionModel
from blockwalk.variational import (
    block_divergence_sums,
    exact_loglik,
    lower_bound,
    optimize_q,
)

from conftest import make_spec
from oracles import brute_block_sums, reference_auto_refine, validate_partition

# derandomized and without an example database: every run checks the same
# examples and writes nothing
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def corpora(draw):
    """(data, kind, refine rounds): counts 0..4 over at most 8 coordinates,
    with some rows overwritten by copies of others."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 4), min_size=d, max_size=d)
    counts = draw(st.lists(row, min_size=n, max_size=n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for src, dst in draw(st.lists(pair, min_size=1, max_size=n)):
        counts[dst] = counts[src]
    rows = []
    for x in np.array(counts, dtype=np.float64):
        nz = np.nonzero(x)[0]
        rows.append((nz, x[nz]))
    kind = draw(st.sampled_from(["gid", "sq-euclidean", "itakura-saito"]))
    rounds = draw(st.integers(0, 3 * n))
    return smooth(DataMatrix.from_rows(rows, d), 0.5), kind, rounds


def fit(corpus):
    data, kind, rounds = corpus
    spec = make_spec(kind, data.dim, epsilon=0.5)
    tree = build_cluster_tree(data, spec)
    part = auto_refine(coarsest_partition(tree), tree, rounds)
    return data, spec, tree, part


@PROPERTY
@given(corpora())
def test_partitions_tile(corpus):
    data, _, tree, part = fit(corpus)
    assert tree.n_nodes == 2 * data.n_rows - 1
    assert validate_partition(coarsest_partition(tree), tree)
    assert validate_partition(part, tree)


@PROPERTY
@given(corpora())
def test_auto_refine_matches_reference(corpus):
    _, _, tree, part = fit(corpus)
    want = reference_auto_refine(coarsest_partition(tree), tree, corpus[2])
    assert np.array_equal(part.a, want.a)
    assert np.array_equal(part.b, want.b)


@PROPERTY
@given(corpora())
def test_block_sums_match_brute_force(corpus):
    data, spec, tree, part = fit(corpus)
    np.testing.assert_allclose(
        block_divergence_sums(tree, part),
        brute_block_sums(tree, part, spec, data),
        rtol=1e-8,
        atol=1e-9,
    )


@PROPERTY
@given(corpora())
def test_operator_rows_sum_to_one(corpus):
    data, spec, tree, part = fit(corpus)
    params = optimize_q(tree, part, spec, data)
    model = TransitionModel(tree, part, params, spec)
    dev = np.max(np.abs(model.matmat(np.ones(data.n_rows)) - 1.0))
    assert dev <= params.residual + 1e-12


@PROPERTY
@given(corpora())
def test_bound_below_exact_loglik(corpus):
    data, spec, tree, part = fit(corpus)
    params = optimize_q(tree, part, spec, data)
    ell = lower_bound(params, part, tree, spec, data).ell
    exact = exact_loglik(data, spec)
    # equal up to rounding where the partition is the finest
    assert ell <= exact + 1e-9 * max(1.0, abs(exact))


@PROPERTY
@given(corpora())
def test_save_load_round_trip(tmp_path_factory, corpus):
    data, spec, tree, part = fit(corpus)
    params = optimize_q(tree, part, spec, data)
    model = TransitionModel(tree, part, params, spec)
    path = tmp_path_factory.mktemp("model") / "m.npz"
    save_model(path, model, lower_bound(params, part, tree, spec, data), data.base.ids)
    loaded, _, _ = load_model(path)
    for name in ("s1", "s2", "b3", "b4", "ptr", "idx", "v3", "v4"):
        assert np.array_equal(getattr(loaded.tree.stats, name), getattr(tree.stats, name))
    v = np.arange(2.0 * data.n_rows).reshape(data.n_rows, 2)
    assert np.array_equal(loaded.matmat(v), model.matmat(v))


@st.composite
def smoothed_corpora(draw):
    """(smoothed data, kind): rows with and without implicit coordinates,
    offsets 0 to 1; logistic values in (0, 1), counts 1..4 otherwise."""
    kind = draw(st.sampled_from(["gid", "itakura-saito", "logistic", "sq-euclidean"]))
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 5))
    eps = draw(st.sampled_from([0.0, 0.0, 0.05, 0.5, 1.0]))
    value = (
        st.sampled_from([0.1, 0.2, 0.3, 0.45, 0.97])
        if kind == "logistic"
        else st.integers(1, 4).map(float)
    )
    stored = st.just([True] * d) | st.lists(st.booleans(), min_size=d, max_size=d)
    rows = []
    for _ in range(n):
        idx = np.nonzero(draw(stored))[0]
        rows.append((idx, [draw(value) for _ in idx]))
    return smooth(DataMatrix.from_rows(rows, d), eps), kind


@settings(PROPERTY, max_examples=200)
@given(smoothed_corpora())
def test_smoothed_domain_is_the_dense_rule(corpus):
    """The tree rejects a smoothed matrix exactly when the dense domain rule
    rejects its densified rows."""
    data, kind = corpus
    spec = make_spec(kind, data.dim, epsilon=data.epsilon)
    try:
        _check_domain(spec, data.to_dense(), strict=True)
        dense_ok = True
    except DomainError:
        dense_ok = False
    try:
        build_cluster_tree(data, spec)
        tree_ok = True
    except DomainError:
        tree_ok = False
    assert tree_ok == dense_ok
