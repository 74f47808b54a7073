"""Property tests over random small count corpora with forced duplicate rows:
the invariants the model rests on (tiling, unit row sums, the bound below
the exact log-likelihood, the decoupled block sums, the save/load round
trip), and over every kind the CLI fits: a valid model or a named error."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk import cli
from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.dataset import DataMatrix, smooth
from blockwalk.divergence import DivergenceSpec, DomainError
from blockwalk.model_io import load_model, save_model
from blockwalk.partition import auto_refine, coarsest_partition
from blockwalk.propagation import TransitionModel, dense_transition_matrix
from blockwalk.variational import (
    block_divergence_sums,
    exact_loglik,
    lower_bound,
    optimize_q,
)

from oracles import (
    _check_domain,
    brute_block_sums,
    reference_auto_refine,
    reference_save_model,
    validate_partition,
)

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
    spec = DivergenceSpec(kind, data.dim, epsilon=0.5)
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
    report = lower_bound(params, part, tree, spec, data)
    v = np.arange(2.0 * data.n_rows).reshape(data.n_rows, 2)
    # every format version: the current writer and the older references
    for version in (1, 2, 3, None):
        path = tmp_path_factory.mktemp("model") / "m.npz"
        if version is None:
            save_model(path, model, report, data.base.ids)
        else:
            reference_save_model(path, model, report, data.base.ids, version)
        loaded, _, _ = load_model(path)
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


def domain_verdict(build, *args):
    """None where build(*args) passes the domain check, else the message
    and index of its DomainError."""
    try:
        build(*args)
    except DomainError as exc:
        return str(exc), exc.index
    return None


@settings(PROPERTY, max_examples=200)
@given(smoothed_corpora())
def test_smoothed_domain_is_the_dense_rule(corpus):
    """The tree rejects a smoothed matrix exactly when the dense domain rule
    rejects its densified rows, and the exact transition matrix and
    log-likelihood accept or reject it as the tree does, with the same
    message and index."""
    data, kind = corpus
    spec = DivergenceSpec(kind, data.dim, epsilon=data.epsilon)
    dense_ok = domain_verdict(_check_domain, spec, data.to_dense(), True) is None
    tree = domain_verdict(build_cluster_tree, data, spec)
    assert (tree is None) == dense_ok
    with np.errstate(all="ignore"):
        assert domain_verdict(dense_transition_matrix, data, spec) == tree
        assert domain_verdict(exact_loglik, data, spec) == tree


@pytest.mark.parametrize(
    "kind, value, want",
    [("kl", 0.5, ("kl requires simplex rows; row 3 sums to 1.25", 3)),
     ("logistic", 1.5,
      ("logistic requires entries in (0,1); row 3 column 2 is 1.5 after smoothing", (3, 2)))],
)
def test_every_path_names_one_bad_entry_alike(kind, value, want):
    # the exact paths took kl rows off the simplex, and named the logistic
    # entry Y[3, 2] = 1.5 where the tree named its row and column
    x = np.full((5, 4), 0.25)
    x[3, 2] = value
    data = smooth(DataMatrix.from_rows([(np.arange(4), r) for r in x], 4), 0.0)
    spec = DivergenceSpec(kind, 4)
    for build in (build_cluster_tree, dense_transition_matrix, exact_loglik):
        assert domain_verdict(build, data, spec) == want


# every kind `approximate --divergence` accepts
APPROXIMATE_KINDS = next(
    a.choices for a in cli.build_parser()[1]["approximate"]._actions if a.dest == "divergence"
)
HUGE = [1e12, 1e100, 1e200, 1e300]  # merge costs and block sums overflow


@st.composite
def cli_inputs(draw):
    """(data, kind, epsilon, partition mode), the rows in the kind's own
    domain and with copied rows: counts up to 1e300 for gid and
    itakura-saito at the CLI's default offset, and those values of either
    sign for sq-euclidean; kl's rows those counts normalized and logistic's
    values in (0, 1), both at offset 0."""
    kind = draw(st.sampled_from(APPROXIMATE_KINDS))
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 6))
    stored = st.lists(st.booleans(), min_size=d, max_size=d)
    if kind in ("kl", "logistic") and draw(st.booleans()):
        stored = st.just([True] * d)  # at offset 0 an implicit zero is outside
    if kind == "logistic":
        value = st.sampled_from([1e-300, 0.1, 0.5, 0.97, 1.0 - 1e-16])
    else:
        value = st.integers(1, 4).map(float) | st.sampled_from(HUGE)
        if kind == "sq-euclidean":
            value = st.tuples(value, st.sampled_from([1.0, -1.0])).map(np.prod)
    rows = []
    for _ in range(n):
        idx = np.flatnonzero(draw(stored))
        rows.append((idx, np.array([draw(value) for _ in idx])))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for src, dst in draw(st.lists(pair, max_size=n)):
        rows[dst] = rows[src]
    if kind == "kl":
        rows = [(idx, val / val.sum()) if idx.size else (idx, val) for idx, val in rows]
    epsilon = 0.0 if kind in ("kl", "logistic") else None
    refine = st.integers(0, 3 * n).map("refine:{}".format)
    mode = draw(st.sampled_from(["coarsest", "finest"]) | refine)
    return DataMatrix.from_rows(rows, d), kind, epsilon, mode


@settings(PROPERTY, max_examples=200)
@given(cli_inputs())
def test_cli_build_gives_a_valid_model_or_a_named_error(inputs):
    """cli.build_model on any accepted input: a ValueError (DomainError
    included), or a model whose partition tiles and whose convergence flag
    is its measured residual against the optimizer's tolerance."""
    data, kind, epsilon, mode = inputs
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            spec, _ = cli.make_divergence_spec(kind, data, epsilon=epsilon)
            model, _, _, _ = cli.build_model(data, spec, mode)
        except ValueError:
            return
    assert validate_partition(model.partition, model.tree)
    params = model.params
    assert params.converged == (params.residual <= 1e-10)
