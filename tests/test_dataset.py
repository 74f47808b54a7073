import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockwalk.dataset as dataset
from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.dataset import (
    DataMatrix,
    LabelSet,
    SyntheticSpec,
    block_topic_alphas,
    generate_synthetic,
    load_bow,
    load_labels,
    smooth,
    write_bow,
    write_labels,
)
from blockwalk.divergence import DivergenceSpec, DomainError

from conftest import random_count_matrix
from oracles import ov_divergence, reference_synthetic, reference_validate


def check_message(n_rows, n_cols, indptr, indices, values, ids):
    """The message DataMatrix raises for a CSR triple, or None."""
    try:
        DataMatrix(n_rows, n_cols, indptr, indices, values, ids)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def csr_triples(draw):
    """Small CSR triples, mostly well formed: each row holds 0..4 columns,
    sorted and distinct or, one row in five, as drawn (repeats, any order);
    values of either sign, now and then a stored 0 or two indptr entries
    swapped."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 6))
    rows = []
    for _ in range(n_rows):
        row = draw(st.lists(st.integers(0, n_cols - 1), max_size=4))
        rows.append(row if draw(st.integers(0, 4)) == 0 else sorted(set(row)))
    indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
    if n_rows > 1 and draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(1, n_rows - 1))
        indptr[i], indptr[i + 1] = indptr[i + 1], indptr[i]
    indices = [c for r in rows for c in r]
    values = draw(
        st.lists(st.sampled_from([1.0, 2.0, 3.5, -1.0]), min_size=len(indices),
                 max_size=len(indices))
    )
    if values and draw(st.integers(0, 9)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = 0.0
    return n_rows, n_cols, indptr, indices, values, [str(i) for i in range(n_rows)]


class TestDataMatrixChecks:
    def test_decreasing_indptr_rejected(self):
        # row 1 would span indices[3:2], -1 entries, and csr() used to
        # build a matrix from it without a word
        with pytest.raises(ValueError, match="malformed indptr: row 1"):
            DataMatrix(3, 4, [0, 3, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0], "abc")

    @pytest.mark.parametrize(
        "indptr, indices, want",
        [
            ([0, 2, 4], [1, 3, 3, 4], None),  # equal columns across rows
            ([0, 2, 4], [1, 3, 0, 2], None),  # columns go down across rows
            ([0, 0, 2, 2], [1, 3], None),  # empty first and last rows
            ([0, 0, 0, 0], [], None),  # every row empty
            ([0, 1, 3], [2, 3, 3], "row 1: column indices not strictly increasing"),
            ([0, 0, 3, 3], [0, 2, 1], "row 1: column indices not strictly increasing"),
            ([0, 2, 2, 4], [1, 2, 4, 0], "row 2: column indices not strictly increasing"),
            ([0, 3, 3], [0, 1, 0], "row 0: column indices not strictly increasing"),
        ],
    )
    def test_column_order(self, indptr, indices, want):
        n = len(indptr) - 1
        args = (n, 5, indptr, indices, [1.0] * len(indices), [str(i) for i in range(n)])
        assert check_message(*args) == want
        assert reference_validate(*args) == want

    def test_values_of_either_sign_but_no_zero(self):
        # zeros are implicit; a negative value is data, for sq-euclidean's R
        args = [3, 4, [0, 2, 2, 4], [0, 3, 1, 2], [1.0, -1.0, 3.0, -2.5], "abc"]
        assert check_message(*args) is None
        args[4][3] = 0.0
        want = "stored values must be nonzero (zeros are implicit)"
        assert check_message(*args) == want
        assert reference_validate(*args) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_row(self, bad):
        # a NaN passed every check on its way to an unnamed "> 0" message,
        # and an inf built a model until the block sums went non-finite
        args = (3, 4, [0, 2, 2, 4], [0, 3, 1, 2], [1.0, -2.0, 3.0, bad], "abc")
        want = f"row 2: stored value {bad} is not finite"
        assert check_message(*args) == want
        assert reference_validate(*args) == want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(csr_triples())
    def test_same_verdict_as_per_row_reference(self, triple):
        assert check_message(*triple) == reference_validate(*triple)


class TestLoadUciBow:
    def test_small_example(self, tmp_path):
        p = tmp_path / "a.bow"
        p.write_text("2\n3\n2\n1 2 5\n2 3 1\n")
        data = load_bow(p, "uci-bow")
        assert (data.n_rows, data.n_cols) == (2, 3)
        idx, val = data.row(0)
        assert list(idx) == [1] and list(val) == [5.0]
        idx, val = data.row(1)
        assert list(idx) == [2] and list(val) == [1.0]
        assert data.ids == ["1", "2"]

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "a.bow"
        p.write_text("0\n3\n0\n")
        with pytest.raises(ValueError, match="empty dataset"):
            load_bow(p, "uci-bow")

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "a.bow"
        p.write_text("1\n3\n1\n1 2\n")
        with pytest.raises(ValueError, match=":4"):
            load_bow(p, "uci-bow")

    @pytest.mark.parametrize(
        "count, want", [(c, "finite") for c in ("nan", "inf", "-inf", "Infinity")]
        + [("0", "> 0"), ("-2", "> 0")],
    )
    def test_bad_count_names_its_line(self, tmp_path, count, want):
        p = tmp_path / "a.bow"
        p.write_text(f"2\n3\n2\n1 2 5\n2 3 {count}\n")
        with pytest.raises(ValueError, match=rf"a\.bow:5: count must be {want}"):
            load_bow(p, "uci-bow")

    def test_out_of_bounds_term(self, tmp_path):
        p = tmp_path / "a.bow"
        p.write_text("1\n3\n1\n1 4 2\n")
        with pytest.raises(ValueError, match="termID 4"):
            load_bow(p, "uci-bow")

    def test_nnz_mismatch(self, tmp_path):
        p = tmp_path / "a.bow"
        p.write_text("1\n3\n2\n1 1 2\n")
        with pytest.raises(ValueError, match="NNZ"):
            load_bow(p, "uci-bow")

    def test_round_trip(self, tmp_path, rng):
        data = random_count_matrix(rng, 13, 7, density=0.4)
        p = tmp_path / "rt.bow"
        write_bow(data, p)
        back = load_bow(p, "uci-bow")
        # ids differ (synthesized 1..N both times), content must match
        assert np.array_equal(back.indptr, data.indptr)
        assert np.array_equal(back.indices, data.indices)
        assert np.array_equal(back.values, data.values)

    def test_fractional_counts_round_trip(self, tmp_path):
        data = DataMatrix.from_rows(
            [(np.array([0, 2]), np.array([0.25, 3.0]))], n_cols=3
        )
        p = tmp_path / "f.bow"
        write_bow(data, p)
        back = load_bow(p, "uci-bow")
        assert np.array_equal(back.values, data.values)


class TestLoadDenseCsv:
    def test_small_example(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,0,2\n0,0,3\n")
        data = load_bow(p, "dense-csv")
        assert (data.n_rows, data.n_cols) == (2, 3)
        idx, val = data.row(0)
        assert list(idx) == [0, 2] and list(val) == [1.0, 2.0]
        idx, val = data.row(1)
        assert list(idx) == [2] and list(val) == [3.0]

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            load_bow(p, "dense-csv")

    @pytest.mark.parametrize("value, want", [(v, "non-finite") for v in ("nan", "inf", "-inf")])
    def test_bad_value_names_its_line(self, tmp_path, value, want):
        p = tmp_path / "a.csv"
        p.write_text(f"1,0,2\n0,{value},3\n")
        with pytest.raises(ValueError, match=rf"a\.csv:2: {want} value"):
            load_bow(p, "dense-csv")

    def test_negative_value_loads_and_a_gid_fit_names_it(self, tmp_path):
        # a sign is the divergence's rule, checked on the smoothed rows:
        # the loader refused -1 for every kind, sq-euclidean's R included
        p = tmp_path / "a.csv"
        p.write_text("1,0,2\n0,-1,3\n")
        data = load_bow(p, "dense-csv")
        assert data.row(1)[1].tolist() == [-1.0, 3.0]
        spec = DivergenceSpec("gid", 3, epsilon=0.5)
        with pytest.raises(DomainError, match="row 1 column 1 is -0.5 after smoothing") as err:
            build_cluster_tree(smooth(data, 0.5), spec)
        assert err.value.index == (1, 1)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            load_bow(p, "dense-csv")


class TestLabels:
    def test_first_appearance_order(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("a,sport\nb,politics\na,sport\n")
        ls = load_labels(p)
        assert ls.assignments == {"a": 0, "b": 1}
        assert ls.n_classes == 2

    def test_conflict(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("a,x\na,y\n")
        with pytest.raises(ValueError, match="conflicting"):
            load_labels(p)

    def test_empty(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("")
        ls = load_labels(p)
        assert ls.n_classes == 0 and ls.assignments == {}

    def test_write_read(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("a,x\nb,y\nc,x\n")
        ls = load_labels(p)
        q = tmp_path / "out.csv"
        write_labels(q, ["a", "b", "c"], ls)
        assert load_labels(q).assignments == ls.assignments

    def test_id_without_a_label_named(self, tmp_path):
        # a bare KeyError before; now the message every scoring step gives
        ls = LabelSet({"a": 0, "c": 0}, ["x"])
        assert ls.classes(["c", "a"]).tolist() == [0, 0]
        with pytest.raises(ValueError, match="labels missing for id 'b'"):
            write_labels(tmp_path / "out.csv", ["a", "b", "c"], ls)


class TestSmoothing:
    def test_logical_row(self):
        data = DataMatrix.from_rows([(np.array([1]), np.array([2.0]))], n_cols=2)
        sm = smooth(data, 0.5)
        np.testing.assert_allclose(sm.row(0).to_dense(), [0.5, 2.5])

    def test_epsilon_zero_identity(self, rng):
        data = random_count_matrix(rng, 5, 4)
        sm = smooth(data, 0.0)
        np.testing.assert_array_equal(sm.to_dense(), data.to_dense())

    def test_dense_reconstruction_linearity(self, rng):
        data = random_count_matrix(rng, 6, 5)
        for eps in (0.0, 0.25, 1.5):
            np.testing.assert_allclose(
                smooth(data, eps).to_dense(), data.to_dense() + eps
            )

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.5])
    def test_offset_finite_and_nonnegative(self, eps):
        # the same rule and message as DivergenceSpec's
        data = DataMatrix.from_rows([(np.array([1]), np.array([2.0]))], n_cols=2)
        with pytest.raises(ValueError, match=f"epsilon must be >= 0 and finite, got {eps}"):
            smooth(data, eps)

    def test_zero_epsilon_gid_domain_error_downstream(self):
        data = DataMatrix.from_rows([(np.array([1]), np.array([2.0]))], n_cols=2)
        sm = smooth(data, 0.0)
        spec = DivergenceSpec("gid", 2)
        center = sm.row(0)
        with pytest.raises(DomainError):
            ov_divergence(spec, sm.row(0), center)


class TestSynthetic:
    def test_mean_length(self):
        spec = SyntheticSpec(
            alphas=np.full((1, 20), 0.05), lambdas=np.array([10.0]), n_rows=1000, seed=7
        )
        data, _ = generate_synthetic(spec)
        mean_len = data.values.sum() / data.n_rows
        assert abs(mean_len - 10.0) < 0.5

    def test_disjoint_support(self):
        alphas = np.zeros((2, 10))
        alphas[0, :5] = 0.2
        alphas[1, 5:] = 0.2
        spec = SyntheticSpec(alphas, np.array([30.0, 30.0]), n_rows=200, seed=3)
        data, labels = generate_synthetic(spec)
        for i in range(data.n_rows):
            idx, _ = data.row(i)
            cls = labels.assignments[data.ids[i]]
            if idx.size:
                assert (idx < 5).all() if cls == 0 else (idx >= 5).all()

    def test_determinism(self):
        spec = SyntheticSpec(
            block_topic_alphas(3, 30), np.array([20.0, 20.0, 20.0]), n_rows=50, seed=11
        )
        a, la = generate_synthetic(spec)
        b, lb = generate_synthetic(spec)
        assert a == b and la.assignments == lb.assignments

    def test_label_balance(self):
        k, n = 4, 2000
        spec = SyntheticSpec(block_topic_alphas(k, 40), np.full(k, 25.0), n, seed=5)
        _, labels = generate_synthetic(spec)
        counts = np.bincount(list(labels.assignments.values()), minlength=k)
        sd = np.sqrt(n * (1 / k) * (1 - 1 / k))
        assert np.all(np.abs(counts - n / k) <= 5 * sd)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SyntheticSpec(np.ones((2, 3)), np.array([1.0, 1.0]), 5, 0)

    @pytest.mark.parametrize("k, dim", [(3, 0), (3, 2), (3, -3), (0, 5)])
    def test_block_topic_alphas_needs_a_slice_per_class(self, k, dim):
        # dim 0 divided by zero, dim 2 left class 0 an empty slice and a
        # uniform row, dim -3 failed in numpy without naming an option
        with pytest.raises(
            ValueError, match=f"1 <= classes <= dim, got classes={k}, dim={dim}"
        ):
            block_topic_alphas(k, dim)

    def test_block_topic_alphas_one_column_per_class(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = block_topic_alphas(3, 3, overlap=0.3)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.argmax(a, axis=1) == [0, 1, 2])

    def test_block_topic_alphas_simplex(self):
        a = block_topic_alphas(3, 17, overlap=0.4)
        np.testing.assert_allclose(a.sum(axis=1), 1.0, atol=1e-12)
        assert a.shape == (3, 17)


class TestSyntheticMatchesReference:
    """The batched draw against the per-row reference, byte for byte."""

    @staticmethod
    def assert_same(spec):
        data, labels = generate_synthetic(spec)
        want, want_labels = reference_synthetic(spec)
        for name in ("indptr", "indices", "values"):
            got, exp = getattr(data, name), getattr(want, name)
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes(), name
        assert (data.n_rows, data.n_cols, data.ids) == (want.n_rows, want.n_cols, want.ids)
        assert labels == want_labels
        return data

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_component_counts(self, k):
        spec = SyntheticSpec(
            block_topic_alphas(k, 23), np.linspace(4.0, 30.0, k), n_rows=300, seed=k
        )
        self.assert_same(spec)

    def test_one_row(self):
        self.assert_same(SyntheticSpec(block_topic_alphas(2, 9), [5.0, 5.0], 1, seed=3))

    def test_zero_length_rows(self):
        spec = SyntheticSpec(block_topic_alphas(3, 12), [0.2, 0.5, 1.0], 400, seed=8)
        data = self.assert_same(spec)
        lens = np.diff(data.indptr)
        assert (lens == 0).sum() > 100

    def test_wide_vocabulary_across_chunks(self):
        rows_per_chunk = dataset.CHUNK_VALUES // 5000
        spec = SyntheticSpec(
            block_topic_alphas(3, 5000), np.full(3, 80.0), 2 * rows_per_chunk + 7, seed=4
        )
        self.assert_same(spec)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_independent_of_chunking(self, chunk, monkeypatch):
        monkeypatch.setattr(dataset, "CHUNK_VALUES", chunk)
        spec = SyntheticSpec(block_topic_alphas(3, 30), np.full(3, 12.0), 97, seed=chunk)
        self.assert_same(spec)

    # the corpora of the benchmark's workloads: (N, d, overlap, mean length),
    # three classes, seed [42, N]
    @pytest.mark.parametrize(
        "n, d, overlap, mean_length",
        [
            (8000, 50, 0.3, 80.0),  # tier1-n8000
            (1000, 5000, 0.3, 80.0),  # wide-d5000
            (4000, 50, 0.8, 20.0),  # refine-apply-n4000 and dense-n4000 share it
        ],
    )
    def test_benchmark_corpora(self, n, d, overlap, mean_length):
        spec = SyntheticSpec(
            block_topic_alphas(3, d, overlap), np.full(3, mean_length), n, [42, n]
        )
        self.assert_same(spec)
