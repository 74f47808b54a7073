import hashlib
import json

import numpy as np
import pytest

from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.divergence import DivergenceSpec
from blockwalk.model_io import ARRAYS, load_model, reevaluate_bound, save_model
from blockwalk.partition import coarsest_partition, finest_partition
from blockwalk.propagation import TransitionModel
from blockwalk.variational import block_divergence_sums, lower_bound, optimize_q

from conftest import smoothed_counts
from oracles import reference_save_model


# what the one error for a fit or bound on a loaded model names
LOADED_FAULT = ("data rows", "node statistics", "reevaluate_bound")


@pytest.fixture
def fitted(rng):
    data = smoothed_counts(rng, 30, 6)
    spec = DivergenceSpec("gid", 6, epsilon=0.5)
    tree = build_cluster_tree(data, spec)
    part = coarsest_partition(tree)
    params = optimize_q(tree, part, spec, data)
    report = lower_bound(params, part, tree, spec, data)
    model = TransitionModel(tree, part, params, spec)
    ids = [str(i) for i in range(30)]
    return model, report, ids


class TestRoundTrip:
    def test_propagation_identical_after_reload(self, fitted, tmp_path, rng):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        loaded, _, meta = load_model(path)
        assert meta["ids"] == ids
        v = rng.normal(size=30)
        np.testing.assert_array_equal(
            model.matmat(v), loaded.matmat(v)
        )

    def test_archive_holds_what_load_reads(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            assert z.files == list(ARRAYS)
        loaded, _, meta = load_model(path)
        assert meta["version"] == 4
        assert loaded.tree.data is None and loaded.tree.stats is None

    def test_version_1_file_loads_the_same(self, fitted, tmp_path, rng):
        # versions 1 to 3 also stored an empty weight array, versions 1 and
        # 2 the sizes and ranges, version 1 the statistics too; none is read
        model, report, ids = fitted
        now = tmp_path / "now.npz"
        save_model(now, model, report, ids, extras={"seed": 3})
        m, r, meta = load_model(now)
        assert meta.pop("version") == 4
        v = rng.normal(size=(30, 3))
        for version in (1, 2, 3):
            old = tmp_path / f"v{version}.npz"
            reference_save_model(old, model, report, ids, version, extras={"seed": 3})
            m_old, r_old, meta_old = load_model(old)
            assert meta_old.pop("version") == version
            assert meta_old["spec"].pop("has_covariance") is False
            assert meta_old == meta
            assert r_old.ell == r.ell == report.ell
            assert (r_old.constant, r_old.entropy_term) == (r.constant, r.entropy_term)
            for name in ("perm", "left", "right", "size", "start"):
                np.testing.assert_array_equal(getattr(m_old.tree, name), getattr(m.tree, name))
            for got, want in [
                (m_old.partition.a, m.partition.a), (m_old.partition.b, m.partition.b),
                (m_old.params.values, m.params.values),
                (m_old.params.log_values, m.params.log_values),
                (r_old.d_ab, r.d_ab),
            ]:
                np.testing.assert_array_equal(got, want)
            assert m_old.tree.stats is None
            assert m_old.matmat(v).tobytes() == m.matmat(v).tobytes() == model.matmat(v).tobytes()

    def test_stored_ranges_are_not_read(self, fitted, tmp_path, rng):
        # a version-2 file whose sizes and ranges stay in bounds but do not
        # nest (one inner node cut by a row) loaded and served other
        # products; the loaded tree derives them from the children
        model, report, ids = fitted
        path = tmp_path / "v2.npz"
        reference_save_model(path, model, report, ids, 2)
        with np.load(path) as z:
            arrays = dict(z)
        v = int(np.argmax(arrays["tree_size"][:-1]))  # the largest node below the root
        arrays["tree_size"][v] -= 1
        arrays["tree_end"][v] -= 1
        np.savez(path, **arrays)
        loaded, _, _ = load_model(path)
        x = rng.normal(size=(30, 3))
        assert loaded.matmat(x).tobytes() == model.matmat(x).tobytes()

    def test_version_3_weighted_file_is_named(self, fitted, tmp_path):
        # a version-3 file could hold a kind with per-coordinate weights,
        # which is fitted now as sq-euclidean on rescaled rows
        model, report, ids = fitted
        path = tmp_path / "v3.npz"
        reference_save_model(path, model, report, ids, 3)
        with np.load(path) as z:
            arrays = dict(z)
        arrays["covariance_diag"] = np.ones(6)
        _header({"spec.kind": "mahalanobis", "spec.has_covariance": True})(arrays)
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == (
            f"{path}: header spec refused (unknown divergence kind 'mahalanobis')"
        )

    def test_bound_reevaluation(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        loaded, loaded_report, _ = load_model(path)
        again = reevaluate_bound(loaded, loaded_report)
        assert again == pytest.approx(report.ell, rel=1e-10)

    def test_byte_determinism(self, fitted, tmp_path):
        model, report, ids = fitted
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        save_model(p1, model, report, ids)
        save_model(p2, model, report, ids)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.npz"
        np.savez(path, meta=np.frombuffer(b'{"format": "other"}', dtype=np.uint8))
        with pytest.raises(ValueError, match="not a"):
            load_model(path)

    def test_rejects_unknown_version(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            arrays = dict(z)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        arrays["meta"] = np.frombuffer(json.dumps({**meta, "version": 5}).encode(), np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="unsupported version 5"):
            load_model(path)

    @pytest.mark.parametrize(
        "work",
        [
            pytest.param(lambda m: optimize_q(m.tree, m.partition), id="optimize_q"),
            pytest.param(
                lambda m: block_divergence_sums(m.tree, m.partition),
                id="block_divergence_sums",
            ),
        ],
    )
    def test_fit_on_loaded_model_named(self, fitted, tmp_path, work):
        # a loaded model keeps no rows and no statistics
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        loaded, _, _ = load_model(path)
        with pytest.raises(ValueError) as err:
            work(loaded)
        for part in LOADED_FAULT:
            assert part in str(err.value)

    def test_lower_bound_on_loaded_model_names_reevaluate(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        loaded, _, _ = load_model(path)
        with pytest.raises(ValueError) as err:
            lower_bound(loaded.params, loaded.partition, loaded.tree, loaded.spec)
        for part in LOADED_FAULT:
            assert part in str(err.value)


def _drop(name):
    def edit(arrays):
        del arrays[name]
    return edit


def _set(name, at, value):
    def edit(arrays):
        arrays[name][at] = value
    return edit


def _cut(name):
    def edit(arrays):
        arrays[name] = arrays[name][:-1]
    return edit


def _as(name, dtype):
    def edit(arrays):
        arrays[name] = arrays[name].astype(dtype)
    return edit


def _column(name):
    def edit(arrays):
        arrays[name] = arrays[name][:, None]
    return edit


def _twin_root_children(arrays):
    arrays["tree_right"][-1] = arrays["tree_left"][-1]


def _cut_first_inner_node(arrays):
    # the first inner node's children are leaves; it becomes a third one
    left, right = arrays["tree_left"], arrays["tree_right"]
    v = int(np.argmax(left >= 0))
    left[v] = right[v] = -1


def _header(values):
    """Save the header (meta) with `values` set, a value of None removing its
    key; a dotted key names an entry of a nested record."""
    def edit(arrays):
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        for key, value in values.items():
            *outer, last = key.split(".")
            rec = meta
            for name in outer:
                rec = rec[name]
            if value is None:
                del rec[last]
            else:
                rec[last] = value
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return edit


# (name, edit of the saved arrays, part of the error) for a model of 30 rows,
# 59 nodes and 58 blocks
MALFORMED = [
    ("no-q", _drop("q"), "missing array 'q'"),
    ("no-meta", _drop("meta"), "not a blockwalk-model file"),
    ("left-past-nodes", _set("tree_left", -1, 10**6), "tree_left: child ids"),
    ("right-below-leaf", _set("tree_right", -1, -7), "tree_right: child ids"),
    ("root-its-own-child", _set("tree_left", -1, 58), "tree_left: child ids"),
    ("block-past-nodes", _set("block_a", 0, 59), "block_a: ids out of range"),
    ("negative-block", _set("block_b", 3, -1), "block_b: ids out of range"),
    ("perm-past-rows", _set("tree_perm", 0, 30), "tree_perm: ids out of range"),
    ("child-listed-twice", _twin_root_children, "listed as a child 2 times, expected 1"),
    ("short-q", _cut("q"), "q has 57 entries, expected 58"),
    ("short-perm", _cut("tree_perm"), "tree_perm has 29 entries, expected 30"),
    ("child-listed-never", _cut_first_inner_node, "listed as a child 0 times, expected 1"),
    ("float-left", _as("tree_left", float), "tree_left has dtype float64, expected integers"),
    ("float-perm", _as("tree_perm", float), "tree_perm has dtype float64, expected integers"),
    ("float-block", _as("block_b", float), "block_b has dtype float64, expected integers"),
    ("text-q", _as("q", str), "q has dtype <U32, expected floats"),
    ("integer-d_ab", _as("d_ab", np.int64), "d_ab has dtype int64, expected floats"),
    ("q-as-column", _column("q"), "q has shape (58, 1), expected 58 entries"),
    ("ids-not-a-list", _header({"ids": 5}), "header ids must be a list of strings"),
    ("ids-of-numbers", _header({"ids": list(range(30))}), "ids must be a list of strings"),
    ("spec-kind", _header({"spec.kind": "bogus"}), "unknown divergence kind 'bogus'"),
    ("spec-dim", _header({"spec.dim": 0}), "header spec refused (dim must be"),
    ("spec-epsilon", _header({"spec.epsilon": -1}), "epsilon must be >= 0"),
    ("spec-text-dim", _header({"spec.dim": "six"}), "header spec refused ("),
    ("spec-sigma", _header({"spec.kind": "sq-euclidean", "spec.sigma": -1}), "sigma must be > 0"),
    # header values load_model takes as they are: a text residual stopped
    # propagate unnamed, a text flag served with no warning
    ("text-residual", _header({"optimizer.residual": "big", "optimizer.converged": False}),
     "header 'optimizer.residual' must be a real number, got 'big'"),
    ("text-converged", _header({"optimizer.converged": "no"}),
     "header 'optimizer.converged' must be a bool, got 'no'"),
    ("text-ell", _header({"bound.ell": "x"}), "header 'bound.ell' must be a real number, got 'x'"),
    ("text-sweeps", _header({"optimizer.sweeps": "two"}),
     "header 'optimizer.sweeps' must be an integer, got 'two'"),
    ("bool-sweeps", _header({"optimizer.sweeps": True}),
     "header 'optimizer.sweeps' must be an integer, got True"),
    ("float-sweeps", _header({"optimizer.sweeps": 2.0}),
     "header 'optimizer.sweeps' must be an integer, got 2.0"),
    ("bool-constant", _header({"bound.constant": False}),
     "header 'bound.constant' must be a real number, got False"),
    ("text-entropy", _header({"bound.entropy_term": "0.5"}),
     "header 'bound.entropy_term' must be a real number, got '0.5'"),
    ("list-residual", _header({"optimizer.residual": [0.0]}),
     "header 'optimizer.residual' must be a real number, got [0.0]"),
]


class TestMalformedArchive:
    """load_model refuses an archive whose arrays do not fit together with a
    ValueError naming the file and the fault, before any of them is used."""

    @pytest.mark.parametrize(
        "edit, fault", [pytest.param(e, f, id=name) for name, e, f in MALFORMED]
    )
    def test_named_error(self, fitted, tmp_path, edit, fault):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            arrays = dict(z)
        edit(arrays)
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ") and fault in str(err.value)

    def test_perm_that_repeats_a_row(self, fitted, tmp_path):
        # such a perm served row sums of 0 and 2; the first row listed other
        # than once is named
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            arrays = dict(z)
        perm = arrays["tree_perm"]
        twice, lost = int(perm[0]), int(perm[1])
        perm[1] = twice
        np.savez(path, **arrays)
        row, listed = (twice, 2) if twice < lost else (lost, 0)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: tree_perm: row {row} listed {listed} times, not once"

    def test_node_listed_twice_is_named(self, fitted, tmp_path):
        # such a file loaded; the first node listed as a child other than
        # once is named
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            arrays = dict(z)
        twice, lost = int(arrays["tree_left"][-1]), int(arrays["tree_right"][-1])
        _twin_root_children(arrays)
        np.savez(path, **arrays)
        node, listed = (twice, 2) if twice < lost else (lost, 0)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == (
            f"{path}: tree_left, tree_right: node {node} listed as a child {listed} times,"
            f" expected 1"
        )

    def test_text_file(self, tmp_path):
        # numpy takes a file that is neither a zip nor an .npy for a pickle
        path = tmp_path / "m.npz"
        path.write_text("id,label\n")
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: not a readable model archive")

    def test_truncated_file(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        path.write_bytes(path.read_bytes()[:1000])
        with pytest.raises(ValueError, match="not a readable"):
            load_model(path)


class TestSaveRefusesWhatLoadRefuses:
    """save_model runs load_model's array check before it opens the file,
    so it writes no file that load_model would refuse."""

    def test_ids_one_short(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        with pytest.raises(ValueError, match="tree_perm has 30 entries, expected 29"):
            save_model(path, model, report, ids[:-1])
        assert not path.exists()

    def test_ids_that_are_not_strings(self, fitted, tmp_path):
        model, report, _ = fitted
        path = tmp_path / "m.npz"
        with pytest.raises(ValueError, match="header ids must be a list of strings"):
            save_model(path, model, report, list(range(30)))
        assert not path.exists()

    def test_sums_of_another_partition(self, fitted, tmp_path):
        model, _, ids = fitted
        finest = finest_partition(model.tree)
        params = optimize_q(model.tree, finest)
        other = lower_bound(params, finest, model.tree)
        path = tmp_path / "m.npz"
        with pytest.raises(ValueError, match=f"d_ab has {finest.n_blocks} entries, expected 58"):
            save_model(path, model, other, ids)
        assert not path.exists()


HEADER_KEYS = [
    "spec", "bound", "optimizer", "ids", "partition_label",
    "spec.kind", "spec.dim", "bound.ell",
    "optimizer.converged",
]


class TestMalformedHeader:
    """A header that lacks a key load_model reads is a ValueError naming the
    file and the key, not a KeyError."""

    @pytest.mark.parametrize("key", HEADER_KEYS)
    def test_missing_key_named(self, fitted, tmp_path, key):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            arrays = dict(z)
        _header({key: None})(arrays)
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: header lacks {key!r}"

    @pytest.mark.parametrize(
        "meta, fault",
        [
            (b"{not json", "header is not JSON"),
            (b"[1, 2]", "not a blockwalk-model file"),
            (None, "header lacks 'spec.kind'"),  # spec is a number
        ],
    )
    def test_unreadable_header_named(self, fitted, tmp_path, meta, fault):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            arrays = dict(z)
        if meta is None:
            header = json.loads(bytes(arrays["meta"]).decode("utf-8"))
            meta = json.dumps({**header, "spec": 5}).encode("utf-8")
        arrays["meta"] = np.frombuffer(meta, dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value).startswith(f"{path}: ") and fault in str(err.value)
