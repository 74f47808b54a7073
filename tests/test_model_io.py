import hashlib
import json

import numpy as np
import pytest

from blockwalk.anchor_tree import build_cluster_tree
from blockwalk.divergence import DivergenceSpec
from blockwalk.model_io import load_model, reevaluate_bound, save_model
from blockwalk.partition import coarsest_partition
from blockwalk.propagation import TransitionModel
from blockwalk.variational import lower_bound, optimize_q

from conftest import smoothed_counts


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

    def test_stats_survive(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        loaded, _, _ = load_model(path)
        for nid in range(model.tree.n_nodes):
            a, b = model.tree.stats[nid], loaded.tree.stats[nid]
            assert a.s1 == b.s1 and a.s2 == b.s2
            np.testing.assert_array_equal(a.s3.to_dense(), b.s3.to_dense())
            np.testing.assert_array_equal(a.s4.to_dense(), b.s4.to_dense())

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

    def test_rejects_split_supports(self, fitted, tmp_path):
        # s3 and s4 share one support; an archive where they differ is refused
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        with np.load(path) as z:
            arrays = dict(z)
        arrays["stat_s4_idx"] = arrays["stat_s4_idx"][::-1].copy()
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="different supports"):
            load_model(path)

    def test_lower_bound_on_loaded_model_names_reevaluate(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        loaded, _, _ = load_model(path)
        with pytest.raises(ValueError, match="reevaluate_bound"):
            lower_bound(loaded.params, loaded.partition, loaded.tree, loaded.spec)


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


# (name, edit of the saved arrays, part of the error) for a model of 30 rows,
# 59 nodes, 58 blocks and 6 columns
MALFORMED = [
    ("no-q", _drop("q"), "missing array 'q'"),
    ("no-meta", _drop("meta"), "not a blockwalk-model file"),
    ("left-past-nodes", _set("tree_left", -1, 10**6), "tree_left: child ids"),
    ("right-below-leaf", _set("tree_right", -1, -7), "tree_right: child ids"),
    ("root-its-own-child", _set("tree_left", -1, 58), "tree_left: child ids"),
    ("block-past-nodes", _set("block_a", 0, 59), "block_a: ids out of range"),
    ("negative-block", _set("block_b", 3, -1), "block_b: ids out of range"),
    ("perm-past-rows", _set("tree_perm", 0, 30), "tree_perm: ids out of range"),
    ("negative-start", _set("tree_start", 0, -2), "member ranges outside"),
    ("column-past-dim", _set("stat_s3_idx", 0, 6), "stat_s3_idx: ids out of range"),
    ("short-s1", _cut("stat_s1"), "stat_s1 has 58 entries, expected 59"),
    ("short-q", _cut("q"), "q has 57 entries, expected 58"),
    ("short-perm", _cut("tree_perm"), "tree_perm has 29 entries, expected 30"),
    ("short-values", _cut("stat_s3_val"), "stat_s3_val has"),
    ("size-off-range", _set("tree_size", 0, 2), "member ranges outside"),
    ("unordered-offsets", _set("stat_s3_ptr", 1, -1), "stat_s3_ptr: offsets"),
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

    def test_truncated_file(self, fitted, tmp_path):
        model, report, ids = fitted
        path = tmp_path / "m.npz"
        save_model(path, model, report, ids)
        path.write_bytes(path.read_bytes()[:1000])
        with pytest.raises(ValueError, match="not a readable"):
            load_model(path)


def _without(arrays, key):
    """Save the header (meta) with `key` removed; a dotted key names an
    entry of a nested record."""
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    *outer, last = key.split(".")
    rec = meta
    for name in outer:
        rec = rec[name]
    del rec[last]
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


HEADER_KEYS = [
    "spec", "bound", "optimizer", "ids", "partition_label",
    "spec.kind", "spec.dim", "spec.has_covariance", "bound.ell",
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
        _without(arrays, key)
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
