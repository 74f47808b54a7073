"""Versioned model container.

One .npz archive holds what serving and the bound audit read: the tree's
children and row order (ClusterTree derives sizes and member ranges), the
block partition, the block parameters, the cached per-block divergence
sums, the bound report, the divergence spec and the row ids. It keeps no
node statistics, so a loaded model serves `propagate` and reevaluate_bound
but cannot be fit or bounded again. Layout is versioned through the
embedded JSON header; writers emit arrays in a fixed order so identical
models produce identical bytes. Files of versions 1 to 3 load by the same
names: all three also hold a per-coordinate weight array, 1 and 2 the
tree_size, tree_start and tree_end, and 1 the statistics; those arrays are
never read. q stays beside log_q although the fit makes it as
np.exp(log_q): numpy picks its float64 exp kernel by CPU dispatch, so a q
recomputed at load is not promised the fitting machine's bits.
"""
from __future__ import annotations

import json
import zipfile

import numpy as np

from .anchor_tree import ClusterTree
from .divergence import DivergenceSpec
from .partition import BlockPartition
from .propagation import TransitionModel
from .variational import BlockParams, BoundReport

__all__ = ["save_model", "load_model", "reevaluate_bound"]

FORMAT_NAME = "blockwalk-model"
FORMAT_VERSION = 4
READABLE_VERSIONS = (1, 2, 3, 4)
# the arrays of the archive, in the order they are written
ARRAYS = (
    "meta", "tree_left", "tree_right", "tree_perm",
    "block_a", "block_b", "q", "log_q", "d_ab",
)


def save_model(path, model, report, ids, extras=None):
    """Serialize a TransitionModel plus its BoundReport to `path` (.npz).
    A header or arrays that load_model would refuse (say, `ids` of another
    length than the rows) raise its ValueError before the file is opened."""
    tree = model.tree
    spec = model.spec
    meta = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n_points": tree.n_points,
        "spec": {
            "kind": spec.kind,
            "dim": spec.dim,
            "sigma": spec.sigma,
            "epsilon": spec.epsilon,
        },
        "partition_label": model.partition.label,
        "bound": {
            "ell": report.ell,
            "constant": report.constant,
            "entropy_term": report.entropy_term,
        },
        "optimizer": {
            "converged": model.params.converged,
            "residual": model.params.residual,
            "sweeps": model.params.sweeps,
        },
        "ids": list(ids),
        "extras": extras or {},
    }
    arrays = {
        "meta": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        "tree_left": tree.left,
        "tree_right": tree.right,
        "tree_perm": tree.perm,
        "block_a": model.partition.a,
        "block_b": model.partition.b,
        "q": model.params.values,
        "log_q": model.params.log_values,
        "d_ab": report.d_ab,
    }
    _check_header(path, meta)
    _check_arrays(path, arrays, len(meta["ids"]))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


REAL = (int, float)
# Header keys load_model reads, with the entries it reads of each record and
# the type of each entry it takes as it is (the spec's entries go through
# DivergenceSpec); a bool is no int and no REAL here
HEADER_KEYS = {
    "spec": dict.fromkeys(("kind", "dim", "sigma", "epsilon")),
    "partition_label": {},
    "bound": dict.fromkeys(("ell", "constant", "entropy_term"), REAL),
    "optimizer": {"converged": bool, "residual": REAL, "sweeps": int},
    "ids": {},
}
TYPE_NAMES = {bool: "a bool", int: "an integer", REAL: "a real number"}


def _check_header(path, meta):
    """Refuse a header (meta) that lacks a key load_model reads, naming it
    (an entry of a record is named `record.entry`), that holds an entry of
    another type than HEADER_KEYS gives, or whose ids are not a list of
    strings."""
    for key, entries in HEADER_KEYS.items():
        if key not in meta:
            raise ValueError(f"{path}: header lacks '{key}'")
        for entry, want in entries.items():
            if not isinstance(meta[key], dict) or entry not in meta[key]:
                raise ValueError(f"{path}: header lacks '{key}.{entry}'")
            got = meta[key][entry]
            if want and not (isinstance(got, want) and isinstance(got, bool) == (want is bool)):
                raise ValueError(
                    f"{path}: header '{key}.{entry}' must be {TYPE_NAMES[want]}, got {got!r}"
                )
    ids = meta["ids"]
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise ValueError(f"{path}: header ids must be a list of strings")


def _check_arrays(path, z, n_ids):
    """Refuse arrays that are missing or do not fit together, before any is
    used: ids as integers and parameters as floats, each array as long as
    what it counts, every id in range, children before their parents, each
    node but the root the child of one node, and each row once in perm."""

    def need(ok, fault):
        if not ok:
            raise ValueError(f"{path}: {fault}")

    groups = [  # arrays of one length each: rows, nodes, blocks
        ["tree_perm"],
        ["tree_left", "tree_right"],
        ["block_a", "block_b", "q", "log_q", "d_ab"],
    ]
    for name in ARRAYS:
        need(name in z, f"missing array {name!r}")
    for name in sum(groups, []):
        floats = name in ("q", "log_q", "d_ab")
        kind, what = (np.floating, "floats") if floats else (np.integer, "integers")
        dtype = z[name].dtype
        need(np.issubdtype(dtype, kind), f"{name} has dtype {dtype}, expected {what}")
    n = z["tree_perm"].size
    for names, want in zip(groups, (n_ids, 2 * n - 1, z["block_a"].size)):
        for name in names:
            a = z[name]
            got = f"{a.size} entries" if a.ndim == 1 else f"shape {a.shape}"
            need(a.shape == (want,), f"{name} has {got}, expected {want} entries")
    inner, node = z["tree_left"] >= 0, np.arange(2 * n - 1)
    for name in ("tree_left", "tree_right"):
        ok = np.where(inner, (z[name] >= 0) & (z[name] < node), z[name] == -1)
        need(ok.all(), f"{name}: child ids out of range")
    # the root (the last node) is the child of none, every other node of one
    kids = np.concatenate([z["tree_left"][inner], z["tree_right"][inner]])
    listed, want = np.bincount(kids, minlength=2 * n - 1), node < 2 * n - 2
    v = int(np.argmax(listed != want))
    fault = f"node {v} listed as a child {listed[v]} times, expected {int(want[v])}"
    need(listed[v] == want[v], f"tree_left, tree_right: {fault}")
    for name, hi in ("tree_perm", n), ("block_a", 2 * n - 1), ("block_b", 2 * n - 1):
        ok = z[name].min(initial=0) >= 0 and z[name].max(initial=-1) < hi
        need(ok, f"{name}: ids out of range")
    listed = np.bincount(z["tree_perm"], minlength=n)
    row = int(np.argmax(listed != 1))
    need(listed[row] == 1, f"tree_perm: row {row} listed {listed[row]} times, not once")


def load_model(path):
    """Load a serialized model; returns (TransitionModel, BoundReport, meta).
    Only the arrays named in ARRAYS are read, from a file of any readable
    version. A file that is no readable archive, whose header is not a JSON
    record, lacks a key or holds a value the model refuses, or whose arrays
    are missing or do not fit together, raises a ValueError naming it."""
    try:
        with np.load(path) as archive:
            z = {name: archive[name] for name in ARRAYS if name in archive.files}
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:  # ValueError: pickled data
        raise ValueError(f"{path}: not a readable model archive ({exc})") from None
    try:
        meta = json.loads(bytes(z.get("meta", b"{}")).decode("utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ValueError(f"{path}: header is not JSON ({exc})") from None
    if not isinstance(meta, dict) or meta.get("format") != FORMAT_NAME:
        raise ValueError(f"{path}: not a {FORMAT_NAME} file")
    if meta.get("version") not in READABLE_VERSIONS:
        raise ValueError(f"{path}: unsupported version {meta.get('version')}")
    _check_header(path, meta)
    _check_arrays(path, z, len(meta["ids"]))
    sp = meta["spec"]
    try:
        spec = DivergenceSpec(
            sp["kind"],
            sp["dim"],
            sigma=sp["sigma"],
            epsilon=sp["epsilon"],
        )
    except (TypeError, ValueError) as exc:  # TypeError: say, a text dim
        raise ValueError(f"{path}: header spec refused ({exc})") from None
    tree = ClusterTree(None, spec, z["tree_left"], z["tree_right"], z["tree_perm"], None)
    partition = BlockPartition(z["block_a"], z["block_b"], meta["partition_label"])
    params = BlockParams(
        values=z["q"],
        log_values=z["log_q"],
        converged=meta["optimizer"]["converged"],
        residual=meta["optimizer"]["residual"],
        sweeps=meta["optimizer"]["sweeps"],
    )
    report = BoundReport(
        ell=meta["bound"]["ell"],
        constant=meta["bound"]["constant"],
        d_ab=z["d_ab"],
        entropy_term=meta["bound"]["entropy_term"],
    )
    return TransitionModel(tree, partition, params, spec), report, meta


def reevaluate_bound(model, report):
    """Recompute the bound from the serialized pieces (cached block sums,
    constant, parameters); audits the stored ell."""
    ncells = (
        model.tree.size[model.partition.a] * model.tree.size[model.partition.b]
    ).astype(np.float64)
    q = model.params.values
    entropy = float(np.sum(ncells * q * model.params.log_values))
    return report.constant - float(report.d_ab @ q) - entropy
