"""Sparse count data: loading, smoothing, synthetic corpora.

Rows are stored CSR-style with strictly increasing column indices and
finite nonzero values of either sign (zeros are implicit; a divergence
checks its domain on the smoothed rows). Smoothing adds a constant offset to
every coordinate of every row; it is kept as a view (offset + sparse part) so
downstream statistics can exploit the decomposition instead of densifying.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .divergence import check_epsilon
from .vectors import OffsetVec

__all__ = [
    "DataMatrix",
    "SmoothedMatrix",
    "LabelSet",
    "SyntheticSpec",
    "load_bow",
    "write_bow",
    "load_labels",
    "write_labels",
    "smooth",
    "generate_synthetic",
    "block_topic_alphas",
]


class DataMatrix:
    """Sparse real matrix with row identifiers."""

    def __init__(self, n_rows, n_cols, indptr, indices, values, ids):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        self.ids = list(ids)
        self._csr = None
        self._validate()

    def _validate(self):
        if self.n_rows < 1:
            raise ValueError("empty dataset")
        if self.n_cols < 1:
            raise ValueError("n_cols must be positive")
        if len(self.ids) != self.n_rows:
            raise ValueError("ids length does not match n_rows")
        if len(set(self.ids)) != self.n_rows:
            raise ValueError("row ids must be unique")
        if self.indptr.shape != (self.n_rows + 1,) or self.indptr[0] != 0:
            raise ValueError("malformed indptr")
        lens = np.diff(self.indptr)
        if np.any(lens < 0):
            raise ValueError(
                f"malformed indptr: row {int(np.argmax(lens < 0))} ends before it starts"
            )
        if self.indptr[-1] != self.indices.size or self.indices.size != self.values.size:
            raise ValueError("indptr/indices/values sizes disagree")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_cols:
                raise ValueError("column index out of bounds")
            bad = ~np.isfinite(self.values)
            if bad.any():
                k = int(np.argmax(bad))
                i = int(np.searchsorted(self.indptr, k, side="right")) - 1
                raise ValueError(f"row {i}: stored value {self.values[k]} is not finite")
            if not np.all(self.values != 0):
                raise ValueError("stored values must be nonzero (zeros are implicit)")
            # one step per adjacent pair of entries; a step into a row's
            # first entry crosses a row boundary and may go down
            bad = np.diff(self.indices) <= 0
            starts = self.indptr[1:-1]
            bad[starts[(starts > 0) & (starts < self.indices.size)] - 1] = False
            if bad.any():
                i = int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1
                raise ValueError(f"row {i}: column indices not strictly increasing")

    @classmethod
    def from_rows(cls, rows, n_cols, ids=None):
        """Build from a list of (indices, values) pairs."""
        idx_parts = [np.asarray(idx, dtype=np.int64) for idx, _ in rows]
        val_parts = [np.asarray(val, dtype=np.float64) for _, val in rows]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([idx.size for idx in idx_parts], out=indptr[1:])
        indices = np.concatenate(idx_parts) if idx_parts else np.empty(0, np.int64)
        values = np.concatenate(val_parts) if val_parts else np.empty(0, np.float64)
        if ids is None:
            ids = [str(i) for i in range(len(rows))]
        return cls(len(rows), n_cols, indptr, indices, values, ids)

    @property
    def nnz(self):
        return int(self.indices.size)

    def row(self, i):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def csr(self):
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.values, self.indices, self.indptr),
                shape=(self.n_rows, self.n_cols),
            )
        return self._csr

    def to_dense(self):
        return np.asarray(self.csr().todense())

    def __eq__(self, other):
        return (
            isinstance(other, DataMatrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.ids == other.ids
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


@dataclass
class SmoothedMatrix:
    """View of a DataMatrix with a constant offset added to every coordinate."""

    base: DataMatrix
    epsilon: float

    def __post_init__(self):
        check_epsilon(self.epsilon)

    @property
    def n_rows(self):
        return self.base.n_rows

    @property
    def dim(self):
        return self.base.n_cols

    def csr(self):
        return self.base.csr()

    def row(self, i):
        idx, val = self.base.row(i)
        return OffsetVec(self.dim, self.epsilon, idx, val)

    def row_sums(self):
        """Sum of the sparse part per row (offset excluded)."""
        return np.asarray(self.csr().sum(axis=1)).ravel()

    def nnz_per_row(self):
        return np.diff(self.base.indptr)

    def to_dense(self):
        return self.base.to_dense() + self.epsilon


def smooth(data, epsilon):
    """Attach an additive offset to every coordinate; structure unchanged."""
    return SmoothedMatrix(data, float(epsilon))


@dataclass
class LabelSet:
    """Row-id to class-index map with the class name table."""

    assignments: dict
    names: list

    @property
    def n_classes(self):
        return len(self.names)

    def classes(self, ids):
        """Class index of each id (int64); a ValueError names the first unlabeled id."""
        try:
            return np.fromiter(map(self.assignments.__getitem__, ids), np.int64, len(ids))
        except KeyError as exc:
            raise ValueError(f"labels missing for id {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def load_bow(path, fmt="uci-bow"):
    if fmt == "uci-bow":
        return _load_uci_bow(path)
    if fmt == "dense-csv":
        return _load_dense_csv(path)
    raise ValueError(f"unknown format {fmt!r}")


def _load_uci_bow(path):
    """UCI bag-of-words: three header lines (N, d, NNZ) then
    'docID termID count' lines with 1-indexed ids."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 3:
        raise ValueError(f"{path}: expected 3 header lines")
    try:
        n, d, nnz = (int(lines[k].strip()) for k in range(3))
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from None
    if n == 0:
        raise ValueError(f"{path}: empty dataset")
    if n < 1 or d < 1 or nnz < 0:
        raise ValueError(f"{path}: invalid header values N={n} d={d} NNZ={nnz}")
    if len(lines) - 3 != nnz:
        raise ValueError(
            f"{path}: declared NNZ={nnz} but found {len(lines) - 3} entry lines"
        )
    entries = [[] for _ in range(n)]
    seen = set()
    for ln, raw in enumerate(lines[3:], start=4):
        parts = raw.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln}: malformed line {raw!r}")
        try:
            doc = int(parts[0])
            term = int(parts[1])
            count = float(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{ln}: malformed line {raw!r}") from None
        if not 1 <= doc <= n:
            raise ValueError(f"{path}:{ln}: docID {doc} outside 1..{n}")
        if not 1 <= term <= d:
            raise ValueError(f"{path}:{ln}: termID {term} outside 1..{d}")
        if not math.isfinite(count):
            raise ValueError(f"{path}:{ln}: count must be finite, got {count}")
        if count <= 0:
            raise ValueError(f"{path}:{ln}: count must be > 0, got {count}")
        if (doc, term) in seen:
            raise ValueError(f"{path}:{ln}: duplicate (doc, term) pair")
        seen.add((doc, term))
        entries[doc - 1].append((term - 1, count))
    rows = []
    for ent in entries:
        ent.sort()
        idx = np.array([e[0] for e in ent], dtype=np.int64)
        val = np.array([e[1] for e in ent], dtype=np.float64)
        rows.append((idx, val))
    ids = [str(i + 1) for i in range(n)]
    return DataMatrix.from_rows(rows, d, ids)


def _load_dense_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset")
    rows = []
    d = None
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split(",")
        if d is None:
            d = len(parts)
        elif len(parts) != d:
            raise ValueError(f"{path}:{ln}: expected {d} fields, got {len(parts)}")
        try:
            vec = np.array([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}:{ln}: malformed line {raw!r}") from None
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{path}:{ln}: non-finite value")
        nz = np.nonzero(vec)[0]
        rows.append((nz.astype(np.int64), vec[nz]))
    ids = [str(i) for i in range(len(rows))]
    return DataMatrix.from_rows(rows, d, ids)


def _format_count(v):
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_bow(data, path):
    """Write in the uci-bow layout (1-indexed ids); exact round-trip."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{data.n_rows}\n{data.n_cols}\n{data.nnz}\n")
        for i in range(data.n_rows):
            idx, val = data.row(i)
            for j, v in zip(idx, val):
                fh.write(f"{i + 1} {j + 1} {_format_count(v)}\n")


def load_labels(path):
    """'id,label' per line; class indices follow first appearance order."""
    assignments = {}
    names = []
    index_of = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if "," not in line:
                raise ValueError(f"{path}:{ln}: expected 'id,label'")
            rid, name = line.split(",", 1)
            rid = rid.strip()
            name = name.strip()
            if name not in index_of:
                index_of[name] = len(names)
                names.append(name)
            cls = index_of[name]
            if rid in assignments and assignments[rid] != cls:
                raise ValueError(f"{path}:{ln}: conflicting label for id {rid!r}")
            assignments[rid] = cls
    return LabelSet(assignments, names)


def write_labels(path, ids, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for rid, cls in zip(ids, labels.classes(ids)):
            fh.write(f"{rid},{labels.names[cls]}\n")


# ---------------------------------------------------------------------------
# Synthetic corpora: uniform component choice, Poisson length, multinomial
# counts. PCG64 (numpy default_rng) keyed by the seed; reproducible across
# platforms.
# ---------------------------------------------------------------------------

# Dense count values per batched multinomial draw. The int64 count block and
# the rows of pvals gathered for it (512 KB each) stay within a 2 MB L2
# cache: at d=5000, blocks of 2^20 values drew about 8% slower than one call
# per row, blocks of 2^16 as fast; at d=50 the two sizes draw alike.
CHUNK_VALUES = 1 << 16


@dataclass
class SyntheticSpec:
    """Mixture of Poisson-length multinomial topics."""

    alphas: np.ndarray  # (K, d) rows on the simplex
    lambdas: np.ndarray  # (K,) mean lengths
    n_rows: int
    seed: int

    def __post_init__(self):
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        if self.alphas.ndim != 2:
            raise ValueError("alphas must be a (K, d) matrix")
        if self.lambdas.shape != (self.alphas.shape[0],):
            raise ValueError("lambdas must have one entry per component")
        if not np.all(self.lambdas > 0):
            raise ValueError("lambdas must be > 0")
        if np.any(np.abs(self.alphas.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("each alpha row must sum to 1")
        if self.n_rows < 1:
            raise ValueError("n_rows must be positive")

    @property
    def k(self):
        return self.alphas.shape[0]

    @property
    def dim(self):
        return self.alphas.shape[1]


def generate_synthetic(spec):
    """Draw (DataMatrix, LabelSet); deterministic given the seed.

    The counts are drawn a chunk of rows at a time by one batched
    multinomial call, which takes the rows in order from the same stream as
    one call per row would, so the corpus does not depend on the chunking."""
    rng = np.random.default_rng(spec.seed)
    comps = rng.integers(0, spec.k, size=spec.n_rows)
    lengths = rng.poisson(spec.lambdas[comps])
    step = max(1, CHUNK_VALUES // spec.dim)
    indptr = np.zeros(spec.n_rows + 1, dtype=np.int64)
    idx_parts, val_parts = [], []
    for lo in range(0, spec.n_rows, step):
        hi = min(lo + step, spec.n_rows)
        counts = rng.multinomial(lengths[lo:hi], spec.alphas[comps[lo:hi]])
        rows, cols = np.nonzero(counts)  # row-major: columns ascend per row
        indptr[lo + 1 : hi + 1] = np.bincount(rows, minlength=hi - lo)
        idx_parts.append(cols)
        val_parts.append(counts[rows, cols].astype(np.float64))
    np.cumsum(indptr, out=indptr)
    ids = [str(i + 1) for i in range(spec.n_rows)]
    data = DataMatrix(
        spec.n_rows, spec.dim, indptr, np.concatenate(idx_parts),
        np.concatenate(val_parts), ids,
    )
    names = [str(k) for k in range(spec.k)]
    labels = LabelSet(dict(zip(ids, comps.tolist())), names)
    return data, labels


def block_topic_alphas(k, dim, overlap=0.3):
    """Well-separated topic rows: each class concentrates 1-overlap of its
    mass on its own contiguous vocabulary slice, the rest spread uniformly."""
    if not 0 <= overlap <= 1:
        raise ValueError("overlap must be in [0, 1]")
    if not 1 <= k <= dim:  # each class needs a vocabulary slice of its own
        raise ValueError(f"block topics need 1 <= classes <= dim, got classes={k}, dim={dim}")
    alphas = np.full((k, dim), overlap / dim)
    bounds = np.linspace(0, dim, k + 1).astype(int)
    for c in range(k):
        lo, hi = bounds[c], bounds[c + 1]
        alphas[c, lo:hi] += (1.0 - overlap) / (hi - lo)
    return alphas / alphas.sum(axis=1, keepdims=True)
