"""Vectorized BSTCE evaluation engine.

Computes exactly the Algorithm 5 classification values of
:mod:`repro.core.bstce` (their agreement is property-tested) without ever
materializing BST cells, by exploiting the structure of exclusion lists:

* The shared list for a pair ``(c, h)`` is ``items(h) - items(c)`` (negated)
  or the fallback ``items(c) - items(h)`` (positive), so for a query ``Q``
  its satisfied-literal count follows from three inner products:
  ``|h ∩ Q|``, ``|c ∩ Q|``, and ``|c ∩ h ∩ Q|``.
* The cell ``(g, c)`` combines the pair values ``V[c, h]`` over the outside
  samples ``h`` expressing ``g`` (a black dot is the empty case, valued 1).

There is one kernel.  Per-class state lives in the compiled plan's flat
structure-of-arrays arena (:mod:`repro.core.plan`: fused pair weights,
downcast dtypes, duplicate-outside-row culling), and
:meth:`FastBSTCEvaluator.classification_values_batch` evaluates blocks of
``_BATCH_BLOCK`` queries with one stacked matmul per class — or, for sparse
serving batches, one small matmul per query over only its expressed genes —
plus a segment reduction over the non-blank cells.  A single query is a
batch of one.

Every intermediate count is small-integer float32 arithmetic (exact below
2**24) and each query's cells accumulate in a fixed order, so a query's
values do not depend on its batchmates, its position in the batch, or
which matmul form the batch selected: the single rounding operation — the
final ``sat / len`` division — always sees identical operands.

Evaluators are cached process-wide by :func:`get_evaluator`, keyed on the
``(dataset fingerprint, arithmetization)`` pair, so repeated CV phases and
CLI invocations stop recompiling identical plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import AbstractSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.dataset import RelationalDataset
from ..evaluation.timing import engine_counters
from .arithmetization import get_combiner
from .plan import EvaluationPlan, PlanClass, compile_plan, recompile_delta

Query = Union[AbstractSet[int], np.ndarray]

#: Queries evaluated together inside one batched block.
_BATCH_BLOCK = 64
#: Element cap for the (block, n_c, n_o, genes) reduction working array.
_CELL_BUDGET = 1 << 23
#: Item-count floor for the sparse-column matmul restriction: below this the
#: pair-value matmuls are dispatch-bound and slicing only adds overhead.
_SPARSE_MIN_ITEMS = 256
#: Batch-density ceiling (as ``1 / _PER_QUERY_SPARSITY``) below which the
#: plan kernel computes each query's pair counts over only *its own*
#: expressed columns instead of one stacked full-width matmul.  Exact
#: either way (the skipped terms are exact ``+0.0``); purely a cost model.
_PER_QUERY_SPARSITY = 8


class FastBSTCEvaluator:
    """Evaluates BSTCE classification values for every class of a dataset.

    Args:
        dataset: the (training) relational dataset.
        arithmetization: per-cell list combiner — ``min`` (Algorithm 5),
            ``product``, or ``mean`` (see :mod:`repro.core.arithmetization`).
    """

    def __init__(self, dataset: RelationalDataset, arithmetization: str = "min"):
        get_combiner(arithmetization)  # shared validation + error message
        self.dataset = dataset
        self.arithmetization = arithmetization
        with engine_counters.track("plan_build"):
            self._plan = compile_plan(dataset, arithmetization)
        #: Deferred artifact verification (set by ``load_artifact`` under
        #: ``verify="lazy"``); runs before the first query's kernel work.
        self._integrity_guard = None
        engine_counters.increment("evaluator_builds")

    @classmethod
    def _from_plan(
        cls,
        dataset,
        arithmetization: str,
        plan: EvaluationPlan,
    ) -> "FastBSTCEvaluator":
        """Restore an evaluator around a prebuilt compiled plan.

        The zero-rebuild path behind :func:`repro.core.artifact.load_artifact`:
        nothing is recomputed, the arena views (typically memory-mapped) are
        adopted as-is.  ``dataset`` may be a full
        :class:`~repro.datasets.dataset.RelationalDataset` or the
        :class:`~repro.core.artifact.DatasetSummary` shim — the kernels only
        touch ``n_items``/``n_classes``/``fingerprint``.
        """
        get_combiner(arithmetization)
        self = cls.__new__(cls)
        self.dataset = dataset
        self.arithmetization = arithmetization
        self._plan = plan
        self._integrity_guard = None
        engine_counters.increment("evaluator_restores")
        return self

    @property
    def plan(self) -> EvaluationPlan:
        """The compiled evaluation plan the kernel evaluates from."""
        return self._plan

    def append_rows(self, dataset: RelationalDataset) -> "FastBSTCEvaluator":
        """An evaluator for ``dataset`` — this evaluator's training data
        plus rows appended at the end — via a delta plan recompile.

        The incremental-training entry point: old pair weights are copied
        from this evaluator's arena and only the blocks involving appended
        rows run fresh matmuls (:func:`repro.core.plan.recompile_delta`),
        so a small append costs O(n × Δ × genes) instead of the cold
        O(n² × genes) rebuild while producing a byte-identical plan.
        """
        if self._integrity_guard is not None:
            self._integrity_guard()
        plan = recompile_delta(
            self._plan,
            dataset,
            int(self.dataset.n_samples),
            self.arithmetization,
        )
        return FastBSTCEvaluator._from_plan(
            dataset, self.arithmetization, plan
        )

    # ------------------------------------------------------------------
    def _as_vector(self, query: Query) -> np.ndarray:
        if isinstance(query, np.ndarray):
            if query.shape != (self.dataset.n_items,):
                raise ValueError(
                    f"query vector has shape {query.shape}, expected"
                    f" ({self.dataset.n_items},)"
                )
            return query.astype(bool)
        vec = np.zeros(self.dataset.n_items, dtype=bool)
        items = [i for i in query if 0 <= i < self.dataset.n_items]
        if items:
            vec[items] = True
        return vec

    def _as_matrix(self, queries: Union[Sequence[Query], np.ndarray]) -> np.ndarray:
        """Stack a query batch into a dense ``(n_queries, n_items)`` bool
        matrix (accepts an already-stacked 2-D array or any sequence of
        item sets / indicator vectors)."""
        if isinstance(queries, np.ndarray) and queries.ndim == 2:
            if queries.shape[1] != self.dataset.n_items:
                raise ValueError(
                    f"query matrix has {queries.shape[1]} columns, expected"
                    f" {self.dataset.n_items}"
                )
            return queries.astype(bool)
        rows = [self._as_vector(q) for q in queries]
        if not rows:
            return np.zeros((0, self.dataset.n_items), dtype=bool)
        return np.stack(rows)

    @staticmethod
    def _sparse_columns(qmat: np.ndarray) -> Optional[np.ndarray]:
        """Expressed item columns of a query batch, when restricting the
        stacked pair-value matmul to them saves real work.

        Every inner product behind the pair values only accumulates over
        items the batch expresses (the other terms are exact ``+0.0``), so
        the dominant ``(n_c x |G|) @ (|G| x n_o)`` matmul shrinks to the
        expressed columns.  Returns ``None`` when the batch is dense enough
        (or the vocabulary small enough) that the full-width matmul is
        cheaper than slicing.
        """
        n_items = qmat.shape[1]
        if n_items < _SPARSE_MIN_ITEMS:
            return None
        cols = np.flatnonzero(qmat.any(axis=0))
        if cols.size > n_items // 2:
            return None
        return cols

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def _pair_values_block_plan(
        self, pc: PlanClass, qmat: np.ndarray
    ) -> np.ndarray:
        """V[c, b, h] for a block of queries, in the plan kernel's native
        class-major layout (no transpose copy before the flat gather).

        For sparse batches each query's inner products are restricted to
        *its own* expressed columns — B small matmuls of width ``|Q_b|``
        instead of one stacked matmul over the batch union — which is
        exact (the skipped terms are exact ``+0.0``) and, on serving-shaped
        queries, cuts the dominant matmul cost by the sparsity factor.
        """
        n_b = qmat.shape[0]
        n_c, n_o = pc.inside.shape[0], pc.outside.shape[0]
        n_items = qmat.shape[1]
        per_query = (
            n_items >= _SPARSE_MIN_ITEMS
            and int(qmat.sum()) * _PER_QUERY_SPARSITY <= n_b * n_items
        )
        if per_query:
            hq = np.empty((n_b, n_o), dtype=np.float32)
            cq = np.empty((n_b, n_c), dtype=np.float32)
            chq = np.empty((n_c, n_b, n_o), dtype=np.float32)
            for b in range(n_b):
                cols = np.flatnonzero(qmat[b])
                ins = pc.inside_f[:, cols]
                outs = pc.outside_f[:, cols]
                hq[b] = outs.sum(axis=1)
                cq[b] = ins.sum(axis=1)
                chq[:, b, :] = ins @ outs.T
        else:
            cols = self._sparse_columns(qmat)
            if cols is not None:
                Qf = qmat[:, cols].astype(np.float32)
                inside_f = pc.inside_f[:, cols]
                outside_f = pc.outside_f[:, cols]
            else:
                Qf = qmat.astype(np.float32)
                inside_f = pc.inside_f
                outside_f = pc.outside_f
            hq = Qf @ outside_f.T                           # (B, n_o)
            cq = Qf @ inside_f.T                            # (B, n_c)
            n_width = Qf.shape[1]
            masked = inside_f[:, None, :] * Qf[None, :, :]  # (n_c, B, w)
            chq = (masked.reshape(n_c * n_b, n_width) @ outside_f.T).reshape(
                n_c, n_b, n_o
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            sat = np.where(
                pc.pair_neg[:, None, :],
                pc.pair_len[:, None, :] - (hq[None, :, :] - chq),
                cq.T[:, :, None] - chq,
            )
            values = np.where(
                pc.pair_len[:, None, :] > 0,
                sat / pc.pair_len[:, None, :],
                0.0,
            )
        return values.astype(np.float32, copy=False)

    def _reduce_segments(
        self, gathered: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Combine contiguous pair-value segments (one per non-blank,
        non-black-dot cell) of a flat stream — the arithmetization applied
        without any dense masking."""
        if self.arithmetization == "min":
            return np.minimum.reduceat(gathered, starts)
        if self.arithmetization == "product":
            return np.multiply.reduceat(gathered, starts)
        sums = np.add.reduceat(gathered, starts)
        return sums / lengths

    def _class_values_block_plan(
        self, pc: PlanClass, qmat: np.ndarray
    ) -> np.ndarray:
        """BSTCE values of one class for a block of stacked queries.

        Column counts and black-dot contributions are two batched matmuls.
        The remaining cells reduce over *only* the non-blank (query, gene,
        inside-row) combinations, enumerated from the inside CSR: each such
        cell is one contiguous segment — the (duplicate-culled, under
        ``min``) outside rows expressing its gene — of a flat gathered
        pair-value stream, combined with a single ``reduceat`` per chunk.
        Cell values accumulate through one final ``bincount`` over the whole
        block, so a query's column sums see its cells in the same order
        whatever its batchmates are and wherever the stream-budget chunking
        lands.  The gathers run on the arena's downcast index dtypes
        (widened to int64 only for the flat-address arithmetic, which can
        exceed int32).
        """
        n_b = qmat.shape[0]
        values = np.zeros(n_b, dtype=np.float64)
        relevant = qmat & pc.gene_mask[None, :]  # (B, n_items)
        if not relevant.any():
            return values
        rel_f = relevant.astype(np.float32)
        col_count = (rel_f @ pc.inside_f.T).astype(np.float64)  # (B, n_c)
        col_sum = (
            (relevant & pc.blackdot_mask).astype(np.float32)
            @ pc.inside_f.T
        ).astype(np.float64)
        n_c, n_o = pc.inside.shape[0], pc.outside.shape[0]
        b_idx, g_idx = np.nonzero(relevant & (pc.outside_counts > 0))
        if b_idx.size:
            pair_values = self._pair_values_block_plan(pc, qmat)  # (n_c, B, n_o)
            flat1 = pair_values.ravel()
            ins_c = pc.inside_rows
            ins_offsets = pc.inside_row_offsets
            rows_per_seg = (
                ins_offsets[g_idx + 1] - ins_offsets[g_idx]
            ).astype(np.int64)
            keep = rows_per_seg > 0
            if not keep.all():
                b_idx = b_idx[keep]
                g_idx = g_idx[keep]
                rows_per_seg = rows_per_seg[keep]
        if b_idx.size:
            seg_lengths = pc.outside_counts[g_idx].astype(np.int64)
            seg_stream = rows_per_seg * seg_lengths
            cum_stream = np.cumsum(seg_stream)
            n_segs = g_idx.size
            code_chunks: List[np.ndarray] = []
            val_chunks: List[np.ndarray] = []
            stream_budget = max(1, _CELL_BUDGET >> 2)
            start_seg = 0
            while start_seg < n_segs:
                base = int(cum_stream[start_seg]) - int(seg_stream[start_seg])
                end_seg = int(
                    np.searchsorted(cum_stream, base + stream_budget, "left")
                ) + 1
                end_seg = min(max(end_seg, start_seg + 1), n_segs)
                g_ch = g_idx[start_seg:end_seg]
                b_ch = b_idx[start_seg:end_seg]
                rc_ch = rows_per_seg[start_seg:end_seg]
                len_ch = seg_lengths[start_seg:end_seg]
                cum_rc = np.cumsum(rc_ch)
                n_cells = int(cum_rc[-1])
                cell_seg = np.repeat(np.arange(end_seg - start_seg), rc_ch)
                cell_row = ins_c[
                    np.arange(n_cells, dtype=np.int64)
                    - np.repeat(cum_rc - rc_ch, rc_ch)
                    + np.repeat(
                        ins_offsets[g_ch].astype(np.int64), rc_ch
                    )
                ].astype(np.int64)
                cell_len = len_ch[cell_seg]
                cum_e = np.cumsum(cell_len)
                e_starts = cum_e - cell_len
                total_e = int(cum_e[-1])
                h_base = pc.h_offsets[g_ch].astype(np.int64)[cell_seg]
                pos = np.arange(total_e, dtype=np.int64) + np.repeat(
                    h_base - e_starts, cell_len
                )
                # Class-major flat layout: cell (c, b, h) lives at
                # c·(B·n_o) + b·n_o + h.
                cell_base = cell_row * (n_b * n_o) + b_ch[cell_seg] * n_o
                flat_idx = np.repeat(cell_base, cell_len) + pc.h_flat[pos]
                cell_vals = self._reduce_segments(
                    flat1[flat_idx], e_starts, cell_len.astype(np.float32)
                ).astype(np.float64)
                code_chunks.append(b_ch[cell_seg] * n_c + cell_row)
                val_chunks.append(cell_vals)
                start_seg = end_seg
            codes = (
                code_chunks[0]
                if len(code_chunks) == 1
                else np.concatenate(code_chunks)
            )
            vals = (
                val_chunks[0]
                if len(val_chunks) == 1
                else np.concatenate(val_chunks)
            )
            col_sum += np.bincount(
                codes, weights=vals, minlength=n_b * n_c
            ).reshape(n_b, n_c)
        nonblank = col_count > 0
        safe_count = np.where(nonblank, col_count, 1.0)
        column_means = np.where(nonblank, col_sum / safe_count, 0.0)
        n_cols = nonblank.sum(axis=1)
        has_cols = n_cols > 0
        values[has_cols] = column_means.sum(axis=1)[has_cols] / n_cols[has_cols]
        return values

    def classification_values(self, query: Query) -> np.ndarray:
        """CV(i) for every class, as Algorithm 6 line 4 computes them — the
        batch kernel on a batch of one."""
        return self.classification_values_batch([query])[0]

    def classification_values_batch(
        self, queries: Union[Sequence[Query], np.ndarray]
    ) -> np.ndarray:
        """CV(i) for every class of every query — shape ``(n_queries,
        n_classes)``.

        Each query's row is bit-identical to :meth:`classification_values`
        on that query alone (property-tested): the batch only shares the
        matmuls and the gene reduction across each block of
        ``_BATCH_BLOCK`` queries.
        """
        if self._integrity_guard is not None:
            self._integrity_guard()
        qmat = self._as_matrix(queries)
        n_q = qmat.shape[0]
        out = np.zeros((n_q, self.dataset.n_classes), dtype=np.float64)
        if n_q == 0:
            return out
        with engine_counters.track("batch"):
            engine_counters.increment("batch_calls")
            engine_counters.increment("batch_queries", n_q)
            engine_counters.observe_max("max_batch_size", n_q)
            for start in range(0, n_q, _BATCH_BLOCK):
                block = qmat[start : start + _BATCH_BLOCK]
                for class_id, pc in enumerate(self._plan.classes):
                    if pc is not None:
                        out[start : start + _BATCH_BLOCK, class_id] = (
                            self._class_values_block_plan(pc, block)
                        )
        return out


# ----------------------------------------------------------------------
# Process-wide evaluator cache
# ----------------------------------------------------------------------

_EVALUATOR_CACHE: "OrderedDict[Tuple[str, str], FastBSTCEvaluator]" = OrderedDict()
_EVALUATOR_CACHE_SIZE = 8
#: Guards every cache mutation — batched serving may hit the evaluator cache
#: from multiple threads, and an unguarded OrderedDict reorder corrupts it.
_EVALUATOR_LOCK = threading.Lock()


def _evict_over_capacity_locked() -> None:
    while len(_EVALUATOR_CACHE) > _EVALUATOR_CACHE_SIZE:
        _EVALUATOR_CACHE.popitem(last=False)
        engine_counters.increment("evaluator_cache_evictions")


def set_evaluator_cache_size(size: int) -> None:
    """Rebound the evaluator cache, evicting LRU entries if it shrank.

    Each cached evaluator holds dense per-class matrices, so the entry
    limit is the cache's memory ceiling; memory-constrained deployments
    lower it, CV sweeps over many datasets may raise it.
    """
    if size < 1:
        raise ValueError("cache size must be >= 1")
    global _EVALUATOR_CACHE_SIZE
    with _EVALUATOR_LOCK:
        _EVALUATOR_CACHE_SIZE = size
        _evict_over_capacity_locked()


def get_evaluator(
    dataset: RelationalDataset, arithmetization: str = "min"
) -> FastBSTCEvaluator:
    """The LRU-cached :class:`FastBSTCEvaluator` for a dataset.

    Keyed on ``(dataset.fingerprint, arithmetization)`` — a content hash,
    not object identity — so repeated cross-validation phases, ablations
    over arithmetizations, and CLI invocations on identical training data
    reuse one compiled plan.  Lookups and mutations are
    lock-guarded (thread-safe); the expensive plan compile runs outside the
    lock, so concurrent first requests may build twice but the cache never
    blocks on a build.  Hit/miss/evict counts feed the shared
    :data:`repro.evaluation.timing.engine_counters`.
    """
    get_combiner(arithmetization)  # validate before hashing the dataset
    key = (dataset.fingerprint, arithmetization)
    with _EVALUATOR_LOCK:
        cached = _EVALUATOR_CACHE.get(key)
        if cached is not None:
            _EVALUATOR_CACHE.move_to_end(key)
            engine_counters.increment("evaluator_cache_hits")
            return cached
    engine_counters.increment("evaluator_cache_misses")
    evaluator = FastBSTCEvaluator(dataset, arithmetization)
    with _EVALUATOR_LOCK:
        existing = _EVALUATOR_CACHE.get(key)
        if existing is not None:
            # A concurrent build won the race; keep the cached one.
            _EVALUATOR_CACHE.move_to_end(key)
            return existing
        _EVALUATOR_CACHE[key] = evaluator
        _evict_over_capacity_locked()
    return evaluator


def register_evaluator(evaluator: FastBSTCEvaluator) -> FastBSTCEvaluator:
    """Seed the cache with an already-built evaluator (e.g. one restored
    from a model artifact), keyed like :func:`get_evaluator`.

    Returns the canonical instance: if an evaluator for the same
    ``(fingerprint, arithmetization)`` is already cached, that one wins and
    is returned, so artifact loads and in-memory fits converge on one
    evaluator per model.
    """
    key = (evaluator.dataset.fingerprint, evaluator.arithmetization)
    with _EVALUATOR_LOCK:
        existing = _EVALUATOR_CACHE.get(key)
        if existing is not None:
            _EVALUATOR_CACHE.move_to_end(key)
            return existing
        _EVALUATOR_CACHE[key] = evaluator
        _evict_over_capacity_locked()
    return evaluator


def clear_evaluator_cache() -> None:
    """Drop every cached evaluator (tests and memory-sensitive callers)."""
    with _EVALUATOR_LOCK:
        _EVALUATOR_CACHE.clear()


def discard_evaluator(fingerprint: str, arithmetization: str = "min") -> bool:
    """Evict one cached evaluator, e.g. after its artifact failed integrity
    verification — a poisoned entry must not serve later ``get_evaluator``
    calls.  Returns whether an entry was dropped."""
    with _EVALUATOR_LOCK:
        if _EVALUATOR_CACHE.pop((fingerprint, arithmetization), None) is not None:
            engine_counters.increment("evaluator_cache_discards")
            return True
    return False


def evaluator_cache_info() -> Tuple[int, int]:
    """``(entries, capacity)`` of the evaluator cache."""
    with _EVALUATOR_LOCK:
        return len(_EVALUATOR_CACHE), _EVALUATOR_CACHE_SIZE
