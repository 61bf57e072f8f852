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
downcast dtypes, packed gene words), and
:meth:`FastBSTCEvaluator.classification_values_batch` evaluates blocks of
``_BATCH_BLOCK`` queries with one stacked matmul per class — or, for sparse
serving batches, one small matmul per query over only its expressed genes.
The cells then combine by the arithmetization: ``min`` (Algorithm 5) by
a **threshold sweep** over packed gene words that never builds a cell
(:func:`_sweep_rows`), ``product`` and ``mean`` by a segment reduction
over a gathered stream of the non-blank cells
(:meth:`FastBSTCEvaluator._stream_sums`).  A single query is a batch of
one; the one strict parser, :mod:`repro.core.query`, reads it.

Every intermediate count is small-integer float32 arithmetic (exact below
2**24) and each query's cells accumulate in a fixed order, so a query's
values do not depend on its batchmates, its position in the batch, or
which matmul form the batch selected: the single rounding operation — the
final ``sat / len`` division — always sees identical operands.  The sweep
visits outside rows by a strict key (value, then row), so its order is
fixed too, and its float64 sums are exact at every size the paper's
datasets reach (see :func:`_sweep_rows`).

Evaluators are cached process-wide by :func:`get_evaluator`, keyed on the
``(dataset fingerprint, arithmetization)`` pair, so repeated CV phases and
CLI invocations stop recompiling identical plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datasets.dataset import RelationalDataset
from ..evaluation.timing import engine_counters
from . import bitset
from .arithmetization import get_combiner
from .plan import EvaluationPlan, PlanClass, compile_plan, recompile_delta
from .query import Query, as_query_matrix

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
#: Keys ordered by the ``min`` sweep's first round; each later round doubles
#: the ordered prefix, so a row that stops early never pays a full sort.
_SWEEP_FIRST_ROUND = 16


def _sweep_rows(
    values: np.ndarray,
    need: np.ndarray,
    remaining: np.ndarray,
    outside_words: np.ndarray,
) -> np.ndarray:
    """The ``min`` threshold sweep over a chunk of (inside row, query) rows.

    ``values`` holds each row's float32 pair values over the outside rows,
    ``need`` its packed genes S and ``remaining`` their count; ``need`` and
    ``remaining`` are consumed.  The outside rows are visited in the order
    of the strict key ``(float32 bits of v) << 32 | h`` — non-negative
    float32 bit patterns are monotone, so the key orders by value, then by
    row — and each adds ``v · |S ∩ h|`` over the genes of S it covers
    first, then clears them from S.  The keys are ordered in doubling
    rounds: each partitions the keys not yet visited at the round's width
    and sorts only that prefix.  A row whose S is empty adds exact zeros
    until the round ends and drops it; the sweep stops once every S is
    empty.  Because the key is strict, every round extends the one total
    order, so a row's steps do not depend on where a round boundary or a
    chunk boundary falls.

    Each step adds ``v · count`` in float64.  Every nonzero pair value is
    a float32 no smaller than ``1 / L`` (``L`` the largest pair-list
    length), hence a multiple of ``2**-(23 + ceil(log2 L))``, and a row's
    sum is at most its gene count ``G``; so while ``G · L < 2**29`` every
    product and partial sum is exact in float64, and the sweep's sum
    equals the per-cell minima summed in any order, bit for bit.  Past
    that bound the sum may round, but in a fixed order per row.
    """
    n_rows, n_o = values.shape
    keys = values.view(np.uint32).astype(np.int64)
    keys <<= 32
    keys |= np.arange(n_o, dtype=np.int64)
    sums = np.zeros(n_rows, dtype=np.float64)
    live = np.arange(n_rows)  # output position of each live state row
    total = np.zeros(n_rows, dtype=np.float64)
    done, end = 0, _SWEEP_FIRST_ROUND
    while live.size and done < n_o:
        end = min(end, n_o)
        tail = keys[:, done:]
        if end < n_o:
            tail.partition(end - done - 1, axis=1)
        head = tail[:, : end - done]
        head.sort(axis=1)
        rows_h = head & 0xFFFFFFFF
        step_v = (head >> 32).astype(np.uint32).view(np.float32)
        for k in range(end - done):
            covered = need & outside_words[rows_h[:, k]]
            count = bitset.popcount_rows(covered)
            need ^= covered
            total += step_v[:, k] * count  # float64: exact (see above)
            remaining -= count
            if not remaining.any():
                break
        finished = remaining == 0
        sums[live[finished]] = total[finished]
        keep = ~finished
        live, keys, need, remaining, total = (
            a[keep] for a in (live, keys, need, remaining, total)
        )
        done, end = end, 2 * end
    return sums


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

    def _min_sweep_sums(
        self, pc: PlanClass, pair_values: np.ndarray, swept: np.ndarray
    ) -> np.ndarray:
        """Σ over every (query b, inside row c) of the ``min`` cell values
        of its swept genes — ``S = inside[c] ∧ swept[b]``, the relevant
        genes some outside row expresses — as a ``(B, n_c)`` float64 block.

        Cell ``(c, g)`` is the minimum of V[c, b, h] over the outside rows
        ``h`` expressing ``g``: the value of the first such row in ascending
        value order.  So the row's sum is Σₖ vₖ · (genes of S first covered
        by outside row k), which :func:`_sweep_rows` accumulates without
        building a cell, in chunks of rows under ``_CELL_BUDGET``.
        """
        n_c, n_b, n_o = pair_values.shape
        n_rows = n_c * n_b
        query_words = bitset.pack_rows(swept)  # (B, n_words)
        need = (
            pc.inside_words[:, None, :] & query_words[None, :, :]
        ).reshape(n_rows, -1)
        remaining = bitset.popcount_rows(need)
        sums = np.zeros(n_rows, dtype=np.float64)
        rows = np.flatnonzero(remaining)
        values = pair_values.reshape(n_rows, n_o)
        chunk = max(1, _CELL_BUDGET // (n_o + need.shape[1]))
        for start in range(0, rows.size, chunk):
            idx = rows[start : start + chunk]
            sums[idx] = _sweep_rows(
                values[idx], need[idx], remaining[idx], pc.outside_words
            )
        return sums.reshape(n_c, n_b).T

    def _stream_sums(
        self, pc: PlanClass, pair_values: np.ndarray, swept: np.ndarray
    ) -> np.ndarray:
        """Σ over every (query b, inside row c) of the ``product``/``mean``
        cell values of its swept genes, as a ``(B, n_c)`` float64 block.

        The cells are enumerated from the inside CSR: each (query, gene,
        inside row) cell is one contiguous segment — the outside rows
        expressing its gene — of a flat gathered pair-value stream,
        combined with a single ``reduceat`` per chunk.  Cell values
        accumulate through one final ``bincount`` over the whole block, so
        a query's sums see its cells in the same order whatever its
        batchmates are and wherever the stream-budget chunking lands.  The
        gathers run on the arena's downcast index dtypes (widened to int64
        only for the flat-address arithmetic, which can exceed int32).
        """
        n_c, n_b, n_o = pair_values.shape
        flat1 = pair_values.ravel()
        ins_c = pc.inside_rows
        ins_offsets = pc.inside_row_offsets
        b_idx, g_idx = np.nonzero(swept)
        # Every swept gene is relevant, so some inside row expresses it.
        rows_per_seg = (
            ins_offsets[g_idx + 1] - ins_offsets[g_idx]
        ).astype(np.int64)
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
                + np.repeat(ins_offsets[g_ch].astype(np.int64), rc_ch)
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
            gathered = flat1[flat_idx]
            if self.arithmetization == "product":
                cell_vals = np.multiply.reduceat(gathered, e_starts)
            else:
                sums = np.add.reduceat(gathered, e_starts)
                cell_vals = sums / cell_len.astype(np.float32)
            code_chunks.append(b_ch[cell_seg] * n_c + cell_row)
            val_chunks.append(cell_vals.astype(np.float64))
            start_seg = end_seg
        return np.bincount(
            np.concatenate(code_chunks),
            weights=np.concatenate(val_chunks),
            minlength=n_b * n_c,
        ).reshape(n_b, n_c)

    def _class_values_block_plan(
        self, pc: PlanClass, qmat: np.ndarray
    ) -> np.ndarray:
        """BSTCE values of one class for a block of stacked queries.

        Column counts and black-dot contributions are two batched matmuls.
        The remaining cells — relevant genes some outside row expresses —
        combine their pair values by the arithmetization: ``min`` by the
        threshold sweep (:meth:`_min_sweep_sums`), ``product`` and ``mean``
        by segment reductions over a gathered stream
        (:meth:`_stream_sums`).
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
        swept = relevant & ~pc.blackdot_mask
        if swept.any():
            pair_values = self._pair_values_block_plan(pc, qmat)  # (n_c, B, n_o)
            if self.arithmetization == "min":
                col_sum += self._min_sweep_sums(pc, pair_values, swept)
            else:
                col_sum += self._stream_sums(pc, pair_values, swept)
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
        qmat = as_query_matrix(queries, self.dataset.n_items)
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
