"""Ahead-of-time compiled evaluation plans: one structure-of-arrays arena.

:func:`compile_plan` builds, at fit time and straight from each class's
inside/outside row blocks, the single flat **structure-of-arrays arena**
the BSTCE kernel (:mod:`repro.core.fast`) evaluates from:

* **Fused pair weights** — the exclusion list of a pair ``(c, h)`` is the
  negated ``items(h) - items(c)`` when that is non-empty, else the positive
  ``items(c) - items(h)``.  ``pair_neg`` records which form was selected
  and ``pair_len`` its length (``0`` marks the empty list): 5 bytes per
  pair.  Both come from one ``|c ∩ h|`` matmul per class; every count is
  small-integer float32 arithmetic (exact below 2**24), so the kernel's
  single rounding operation, the final ``sat / len`` division, always
  sees exact operands.
* **Downcast dtypes** — index arrays (CSR offsets, row ids, counts) store
  as int32 and pair lengths as float32 *when the ranges permit*, with
  explicit overflow guards: a value past :data:`INT32_MAX` /
  :data:`FLOAT32_EXACT_MAX` falls back to the wide dtype and increments
  ``plan_wide_index_fallbacks`` / ``plan_wide_float_fallbacks`` — never a
  silent wrap.
* **Compile-time culling** — under the ``min`` arithmetization the
  gene-major outside-row stream (``h_flat``/``h_offsets``) drops
  exact-duplicate outside rows
  (:func:`repro.bst.culling.duplicate_row_keep_mask`; ``plan_culled_refs``
  counts the dropped references): duplicates carry identical pair values
  in every cell, and ``min`` is idempotent.  The ``min`` kernel
  evaluates by the threshold sweep over packed gene words and does not
  read the stream; the ``product``/``mean`` segment reductions do, and
  their plans keep the full stream.  The general Section 8 implication
  cull is *not* applied — it changes quantized values.

Every per-class array is a **view** into one flat arena member per field,
so a model artifact stores one contiguous payload per field
(``arena_<field>``) plus a tiny int64 geometry table, and a memory-mapped
load rebuilds all views without copying a byte
(:func:`plan_from_arena`).  The one derived, non-arena state is each
class's inside and outside rows packed into ``uint64`` gene words
(:attr:`PlanClass.inside_words`/:attr:`PlanClass.outside_words`, one bit
per gene, 1/8 of the bool blocks) for the kernel's ``min`` threshold
sweep: each class packs them once, on the first ``min`` query, from its
arena views, so a cold compile and an artifact load derive them the same
way and the artifact format does not carry them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bst.culling import (
    duplicate_row_keep_mask,
    duplicate_row_keep_mask_blocks,
)
from ..evaluation.timing import engine_counters
from .bitset import pack_rows

__all__ = [
    "ARENA_FIELDS",
    "EvaluationPlan",
    "FLOAT32_EXACT_MAX",
    "INT32_MAX",
    "PlanClass",
    "compile_plan",
    "plan_from_arena",
    "recompile_delta",
]

#: Largest index an int32 arena can address; anything larger falls back to
#: int64 (counted under ``plan_wide_index_fallbacks``).
INT32_MAX = 2**31 - 1

#: Largest integer float32 represents exactly (2**24; 2**24 + 1 is the
#: first gap).  Pair-list lengths past it fall back to float64 (counted
#: under ``plan_wide_float_fallbacks``) instead of silently rounding.
FLOAT32_EXACT_MAX = 2**24

#: Every arena member, in storage order.  Dtypes: ``inside``/``outside``/
#: ``pair_neg``/``gene_mask``/``blackdot_mask`` are bool; ``inside_f``/
#: ``outside_f`` float32; ``pair_len`` the plan's weight dtype; the rest
#: the plan's index dtype.
ARENA_FIELDS: Tuple[str, ...] = (
    "inside",
    "outside",
    "inside_f",
    "outside_f",
    "pair_len",
    "pair_neg",
    "gene_mask",
    "outside_counts",
    "blackdot_mask",
    "h_flat",
    "h_offsets",
    "inside_rows",
    "inside_row_offsets",
)

#: ``geometry`` columns: per class ``(n_c, n_o, h_flat_len,
#: inside_rows_len)``; a row of zeros marks an absent class (no training
#: samples).  Every other member shape derives from these plus ``n_items``.
GEOMETRY_COLUMNS = 4


@dataclass
class PlanClass:
    """One class's slice of the arena — every array a view, never a copy."""

    class_id: int
    inside: np.ndarray       # bool (n_c, n_items): rows of C_i
    outside: np.ndarray      # bool (n_o, n_items): rows of S - C_i
    inside_f: np.ndarray     # float32 matmul operand
    outside_f: np.ndarray    # float32 matmul operand
    pair_len: np.ndarray     # (n_c, n_o): selected list length, 0 = empty
    pair_neg: np.ndarray     # bool (n_c, n_o): negated form selected
    gene_mask: np.ndarray    # bool (n_items,): genes some inside row expresses
    outside_counts: np.ndarray  # (n_items,): culled outside rows per gene
    blackdot_mask: np.ndarray   # bool (n_items,)
    h_flat: np.ndarray       # (h_len,): culled outside-row ids, gene-major
    h_offsets: np.ndarray    # (n_items,): start of each gene in h_flat
    inside_rows: np.ndarray  # (ir_len,): inside rows per gene, gene-major
    inside_row_offsets: np.ndarray  # (n_items + 1,): CSR offsets

    # Derived on first use by the ``min`` sweep, never stored in the arena:
    # packing at plan build would charge every compile, delta recompile and
    # load (and every ``product``/``mean`` plan) for words only ``min``
    # queries read.
    @cached_property
    def inside_words(self) -> np.ndarray:
        """``inside`` packed into uint64 gene words, ``(n_c, n_words)``."""
        return pack_rows(self.inside)

    @cached_property
    def outside_words(self) -> np.ndarray:
        """``outside`` packed into uint64 gene words, ``(n_o, n_words)``."""
        return pack_rows(self.outside)


@dataclass
class EvaluationPlan:
    """The compiled arena plus the per-class views over it."""

    n_items: int
    n_classes: int
    index_dtype: np.dtype
    weight_dtype: np.dtype
    culled_refs: int
    arena: Dict[str, np.ndarray]
    geometry: np.ndarray  # int64 (n_classes, GEOMETRY_COLUMNS)
    classes: List[Optional[PlanClass]] = field(default_factory=list)

    def hot_nbytes(self) -> int:
        """Bytes the batched kernel can touch per query block — the whole
        arena (every member is kernel-hot; there is no cold field)."""
        return sum(int(a.nbytes) for a in self.arena.values())


def _empty(dtype: np.dtype) -> np.ndarray:
    return np.zeros(0, dtype=dtype)


def _concat(pieces: List[np.ndarray], dtype: np.dtype) -> np.ndarray:
    if not pieces:
        return _empty(dtype)
    return np.concatenate([np.ascontiguousarray(p.ravel()) for p in pieces])


#: One class's compile output: ``(raw arena pieces, geometry row, max
#: index, max weight, culled refs)`` — what :func:`_raw_for_class` and
#: :func:`_raw_for_class_delta` return; ``None`` marks an absent class.
ClassPieces = Tuple[
    Dict[str, np.ndarray], Tuple[int, int, int, int], int, float, int
]


def _pair_weights(
    inside_f: np.ndarray, outside_f: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pair_len, pair_neg)`` for every (inside row, outside row) pair of
    two float32 row blocks: the negated list ``h - c`` when it is
    non-empty, else the positive list ``c - h`` (see the module
    docstring).  Shared by the cold compile and every delta block, so both
    produce byte-identical weights."""
    inter = inside_f @ outside_f.T  # |c ∩ h|
    len_neg = outside_f.sum(axis=1)[None, :] - inter
    len_pos = inside_f.sum(axis=1)[:, None] - inter
    pair_neg = len_neg > 0
    return np.where(pair_neg, len_neg, len_pos), pair_neg


def _cold_class(
    class_id: int,
    inside: np.ndarray,
    outside: np.ndarray,
    n_items: int,
    arithmetization: str,
) -> ClassPieces:
    """One class's raw arena pieces computed from scratch."""
    pair_len, pair_neg = _pair_weights(
        inside.astype(np.float32), outside.astype(np.float32)
    )
    return _raw_for_class(
        class_id, inside, outside, pair_len, pair_neg, n_items,
        arithmetization,
    )


def _raw_for_class(
    class_id: int,
    inside: np.ndarray,
    outside: np.ndarray,
    pair_len: np.ndarray,
    pair_neg: np.ndarray,
    n_items: int,
    arithmetization: str,
) -> ClassPieces:
    """One class's raw arena pieces from its row blocks and pair weights.

    Returns ``(raw, geometry_row, max_index, max_weight, culled_refs)``.
    Shared by the cold compile and the delta recompile, so both produce
    byte-identical per-class members from identical inputs.
    """
    n_c, n_o = inside.shape[0], outside.shape[0]
    # Value-preserving duplicate cull (min only; see module docstring).
    if arithmetization == "min" and n_o:
        keep = duplicate_row_keep_mask(outside)
    else:
        keep = np.ones(n_o, dtype=bool)
    culled_outside = outside & keep[:, None]
    counts = culled_outside.sum(axis=0).astype(np.int64)
    gene_ids, h_ids = np.nonzero(culled_outside.T)
    del gene_ids  # np.nonzero order guarantees gene-major h_ids
    uncull_counts = outside.sum(axis=0).astype(np.int64)
    culled_refs = int(uncull_counts.sum()) - int(h_ids.size)
    h_offsets = np.zeros(n_items, dtype=np.int64)
    if n_items > 1:
        np.cumsum(counts[:-1], out=h_offsets[1:])
    gene_mask = inside.any(axis=0)
    ins_gene_ids, inside_rows = np.nonzero(inside.T)
    del ins_gene_ids
    inside_rows = inside_rows.astype(np.int64)
    inside_row_offsets = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=0), out=inside_row_offsets[1:])
    geometry_row = (n_c, n_o, int(h_ids.size), int(inside_rows.size))
    max_index = max(
        n_c,
        n_o,
        int(h_ids.size),
        int(inside_rows.size),
        int(counts.max()) if counts.size else 0,
    )
    max_weight = float(pair_len.max()) if pair_len.size else 0.0
    raw = {
        "inside": inside,
        "outside": outside,
        "inside_f": inside.astype(np.float32),
        "outside_f": outside.astype(np.float32),
        "pair_len": pair_len,
        "pair_neg": pair_neg.astype(bool, copy=False),
        "gene_mask": gene_mask,
        "outside_counts": counts,
        "blackdot_mask": gene_mask & (uncull_counts == 0),
        "h_flat": h_ids.astype(np.int64),
        "h_offsets": h_offsets,
        "inside_rows": inside_rows,
        "inside_row_offsets": inside_row_offsets,
    }
    return raw, geometry_row, max_index, max_weight, culled_refs


def _gene_major_merge(
    old_flat: np.ndarray,
    old_counts: np.ndarray,
    new_flat: np.ndarray,
    new_counts: np.ndarray,
    n_items: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge two gene-major CSR id lists into one, per gene: old ids first
    (they are smaller — appended rows take the highest indices), then new.

    Returns ``(flat, counts, offsets)`` with int64 entries; byte-identical
    to rebuilding the list from the stacked boolean blocks, at O(total
    entries) copy cost instead of an O(rows × genes) ``np.nonzero``.
    """
    counts = old_counts + new_counts
    offsets = np.zeros(n_items, dtype=np.int64)
    if n_items > 1:
        np.cumsum(counts[:-1], out=offsets[1:])
    flat = np.empty(old_flat.size + new_flat.size, dtype=np.int64)
    # Scatter the (few) new ids to the end of their genes' segments; the
    # (many) old ids then fill the remaining slots in order with one
    # boolean-mask copy instead of an index scatter.
    is_new = np.zeros(flat.size, dtype=bool)
    if new_flat.size:
        new_offsets = np.zeros(n_items, dtype=np.int64)
        if n_items > 1:
            np.cumsum(new_counts[:-1], out=new_offsets[1:])
        dest = np.arange(new_flat.size, dtype=np.int64)
        dest += np.repeat(offsets + old_counts - new_offsets, new_counts)
        flat[dest] = new_flat
        is_new[dest] = True
    flat[~is_new] = old_flat
    return flat, counts, offsets


def _raw_for_class_delta(
    base: PlanClass,
    new_inside: np.ndarray,
    new_outside: np.ndarray,
    pair_len: np.ndarray,
    pair_neg: np.ndarray,
    n_items: int,
    arithmetization: str,
) -> ClassPieces:
    """The delta counterpart of :func:`_raw_for_class`: rebuild one class's
    raw arena pieces from the base class views plus the appended row blocks.

    Appended rows take the highest indices, so the base per-gene CSR lists
    (culled outside ids, inside rows) are prefixes of the grown ones and
    merge in O(entries); only the appended blocks are scanned with
    ``np.nonzero``/``astype``, and the row-block fields are returned as
    ``(base view, new block)`` piece pairs so the stacked arrays are never
    materialized — :func:`_build_arena` copies each piece once, straight
    into the arena.  Byte-identical to :func:`_raw_for_class` over the
    stacked blocks (equivalence-gated in tests and bench_micro).

    The returned ``culled_refs`` is the *delta* contribution (references
    culled from the appended rows only); the caller adds the base plan's
    total, which the prefix-stable keep mask leaves unchanged.
    """
    n_c_old = int(base.inside.shape[0])
    n_o_old = int(base.outside.shape[0])
    n_c = n_c_old + int(new_inside.shape[0])
    n_o = n_o_old + int(new_outside.shape[0])
    # The duplicate cull keeps first occurrences, so the grown keep mask
    # restricted to the old rows equals the base cull — which is what
    # makes reusing the base CSR lists below sound.  Only the new rows'
    # mask is needed; the old rows merely charge the seen-set.
    if arithmetization == "min" and n_o:
        keep_new = duplicate_row_keep_mask_blocks(
            (base.outside, new_outside)
        )[n_o_old:]
    else:
        keep_new = np.ones(new_outside.shape[0], dtype=bool)
    culled_new = new_outside & keep_new[:, None]
    counts_new = culled_new.sum(axis=0).astype(np.int64)
    gene_ids, h_new = np.nonzero(culled_new.T)
    del gene_ids
    h_flat, counts, h_offsets = _gene_major_merge(
        base.h_flat,
        base.outside_counts.astype(np.int64),
        h_new.astype(np.int64) + n_o_old,
        counts_new,
        n_items,
    )
    culled_refs = int(new_outside.sum()) - int(counts_new.sum())
    gene_mask = base.gene_mask | new_inside.any(axis=0)
    ins_gene_ids, ins_new = np.nonzero(new_inside.T)
    del ins_gene_ids
    old_ins_counts = np.diff(base.inside_row_offsets).astype(np.int64)
    new_ins_counts = new_inside.sum(axis=0).astype(np.int64)
    inside_rows, ins_counts, _ = _gene_major_merge(
        base.inside_rows,
        old_ins_counts,
        ins_new.astype(np.int64) + n_c_old,
        new_ins_counts,
        n_items,
    )
    inside_row_offsets = np.zeros(n_items + 1, dtype=np.int64)
    np.cumsum(ins_counts, out=inside_row_offsets[1:])
    geometry_row = (n_c, n_o, int(h_flat.size), int(inside_rows.size))
    max_index = max(
        n_c,
        n_o,
        int(h_flat.size),
        int(inside_rows.size),
        int(counts.max()) if counts.size else 0,
    )
    max_weight = float(pair_len.max()) if pair_len.size else 0.0
    # A gene's culled count is zero iff its uncull count is zero: every
    # culled row duplicates a kept row expressing the same genes, so the
    # cull never empties a gene's list — the blackdot test can read the
    # merged culled counts directly.
    raw = {
        "inside": (base.inside, new_inside),
        "outside": (base.outside, new_outside),
        "inside_f": (base.inside_f, new_inside.astype(np.float32)),
        "outside_f": (base.outside_f, new_outside.astype(np.float32)),
        "pair_len": pair_len,
        "pair_neg": pair_neg.astype(bool, copy=False),
        "gene_mask": gene_mask,
        "outside_counts": counts,
        "blackdot_mask": gene_mask & (counts == 0),
        "h_flat": h_flat,
        "h_offsets": h_offsets,
        "inside_rows": inside_rows,
        "inside_row_offsets": inside_row_offsets,
    }
    return raw, geometry_row, max_index, max_weight, culled_refs


def _build_arena(
    classes: Sequence[Optional[ClassPieces]],
    n_items: int,
    culled_refs: int = 0,
) -> EvaluationPlan:
    """Geometry table, dtype guards and per-field concatenation: the shared
    arena-assembly tail of the cold compile and the delta recompile.
    ``culled_refs`` is added to the per-class counts (the delta recompile
    passes the base plan's total)."""
    geometry = np.zeros((len(classes), GEOMETRY_COLUMNS), dtype=np.int64)
    raw: List[Dict[str, np.ndarray]] = []
    max_index = 0
    max_weight = 0.0
    for class_id, pieces in enumerate(classes):
        if pieces is None:
            continue
        cls_raw, geometry_row, cls_index, cls_weight, cls_culled = pieces
        geometry[class_id] = geometry_row
        max_index = max(max_index, cls_index)
        max_weight = max(max_weight, cls_weight)
        culled_refs += cls_culled
        raw.append(cls_raw)
    # Overflow guards: downcast only when the observed ranges permit.
    if max_index <= INT32_MAX:
        index_dtype = np.dtype(np.int32)
    else:
        index_dtype = np.dtype(np.int64)
        engine_counters.increment("plan_wide_index_fallbacks")
    if max_weight <= FLOAT32_EXACT_MAX:
        weight_dtype = np.dtype(np.float32)
    else:
        weight_dtype = np.dtype(np.float64)
        engine_counters.increment("plan_wide_float_fallbacks")
    index_fields = (
        "outside_counts", "h_flat", "h_offsets",
        "inside_rows", "inside_row_offsets",
    )
    arena: Dict[str, np.ndarray] = {}
    for name in ARENA_FIELDS:
        # The delta path hands row-block fields over as (base, new) piece
        # tuples so the stacked array is never built twice: flattened
        # here, each block is copied exactly once — into the arena.
        pieces_of_field = []
        for r in raw:
            value = r[name]
            if isinstance(value, tuple):
                pieces_of_field.extend(value)
            else:
                pieces_of_field.append(value)
        if name in index_fields:
            dtype = index_dtype
            pieces_of_field = [
                p.astype(dtype, copy=False) for p in pieces_of_field
            ]
        elif name == "pair_len":
            dtype = weight_dtype
            pieces_of_field = [
                p.astype(dtype, copy=False) for p in pieces_of_field
            ]
        elif name in ("inside_f", "outside_f"):
            dtype = np.dtype(np.float32)
        else:
            dtype = np.dtype(bool)
        arena[name] = _concat(pieces_of_field, dtype)
    engine_counters.increment("plan_compiles")
    if culled_refs:
        engine_counters.increment("plan_culled_refs", culled_refs)
    return plan_from_arena(
        arena, geometry, n_items, culled_refs=culled_refs
    )


def compile_plan(dataset, arithmetization: str = "min") -> EvaluationPlan:
    """Compile a training dataset into one evaluation arena.

    Each class's pair weights come from one ``|c ∩ h|`` matmul of its
    inside against its outside row block; a class with no training sample
    is absent (its classification value is 0 for every query).
    Deterministic: the same dataset always compiles to byte-identical
    arenas.
    """
    matrix = dataset.bool_matrix
    labels = dataset.label_array
    n_items = int(matrix.shape[1])
    classes: List[Optional[ClassPieces]] = []
    for class_id in range(dataset.n_classes):
        member_mask = labels == class_id
        if not member_mask.any():
            classes.append(None)
            continue
        classes.append(
            _cold_class(
                class_id, matrix[member_mask], matrix[~member_mask],
                n_items, arithmetization,
            )
        )
    return _build_arena(classes, n_items)


def recompile_delta(
    base_plan: EvaluationPlan,
    dataset,
    base_n_samples: int,
    arithmetization: str = "min",
) -> EvaluationPlan:
    """Recompile a plan for ``dataset`` — the base plan's training data
    plus rows appended at the end — reusing the base arena's pair weights.

    The pair values for an old ``(c, h)`` pair depend only on the two
    rows' contents, never on dataset size, so the base plan's
    ``pair_len``/``pair_neg`` blocks are copied verbatim; only the
    ``old_c × new_h`` and ``new_c × all_h`` blocks run fresh matmuls.
    The dominant cost drops from O(n² × genes) to O(n × Δ × genes) for a
    Δ-row append, and the result is **byte-identical** to
    :func:`compile_plan` over the grown dataset (equivalence-gated in
    tests and ``bench_micro``): appended rows take the highest indices, so
    class member order, outside order, gene-major CSR order, and the
    duplicate-cull keep mask of old rows are all stable.

    ``dataset`` must extend the base plan's training data append-only —
    the first ``base_n_samples`` rows and the class vocabulary unchanged
    (what :meth:`RelationalDataset.append_samples` produces).  Both
    geometry and row *contents* are validated against the base arena's
    stored blocks (``ValueError`` on any mismatch), so a reordered or
    edited dataset cannot silently inherit the base weights.  A class
    absent from the base plan that gains its first samples is built cold
    — its matmul is already delta-sized.
    """
    matrix = dataset.bool_matrix
    labels = dataset.label_array
    n_items = int(matrix.shape[1])
    n_samples = int(matrix.shape[0])
    old_n = int(base_n_samples)
    if n_items != base_plan.n_items:
        raise ValueError(
            f"dataset has {n_items} items, base plan {base_plan.n_items}"
        )
    if dataset.n_classes != base_plan.n_classes:
        raise ValueError(
            f"dataset has {dataset.n_classes} classes, base plan"
            f" {base_plan.n_classes}"
        )
    if not 0 <= old_n <= n_samples:
        raise ValueError(
            f"base_n_samples {old_n} outside [0, {n_samples}]"
        )
    old_labels = labels[:old_n]
    new_rows = matrix[old_n:]
    new_labels = labels[old_n:]
    # Delta classes report only the references culled from their appended
    # rows (the prefix-stable cull leaves the base contribution intact);
    # cold classes — absent from the base plan, so charged 0 there — still
    # report their full count.
    classes: List[Optional[ClassPieces]] = []
    for class_id in range(base_plan.n_classes):
        pc = base_plan.classes[class_id]
        member_mask = new_labels == class_id
        new_inside = new_rows[member_mask]
        new_outside = new_rows[~member_mask]
        if pc is None:
            if (old_labels == class_id).any():
                raise ValueError(
                    f"class {class_id}: absent from the base plan but"
                    f" present in the first {old_n} dataset rows — dataset"
                    " is not an append-only extension of the plan's"
                    " training data"
                )
            # First samples of a previously-absent class: cold build, but
            # the matmul is (Δ_c × genes) @ (genes × n_o) — delta-sized.
            classes.append(
                None
                if new_inside.shape[0] == 0
                else _cold_class(
                    class_id, new_inside, matrix[labels != class_id],
                    n_items, arithmetization,
                )
            )
            continue
        n_c_old = int(pc.inside.shape[0])
        n_o_old = int(pc.outside.shape[0])
        if (
            n_c_old != int((old_labels == class_id).sum())
            or n_o_old != old_n - n_c_old
        ):
            raise ValueError(
                f"class {class_id}: base plan geometry does not match"
                f" the first {old_n} rows of the dataset"
            )
        # Content check: every class's stored member rows must equal the
        # dataset's prefix members verbatim (which, across all classes,
        # pins every old row and label — the outside blocks follow).  One
        # O(old rows × genes) memcmp-speed pass; without it a reordered or
        # edited dataset would silently inherit the base arena's weights.
        if not np.array_equal(
            pc.inside, matrix[:old_n][old_labels == class_id]
        ):
            raise ValueError(
                f"class {class_id}: the first {old_n} dataset rows do"
                " not reproduce the base plan's training rows — dataset"
                " is not an append-only extension of the plan's"
                " training data"
            )
        n_c = n_c_old + int(new_inside.shape[0])
        n_o = n_o_old + int(new_outside.shape[0])
        pair_len = np.empty((n_c, n_o), dtype=np.float32)
        pair_neg = np.empty((n_c, n_o), dtype=bool)
        # Old block: verbatim reuse.  A float64 (wide) base arena holds
        # exactly the float32-computed source values upcast, so the round
        # trip back to float32 is lossless.
        pair_len[:n_c_old, :n_o_old] = pc.pair_len
        pair_neg[:n_c_old, :n_o_old] = pc.pair_neg
        new_outs_f = new_outside.astype(np.float32)
        if n_o > n_o_old:
            # old_c × new_h: the base class rows against appended outside
            # rows.
            pair_len[:n_c_old, n_o_old:], pair_neg[:n_c_old, n_o_old:] = (
                _pair_weights(pc.inside_f, new_outs_f)
            )
        if n_c > n_c_old:
            # new_c × all_h, one GEMM per outside block so the stacked
            # outside never materializes.  Splitting the product along its
            # columns is bit-identical to the fused form: every accumulated
            # value is a small integer (< 2**24), exact in float32 under
            # any summation order.
            new_ins_f = new_inside.astype(np.float32)
            col0 = 0
            for outs_f in (pc.outside_f, new_outs_f):
                col1 = col0 + int(outs_f.shape[0])
                pair_len[n_c_old:, col0:col1], pair_neg[n_c_old:, col0:col1] = (
                    _pair_weights(new_ins_f, outs_f)
                )
                col0 = col1
        classes.append(
            _raw_for_class_delta(
                pc, new_inside, new_outside, pair_len, pair_neg,
                n_items, arithmetization,
            )
        )
    engine_counters.increment("plan_delta_recompiles")
    return _build_arena(classes, n_items, base_plan.culled_refs)


def _field_size(name: str, n_c: int, n_o: int, h_len: int, ir_len: int,
                n_items: int) -> int:
    if name in ("inside", "inside_f"):
        return n_c * n_items
    if name in ("outside", "outside_f"):
        return n_o * n_items
    if name in ("pair_len", "pair_neg"):
        return n_c * n_o
    if name in ("gene_mask", "outside_counts", "blackdot_mask", "h_offsets"):
        return n_items
    if name == "h_flat":
        return h_len
    if name == "inside_rows":
        return ir_len
    if name == "inside_row_offsets":
        return n_items + 1
    raise KeyError(name)


def _field_shape(name: str, n_c: int, n_o: int, n_items: int
                 ) -> Optional[Tuple[int, int]]:
    if name in ("inside", "inside_f"):
        return (n_c, n_items)
    if name in ("outside", "outside_f"):
        return (n_o, n_items)
    if name in ("pair_len", "pair_neg"):
        return (n_c, n_o)
    return None  # already flat


def plan_from_arena(
    arena: Dict[str, np.ndarray],
    geometry: np.ndarray,
    n_items: int,
    *,
    culled_refs: int = 0,
) -> EvaluationPlan:
    """Rebuild the per-class views over a (possibly memory-mapped) arena.

    The inverse of the flattening in :func:`compile_plan` and
    the zero-copy load path behind artifact format v2: every
    :class:`PlanClass` array is a slice of the corresponding arena member,
    so memmapped members stay memmapped all the way into the kernels.

    Raises :class:`ValueError` when the arena member lengths disagree with
    the geometry table — the artifact loader wraps that into a structured
    ``ArtifactError``.
    """
    geometry = np.asarray(geometry, dtype=np.int64)
    if geometry.ndim != 2 or geometry.shape[1] != GEOMETRY_COLUMNS:
        raise ValueError(
            f"plan geometry must be (n_classes, {GEOMETRY_COLUMNS}),"
            f" got {tuple(geometry.shape)}"
        )
    if (geometry < 0).any():
        raise ValueError("plan geometry entries must be non-negative")
    missing = [name for name in ARENA_FIELDS if name not in arena]
    if missing:
        raise ValueError(f"plan arena is missing members: {missing}")
    n_classes = geometry.shape[0]
    totals = {name: 0 for name in ARENA_FIELDS}
    for class_id in range(n_classes):
        n_c, n_o, h_len, ir_len = (int(v) for v in geometry[class_id])
        if n_c == 0:
            continue
        for name in ARENA_FIELDS:
            totals[name] += _field_size(name, n_c, n_o, h_len, ir_len,
                                        n_items)
    for name in ARENA_FIELDS:
        if int(arena[name].size) != totals[name]:
            raise ValueError(
                f"plan arena member {name!r} holds {int(arena[name].size)}"
                f" elements, geometry requires {totals[name]}"
            )
    offsets = {name: 0 for name in ARENA_FIELDS}
    classes: List[Optional[PlanClass]] = []
    for class_id in range(n_classes):
        n_c, n_o, h_len, ir_len = (int(v) for v in geometry[class_id])
        if n_c == 0:
            classes.append(None)
            continue
        views: Dict[str, np.ndarray] = {}
        for name in ARENA_FIELDS:
            size = _field_size(name, n_c, n_o, h_len, ir_len, n_items)
            flat = arena[name][offsets[name]:offsets[name] + size]
            offsets[name] += size
            shape = _field_shape(name, n_c, n_o, n_items)
            views[name] = flat if shape is None else flat.reshape(shape)
        classes.append(PlanClass(class_id=class_id, **views))
    return EvaluationPlan(
        n_items=n_items,
        n_classes=n_classes,
        index_dtype=arena["h_flat"].dtype,
        weight_dtype=arena["pair_len"].dtype,
        culled_refs=culled_refs,
        arena=arena,
        geometry=geometry,
        classes=classes,
    )
