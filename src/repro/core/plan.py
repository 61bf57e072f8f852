"""Ahead-of-time compiled evaluation plans: one structure-of-arrays arena.

:func:`compile_plan` builds, at fit time and straight from each class's
inside/outside row blocks, the single flat **structure-of-arrays arena**
the BSTCE kernel (:mod:`repro.core.fast`) evaluates from.  The arena holds
only what the kernel reads, and it is the same for every arithmetization:

* **Row blocks** — each class's inside and outside rows, as bool (for the
  masks and the ``min`` sweep's packed words) and float32 (the matmul
  operands).
* **Fused pair weights** — the exclusion list of a pair ``(c, h)`` is the
  negated ``items(h) - items(c)`` when that is non-empty, else the positive
  ``items(c) - items(h)``.  ``pair_neg`` records which form was selected
  and ``pair_len`` its length (``0`` marks the empty list): 5 bytes per
  pair.  Both come from one ``|c ∩ h|`` matmul per class; every count is
  small-integer float32 arithmetic (exact below 2**24), so the kernel's
  single rounding operation, the final ``sat / len`` division, always
  sees exact operands.  Lengths past :data:`FLOAT32_EXACT_MAX` store as
  float64 instead (counted under ``plan_wide_float_fallbacks``) — never a
  silent rounding.
* **Gene masks** — ``gene_mask`` (genes some inside row expresses) and
  ``blackdot_mask`` (those no outside row expresses: black-dot columns).

Every per-class array is a **view** into one flat arena member per field,
so a model artifact stores one contiguous payload per field
(``arena_<field>``) plus a tiny int64 geometry table, and a memory-mapped
load rebuilds all views without copying a byte
(:func:`plan_from_arena`).  The derived, non-arena state lives on
:class:`PlanClass` as ``cached_property``s that each class computes from
its arena views on first use, so a cold compile and an artifact load
derive it the same way and the artifact format does not carry it: the
rows packed into ``uint64`` gene words (:attr:`PlanClass.inside_words`/
:attr:`PlanClass.outside_words`) for the ``min`` threshold sweep, and the
gene-major row lists (:attr:`PlanClass.gene_lists`) that the ``product``/
``mean`` stream gathers from.  A ``min`` model never builds the lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..evaluation.timing import engine_counters
from .bitset import pack_rows

__all__ = [
    "ARENA_FIELDS",
    "EvaluationPlan",
    "FLOAT32_EXACT_MAX",
    "GeneLists",
    "PlanClass",
    "compile_plan",
    "plan_from_arena",
    "recompile_delta",
]

#: Largest integer float32 represents exactly (2**24; 2**24 + 1 is the
#: first gap).  Pair-list lengths past it fall back to float64 (counted
#: under ``plan_wide_float_fallbacks``) instead of silently rounding.
FLOAT32_EXACT_MAX = 2**24

#: Every arena member, in storage order.  Dtypes: ``inside``/``outside``/
#: ``pair_neg``/``gene_mask``/``blackdot_mask`` are bool; ``inside_f``/
#: ``outside_f`` float32; ``pair_len`` the plan's weight dtype.
ARENA_FIELDS: Tuple[str, ...] = (
    "inside",
    "outside",
    "inside_f",
    "outside_f",
    "pair_len",
    "pair_neg",
    "gene_mask",
    "blackdot_mask",
)

#: ``geometry`` columns: per class ``(n_c, n_o)``; a row of zeros marks an
#: absent class (no training samples).  Every member shape derives from
#: these plus ``n_items``.
GEOMETRY_COLUMNS = 2


class GeneLists(NamedTuple):
    """One class's rows listed per gene (gene-major CSR, int64): the rows
    of gene ``g`` are ``rows[offsets[g]:offsets[g + 1]]``, ascending."""

    outside_rows: np.ndarray
    outside_offsets: np.ndarray  # (n_items + 1,)
    inside_rows: np.ndarray
    inside_offsets: np.ndarray   # (n_items + 1,)


def _gene_major(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(row ids, offsets)`` of a bool row block listed per gene."""
    _, rows = np.nonzero(block.T)  # np.nonzero order is gene-major
    offsets = np.zeros(block.shape[1] + 1, dtype=np.int64)
    np.cumsum(block.sum(axis=0), out=offsets[1:])
    return rows.astype(np.int64, copy=False), offsets


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
    blackdot_mask: np.ndarray  # bool (n_items,): ... and no outside row does

    # Derived on first use, never stored in the arena: building them at
    # plan build would charge every compile, delta recompile and load for
    # state only one arithmetization's queries read.
    @cached_property
    def inside_words(self) -> np.ndarray:
        """``inside`` packed into uint64 gene words, ``(n_c, n_words)``
        (read by the ``min`` sweep)."""
        return pack_rows(self.inside)

    @cached_property
    def outside_words(self) -> np.ndarray:
        """``outside`` packed into uint64 gene words, ``(n_o, n_words)``
        (read by the ``min`` sweep)."""
        return pack_rows(self.outside)

    @cached_property
    def gene_lists(self) -> GeneLists:
        """The outside and inside rows listed per gene (read by the
        ``product``/``mean`` stream)."""
        return GeneLists(*_gene_major(self.outside), *_gene_major(self.inside))


@dataclass
class EvaluationPlan:
    """The compiled arena plus the per-class views over it."""

    n_items: int
    n_classes: int
    weight_dtype: np.dtype
    arena: Dict[str, np.ndarray]
    geometry: np.ndarray  # int64 (n_classes, GEOMETRY_COLUMNS)
    classes: List[Optional[PlanClass]] = field(default_factory=list)

    def hot_nbytes(self) -> int:
        """Bytes the batched kernel can touch per query block — the whole
        arena (every member is kernel-hot; there is no cold field)."""
        return sum(int(a.nbytes) for a in self.arena.values())


#: One class's compile output: ``(raw arena pieces, geometry row, max
#: weight)`` — what :func:`_cold_class` and :func:`_delta_class`
#: return; ``None`` marks an absent class.
ClassPieces = Tuple[Dict[str, np.ndarray], Tuple[int, int], float]


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


def _max_weight(pair_len: np.ndarray) -> float:
    return float(pair_len.max()) if pair_len.size else 0.0


def _cold_class(inside: np.ndarray, outside: np.ndarray) -> ClassPieces:
    """One class's raw arena pieces computed from scratch."""
    inside_f = inside.astype(np.float32)
    outside_f = outside.astype(np.float32)
    pair_len, pair_neg = _pair_weights(inside_f, outside_f)
    gene_mask = inside.any(axis=0)
    raw = {
        "inside": inside,
        "outside": outside,
        "inside_f": inside_f,
        "outside_f": outside_f,
        "pair_len": pair_len,
        "pair_neg": pair_neg,
        "gene_mask": gene_mask,
        "blackdot_mask": gene_mask & ~outside.any(axis=0),
    }
    return raw, (inside.shape[0], outside.shape[0]), _max_weight(pair_len)


def _delta_class(
    base: PlanClass,
    new_inside: np.ndarray,
    new_outside: np.ndarray,
    pair_len: np.ndarray,
    pair_neg: np.ndarray,
) -> ClassPieces:
    """One class's raw arena pieces from the base class views plus the
    appended row blocks.

    The row-block fields are returned as ``(base view, new block)`` piece
    pairs so the stacked arrays are never materialized —
    :func:`_build_arena` copies each piece once, straight into the arena.
    Byte-identical to :func:`_cold_class` over the stacked blocks
    (equivalence-gated in tests and bench_micro).
    """
    gene_mask = base.gene_mask | new_inside.any(axis=0)
    outside_any = base.outside.any(axis=0) | new_outside.any(axis=0)
    raw = {
        "inside": (base.inside, new_inside),
        "outside": (base.outside, new_outside),
        "inside_f": (base.inside_f, new_inside.astype(np.float32)),
        "outside_f": (base.outside_f, new_outside.astype(np.float32)),
        "pair_len": pair_len,
        "pair_neg": pair_neg,
        "gene_mask": gene_mask,
        "blackdot_mask": gene_mask & ~outside_any,
    }
    geometry_row = (
        base.inside.shape[0] + new_inside.shape[0],
        base.outside.shape[0] + new_outside.shape[0],
    )
    return raw, geometry_row, _max_weight(pair_len)


def _build_arena(
    classes: Sequence[Optional[ClassPieces]], n_items: int
) -> EvaluationPlan:
    """Geometry table, the weight dtype guard and per-field concatenation:
    the shared arena-assembly tail of the cold compile and the delta
    recompile."""
    geometry = np.zeros((len(classes), GEOMETRY_COLUMNS), dtype=np.int64)
    raw: List[Dict[str, np.ndarray]] = []
    max_weight = 0.0
    for class_id, pieces in enumerate(classes):
        if pieces is None:
            continue
        cls_raw, geometry_row, cls_weight = pieces
        geometry[class_id] = geometry_row
        max_weight = max(max_weight, cls_weight)
        raw.append(cls_raw)
    # Overflow guard: downcast only when the observed lengths permit.
    if max_weight <= FLOAT32_EXACT_MAX:
        weight_dtype = np.dtype(np.float32)
    else:
        weight_dtype = np.dtype(np.float64)
        engine_counters.increment("plan_wide_float_fallbacks")
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
        if name == "pair_len":
            dtype = weight_dtype
            pieces_of_field = [
                p.astype(dtype, copy=False) for p in pieces_of_field
            ]
        elif name in ("inside_f", "outside_f"):
            dtype = np.dtype(np.float32)
        else:
            dtype = np.dtype(bool)
        if pieces_of_field:
            arena[name] = np.concatenate(
                [np.ascontiguousarray(p.ravel()) for p in pieces_of_field]
            )
        else:
            arena[name] = np.zeros(0, dtype=dtype)
    engine_counters.increment("plan_compiles")
    return plan_from_arena(arena, geometry, n_items)


def compile_plan(dataset) -> EvaluationPlan:
    """Compile a training dataset into one evaluation arena.

    Each class's pair weights come from one ``|c ∩ h|`` matmul of its
    inside against its outside row block; a class with no training sample
    is absent (its classification value is 0 for every query).
    Deterministic: the same dataset always compiles to byte-identical
    arenas, whatever arithmetization later evaluates from them.
    """
    matrix = dataset.bool_matrix
    labels = dataset.label_array
    classes: List[Optional[ClassPieces]] = []
    for class_id in range(dataset.n_classes):
        member_mask = labels == class_id
        if not member_mask.any():
            classes.append(None)
            continue
        classes.append(
            _cold_class(matrix[member_mask], matrix[~member_mask])
        )
    return _build_arena(classes, int(matrix.shape[1]))


def recompile_delta(
    base_plan: EvaluationPlan,
    dataset,
    base_n_samples: int,
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
    class member order and outside order are stable.

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
                else _cold_class(new_inside, matrix[labels != class_id])
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
            _delta_class(
                pc, new_inside, new_outside, pair_len, pair_neg
            )
        )
    engine_counters.increment("plan_delta_recompiles")
    return _build_arena(classes, n_items)


def _field_shape(
    name: str, n_c: int, n_o: int, n_items: int
) -> Tuple[int, ...]:
    if name in ("inside", "inside_f"):
        return (n_c, n_items)
    if name in ("outside", "outside_f"):
        return (n_o, n_items)
    if name in ("pair_len", "pair_neg"):
        return (n_c, n_o)
    return (n_items,)  # gene_mask, blackdot_mask


def plan_from_arena(
    arena: Dict[str, np.ndarray],
    geometry: np.ndarray,
    n_items: int,
) -> EvaluationPlan:
    """Rebuild the per-class views over a (possibly memory-mapped) arena.

    The inverse of the flattening in :func:`compile_plan` and the
    zero-copy artifact load path: every :class:`PlanClass` array is a
    slice of the corresponding arena member, so memmapped members stay
    memmapped all the way into the kernels.

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
    present = [
        (class_id, int(n_c), int(n_o))
        for class_id, (n_c, n_o) in enumerate(geometry)
        if n_c
    ]
    for name in ARENA_FIELDS:
        total = sum(
            math.prod(_field_shape(name, n_c, n_o, n_items))
            for _, n_c, n_o in present
        )
        if int(arena[name].size) != total:
            raise ValueError(
                f"plan arena member {name!r} holds {int(arena[name].size)}"
                f" elements, geometry requires {total}"
            )
    offsets = {name: 0 for name in ARENA_FIELDS}
    classes: List[Optional[PlanClass]] = [None] * n_classes
    for class_id, n_c, n_o in present:
        views: Dict[str, np.ndarray] = {}
        for name in ARENA_FIELDS:
            shape = _field_shape(name, n_c, n_o, n_items)
            size = math.prod(shape)
            flat = arena[name][offsets[name]:offsets[name] + size]
            offsets[name] += size
            views[name] = flat.reshape(shape)
        classes[class_id] = PlanClass(class_id=class_id, **views)
    return EvaluationPlan(
        n_items=n_items,
        n_classes=n_classes,
        weight_dtype=arena["pair_len"].dtype,
        arena=arena,
        geometry=geometry,
        classes=classes,
    )
