"""Exclusion-list culling (Section 8 future work).

The paper proposes reducing BSTC's per-query classification time "by
carefully culling BST exclusion lists".  This module implements the
semantics-preserving cull: within a cell, an exclusion list whose clause is
*implied* by another list's clause is redundant in the cell rule's
conjunction and can be dropped.

For two same-polarity lists the implication test is containment:

* negated lists are disjunctions of negations, so ``A ⇒ B`` iff
  ``items(A) ⊆ items(B)`` — keep the smaller list, drop the larger;
* positive lists likewise.

Culling preserves every cell rule's *boolean* semantics exactly (tested),
and shrinks the work of both the reference evaluator and the explanation
machinery.  The quantized (Algorithm 5) value of a cell can change — the
dropped list's ``V_e`` no longer participates in the min — so the ablation
driver measures the accuracy impact alongside the speedup.

The compiled evaluation plans (:mod:`repro.core.plan`) apply no cull: the
vectorized kernel reads whole row blocks (the ``min`` threshold sweep
never enumerates a cell's lists), so there is no per-cell list to shrink.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .table import BST, BSTCell, ExclusionList


def cull_cell_lists(
    lists: Tuple[ExclusionList, ...]
) -> Tuple[ExclusionList, ...]:
    """Drop the lists implied by another list of the same cell.

    Keeps, for each polarity, only the containment-minimal item sets (with
    duplicates removed).  Order of the survivors is preserved.
    """
    survivors: List[ExclusionList] = []
    item_sets = [frozenset(e.items) for e in lists]
    for i, elist in enumerate(lists):
        redundant = False
        for j, other in enumerate(lists):
            if i == j or other.negated != elist.negated:
                continue
            if item_sets[j] < item_sets[i]:
                redundant = True
                break
            if item_sets[j] == item_sets[i] and j < i:
                redundant = True  # exact duplicate: keep the first
                break
        if not redundant:
            survivors.append(elist)
    return tuple(survivors)


def cull_bst(bst: BST) -> BST:
    """A new BST with every cell's redundant exclusion lists removed."""
    culled_cells: Dict[Tuple[int, int], BSTCell] = {}
    for (gene, sample), cell in bst._cells.items():
        if cell.black_dot:
            culled_cells[(gene, sample)] = cell
        else:
            culled_cells[(gene, sample)] = BSTCell(
                gene=cell.gene,
                sample=cell.sample,
                black_dot=False,
                exclusion_lists=cull_cell_lists(cell.exclusion_lists),
            )
    return BST(
        dataset=bst.dataset,
        class_id=bst.class_id,
        columns=bst.columns,
        outside=bst.outside,
        cells=culled_cells,
        pair_lists=dict(bst._pair_lists),
    )


def culling_ratio(original: BST, culled: BST) -> float:
    """Fraction of exclusion-list references removed by the cull."""
    before = original.space_cost()
    after = culled.space_cost()
    if before == 0:
        return 0.0
    return 1.0 - after / before
