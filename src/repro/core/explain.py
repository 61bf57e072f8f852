"""Biologically meaningful classification support (Section 5.3.2).

A BSTC classification of query ``Q`` as class ``C_i`` can be justified by
reporting every atomic ``T(i)`` cell rule with satisfaction level at or above
a user threshold ``c`` — no extra per-query time beyond what BSTCE already
computed.  More complex supporting BARs can then be mined progressively with
the Section 3.2.1 machinery (``repro.bst.mining``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, List, Optional, Tuple

from ..bst.table import BST
from ..errors import QueryError
from ..rules.boolexpr import Expr, pretty
from .bstce import bstce_detail
from .classifier import BSTClassifier


@dataclass(frozen=True)
class CellRuleEvidence:
    """One atomic cell rule supporting a classification.

    Attributes:
        gene: item id of the cell's row.
        sample: class-sample index of the cell's column.
        satisfaction: the BSTCE quantized satisfaction level in [0, 1].
        rule: the cell rule's antecedent as a boolean expression.
    """

    gene: int
    sample: int
    satisfaction: float
    rule: Expr

    def describe(self, bst: BST) -> str:
        ds = bst.dataset
        return (
            f"[{self.satisfaction:.3f}] ({ds.item_names[self.gene]},"
            f" {ds.sample_name(self.sample)}): "
            f"{pretty(self.rule, ds.item_names)}"
            f" => {ds.class_names[bst.class_id]}"
        )


@dataclass(frozen=True)
class Explanation:
    """Why BSTC assigned ``predicted`` to a query.

    Attributes:
        predicted: the chosen class id.
        class_values: CV(i) per class.
        evidence: satisfied cell rules of the chosen class's BST, highest
            satisfaction first.
    """

    predicted: int
    class_values: Tuple[float, ...]
    evidence: Tuple[CellRuleEvidence, ...]

    def describe(self, bst: BST) -> str:
        lines = [
            f"classified as {bst.dataset.class_names[self.predicted]}"
            f" (class values: "
            + ", ".join(f"{v:.4f}" for v in self.class_values)
            + ")"
        ]
        lines.extend(e.describe(bst) for e in self.evidence)
        return "\n".join(lines)


def explain_classification(
    classifier: BSTClassifier,
    query: AbstractSet[int],
    min_satisfaction: float = 0.5,
    class_id: Optional[int] = None,
    limit: Optional[int] = None,
) -> Explanation:
    """Report the cell rules supporting a BSTC classification.

    Args:
        classifier: a fitted :class:`BSTClassifier`.
        query: item ids the query expresses.
        min_satisfaction: the Section 5.3.2 threshold ``c`` — only cell rules
            with satisfaction >= c are reported.
        class_id: explain support for this class instead of the prediction.
        limit: cap the number of reported rules (highest satisfaction first).
    """
    query = frozenset(query)
    values = classifier.classification_values(query)
    predicted = int(values.argmax())
    if class_id is not None and not 0 <= class_id < len(values):
        raise QueryError(f"class_id {class_id} is outside [0, {len(values)})")
    if limit is not None and limit < 0:
        raise QueryError(f"limit {limit} is negative")
    target = predicted if class_id is None else class_id
    bst = classifier.bsts[target]
    _, _, cell_values = bstce_detail(bst, query, classifier.arithmetization)
    evidence: List[CellRuleEvidence] = []
    for (gene, sample), value in cell_values.items():
        if value >= min_satisfaction:
            cell = bst.cell(gene, sample)
            assert cell is not None
            evidence.append(
                CellRuleEvidence(gene, sample, value, cell.rule_antecedent())
            )
    evidence.sort(key=lambda e: (-e.satisfaction, e.gene, e.sample))
    if limit is not None:
        evidence = evidence[:limit]
    return Explanation(
        predicted=predicted,
        class_values=tuple(float(v) for v in values),
        evidence=tuple(evidence),
    )
