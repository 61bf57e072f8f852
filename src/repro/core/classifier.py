"""The Boolean Structure Table Classifier — BSTC (Section 5.3, Algorithm 6).

``BSTClassifier`` is the paper's headline contribution: fit builds one BST
per class (``O(|S|² · |G|)`` time and space, Section 3.1.1) and prediction
classifies a query as the class whose BST has the highest BSTCE satisfaction
level, breaking ties toward the smallest class id (Algorithm 6 line 6).

The classifier is parameter-free (the paper's ease-of-use claim) and handles
any number of classes.  Two interchangeable engines are provided:

* ``fast`` (default): the vectorized evaluator of :mod:`repro.core.fast`,
  fetched from the process-wide evaluator cache so repeated fits on
  identical training data skip table construction, with a batched kernel
  behind :meth:`BSTClassifier.predict_batch`;
* ``reference``: the literal Algorithm 5 over explicit BST objects.

Their values agree exactly up to floating-point associativity and are
cross-checked in the test suite.  ``BSTClassifier`` conforms to the
:class:`repro.core.estimator.Estimator` protocol.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

import numpy as np

from ..bst.table import BST, build_all_bsts
from ..evaluation.timing import engine_counters
from ..datasets.dataset import RelationalDataset
from .arithmetization import classification_confidence, get_combiner
from .bstce import bstce
from .estimator import NotFittedError, explain_not_supported, resolve_engine
from .fast import FastBSTCEvaluator, get_evaluator, register_evaluator
from .query import Query, as_item_set

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .explain import Explanation

__all__ = ["BSTClassifier", "NotFittedError"]


class BSTClassifier:
    """Boolean Structure Table Classification.

    Args:
        arithmetization: the per-cell combiner (``min`` is Algorithm 5; see
            :mod:`repro.core.arithmetization` for the Section 8 variants).
        engine: ``fast`` (vectorized) or ``reference`` (explicit BSTs).

    Example:
        >>> from repro.datasets.dataset import running_example
        >>> clf = BSTClassifier().fit(running_example())
        >>> clf.predict({0, 3, 4})  # Q expresses g1, g4, g5
        0
    """

    def __init__(self, arithmetization: str = "min", engine: str = "fast"):
        get_combiner(arithmetization)  # shared validation + error message
        self.arithmetization = arithmetization
        self.engine = resolve_engine(engine)
        self._dataset: Optional[RelationalDataset] = None
        self._fast: Optional[FastBSTCEvaluator] = None
        self._bsts: Optional[List[BST]] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, dataset: RelationalDataset) -> "BSTClassifier":
        """Build the per-class structures from labeled training data."""
        if dataset.n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._dataset = dataset
        if self.engine == "fast":
            self._fast = get_evaluator(dataset, self.arithmetization)
            self._bsts = None
        else:
            self._bsts = build_all_bsts(dataset)
            self._fast = None
        return self

    def append_fit(
        self,
        samples,
        labels: Optional[Sequence[int]] = None,
        *,
        sample_names: Optional[Sequence[str]] = None,
    ) -> "BSTClassifier":
        """Extend the fitted model with new training rows — incrementally.

        Accepts either raw ``(samples, labels[, sample_names])`` — appended
        to the fitted dataset via
        :meth:`~repro.datasets.dataset.RelationalDataset.append_samples` —
        or a single pre-grown :class:`RelationalDataset` whose first rows
        are exactly the fitted training data.  Per-class state covering the
        old rows is reused: the fast engine recompiles only the plan blocks
        the new rows touch (:func:`repro.core.plan.recompile_delta`), the
        reference engine extends its BSTs in place
        (:meth:`repro.bst.table.BST.append_rows`).  The result is
        bit-identical to a cold ``fit`` on the grown dataset.
        """
        if self._dataset is None:
            raise NotFittedError("call fit() before appending training rows")
        if not isinstance(self._dataset, RelationalDataset):
            raise ValueError(
                "cannot append rows to an artifact-loaded classifier: the"
                " training samples are not stored in the artifact; use"
                " repro.core.artifact.refresh_artifact with the grown"
                " dataset instead"
            )
        if isinstance(samples, RelationalDataset):
            if labels is not None or sample_names is not None:
                raise ValueError(
                    "pass either a grown dataset or (samples, labels),"
                    " not both"
                )
            grown = samples
            old = self._dataset
            old_n = old.n_samples
            if (
                grown.item_names != old.item_names
                or grown.class_names != old.class_names
                or grown.n_samples < old_n
                or grown.samples[:old_n] != old.samples
                or grown.labels[:old_n] != old.labels
            ):
                raise ValueError(
                    "grown dataset is not an append-only extension of the"
                    " fitted training data"
                )
        else:
            if labels is None:
                raise ValueError(
                    "labels are required when appending raw samples"
                )
            grown = self._dataset.append_samples(
                samples, labels, sample_names=sample_names
            )
        if grown.n_samples == self._dataset.n_samples:
            return self
        if self._fast is not None:
            self._fast = register_evaluator(self._fast.append_rows(grown))
        if self._bsts is not None:
            self._bsts = build_all_bsts(grown, base=self._bsts)
        self._dataset = grown
        return self

    @property
    def dataset(self) -> RelationalDataset:
        if self._dataset is None:
            raise NotFittedError("call fit() before using the classifier")
        return self._dataset

    @property
    def bsts(self) -> List[BST]:
        """The explicit per-class BSTs (built lazily under the fast engine,
        for explanations and inspection)."""
        if self._dataset is None:
            raise NotFittedError("call fit() before using the classifier")
        if self._bsts is None:
            if not isinstance(self._dataset, RelationalDataset):
                raise ValueError(
                    "explicit BSTs need the training samples, which a model"
                    " artifact does not carry; refit on the training dataset"
                    " to inspect BSTs"
                )
            self._bsts = build_all_bsts(self._dataset)
        return self._bsts

    # ------------------------------------------------------------------
    # Model artifacts
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Export the fitted model as a compiled ``.npz`` artifact.

        The artifact carries the compiled evaluation plan — one flat
        structure-of-arrays arena (:mod:`repro.core.plan`) — plus the
        arithmetization and the training-data fingerprint (see
        :mod:`repro.core.artifact`; format v2).  Works under either engine —
        the compiled evaluator is fetched from the evaluator cache (built
        on demand for a reference-engine fit).  Returns the path written.
        """
        from .artifact import save_artifact

        if self._dataset is None:
            raise NotFittedError("call fit() before saving the classifier")
        evaluator = self._fast
        if evaluator is None:
            if not isinstance(self._dataset, RelationalDataset):
                raise ValueError(
                    "cannot rebuild tables from an artifact-loaded"
                    " classifier without its fast evaluator"
                )
            evaluator = get_evaluator(self._dataset, self.arithmetization)
        return save_artifact(evaluator, path)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        expected_fingerprint: Optional[str] = None,
        mmap: bool = True,
        *,
        verify: str = "lazy",
        on_corrupt: str = "quarantine",
        train_dataset: Optional[RelationalDataset] = None,
        arithmetization: str = "min",
    ) -> "BSTClassifier":
        """Reconstruct a fitted classifier from a saved artifact — zero
        table rebuild (see :func:`repro.core.artifact.load_artifact`).

        The loaded evaluator is registered in the process-wide cache, so a
        later ``fit`` on the same training data reuses it.  The returned
        classifier predicts bit-identically to the one that was saved; its
        ``dataset`` is a :class:`~repro.core.artifact.DatasetSummary` (the
        training samples themselves are not stored).

        ``verify`` and ``on_corrupt`` control integrity checking
        (:func:`~repro.core.artifact.load_artifact`).  ``on_corrupt`` also
        accepts ``"rebuild"`` here: a corrupt artifact is quarantined and,
        when ``train_dataset`` is supplied, the classifier is refit from
        scratch (using ``arithmetization``) instead of failing.  Rebuild
        forces eager verification so corruption surfaces at load time, not
        mid-prediction.
        """
        from .artifact import ArtifactCorrupt, load_artifact

        if on_corrupt == "rebuild":
            try:
                evaluator = load_artifact(
                    path,
                    expected_fingerprint=expected_fingerprint,
                    mmap=mmap,
                    verify="eager",
                    on_corrupt="quarantine",
                )
            except ArtifactCorrupt:
                if train_dataset is None:
                    raise
                engine_counters.increment("artifact_rebuilds")
                return cls(
                    arithmetization=arithmetization, engine="fast"
                ).fit(train_dataset)
        else:
            evaluator = load_artifact(
                path,
                expected_fingerprint=expected_fingerprint,
                mmap=mmap,
                verify=verify,
                on_corrupt=on_corrupt,
            )
        clf = cls(arithmetization=evaluator.arithmetization, engine="fast")
        clf._dataset = evaluator.dataset
        clf._fast = register_evaluator(evaluator)
        return clf

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def classification_values(self, query: Query) -> np.ndarray:
        """CV(i) = BSTCE(T(i), Q) for every class (Algorithm 6 line 4)."""
        if self._dataset is None:
            raise NotFittedError("call fit() before using the classifier")
        if self._fast is not None:
            return self._fast.classification_values(query)
        assert self._bsts is not None
        qset = as_item_set(query, self._dataset.n_items)
        return np.array(
            [bstce(bst, qset, self.arithmetization) for bst in self._bsts],
            dtype=np.float64,
        )

    def classification_values_batch(
        self, queries: Union[Sequence[Query], np.ndarray]
    ) -> np.ndarray:
        """Per-class values for a query batch — shape ``(n_queries,
        n_classes)``.  The fast engine runs the batched BSTCE kernel; the
        reference engine stacks per-query evaluations."""
        if self._dataset is None:
            raise NotFittedError("call fit() before using the classifier")
        if self._fast is not None:
            return self._fast.classification_values_batch(queries)
        rows = [self.classification_values(q) for q in queries]
        return np.array(rows).reshape(len(rows), self._dataset.n_classes)

    def predict(self, query: Query) -> int:
        """Classify one query sample (Algorithm 6 line 6: first argmax)."""
        values = self.classification_values(query)
        return int(np.argmax(values))

    def predict_batch(
        self, queries: Union[Sequence[Query], np.ndarray]
    ) -> np.ndarray:
        """Classify a query batch (first-argmax per row, as Algorithm 6)."""
        values = self.classification_values_batch(queries)
        if values.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return np.argmax(values, axis=1).astype(np.int64)

    def predict_with_confidence(self, query: Query) -> Tuple[int, float]:
        """Prediction plus the Section 8 confidence measure (the normalized
        gap between the best and second-best class values)."""
        values = self.classification_values(query)
        return int(np.argmax(values)), classification_confidence(values.tolist())

    # ------------------------------------------------------------------
    # Explanation
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Query,
        *,
        min_satisfaction: float = 0.5,
        class_id: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> "Explanation":
        """The cell rules supporting this classification (Section 5.3.2).

        Protocol form of :func:`repro.core.explain.explain_classification`.
        Needs the explicit per-class BSTs, which require the training
        samples: an artifact-loaded classifier (whose ``dataset`` is a
        summary, not the samples) raises
        :class:`~repro.errors.NotSupportedError` — refit on the training
        data to explain.
        """
        if self._dataset is None:
            raise NotFittedError("call fit() before using the classifier")
        if self._bsts is None and not isinstance(
            self._dataset, RelationalDataset
        ):
            raise explain_not_supported(
                "BSTClassifier",
                "this model was loaded from a compiled artifact, which"
                " does not carry the training samples the explicit BSTs"
                " are built from; refit on the training dataset to explain",
            )
        from .explain import explain_classification

        return explain_classification(
            self,
            as_item_set(query, self._dataset.n_items),
            min_satisfaction=min_satisfaction,
            class_id=class_id,
            limit=limit,
        )
