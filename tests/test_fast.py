"""Property tests: the vectorized BSTCE engine equals the reference, and a
query's values do not depend on the batch it is evaluated in."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bst.table import build_all_bsts
from repro.core.arithmetization import COMBINERS
from repro.core.bstce import bstce
from repro.core.fast import _BATCH_BLOCK, FastBSTCEvaluator
from repro.datasets.dataset import RelationalDataset


@st.composite
def relational_datasets(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=2, max_value=3))
    rows = [
        frozenset(
            j
            for j in range(m)
            if draw(st.booleans())
        )
        for _ in range(n)
    ]
    labels = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)]
    ds = RelationalDataset(
        item_names=tuple(f"g{j}" for j in range(m)),
        class_names=tuple(f"c{i}" for i in range(k)),
        samples=tuple(rows),
        labels=tuple(labels),
    )
    query = frozenset(j for j in range(m) if draw(st.booleans()))
    return ds, query


class TestEngineEquivalence:
    @given(relational_datasets())
    @settings(max_examples=150, deadline=None)
    def test_fast_matches_reference_min(self, case):
        ds, query = case
        values = FastBSTCEvaluator(ds, "min").classification_values(query)
        bsts = build_all_bsts(ds)
        for class_id in range(ds.n_classes):
            expected = bstce(bsts[class_id], query, "min")
            assert values[class_id] == pytest.approx(expected, abs=1e-5)

    @given(relational_datasets())
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference_product_and_mean(self, case):
        ds, query = case
        for arith in ("product", "mean"):
            values = FastBSTCEvaluator(ds, arith).classification_values(query)
            bsts = build_all_bsts(ds)
            for class_id in range(ds.n_classes):
                expected = bstce(bsts[class_id], query, arith)
                assert values[class_id] == pytest.approx(expected, abs=1e-5)

    @given(relational_datasets())
    @settings(max_examples=100, deadline=None)
    def test_values_bounded(self, case):
        ds, query = case
        fast = FastBSTCEvaluator(ds, "min")
        values = fast.classification_values(query)
        assert ((values >= 0.0) & (values <= 1.0)).all()


class TestQueryHandling:
    def test_vector_query(self, example):
        fast = FastBSTCEvaluator(example)
        vec = np.zeros(example.n_items, dtype=bool)
        vec[[0, 3, 4]] = True
        assert fast.classification_values(vec)[0] == pytest.approx(0.75)

    def test_wrong_vector_shape_raises(self, example):
        fast = FastBSTCEvaluator(example)
        with pytest.raises(ValueError):
            fast.classification_values(np.zeros(3, dtype=bool))

    def test_out_of_range_items_ignored(self, example):
        fast = FastBSTCEvaluator(example)
        values = fast.classification_values(frozenset({0, 3, 4, 999}))
        assert values[0] == pytest.approx(0.75)

    def test_unknown_arithmetization_rejected(self, example):
        with pytest.raises(ValueError):
            FastBSTCEvaluator(example, "median")

    def test_single_class_dataset(self):
        """All samples one class: every cell is a black dot, value 1 for any
        overlapping query."""
        ds = RelationalDataset(
            item_names=("a", "b"),
            class_names=("only",),
            samples=(frozenset({0}), frozenset({0, 1})),
            labels=(0, 0),
        )
        fast = FastBSTCEvaluator(ds)
        assert fast.classification_values(frozenset({0}))[0] == 1.0


#: Query kinds for the batch-composition property.  On a vocabulary of at
#: least 256 items a batch of only ``sparse`` queries takes the per-query
#: restricted matmuls, mixing in ``focused`` queries (dense over the first
#: 40% of the columns) takes the stacked matmul restricted to the batch's
#: expressed columns, and ``dense`` mates force the full-width matmul — so
#: one query's row is computed by different kernel paths depending on its
#: batchmates.
_KINDS = ("sparse", "focused", "dense")


def _query(rng, kind, n_items):
    if kind == "sparse":
        q = np.zeros(n_items, dtype=bool)
        q[rng.choice(n_items, size=min(4, n_items), replace=False)] = True
        return q
    if kind == "focused":
        q = np.zeros(n_items, dtype=bool)
        width = max(1, (2 * n_items) // 5)
        q[:width] = rng.random(width) < 0.5
        return q
    return rng.random(n_items) < 0.5


class TestBatchComposition:
    """A query's row is bit-identical whatever its batchmates and position
    are, and a single query equals its batch row (a batch of one)."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_items=st.sampled_from([12, 300, 700]),
        n_samples=st.integers(min_value=4, max_value=30),
        n_classes=st.integers(min_value=2, max_value=3),
        arithmetization=st.sampled_from(sorted(COMBINERS)),
        kinds=st.lists(
            st.sampled_from(_KINDS), min_size=1, max_size=2 * _BATCH_BLOCK + 20
        ),
    )
    @example(  # one sparse query among dense mates, past one block
        seed=1, n_items=700, n_samples=20, n_classes=3,
        arithmetization="min",
        kinds=["sparse"] + ["dense"] * (_BATCH_BLOCK + 10),
    )
    @example(  # sparse and focused mates: the column-restricted matmul
        seed=2, n_items=300, n_samples=16, n_classes=2,
        arithmetization="product",
        kinds=["sparse", "focused"] * (_BATCH_BLOCK // 2 + 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_independent_of_batch(
        self, seed, n_items, n_samples, n_classes, arithmetization, kinds
    ):
        rng = np.random.default_rng(seed)
        matrix = rng.random((n_samples, n_items)) < rng.uniform(0.1, 0.6)
        labels = rng.integers(0, n_classes, n_samples)
        labels[:n_classes] = np.arange(n_classes)
        ds = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(),
            class_names=[f"c{i}" for i in range(n_classes)],
        )
        fast = FastBSTCEvaluator(ds, arithmetization)
        queries = np.stack([_query(rng, kind, n_items) for kind in kinds])
        batch = fast.classification_values_batch(queries)
        # Another position for every query, with different block-mates.
        order = rng.permutation(len(kinds))
        shuffled = fast.classification_values_batch(queries[order])
        assert np.array_equal(shuffled, batch[order])
        probes = {0, len(kinds) - 1, *rng.integers(0, len(kinds), 4).tolist()}
        for i in sorted(probes):
            assert np.array_equal(
                fast.classification_values(queries[i]), batch[i]
            )
