"""Property tests: the vectorized BSTCE engine equals the reference, and a
query's values do not depend on the batch it is evaluated in."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ORACLE_ATOL
from repro.bst.table import build_all_bsts
from repro.core import bitset
from repro.core import fast as fast_module
from repro.core.arithmetization import COMBINERS
from repro.core.bstce import bstce
from repro.core.classifier import BSTClassifier
from repro.core.fast import _BATCH_BLOCK, _SWEEP_FIRST_ROUND, FastBSTCEvaluator
from repro.datasets.dataset import RelationalDataset, running_example
from repro.errors import QueryError
from repro.evaluation.timing import EngineCounters
from repro.serving import ModelRegistry, PredictionService, ServeConfig


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

    def test_out_of_range_items_rejected(self, example):
        fast = FastBSTCEvaluator(example)
        with pytest.raises(QueryError, match="999 is outside"):
            fast.classification_values(frozenset({0, 3, 4, 999}))

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


def _vector(n_items, entries, dtype=float):
    vector = np.zeros(n_items, dtype=dtype)
    for index, value in entries.items():
        vector[index] = value
    return vector


_N_ITEMS = running_example().n_items
_FIGURE_3 = {0: 1, 3: 1, 4: 1}

#: The query contract, one row per form: the query and the ``QueryError``
#: message fragment every surface must raise (``None``: a valid spelling of
#: the Figure 3 query {0, 3, 4}).
_CONTRACT = [
    pytest.param([1.9, 2.2], "got 1.9", id="float-items"),
    pytest.param(["1", "2"], "got '1'", id="string-items"),
    pytest.param([True, 2], "got True", id="bool-items"),
    pytest.param(_vector(_N_ITEMS, {0: 0.2}), "0 or 1", id="fraction-vector"),
    pytest.param(_vector(_N_ITEMS, {0: -3.0}), "0 or 1", id="negative-vector"),
    pytest.param({0, 3, 4, 999}, "999 is outside", id="out-of-range-items"),
    pytest.param({0, 3, 4}, None, id="item-set"),
    pytest.param(_vector(_N_ITEMS, _FIGURE_3), None, id="float-vector"),
    pytest.param(_vector(_N_ITEMS, _FIGURE_3, bool), None, id="bool-vector"),
]


class TestQueryContract:
    """Every entry point reads a query through the one parser, so the
    evaluator, the classifier (reference engine and explanations), the
    service and the registry give identical bits or the same error."""

    @pytest.mark.parametrize("query, error", _CONTRACT)
    def test_every_surface_reads_a_query_the_same_way(
        self, example, query, error
    ):
        fast = FastBSTCEvaluator(example)
        reference = BSTClassifier(engine="reference").fit(example)
        config = ServeConfig()
        registry = ModelRegistry(config, counters=EngineCounters())
        registry.deploy_model("mem", BSTClassifier().fit(example))
        surfaces = [
            fast.classification_values,
            reference.classification_values,
            lambda q: registry.classification_values("mem", q),
            lambda q: np.array(registry.explain("mem", q).class_values),
        ]
        outcomes = []
        try:
            with PredictionService(
                fast, config, counters=EngineCounters()
            ) as service:
                surfaces.append(service.classification_values)
                for surface in surfaces:
                    try:
                        outcomes.append(surface(query))
                    except QueryError as exc:
                        outcomes.append(exc)
        finally:
            registry.close()
        if error is None:
            assert outcomes[0].tolist() == [0.75, 0.375]  # Figure 3
            for values in outcomes:
                assert np.array_equal(values, outcomes[0])
        else:
            assert all(isinstance(o, QueryError) for o in outcomes), outcomes
            assert len({str(o) for o in outcomes}) == 1
            assert error in str(outcomes[0])


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


def _sweep_checked(dataset, queries):
    """``min`` values of a boolean query matrix, checked against the
    Algorithm 5 oracle and, row by row, against single-query calls (bit
    for bit)."""
    fast = FastBSTCEvaluator(dataset, "min")
    batch = fast.classification_values_batch(queries)
    oracle = BSTClassifier("min", engine="reference").fit(dataset)
    np.testing.assert_allclose(
        batch,
        oracle.classification_values_batch(
            [frozenset(np.flatnonzero(q).tolist()) for q in queries]
        ),
        atol=ORACLE_ATOL,
    )
    for query, row in zip(queries, batch):
        assert np.array_equal(fast.classification_values(query), row)
    return batch


def _tied_dataset(rng, n_outside):
    """One inside row over genes ``0..n_outside-1``; outside row ``j``
    expresses gene ``j`` plus two private genes.  Each shared gene is
    covered by exactly one outside row, so a sweep that skips or repeats a
    row loses that gene's minimum.  The outside rows are shuffled so row
    order and gene order disagree."""
    n_items = 3 * n_outside
    inside = np.zeros((1, n_items), dtype=bool)
    inside[0, :n_outside] = True
    outside = np.zeros((n_outside, n_items), dtype=bool)
    for j in range(n_outside):
        outside[j, [j, n_outside + 2 * j, n_outside + 2 * j + 1]] = True
    outside = outside[rng.permutation(n_outside)]
    return RelationalDataset.from_bool_matrix(
        np.vstack([inside, outside]),
        [0] + [1] * n_outside,
        class_names=["in", "out"],
    )


class TestMinSweep:
    """Edge cases of the ``min`` threshold sweep, each against the oracle
    and single == batch row."""

    def test_ties_across_a_round_boundary(self):
        rng = np.random.default_rng(5)
        n_outside = 4 * _SWEEP_FIRST_ROUND + 8
        dataset = _tied_dataset(rng, n_outside)
        # Every shared gene, plus one private gene of a subset of the
        # outside rows: those rows take pair value 1/2, the others 1, so
        # the tie at 1/2 straddles the rounds' widths.
        queries = np.zeros((8, dataset.n_items), dtype=bool)
        queries[:, :n_outside] = True
        halves = rng.random((8, n_outside)) < np.linspace(0.2, 0.9, 8)[:, None]
        queries[:, n_outside::2] = halves
        batch = _sweep_checked(dataset, queries)
        expected = (n_outside - 0.5 * halves.sum(axis=1)) / n_outside
        assert np.array_equal(batch[:, 0], expected)

    def test_duplicate_outside_rows(self):
        rng = np.random.default_rng(8)
        matrix = rng.random((48, 40)) < 0.4
        matrix[10:30] = matrix[9]  # twenty copies of one outside row
        labels = np.ones(48, dtype=int)
        labels[:9] = 0
        dataset = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(), class_names=["a", "b"]
        )
        _sweep_checked(dataset, rng.random((6, 40)) < 0.5)

    def test_query_with_no_relevant_genes(self):
        matrix = np.zeros((6, 8), dtype=bool)
        matrix[:3, :4] = np.array(
            [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]], dtype=bool
        )
        matrix[3:, 2:] = True
        dataset = RelationalDataset.from_bool_matrix(
            matrix, [0, 0, 0, 1, 1, 1], class_names=["a", "b"]
        )
        queries = np.zeros((3, 8), dtype=bool)
        queries[1, 4:] = True  # only genes class "a" never expresses
        queries[2, [0, 5]] = True
        batch = _sweep_checked(dataset, queries)
        assert batch[0].tolist() == [0.0, 0.0]
        assert batch[1, 0] == 0.0

    def test_class_with_zero_outside_rows(self):
        rng = np.random.default_rng(9)
        matrix = rng.random((7, 12)) < 0.5
        dataset = RelationalDataset.from_bool_matrix(
            matrix, [0] * 7, class_names=["all", "none"]
        )
        batch = _sweep_checked(dataset, rng.random((5, 12)) < 0.5)
        assert set(batch[:, 1].tolist()) == {0.0}

    def test_block_split_into_chunks(self, monkeypatch):
        rng = np.random.default_rng(10)
        matrix = rng.random((40, 60)) < 0.35
        labels = rng.integers(0, 3, 40)
        labels[:3] = (0, 1, 2)
        dataset = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(), class_names=["a", "b", "c"]
        )
        queries = rng.random((20, 60)) < 0.5
        whole = _sweep_checked(dataset, queries)
        for budget in (1, 200):  # one row per chunk, then a few rows
            monkeypatch.setattr(fast_module, "_CELL_BUDGET", budget)
            assert np.array_equal(_sweep_checked(dataset, queries), whole)

    def test_counts_go_through_the_bitset_primitive(self, monkeypatch):
        dataset = _tied_dataset(np.random.default_rng(6), 20)
        query = np.ones((1, dataset.n_items), dtype=bool)
        fast = FastBSTCEvaluator(dataset, "min")
        expected = fast.classification_values_batch(query)
        calls = []
        primitive = bitset.popcount_rows

        def counted(words):
            calls.append(words.shape)
            return primitive(words)

        monkeypatch.setattr(bitset, "popcount_rows", counted)
        assert np.array_equal(fast.classification_values_batch(query), expected)
        assert calls, "the min kernel counted bits without popcount_rows"
