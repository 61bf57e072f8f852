"""The unified Estimator protocol, the batched BSTCE kernel, the evaluator
cache, and fold-parallel cross-validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cba import CBAClassifier
from repro.baselines.forest import RandomForestClassifier
from repro.baselines.irg import IRGClassifier
from repro.baselines.rcbt import RCBTClassifier
from repro.baselines.svm import SVMClassifier
from repro.baselines.tree import AdaBoostClassifier, BaggingClassifier, DecisionTree
from repro.bst.table import build_all_bsts
from repro.core.auto import AutoBSTClassifier
from repro.core.bstce import bstce
from repro.core.classifier import BSTClassifier
from repro.core.estimator import Estimator, NotFittedError, resolve_engine
from repro.core.fast import (
    FastBSTCEvaluator,
    clear_evaluator_cache,
    evaluator_cache_info,
    get_evaluator,
    set_evaluator_cache_size,
)
from repro.core.mcbar_classifier import MCBARClassifier
from repro.datasets.dataset import RelationalDataset, running_example
from repro.evaluation.crossval import TrainingSize, make_tests, resolve_n_jobs
from repro.evaluation.runners import BSTCRunner, run_tests
from repro.evaluation.timing import EngineCounters, engine_counters
from repro.experiments.base import ExperimentConfig

from conftest import random_relational

Q = frozenset({0, 3, 4})


def _continuous_problem():
    """A tiny separable continuous problem for the matrix classifiers."""
    rng = np.random.default_rng(3)
    X0 = rng.normal(0.0, 0.4, size=(12, 4))
    X1 = rng.normal(2.0, 0.4, size=(12, 4))
    X = np.vstack([X0, X1])
    y = np.array([0] * 12 + [1] * 12)
    return X, y


def _set_cases():
    """(name, factory, fit) for every item-set classifier."""
    example = running_example()
    return [
        ("bstc-fast", lambda: BSTClassifier(engine="fast"), example),
        ("bstc-reference", lambda: BSTClassifier(engine="reference"), example),
        ("mcbar", lambda: MCBARClassifier(k=2), example),
        ("auto", lambda: AutoBSTClassifier(), example),
        ("cba", lambda: CBAClassifier(min_support=0.2, min_confidence=0.6), example),
        ("irg", lambda: IRGClassifier(min_support=0.3, min_confidence=0.9), example),
        ("rcbt", lambda: RCBTClassifier(k=3, min_support=0.3, nl=5), example),
    ]


def _matrix_cases():
    """(name, factory) for every continuous-feature classifier."""
    return [
        ("svm", lambda: SVMClassifier(C=1.0)),
        ("forest", lambda: RandomForestClassifier(n_estimators=5, seed=0)),
        ("tree", lambda: DecisionTree()),
        ("bagging", lambda: BaggingClassifier(n_estimators=5, seed=0)),
        ("adaboost", lambda: AdaBoostClassifier(n_estimators=5, seed=0)),
    ]


class TestProtocolConformance:
    @pytest.mark.parametrize(
        "factory,example",
        [pytest.param(f, ds, id=name) for name, f, ds in _set_cases()],
    )
    def test_set_classifiers(self, factory, example):
        model = factory()
        assert isinstance(model, Estimator)
        with pytest.raises(NotFittedError):
            model.predict(Q)
        with pytest.raises(NotFittedError):
            model.classification_values(Q)
        fitted = model.fit(example)
        assert fitted is model
        prediction = model.predict(Q)
        assert isinstance(prediction, int)
        batch = model.predict_batch(list(example.samples))
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.int64
        assert batch.shape == (example.n_samples,)
        assert batch.tolist() == [model.predict(s) for s in example.samples]
        values = model.classification_values(Q)
        assert isinstance(values, np.ndarray)
        assert values.ndim == 1
        assert values.shape[0] == example.n_classes
        assert np.isfinite(values).all()

    @pytest.mark.parametrize(
        "factory",
        [pytest.param(f, id=name) for name, f in _matrix_cases()],
    )
    def test_matrix_classifiers(self, factory):
        X, y = _continuous_problem()
        model = factory()
        assert isinstance(model, Estimator)
        with pytest.raises(NotFittedError):
            model.predict(X[0])
        with pytest.raises(NotFittedError):
            model.classification_values(X[0])
        fitted = model.fit(X, y)
        assert fitted is model
        prediction = model.predict(X[0])
        assert isinstance(prediction, int)
        batch = model.predict_batch(X)
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.int64
        assert batch.shape == (X.shape[0],)
        assert batch.tolist() == [model.predict(x) for x in X]
        # Legacy 2-D predict still returns the full label array.
        legacy = model.predict(X)
        assert isinstance(legacy, np.ndarray)
        assert legacy.tolist() == batch.tolist()
        values = model.classification_values(X[0])
        assert isinstance(values, np.ndarray)
        assert values.ndim == 1
        assert values.shape[0] >= 2
        assert np.isfinite(values).all()

    def test_engine_validation_is_shared(self):
        messages = set()
        with pytest.raises(ValueError) as excinfo:
            resolve_engine("gpu")
        messages.add(str(excinfo.value))
        with pytest.raises(ValueError) as excinfo:
            BSTClassifier(engine="gpu")
        messages.add(str(excinfo.value))
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(engine="gpu")
        messages.add(str(excinfo.value))
        assert len(messages) == 1  # one source of truth, one message

    def test_arithmetization_validation_is_shared(self):
        messages = set()
        for trigger in (
            lambda: BSTClassifier(arithmetization="median"),
            lambda: FastBSTCEvaluator(running_example(), "median"),
            lambda: ExperimentConfig(arithmetization="median"),
        ):
            with pytest.raises(ValueError) as excinfo:
                trigger()
            messages.add(str(excinfo.value))
        assert len(messages) == 1


@st.composite
def batched_datasets(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=2, max_value=3))
    rows = [
        frozenset(j for j in range(m) if draw(st.booleans())) for _ in range(n)
    ]
    labels = [draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(n)]
    ds = RelationalDataset(
        item_names=tuple(f"g{j}" for j in range(m)),
        class_names=tuple(f"c{i}" for i in range(k)),
        samples=tuple(rows),
        labels=tuple(labels),
    )
    n_queries = draw(st.integers(min_value=1, max_value=6))
    queries = [
        frozenset(j for j in range(m) if draw(st.booleans()))
        for _ in range(n_queries)
    ]
    return ds, queries


class TestBatchedKernel:
    @given(batched_datasets())
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_per_query_and_reference(self, case):
        ds, queries = case
        evaluator = FastBSTCEvaluator(ds, "min")
        batch = evaluator.classification_values_batch(queries)
        assert batch.shape == (len(queries), ds.n_classes)
        bsts = build_all_bsts(ds)
        for row, query in zip(batch, queries):
            assert np.array_equal(row, evaluator.classification_values(query))
            for class_id in range(ds.n_classes):
                expected = bstce(bsts[class_id], query, "min")
                assert row[class_id] == pytest.approx(expected, abs=1e-5)

    @given(batched_datasets())
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_per_query_other_arithmetizations(self, case):
        ds, queries = case
        for arith in ("product", "mean"):
            evaluator = FastBSTCEvaluator(ds, arith)
            batch = evaluator.classification_values_batch(queries)
            for row, query in zip(batch, queries):
                assert np.array_equal(
                    row, evaluator.classification_values(query)
                )

    def test_empty_batch(self, example):
        evaluator = FastBSTCEvaluator(example)
        batch = evaluator.classification_values_batch([])
        assert batch.shape == (0, example.n_classes)
        assert BSTClassifier().fit(example).predict_batch([]).shape == (0,)

    def test_two_dimensional_ndarray_input(self, example):
        evaluator = FastBSTCEvaluator(example)
        qmat = example.bool_matrix
        batch = evaluator.classification_values_batch(qmat)
        stacked = np.stack(
            [evaluator.classification_values(row) for row in qmat]
        )
        assert np.array_equal(batch, stacked)

    def test_wrong_width_raises(self, example):
        evaluator = FastBSTCEvaluator(example)
        with pytest.raises(ValueError):
            evaluator.classification_values_batch(
                np.zeros((2, example.n_items + 1), dtype=bool)
            )

    def test_batch_crosses_block_boundary(self):
        """A batch larger than the internal block size still equals the
        per-query path bit for bit (exercises the block loop)."""
        rng = np.random.default_rng(11)
        ds = random_relational(rng, n_samples_range=(8, 12))
        evaluator = FastBSTCEvaluator(ds)
        qmat = rng.random((150, ds.n_items)) < 0.4
        batch = evaluator.classification_values_batch(qmat)
        for i in (0, 63, 64, 101, 149):
            assert np.array_equal(
                batch[i], evaluator.classification_values(qmat[i])
            )

    def test_classifier_batch_engines_agree(self, example):
        fast = BSTClassifier(engine="fast").fit(example)
        ref = BSTClassifier(engine="reference").fit(example)
        queries = list(example.samples) + [Q, frozenset()]
        np.testing.assert_allclose(
            fast.classification_values_batch(queries),
            ref.classification_values_batch(queries),
            atol=1e-5,
        )
        assert (
            fast.predict_batch(queries).tolist()
            == ref.predict_batch(queries).tolist()
        )


class TestEvaluatorCache:
    def setup_method(self):
        clear_evaluator_cache()

    def teardown_method(self):
        clear_evaluator_cache()

    def test_hit_on_identical_content(self, example):
        first = get_evaluator(example, "min")
        # A structurally identical but distinct dataset object hits the cache.
        clone = RelationalDataset(
            item_names=example.item_names,
            class_names=example.class_names,
            samples=example.samples,
            labels=example.labels,
        )
        assert get_evaluator(clone, "min") is first

    def test_miss_on_different_arithmetization(self, example):
        assert get_evaluator(example, "min") is not get_evaluator(example, "mean")

    def test_counters_track_hits_and_misses(self, example):
        counters = engine_counters
        before_hits = counters.get("evaluator_cache_hits")
        before_misses = counters.get("evaluator_cache_misses")
        get_evaluator(example, "min")
        get_evaluator(example, "min")
        assert counters.get("evaluator_cache_misses") == before_misses + 1
        assert counters.get("evaluator_cache_hits") == before_hits + 1

    def test_clear(self, example):
        first = get_evaluator(example, "min")
        clear_evaluator_cache()
        assert evaluator_cache_info()[0] == 0
        assert get_evaluator(example, "min") is not first

    def test_lru_eviction(self):
        rng = np.random.default_rng(5)
        _, capacity = evaluator_cache_info()
        oldest = random_relational(rng)
        first = get_evaluator(oldest, "min")
        for _ in range(capacity):
            get_evaluator(random_relational(rng), "min")
        entries, _ = evaluator_cache_info()
        assert entries == capacity
        # The oldest entry was evicted: fetching it again rebuilds.
        assert get_evaluator(oldest, "min") is not first

    def test_invalid_arithmetization_rejected_before_hashing(self, example):
        with pytest.raises(ValueError):
            get_evaluator(example, "median")

    def test_set_cache_size_shrinks_and_counts_evictions(self):
        rng = np.random.default_rng(7)
        default_capacity = evaluator_cache_info()[1]
        try:
            before = engine_counters.get("evaluator_cache_evictions")
            for _ in range(4):
                get_evaluator(random_relational(rng), "min")
            set_evaluator_cache_size(2)
            entries, capacity = evaluator_cache_info()
            assert (entries, capacity) == (2, 2)
            assert engine_counters.get("evaluator_cache_evictions") == before + 2
        finally:
            set_evaluator_cache_size(default_capacity)

    def test_set_cache_size_rejects_non_positive(self):
        with pytest.raises(ValueError):
            set_evaluator_cache_size(0)

    def test_concurrent_lookups_share_one_entry(self, example):
        import threading

        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def fetch(slot):
            barrier.wait()
            results[slot] = get_evaluator(example, "min")

        threads = [
            threading.Thread(target=fetch, args=(i,)) for i in range(len(results))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All threads resolved to one cached instance and one cache entry.
        assert len({id(r) for r in results}) == 1
        assert evaluator_cache_info()[0] == 1

    def test_fitted_classifiers_share_cached_evaluator(self, example):
        a = BSTClassifier().fit(example)
        b = BSTClassifier().fit(example)
        assert a._fast is b._fast


class TestEngineCounters:
    def test_merge_sums_counts_and_keeps_max(self):
        counters = EngineCounters()
        counters.increment("query_calls", 2)
        counters.observe_max("max_batch_size", 16)
        counters.merge({"query_calls": 3, "max_batch_size": 8, "batch_seconds": 0.5})
        assert counters.get("query_calls") == 5
        assert counters.get("max_batch_size") == 16
        assert counters.get("batch_seconds") == pytest.approx(0.5)

    def test_report_renders_all_entries(self):
        counters = EngineCounters()
        counters.increment("batch_calls")
        counters.add_seconds("batch", 1.25)
        text = counters.report(title="t")
        assert "[t]" in text and "batch_calls" in text and "1.250" in text

    def test_track_records_wall_time(self):
        counters = EngineCounters()
        with counters.track("phase"):
            pass
        assert counters.get("phase_seconds") >= 0.0


class TestParallelCrossValidation:
    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(4, n_tasks=2) == 2
        assert resolve_n_jobs(0) == 1
        assert resolve_n_jobs(-1) >= 1

    def test_make_tests_parallel_identical(self, tiny_profile):
        from repro.datasets.synthetic import generate_expression_data

        data = generate_expression_data(tiny_profile, seed=1)
        size = TrainingSize("60%", fraction=0.6)
        serial = make_tests(data, size, 3, tiny_profile.name, n_jobs=1)
        parallel = make_tests(data, size, 3, tiny_profile.name, n_jobs=2)
        assert len(serial) == len(parallel) == 3
        for s, p in zip(serial, parallel):
            assert s.index == p.index
            np.testing.assert_array_equal(
                s.rel_train.bool_matrix, p.rel_train.bool_matrix
            )
            assert s.rel_train.labels == p.rel_train.labels
            assert s.test_queries == p.test_queries
            assert s.test_labels == p.test_labels

    def test_run_tests_parallel_bit_identical(self, tiny_profile):
        from repro.datasets.synthetic import generate_expression_data

        data = generate_expression_data(tiny_profile, seed=1)
        size = TrainingSize("60%", fraction=0.6)
        tests = make_tests(data, size, 3, tiny_profile.name)
        runner = BSTCRunner()
        serial = run_tests(runner, tests, n_jobs=1)
        parallel = run_tests(runner, tests, n_jobs=2)
        assert len(serial) == len(parallel) == 3
        for s, p in zip(serial, parallel):
            # Everything but wall-clock timing must be bit-identical.
            assert s.classifier == p.classifier
            assert s.size_label == p.size_label
            assert s.test_index == p.test_index
            assert s.accuracy == p.accuracy
            assert s.dnf == p.dnf
            assert s.notes == p.notes

    def test_parallel_merges_worker_counters(self, tiny_profile):
        from repro.datasets.synthetic import generate_expression_data

        data = generate_expression_data(tiny_profile, seed=1)
        size = TrainingSize("60%", fraction=0.6)
        tests = make_tests(data, size, 2, tiny_profile.name)
        before = engine_counters.get("batch_calls")
        run_tests(BSTCRunner(), tests, n_jobs=2)
        assert engine_counters.get("batch_calls") > before


class TestExplainProtocol:
    """``explain`` is a uniform Estimator method: BSTC explains, every
    other model refuses with the typed NotSupportedError (never an
    AttributeError)."""

    def test_bstc_explains(self, example):
        from repro.core.explain import Explanation

        clf = BSTClassifier().fit(example)
        explanation = clf.explain(Q)
        assert isinstance(explanation, Explanation)
        assert explanation.predicted == clf.predict(Q)

    def test_deprecated_aliases_removed(self, example):
        for clf in (
            BSTClassifier().fit(example),
            MCBARClassifier(k=2).fit(example),
            CBAClassifier(min_support=0.2, min_confidence=0.6).fit(example),
        ):
            assert not hasattr(clf, "predict_many")
            assert not hasattr(clf, "predict_dataset")

    def test_mcbar_refuses_typed(self, example):
        from repro.errors import NotSupportedError

        clf = MCBARClassifier(k=2).fit(example)
        with pytest.raises(NotSupportedError, match="explain"):
            clf.explain(Q)

    def test_cba_refuses_typed(self, example):
        from repro.errors import NotSupportedError

        clf = CBAClassifier(min_support=0.2, min_confidence=0.6).fit(example)
        with pytest.raises(NotSupportedError, match="explain"):
            clf.explain(Q)

    def test_not_supported_is_not_implemented(self):
        # Typed refusals still satisfy except NotImplementedError handlers.
        from repro.errors import NotSupportedError, ReproError

        assert issubclass(NotSupportedError, NotImplementedError)
        assert issubclass(NotSupportedError, ReproError)


class TestCLIFlags:
    def test_flags_reach_config(self):
        from repro.cli import _build_parser, _config_from_args

        args = _build_parser().parse_args(
            [
                "run",
                "table3",
                "--engine",
                "reference",
                "--arithmetization",
                "mean",
                "--jobs",
                "2",
            ]
        )
        config = _config_from_args(args)
        assert config.engine == "reference"
        assert config.arithmetization == "mean"
        assert config.n_jobs == 2

    def test_defaults(self):
        from repro.cli import _build_parser, _config_from_args

        args = _build_parser().parse_args(["run", "table3"])
        config = _config_from_args(args)
        assert config.engine == "fast"
        assert config.arithmetization == "min"
        assert config.n_jobs == 1

    def test_invalid_engine_rejected_by_parser(self, capsys):
        from repro.cli import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["run", "table3", "--engine", "gpu"])
        assert "--engine" in capsys.readouterr().err
