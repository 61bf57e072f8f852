"""Multi-tenant registry: hot swap, quotas, and the shared error surface."""

import inspect
import shutil
import threading

import numpy as np
import pytest

import repro.errors as errors_module
from repro.core.artifact import ArtifactCorrupt, ArtifactStale
from repro.core.classifier import BSTClassifier
from repro.errors import (
    ModelNotFound,
    NotSupportedError,
    QuotaExceeded,
    ReproError,
    ServiceClosed,
)
from repro.evaluation.timing import EngineCounters
from repro.serving import (
    ERROR_SURFACE,
    EXIT_CORRUPT,
    EXIT_ERROR,
    EXIT_OVERLOAD,
    EXIT_STALE,
    ModelRegistry,
    ServeConfig,
    error_body,
    exit_code,
    http_status,
)
from repro.testing import corrupt_artifact_member

Q = frozenset({0, 3, 4})


@pytest.fixture
def artifact(tmp_path, example):
    clf = BSTClassifier().fit(example)
    return clf.save(tmp_path / "model.npz")


@pytest.fixture
def registry():
    with ModelRegistry(counters=EngineCounters()) as reg:
        yield reg


class TestDeploy:
    def test_deploy_and_predict(self, registry, artifact, example):
        info = registry.deploy("exp", artifact)
        assert info.version == 1
        assert info.n_classes == example.n_classes
        assert info.fingerprint == example.fingerprint
        assert not info.supports_explain
        expected = BSTClassifier().fit(example).predict(Q)
        assert registry.predict("exp", Q) == expected

    def test_redeploy_bumps_version(self, registry, artifact):
        assert registry.deploy("exp", artifact).version == 1
        assert registry.deploy("exp", artifact).version == 2
        assert registry.model_info("exp").version == 2

    def test_unknown_model(self, registry, artifact):
        registry.deploy("exp", artifact)
        with pytest.raises(ModelNotFound, match="exp"):
            registry.predict("nope", Q)

    def test_bad_names_rejected(self, registry, artifact):
        for name in ("", "a/b", "a:predict"):
            with pytest.raises(ValueError):
                registry.deploy(name, artifact)

    def test_listing_and_membership(self, registry, artifact):
        registry.deploy("b", artifact)
        registry.deploy("a", artifact)
        assert [m.name for m in registry.models()] == ["a", "b"]
        assert len(registry) == 2
        assert "a" in registry and "zz" not in registry

    def test_undeploy_drains(self, registry, artifact):
        registry.deploy("exp", artifact)
        assert registry.undeploy("exp")
        assert not registry.undeploy("exp")
        with pytest.raises(ModelNotFound):
            registry.predict("exp", Q)

    def test_deploy_model_in_memory(self, registry, example):
        clf = BSTClassifier().fit(example)
        info = registry.deploy_model("mem", clf)
        assert info.artifact_path is None
        assert info.supports_explain
        assert registry.predict("mem", Q) == clf.predict(Q)

    def test_closed_registry_refuses(self, artifact):
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy("exp", artifact)
        registry.close()
        registry.close()  # idempotent
        assert registry.closed
        with pytest.raises(ServiceClosed):
            registry.predict("exp", Q)
        with pytest.raises(ServiceClosed):
            registry.deploy("late", artifact)

    def test_health_aggregates_slots(self, registry, artifact):
        registry.deploy("a", artifact)
        registry.deploy("b", artifact)
        health = registry.health()
        assert health.ready
        assert health.state == "serving"
        assert set(health.models) == {"a", "b"}
        assert all(h.ready for h in health.models.values())


class TestHotSwap:
    def test_swap_under_load_loses_nothing(self, tmp_path, example):
        # Hammer one slot from many threads while the main thread hot-swaps
        # it repeatedly.  The registry's retry-on-flip contract means every
        # submission is answered exactly once — no drops, no ServiceClosed
        # leaking to callers, no double answers.
        artifact = BSTClassifier().fit(example).save(tmp_path / "m.npz")
        counters = EngineCounters()
        registry = ModelRegistry(
            ServeConfig(max_batch=4),
            counters=counters,
        )
        registry.deploy("exp", artifact)
        expected = BSTClassifier().fit(example).predict(Q)
        n_threads, per_thread, n_swaps = 8, 25, 10
        answered = [0] * n_threads
        start = threading.Barrier(n_threads + 1)

        def call(slot):
            start.wait()
            for _ in range(per_thread):
                label = registry.predict("exp", Q, timeout=30)
                assert label == expected
                answered[slot] += 1

        threads = [
            threading.Thread(target=call, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        start.wait()
        try:
            for _ in range(n_swaps):
                registry.deploy("exp", artifact)
        finally:
            for t in threads:
                t.join()
            registry.close()
        assert sum(answered) == n_threads * per_thread
        snap = counters.snapshot()
        assert snap["registry_swaps"] == n_swaps
        assert snap["registry_requests"] == n_threads * per_thread
        # Every request the services accepted was answered exactly once.
        assert snap["service_requests"] == n_threads * per_thread

    def test_corrupt_swap_refused_old_model_serves_on(
        self, tmp_path, registry, artifact, example
    ):
        registry.deploy("exp", artifact)
        expected = registry.predict("exp", Q)
        # Build a corrupt replacement and try to swap it in.
        bad = tmp_path / "bad.npz"
        shutil.copy(artifact, bad)
        corrupt_artifact_member(bad, "meta_fingerprint.npy")
        with pytest.raises(ArtifactCorrupt):
            registry.deploy("exp", bad)
        # The refused swap must be a perfect no-op for the live slot.
        info = registry.model_info("exp")
        assert info.version == 1
        assert registry.predict("exp", Q) == expected
        assert registry.health().ready

    def test_stale_swap_refused(self, registry, artifact):
        registry.deploy("exp", artifact)
        with pytest.raises(ArtifactStale):
            registry.deploy("exp", artifact, expected_fingerprint="not-it")
        assert registry.model_info("exp").version == 1


class _Gated:
    """Blocks batch evaluation on an event so requests pile up in flight."""

    def __init__(self, inner):
        self.inner = inner
        self.dataset = inner.dataset
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def classification_values_batch(self, queries):
        self.entered.release()
        self.gate.wait()
        return self.inner.classification_values_batch(queries)


class TestTenantQuota:
    def test_quota_sheds_excess_in_flight(self, example):
        clf = BSTClassifier().fit(example)
        gated = _Gated(clf)
        counters = EngineCounters()
        registry = ModelRegistry(
            ServeConfig(max_batch=1),
            tenant_quota=2,
            counters=counters,
        )
        registry.deploy_model("exp", gated)
        results = []

        def call():
            try:
                results.append(registry.predict("exp", Q, tenant="acme"))
            except QuotaExceeded as exc:
                results.append(exc)

        try:
            first = threading.Thread(target=call)
            first.start()
            assert gated.entered.acquire(timeout=5)  # one wedged in compute
            second = threading.Thread(target=call)
            second.start()
            # Wait for the second lease, then the third must bounce.
            deadline = 50
            while registry.tenants().get("acme", 0) < 2 and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            assert registry.tenants() == {"acme": 2}
            with pytest.raises(QuotaExceeded) as excinfo:
                registry.predict("exp", Q, tenant="acme")
            assert excinfo.value.tenant == "acme"
            # Anonymous and other tenants are unaffected by acme's pile-up.
            gated.gate.set()
            first.join()
            second.join()
        finally:
            gated.gate.set()
            registry.close()
        assert registry.tenants() == {}  # leases released
        assert counters.get("registry_quota_rejections") == 1
        assert sum(1 for r in results if isinstance(r, int)) == 2

    def test_anonymous_tenant_is_exempt(self, registry, example):
        clf = BSTClassifier().fit(example)
        quota_registry = ModelRegistry(
            tenant_quota=1, counters=EngineCounters()
        )
        try:
            quota_registry.deploy_model("exp", clf)
            for _ in range(4):  # far past the quota, sequentially and fine
                quota_registry.predict("exp", Q)
        finally:
            quota_registry.close()


class TestExplainRouting:
    def test_in_memory_model_explains(self, registry, example):
        clf = BSTClassifier().fit(example)
        registry.deploy_model("mem", clf)
        explanation = registry.explain("mem", Q, min_satisfaction=0.5)
        assert explanation.predicted == clf.predict(Q)
        assert explanation.evidence

    def test_artifact_deployment_refuses_explain(self, registry, artifact):
        registry.deploy("exp", artifact)
        with pytest.raises(NotSupportedError, match="artifact"):
            registry.explain("exp", Q)

    def test_item_names_surface(self, registry, example):
        clf = BSTClassifier().fit(example)
        registry.deploy_model("mem", clf)
        assert registry.item_names("mem") == tuple(example.item_names)


class TestErrorSurface:
    """Satellite: the exception tree maps 1:1 onto HTTP statuses and CLI
    exit codes — enumerated class by class, so adding an error type
    without deciding its surface fails here."""

    def test_table_is_exhaustive_over_the_exception_tree(self):
        classes = [
            obj
            for _, obj in inspect.getmembers(errors_module, inspect.isclass)
            if issubclass(obj, ReproError)
        ]
        assert len(classes) > 10  # the tree, not a stub
        for cls in classes:
            # Resolution is by MRO walk: every class must land on a row.
            resolved = next(
                (ERROR_SURFACE[c] for c in cls.__mro__ if c in ERROR_SURFACE),
                None,
            )
            assert resolved is not None, f"{cls.__name__} has no surface row"

    @pytest.mark.parametrize(
        "make,status,code",
        [
            (lambda: errors_module.QueryError("bad"), 400, EXIT_ERROR),
            (lambda: ModelNotFound("m", ("a",)), 404, EXIT_ERROR),
            (lambda: NotSupportedError("no"), 501, EXIT_ERROR),
            (
                lambda: errors_module.ServiceOverloaded(9, 8),
                429,
                EXIT_OVERLOAD,
            ),
            (lambda: QuotaExceeded("t", 2, 2), 429, EXIT_OVERLOAD),
            (lambda: errors_module.CircuitOpen(0.5), 503, EXIT_OVERLOAD),
            (lambda: ServiceClosed("gone"), 503, EXIT_OVERLOAD),
            (
                lambda: errors_module.DeadlineExceeded("late"),
                504,
                EXIT_OVERLOAD,
            ),
            (lambda: errors_module.WorkerCrashed("dead"), 500, EXIT_OVERLOAD),
            (lambda: errors_module.WorkerError("sick"), 500, EXIT_ERROR),
            (
                lambda: ArtifactCorrupt("m.npz", "bad crc"),
                500,
                EXIT_CORRUPT,
            ),
            (lambda: ArtifactStale("old"), 409, EXIT_STALE),
        ],
    )
    def test_status_and_exit_code_rows(self, make, status, code):
        exc = make()
        assert http_status(exc) == status
        assert exit_code(exc) == code
        body = error_body(exc)
        assert body["error"]["type"] == type(exc).__name__
        assert body["error"]["status"] == status
        assert body["error"]["message"]

    def test_exit_codes_are_distinct_and_documented(self):
        assert (EXIT_ERROR, EXIT_CORRUPT, EXIT_STALE, EXIT_OVERLOAD) == (
            2,
            3,
            4,
            5,
        )

    def test_unknown_exception_falls_back_to_500(self):
        assert http_status(RuntimeError("?")) == 500
        assert exit_code(RuntimeError("?")) == EXIT_ERROR

    def test_retry_after_rides_along(self):
        exc = errors_module.CircuitOpen(1.25)
        assert exc.retry_after == 1.25
        assert http_status(exc) == 503


class TestProcessPool:
    def test_pooled_deploy_serves_bit_identical_values(
        self, tmp_path, example
    ):
        clf = BSTClassifier().fit(example)
        artifact = clf.save(tmp_path / "m.npz")
        counters = EngineCounters()
        registry = ModelRegistry(counters=counters)
        try:
            info = registry.deploy(
                "exp", artifact, config=ServeConfig(workers=2)
            )
            assert info.workers == 2
            rng = np.random.default_rng(11)
            queries = [
                rng.random(example.n_items) < 0.4 for _ in range(12)
            ]
            served = np.stack(
                [
                    registry.classification_values("exp", q)
                    for q in queries
                ]
            )
        finally:
            registry.close()
        direct = clf.classification_values_batch(np.stack(queries))
        assert np.array_equal(served, direct)
