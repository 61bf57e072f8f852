"""HTTP gateway tests: a live stdlib server against a live registry."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.classifier import BSTClassifier
from repro.evaluation.timing import EngineCounters
from repro.serving import GatewayServer, ModelRegistry, ServeConfig
from repro.serving.surface import ERROR_SURFACE

Q_ITEMS = [0, 3, 4]


@pytest.fixture
def gateway(tmp_path, example):
    clf = BSTClassifier().fit(example)
    artifact = clf.save(tmp_path / "model.npz")
    registry = ModelRegistry(
        ServeConfig(),
        tenant_quota=4,
        counters=EngineCounters(),
    )
    registry.deploy("exp", artifact)
    registry.deploy_model("mem", clf)
    with GatewayServer(registry) as server:
        yield server
    registry.close()


def _request(url, body=None, headers=None):
    """(status, parsed-json) for a GET, or a POST when body is given."""
    data = json.dumps(body).encode() if body is not None else None
    all_headers = {"Content-Type": "application/json"} if data else {}
    all_headers.update(headers or {})
    request = urllib.request.Request(url, data=data, headers=all_headers)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutes:
    def test_health_ready(self, gateway):
        status, payload = _request(f"{gateway.url}/health")
        assert status == 200
        assert payload["ready"]
        assert set(payload["models"]) == {"exp", "mem"}
        assert payload["models"]["exp"]["state"] == "serving"

    def test_models_listing(self, gateway):
        status, payload = _request(f"{gateway.url}/v1/models")
        assert status == 200
        names = [m["name"] for m in payload["models"]]
        assert names == ["exp", "mem"]
        status, one = _request(f"{gateway.url}/v1/models/exp")
        assert status == 200
        assert one["version"] == 1
        assert one["supports_explain"] is False

    def test_predict_items(self, gateway, example):
        expected = BSTClassifier().fit(example).predict(frozenset(Q_ITEMS))
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert status == 200
        assert payload["prediction"] == expected
        assert payload["class_name"] == example.class_names[expected]
        assert len(payload["values"]) == example.n_classes
        assert payload["model"] == "exp"

    def test_predict_vector(self, gateway, example):
        vector = [0.0] * example.n_items
        for i in Q_ITEMS:
            vector[i] = 1.0
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"vector": vector}
        )
        assert status == 200
        _, by_items = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert payload["values"] == by_items["values"]

    def test_predict_with_tenant_and_deadline(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"items": Q_ITEMS, "tenant": "acme", "deadline_ms": 5000},
        )
        assert status == 200
        assert "prediction" in payload

    def test_explain_in_memory_model(self, gateway, example):
        status, payload = _request(
            f"{gateway.url}/v1/models/mem:explain",
            {"items": Q_ITEMS, "min_satisfaction": 0.5},
        )
        assert status == 200
        assert payload["prediction"] == 0
        assert payload["evidence"]
        first = payload["evidence"][0]
        assert first["gene_name"] in example.item_names
        assert "rule" in first and first["rule"]

    def test_concurrent_requests_coalesce(self, gateway, example):
        import concurrent.futures

        def hit(_):
            return _request(
                f"{gateway.url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(hit, range(24)))
        assert all(status == 200 for status, _ in results)
        values = {tuple(payload["values"]) for _, payload in results}
        assert len(values) == 1  # identical answers


class TestErrorMapping:
    def test_unknown_model_is_404(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/nope:predict", {"items": Q_ITEMS}
        )
        assert status == 404
        assert payload["error"]["type"] == "ModelNotFound"

    def test_bad_query_is_400(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {"items": "zero"}
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_both_vector_and_items_is_400(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"items": Q_ITEMS, "vector": [0.0]},
        )
        assert status == 400
        assert "exactly one" in payload["error"]["message"]

    def test_wrong_length_vector_is_400(self, gateway, example):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"vector": [1.0] * (example.n_items + 5)},
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_explain_artifact_model_is_501(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:explain", {"items": Q_ITEMS}
        )
        assert status == 501
        assert payload["error"]["type"] == "NotSupportedError"

    def test_empty_body_is_400(self, gateway):
        status, payload = _request(
            f"{gateway.url}/v1/models/exp:predict", {}
        )
        assert status == 400

    def test_unknown_route_is_404(self, gateway):
        status, payload = _request(f"{gateway.url}/nope")
        assert status == 404
        assert payload["error"]["type"] == "NotFound"

    def test_quota_exceeded_is_429_with_error_body(self, gateway):
        # The fixture quota is 4 concurrent; sequential requests never
        # trip it, so assert the mapping directly through a wedged slot
        # is covered in test_registry — here we just confirm a tenant
        # rides through unharmed.
        status, _ = _request(
            f"{gateway.url}/v1/models/exp:predict",
            {"items": Q_ITEMS, "tenant": "t"},
        )
        assert status == 200


class TestQueryContract:
    """Over HTTP the one query parser judges the body as sent: nothing is
    coerced, and anything it cannot interpret is a 400 ``QueryError``."""

    @pytest.mark.parametrize(
        "body",
        [
            {"items": [1.9, 2.2]},
            {"items": ["1", "2"]},
            {"items": [True, 2]},
            {"vector": [0.2, 0, 0, 1, 1, 0]},
            {"vector": [-3.0, 0, 0, 1, 1, 0]},
        ],
        ids=["float-items", "string-items", "bool-items", "fraction", "negative"],
    )
    def test_uninterpretable_query_is_400(self, gateway, body):
        status, payload = _request(f"{gateway.url}/v1/models/exp:predict", body)
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    @pytest.mark.parametrize("items", [[0, 3, 99], [-1, 3]])
    def test_explain_validates_the_query(self, gateway, items):
        status, payload = _request(
            f"{gateway.url}/v1/models/mem:explain", {"items": items}
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_every_valid_form_gives_identical_bits(self, gateway, example):
        vector = [0.0] * example.n_items
        for i in Q_ITEMS:
            vector[i] = 1.0
        answers = [
            _request(f"{gateway.url}/v1/models/exp:predict", body)
            for body in (
                {"items": Q_ITEMS},
                {"vector": vector},
                {"vector": [bool(v) for v in vector]},
            )
        ]
        assert [status for status, _ in answers] == [200, 200, 200]
        assert all(p["values"] == [0.75, 0.375] for _, p in answers)

    @pytest.mark.parametrize(
        "verb, field, value",
        [
            ("predict", "deadline_ms", "nan"),
            ("predict", "deadline_ms", True),
            ("predict", "deadline_ms", float("nan")),
            ("predict", "deadline_ms", -5),
            ("predict", "tenant", 5),
            ("explain", "class_id", "3"),
            ("explain", "class_id", 1.0),
            ("explain", "class_id", 99),
            ("explain", "limit", -1),
            ("explain", "min_satisfaction", float("inf")),
        ],
    )
    def test_scalar_fields_are_strictly_typed(self, gateway, verb, field, value):
        status, payload = _request(
            f"{gateway.url}/v1/models/mem:{verb}",
            {"items": Q_ITEMS, field: value},
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"
        assert field in payload["error"]["message"]


#: Elements the fuzzer mixes into ``items``/``vector`` arrays.
_JSON_SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=9),
    st.sampled_from([0, 1, 0.0, 1.0, True, False, 0.2, -3.0, 2**70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1", "", None]),
)
_JSON_ELEMENTS = st.one_of(
    _JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2), st.just({})
)
_FUZZ_BODY_LIMIT = 2048


def _contract_query(body, n_items):
    """The canonical item set the contract accepts ``body`` as, or None —
    written independently of the parser, from the contract's wording."""
    keys = {"items", "vector"} & set(body)
    if len(keys) != 1:
        return None
    key = keys.pop()
    value = body[key]
    if not isinstance(value, list):
        return None
    if key == "items":
        if all(type(v) is int and 0 <= v < n_items for v in value):
            return frozenset(value)
        return None
    if len(value) == n_items and all(
        type(v) in (int, float, bool) and v in (0, 1) for v in value
    ):
        return frozenset(i for i, v in enumerate(value) if v)
    return None


class TestQueryBoundaryFuzz:
    def test_every_body_is_answered_or_rejected_by_the_contract(
        self, example
    ):
        clf = BSTClassifier().fit(example)
        registry = ModelRegistry(
            ServeConfig(), counters=EngineCounters()
        )
        registry.deploy_model("mem", clf)
        statuses = {
            klass.__name__: status for klass, (status, _) in ERROR_SURFACE.items()
        }
        n = example.n_items
        key_sets = st.sampled_from([("items",), ("vector",), ("items", "vector"), ()])
        arrays = st.one_of(
            st.lists(st.integers(min_value=-1, max_value=n), max_size=8),
            st.lists(st.sampled_from([0, 1, 0.0, 1.0, True, False]),
                     min_size=n, max_size=n),
            st.lists(_JSON_ELEMENTS, max_size=n + 2),
            _JSON_SCALARS,
        )
        try:
            with GatewayServer(
                registry, max_body_bytes=_FUZZ_BODY_LIMIT
            ) as server:

                @given(
                    verb=st.sampled_from(["predict", "explain"]),
                    keys=key_sets,
                    payloads=st.tuples(arrays, arrays),
                    pad=st.one_of(
                        st.just(0), st.integers(0, 2 * _FUZZ_BODY_LIMIT)
                    ),
                )
                @settings(max_examples=150, deadline=None)
                def probe(verb, keys, payloads, pad):
                    body = dict(zip(keys, payloads))
                    if pad:
                        body["pad"] = "x" * pad
                    raw = json.dumps(body).encode()
                    status, payload = _request(
                        f"{server.url}/v1/models/mem:{verb}", body
                    )
                    query = _contract_query(body, n)
                    if len(raw) > _FUZZ_BODY_LIMIT:
                        query = None
                    event(f"HTTP {status}")
                    if query is None:
                        assert 400 <= status < 500, (status, payload)
                        error = payload["error"]
                        assert statuses[error["type"]] == status
                        assert error["status"] == status
                        return
                    assert status == 200, (body, payload)
                    values = payload["values" if verb == "predict"
                                     else "class_values"]
                    assert values == clf.classification_values(query).tolist()

                probe()
        finally:
            registry.close()


class TestLifecycle:
    def test_ephemeral_port_and_url(self, gateway):
        assert gateway.port > 0
        assert gateway.url.startswith("http://127.0.0.1:")

    def test_close_never_served_does_not_hang(self, example):
        registry = ModelRegistry(counters=EngineCounters())
        server = GatewayServer(registry)
        server.close()  # never started: must return, not hang
        registry.close()

    def test_close_releases_port(self, example):
        registry = ModelRegistry(counters=EngineCounters())
        server = GatewayServer(registry).start()
        port = server.port
        server.close()
        # The port is free again: a new server can bind it.
        rebound = GatewayServer(registry, port=port)
        rebound.close()
        registry.close()

    def test_health_degrades_after_registry_close(self, example):
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy_model("mem", BSTClassifier().fit(example))
        with GatewayServer(registry) as server:
            status, _ = _request(f"{server.url}/health")
            assert status == 200
            registry.close()
            status, payload = _request(f"{server.url}/health")
            assert status == 503
            assert payload["state"] == "closed"

    def test_swap_visible_through_gateway(self, tmp_path, example):
        artifact = BSTClassifier().fit(example).save(tmp_path / "m.npz")
        registry = ModelRegistry(counters=EngineCounters())
        registry.deploy("exp", artifact)
        with GatewayServer(registry) as server:
            _, before = _request(f"{server.url}/v1/models/exp")
            registry.deploy("exp", artifact)  # hot swap
            _, after = _request(f"{server.url}/v1/models/exp")
            status, payload = _request(
                f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )
        registry.close()
        assert before["version"] == 1
        assert after["version"] == 2
        assert status == 200
        assert payload["version"] == 2


ADMIN_TOKEN = "test-admin-token"


@pytest.fixture
def admin_gateway(tmp_path, example):
    """An admin-enabled gateway over one artifact-backed slot, yielding
    (server, artifact path, state-file path)."""
    artifact = BSTClassifier().fit(example).save(tmp_path / "model.npz")
    registry = ModelRegistry(ServeConfig(), counters=EngineCounters())
    registry.deploy("exp", artifact)
    state_file = tmp_path / "state.json"
    server = GatewayServer(
        registry, admin_token=ADMIN_TOKEN, state_file=state_file
    )
    with server:
        yield server, artifact, state_file
    registry.close()


def _bearer(token):
    return {"Authorization": f"Bearer {token}"}


class TestAdminPlane:
    def test_disabled_without_token_is_403(self, gateway):
        # The plain fixture configures no admin token: the whole admin
        # plane answers 403 regardless of what the client presents.
        status, payload = _request(
            f"{gateway.url}/admin/v1/counters",
            headers=_bearer("anything"),
        )
        assert status == 403
        assert payload["error"]["type"] == "AdminDisabled"

    def test_missing_or_wrong_token_is_401(self, admin_gateway):
        server, _, _ = admin_gateway
        status, payload = _request(f"{server.url}/admin/v1/counters")
        assert status == 401
        assert payload["error"]["type"] == "AdminAuthError"
        status, _ = _request(
            f"{server.url}/admin/v1/counters", headers=_bearer("wrong")
        )
        assert status == 401

    def test_both_auth_header_forms_accepted(self, admin_gateway):
        server, _, _ = admin_gateway
        status, payload = _request(
            f"{server.url}/admin/v1/counters",
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 200
        # Only touched counters appear; the fixture's deploy is one.
        assert payload["counters"].get("registry_deploys") == 1.0
        status, via_header = _request(
            f"{server.url}/admin/v1/counters",
            headers={"X-Admin-Token": ADMIN_TOKEN},
        )
        assert status == 200
        assert set(via_header["counters"]) == set(payload["counters"])

    def test_counters_reflect_served_traffic(self, admin_gateway):
        server, _, _ = admin_gateway
        _, before = _request(
            f"{server.url}/admin/v1/counters", headers=_bearer(ADMIN_TOKEN)
        )
        status, _ = _request(
            f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert status == 200
        _, after = _request(
            f"{server.url}/admin/v1/counters", headers=_bearer(ADMIN_TOKEN)
        )
        delta = after["counters"]["registry_requests"] - before[
            "counters"
        ].get("registry_requests", 0)
        assert delta == 1

    def test_deploy_bumps_version_and_persists_state(self, admin_gateway):
        from repro.serving import read_state_file

        server, artifact, state_file = admin_gateway
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:deploy",
            {"artifact": str(artifact)},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 200
        assert payload["deployed"]["version"] == 2
        assert read_state_file(state_file) == {"exp": str(artifact)}
        status, model = _request(f"{server.url}/v1/models/exp")
        assert status == 200
        assert model["version"] == 2

    def test_deploy_requires_artifact_path(self, admin_gateway):
        server, _, _ = admin_gateway
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:deploy",
            {"artifact": 7},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 400
        assert payload["error"]["type"] == "QueryError"

    def test_corrupt_deploy_refused_old_model_serves(
        self, admin_gateway, tmp_path, example
    ):
        from repro.testing.faults import corrupt_artifact_member

        server, _, _ = admin_gateway
        bad = BSTClassifier().fit(example).save(tmp_path / "bad.npz")
        corrupt_artifact_member(bad, "arena_inside_f.npy")
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:deploy",
            {"artifact": str(bad)},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status >= 400
        assert "Artifact" in payload["error"]["type"]
        # The refused swap never touched the serving slot.
        status, model = _request(f"{server.url}/v1/models/exp")
        assert status == 200
        assert model["version"] == 1
        status, _ = _request(
            f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
        )
        assert status == 200

    def test_refresh_retrains_from_relational_json(
        self, admin_gateway, tmp_path, example
    ):
        from repro.datasets.io import save_relational_json

        server, _, _ = admin_gateway
        train = tmp_path / "train.json"
        save_relational_json(example, train)
        status, payload = _request(
            f"{server.url}/admin/v1/models/exp:refresh",
            {"train": str(train)},
            headers=_bearer(ADMIN_TOKEN),
        )
        assert status == 200, payload
        assert payload["deployed"]["version"] == 2

    def test_hot_swap_under_load_is_lossless(self, admin_gateway):
        import concurrent.futures

        server, artifact, _ = admin_gateway

        def hit(_):
            return _request(
                f"{server.url}/v1/models/exp:predict", {"items": Q_ITEMS}
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(hit, i) for i in range(48)]
            status, _ = _request(
                f"{server.url}/admin/v1/models/exp:deploy",
                {"artifact": str(artifact)},
                headers=_bearer(ADMIN_TOKEN),
            )
            assert status == 200
            results = [f.result() for f in futures]
        # Parity with the in-process deploy guarantee: no request is
        # dropped or errored by a swap racing the data plane.
        assert all(code == 200 for code, _ in results)
        assert {payload["version"] for _, payload in results} <= {1, 2}
