"""Compiled evaluation plans: agreement with the Algorithm 5 oracle, the
float32 weight guard, arena structure, the state each arithmetization
derives on first use, and the artifact format version."""

import warnings

import numpy as np
import pytest

from conftest import ORACLE_ATOL, random_relational
from repro.bst.table import build_all_bsts
from repro.core.arithmetization import COMBINERS
from repro.core.artifact import ArtifactError, load_artifact, save_artifact
from repro.core.classifier import BSTClassifier
from repro.core.fast import FastBSTCEvaluator, clear_evaluator_cache
from repro.core import plan as plan_module
from repro.core.plan import ARENA_FIELDS, FLOAT32_EXACT_MAX
from repro.datasets.dataset import RelationalDataset
from repro.evaluation.timing import engine_counters


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_evaluator_cache()
    yield
    clear_evaluator_cache()


def _with_duplicates(rng, n_samples=10, n_items=16, n_classes=3):
    """A random dataset whose outside blocks contain exact-duplicate rows,
    so cells repeat pair values (ties in the ``min`` sweep's order)."""
    while True:
        matrix = rng.random((n_samples, n_items)) < rng.uniform(0.2, 0.7)
        matrix[1] = matrix[0]
        matrix[2] = matrix[0]
        labels = rng.integers(0, n_classes, n_samples)
        labels[0] = labels[1] = labels[2] = 0
        if len(set(labels.tolist())) == n_classes:
            return RelationalDataset.from_bool_matrix(
                matrix,
                labels.tolist(),
                class_names=[f"c{i}" for i in range(n_classes)],
            )


def _oracle(dataset, queries, arithmetization="min"):
    """Algorithm 5 as written (:mod:`repro.core.bstce`) for a boolean query
    matrix."""
    reference = BSTClassifier(arithmetization, engine="reference").fit(dataset)
    return reference.classification_values_batch(
        [frozenset(np.flatnonzero(q).tolist()) for q in queries]
    )


class TestBitIdentity:
    """The compiled plan must agree with the Algorithm 5 oracle at the
    tier-1 tolerance across arithmetizations, batch sizes, sparsity regimes
    and duplicate outside rows — and a single query must equal its batch row
    bit for bit."""

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_random_datasets(self, arithmetization):
        rng = np.random.default_rng(42)
        for _ in range(8):
            dataset = random_relational(rng)
            planned = FastBSTCEvaluator(dataset, arithmetization)
            queries = rng.random((17, dataset.n_items)) < rng.uniform(0.1, 0.7)
            batch = planned.classification_values_batch(queries)
            np.testing.assert_allclose(
                batch, _oracle(dataset, queries, arithmetization),
                atol=ORACLE_ATOL,
            )
            for row, query in zip(batch[:3], queries[:3]):
                assert np.array_equal(
                    planned.classification_values(query), row
                )

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_duplicate_rows(self, arithmetization):
        rng = np.random.default_rng(7)
        for _ in range(5):
            dataset = _with_duplicates(rng)
            planned = FastBSTCEvaluator(dataset, arithmetization)
            queries = rng.random((9, dataset.n_items)) < 0.5
            np.testing.assert_allclose(
                planned.classification_values_batch(queries),
                _oracle(dataset, queries, arithmetization),
                atol=ORACLE_ATOL,
            )

    def test_sparse_serving_queries(self):
        # Wide vocabulary + sparse queries drives the per-query restricted
        # matmul path; a dense batch takes the stacked path.
        rng = np.random.default_rng(3)
        matrix = rng.random((24, 600)) < 0.15
        labels = rng.integers(0, 3, 24)
        labels[:3] = (0, 1, 2)
        dataset = RelationalDataset.from_bool_matrix(
            matrix, labels.tolist(), class_names=["a", "b", "c"]
        )
        planned = FastBSTCEvaluator(dataset)
        sparse = rng.random((32, 600)) < 0.02  # ~12 genes per query
        dense = rng.random((8, 600)) < 0.6
        for queries in (sparse, dense):
            np.testing.assert_allclose(
                planned.classification_values_batch(queries),
                _oracle(dataset, queries),
                atol=ORACLE_ATOL,
            )


class TestDowncastGuards:
    def test_small_data_downcasts(self):
        rng = np.random.default_rng(23)
        dataset = random_relational(rng)
        planned = FastBSTCEvaluator(dataset)
        assert planned.plan.weight_dtype == np.dtype(np.float32)
        assert planned.plan.arena["pair_len"].dtype == np.dtype(np.float32)

    def test_boundary_values_stay_exact_in_float32(self):
        # Every representable pair length at or below 2**24 must survive
        # the downcast exactly.
        lengths = np.array(
            [1, 2, FLOAT32_EXACT_MAX - 1, FLOAT32_EXACT_MAX], dtype=np.float64
        )
        assert np.array_equal(
            lengths.astype(np.float32).astype(np.float64), lengths
        )

    def test_wide_weight_fallback_preserves_large_lengths(self):
        # Pair lengths past 2**24 would silently round in float32; the
        # arena builder must store them in float64 instead, exactly.
        rng = np.random.default_rng(31)
        dataset = random_relational(rng)
        matrix = dataset.bool_matrix
        labels = dataset.label_array
        big = float(FLOAT32_EXACT_MAX) + 3.0  # not float32-representable
        classes, expected = [], []
        for class_id in range(dataset.n_classes):
            member = labels == class_id
            raw, geometry_row, _ = plan_module._cold_class(
                matrix[member], matrix[~member]
            )
            pair_len = raw["pair_len"].astype(np.float64) + big
            raw["pair_len"] = pair_len
            expected.append(pair_len)
            classes.append((raw, geometry_row, float(pair_len.max())))
        before = engine_counters.get("plan_wide_float_fallbacks")
        plan = plan_module._build_arena(classes, dataset.n_items)
        assert plan.weight_dtype == np.dtype(np.float64)
        assert engine_counters.get("plan_wide_float_fallbacks") == before + 1
        for pc, lengths in zip(plan.classes, expected):
            assert np.array_equal(np.asarray(pc.pair_len), lengths)
        # The same values forced through float32 would NOT round-trip —
        # i.e. the narrow dtype really would have been lossy here.
        assert not np.array_equal(
            expected[0].astype(np.float32).astype(np.float64), expected[0]
        )

    @pytest.mark.parametrize("arithmetization", sorted(COMBINERS))
    def test_fused_pair_weights_match_legacy(self, arithmetization):
        # pair_len/pair_neg must encode exactly the exclusion list BST
        # construction (Algorithm 1) materializes for each (c, h) pair:
        # its length, and whether it is the negated form.  An empty list
        # (identical rows) has value 0 in either form, so only its length
        # is pinned.
        rng = np.random.default_rng(37)
        for _ in range(6):
            dataset = random_relational(rng)
            planned = FastBSTCEvaluator(dataset, arithmetization)
            labels = dataset.label_array
            checked = 0
            for bst, pc in zip(build_all_bsts(dataset), planned.plan.classes):
                inside_ids = np.flatnonzero(labels == bst.class_id)
                outside_ids = np.flatnonzero(labels != bst.class_id)
                for i, c in enumerate(inside_ids):
                    for j, h in enumerate(outside_ids):
                        elist = bst.pair_exclusion_list(int(c), int(h))
                        if elist is None:
                            continue  # never materialized: no shared gene
                        assert pc.pair_len[i, j] == len(elist.items)
                        if elist.items:
                            assert bool(pc.pair_neg[i, j]) == elist.negated
                        checked += 1
            assert checked > 0


class TestArenaStructure:
    def test_views_share_arena_memory(self):
        rng = np.random.default_rng(41)
        dataset = random_relational(rng)
        plan = FastBSTCEvaluator(dataset).plan
        for pc in plan.classes:
            if pc is None:
                continue
            for name in ARENA_FIELDS:
                view = getattr(pc, name)
                if view.size:
                    assert np.shares_memory(view, plan.arena[name])

    def test_geometry_covers_every_class(self):
        dataset = RelationalDataset(
            item_names=("a", "b", "c"),
            class_names=("x", "y", "z"),
            samples=(frozenset({0, 1}), frozenset({2})),
            labels=(0, 2),
        )
        plan = FastBSTCEvaluator(dataset).plan
        assert plan.geometry.shape == (3, 2)
        assert plan.classes[1] is None
        assert tuple(plan.geometry[1]) == (0, 0)
        assert tuple(plan.geometry[0]) == (1, 1)

    def test_arena_is_independent_of_arithmetization(self):
        # One arena serves every arithmetization: the min, product and mean
        # plans of a dataset are byte-identical, member by member.
        rng = np.random.default_rng(43)
        dataset = _with_duplicates(rng)
        plans = [
            FastBSTCEvaluator(dataset, arith).plan for arith in sorted(COMBINERS)
        ]
        assert len(ARENA_FIELDS) == 8
        for plan in plans[1:]:
            assert np.array_equal(plan.geometry, plans[0].geometry)
            assert plan.geometry.dtype == plans[0].geometry.dtype
            for name in ARENA_FIELDS:
                assert plan.arena[name].dtype == plans[0].arena[name].dtype
                assert (
                    plan.arena[name].tobytes() == plans[0].arena[name].tobytes()
                ), name


class TestDerivedState:
    """Each arithmetization derives the state it reads from the arena on
    first use; none of it is stored, and a model builds only its own."""

    @staticmethod
    def _query(dataset, evaluator, seed):
        rng = np.random.default_rng(seed)
        queries = rng.random((12, dataset.n_items)) < 0.5
        return evaluator.classification_values_batch(queries)

    def test_min_queries_build_no_gene_lists(self):
        rng = np.random.default_rng(47)
        dataset = _with_duplicates(rng)
        evaluator = FastBSTCEvaluator(dataset, "min")
        self._query(dataset, evaluator, 48)
        for pc in evaluator.plan.classes:
            assert "inside_words" in pc.__dict__  # the sweep ran
            assert "gene_lists" not in pc.__dict__

    @pytest.mark.parametrize("arithmetization", ["product", "mean"])
    def test_memmapped_stream_derives_identical_lists(
        self, arithmetization, tmp_path
    ):
        # A product/mean model loaded from an artifact derives its gene
        # lists from the memory-mapped arena and answers bit-identically
        # to the in-memory evaluator it was saved from.
        rng = np.random.default_rng(49)
        dataset = _with_duplicates(rng, n_samples=14, n_items=24)
        evaluator = FastBSTCEvaluator(dataset, arithmetization)
        path = save_artifact(evaluator, tmp_path / "m.npz")
        loaded = load_artifact(path)
        assert isinstance(loaded.plan.arena["outside"], np.memmap)
        assert all("gene_lists" not in pc.__dict__ for pc in loaded.plan.classes)
        assert np.array_equal(
            self._query(dataset, loaded, 50),
            self._query(dataset, evaluator, 50),
        )
        for pc, ref in zip(loaded.plan.classes, evaluator.plan.classes):
            assert "inside_words" not in pc.__dict__
            for got, want in zip(pc.__dict__["gene_lists"], ref.gene_lists):
                assert got.dtype == want.dtype == np.dtype(np.int64)
                assert np.array_equal(got, want)


class TestArtifactV1Fallback:
    """Older formats (v1 per-class tables, v2 arenas with stored gather
    lists) no longer load; v3 is the one format."""

    def test_v2_round_trip_does_not_warn(self, tmp_path):
        # The current format round-trips without a warning.
        rng = np.random.default_rng(59)
        dataset = random_relational(rng)
        evaluator = FastBSTCEvaluator(dataset)
        path = save_artifact(evaluator, tmp_path / "m3.npz")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            loaded = load_artifact(path)
        assert np.array_equal(loaded.plan.geometry, evaluator.plan.geometry)

    @staticmethod
    def _with_version(path, version, tmp_path):
        """A copy of the artifact at ``path`` claiming ``version``."""
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["meta_format_version"] = np.array(version, dtype=np.int64)
        out = tmp_path / f"v{version}.npz"
        with out.open("wb") as handle:
            np.savez(handle, **arrays)
        return out

    def test_v1_artifact_rejected_with_resave_hint(self, tmp_path):
        # A v1 file in its own layout (metadata, meta_has_table and per-class
        # ``class{c}_{field}`` members, no arena) is refused with a typed
        # error that tells the caller how to recover.
        rng = np.random.default_rng(53)
        dataset = random_relational(rng)
        path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {
                k: npz[k] for k in npz.files
                if k.startswith("meta_") and not k.startswith("meta_plan_")
            }
        arrays["meta_format_version"] = np.array(1, dtype=np.int64)
        arrays["meta_has_table"] = np.ones(dataset.n_classes, dtype=bool)
        labels = dataset.label_array
        for class_id in range(dataset.n_classes):
            member = labels == class_id
            arrays[f"class{class_id}_inside"] = dataset.bool_matrix[member]
            arrays[f"class{class_id}_outside"] = dataset.bool_matrix[~member]
        v1 = tmp_path / "v1.npz"
        with v1.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ArtifactError, match="refit .* re-save"):
            load_artifact(v1)
        assert v1.exists()  # a format error is not corruption

    def test_v2_artifact_rejected_with_resave_hint(self, tmp_path):
        # A v2 file in its own layout (4-column geometry, the culled-refs
        # count and the five gather-list members beside the arena) is
        # refused with the same typed, actionable error as v1.
        rng = np.random.default_rng(61)
        dataset = random_relational(rng)
        evaluator = FastBSTCEvaluator(dataset, "product")
        path = save_artifact(evaluator, tmp_path / "m.npz")
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays["meta_format_version"] = np.array(2, dtype=np.int64)
        arrays["meta_plan_culled_refs"] = np.array(0, dtype=np.int64)
        lists = [pc.gene_lists for pc in evaluator.plan.classes]
        arrays["meta_plan_geometry"] = np.column_stack([
            evaluator.plan.geometry,
            [lst.outside_rows.size for lst in lists],
            [lst.inside_rows.size for lst in lists],
        ])
        v2_members = {
            "outside_counts": [np.diff(lst.outside_offsets) for lst in lists],
            "h_flat": [lst.outside_rows for lst in lists],
            "h_offsets": [lst.outside_offsets[:-1] for lst in lists],
            "inside_rows": [lst.inside_rows for lst in lists],
            "inside_row_offsets": [lst.inside_offsets for lst in lists],
        }
        for name, pieces in v2_members.items():
            arrays[f"arena_{name}"] = np.concatenate(pieces).astype(np.int32)
        v2 = tmp_path / "v2.npz"
        with v2.open("wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(
            ArtifactError, match="format 2 is older .* refit .* re-save"
        ):
            load_artifact(v2)
        assert v2.exists()  # a format error is not corruption

    def test_unknown_format_version_rejected(self, tmp_path):
        rng = np.random.default_rng(67)
        dataset = random_relational(rng)
        path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "x.npz")
        future = self._with_version(path, 4, tmp_path)
        with pytest.raises(ArtifactError, match="format version 4"):
            load_artifact(future)
