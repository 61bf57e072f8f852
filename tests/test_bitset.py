"""Packed-bitset kernel tests: randomized frozenset cross-checks and the
bit-identity equivalence suite.

Part 1 drives :class:`~repro.core.bitset.BitSet` /
:class:`~repro.core.bitset.BitMatrix` through hundreds of random universes
(including the empty universe, single-word, word-boundary and multi-word
sizes, plus all-ones and empty sets) and asserts every operation agrees
with the obvious frozenset/bool-array reference.

Part 2 embeds the historical frozenset implementations of the support-set
consumers (closure, support-of-itemset, the Algorithm 3/4 miners, the
exclusion accounting) and asserts the packed substrate reproduces their
outputs *bit-identically* — mined rule lists order included, explanation
and describe strings character for character, and predictions — on the
running example and a synthetic expression profile.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

import numpy as np
import pytest

from repro.baselines.charm import charm_closed_itemsets
from repro.core.bitset import (
    BitMatrix,
    BitSet,
    flush_kernel_counters,
    kernel_stats_snapshot,
)
from repro.core.classifier import BSTClassifier
from repro.core.explain import explain_classification
from repro.bst.mining import closure_bits, mine_mcmcbar, mine_mcmcbar_per_sample
from repro.bst.table import BST
from repro.datasets.dataset import RelationalDataset, running_example
from repro.datasets.discretize import EntropyDiscretizer
from repro.datasets.synthetic import generate_expression_data
from repro.evaluation.timing import EngineCounters
from repro.rules.car import CAR
from repro.rules.groups import closure_of_rows

from conftest import random_relational


# Universe sizes that exercise zero words, partial words, exact word
# boundaries, and multi-word tails.
EDGE_UNIVERSES = (0, 1, 2, 63, 64, 65, 127, 128, 129, 192, 300)


def _random_indices(rng: np.random.Generator, universe: int) -> FrozenSet[int]:
    if universe == 0:
        return frozenset()
    density = rng.uniform(0.0, 1.0)
    mask = rng.random(universe) < density
    return frozenset(int(i) for i in np.flatnonzero(mask))


def _universe(rng: np.random.Generator) -> int:
    if rng.random() < 0.3:
        return int(rng.choice(EDGE_UNIVERSES))
    return int(rng.integers(0, 260))


class TestBitSetRandomized:
    """500+ random (universe, set, set) trials against frozensets."""

    def test_binary_ops_match_frozenset(self):
        rng = np.random.default_rng(20260806)
        for trial in range(260):
            n = _universe(rng)
            fa, fb = _random_indices(rng, n), _random_indices(rng, n)
            a, b = BitSet.from_indices(n, fa), BitSet.from_indices(n, fb)
            full = frozenset(range(n))
            assert (a & b).to_frozenset() == fa & fb
            assert (a | b).to_frozenset() == fa | fb
            assert (a ^ b).to_frozenset() == fa ^ fb
            assert (a - b).to_frozenset() == fa - fb
            assert (~a).to_frozenset() == full - fa
            assert a.complement().to_frozenset() == full - fa
            assert a.count() == len(fa)
            assert len(b) == len(fb)
            assert bool(a) == bool(fa)
            assert a.issubset(b) == (fa <= fb)
            assert (a <= b) == (fa <= fb)
            assert (a < b) == (fa < fb)
            assert (a >= b) == (fa >= fb)
            assert (a > b) == (fa > fb)
            assert a.isdisjoint(b) == fa.isdisjoint(fb)
            assert a.intersection_count(b) == len(fa & fb)
            assert (a == b) == (fa == fb)
            if fa == fb:
                assert hash(a) == hash(b)

    def test_members_iteration_and_contains(self):
        rng = np.random.default_rng(7)
        for trial in range(130):
            n = _universe(rng)
            fa = _random_indices(rng, n)
            a = BitSet.from_indices(n, fa)
            assert a.members() == tuple(sorted(fa))
            assert list(a) == sorted(fa)
            assert a.to_frozenset() == fa
            assert np.array_equal(a.members_array(), np.array(sorted(fa)))
            probe = set(rng.integers(0, max(n, 1), 5).tolist()) | set(fa)
            for index in probe:
                if index < n:
                    assert (index in a) == (index in fa)
            bools = a.to_bool()
            assert bools.shape == (n,)
            assert frozenset(np.flatnonzero(bools).tolist()) == fa
            assert BitSet.from_bool(bools) == a

    def test_constructors_match_reference(self):
        rng = np.random.default_rng(99)
        for trial in range(110):
            n = _universe(rng)
            assert BitSet.empty(n).to_frozenset() == frozenset()
            assert BitSet.full(n).to_frozenset() == frozenset(range(n))
            assert BitSet.full(n).count() == n
            stop = int(rng.integers(0, n + 1))
            assert BitSet.from_range(n, stop).to_frozenset() == frozenset(
                range(stop)
            )
            if n:
                index = int(rng.integers(0, n))
                single = BitSet.single(n, index)
                assert single.to_frozenset() == frozenset((index,))
                grown = BitSet.empty(n).add(index)
                assert grown == single
                fa = _random_indices(rng, n)
                a = BitSet.from_indices(n, fa)
                assert a.add(index).to_frozenset() == fa | {index}

    def test_empty_universe_edge_cases(self):
        zero = BitSet.empty(0)
        assert zero.to_frozenset() == frozenset()
        assert zero.count() == 0 and not zero
        assert (~zero) == zero == BitSet.full(0)
        assert zero.issubset(zero) and zero.isdisjoint(zero)
        assert BitMatrix.from_bool(np.zeros((0, 0), dtype=bool)).n_rows == 0

    def test_all_ones_edge_cases(self):
        for n in EDGE_UNIVERSES:
            ones = BitSet.full(n)
            assert (~ones).to_frozenset() == frozenset()
            assert (ones & ones) == ones and (ones | ones) == ones
            assert (ones ^ ones) == BitSet.empty(n)
            assert ones.count() == n
            # Tail-bit invariant: complements never leak bits past n.
            assert (~BitSet.empty(n)).count() == n

    def test_universe_mismatch_rejected(self):
        a, b = BitSet.empty(64), BitSet.empty(65)
        with pytest.raises(ValueError):
            _ = a & b
        with pytest.raises(ValueError):
            a.issubset(b)


class TestBitMatrixRandomized:
    def test_roundtrip_rows_and_reductions(self):
        rng = np.random.default_rng(1234)
        for trial in range(90):
            n_rows = int(rng.integers(0, 12))
            n_cols = _universe(rng)
            dense = rng.random((n_rows, n_cols)) < rng.uniform(0.2, 0.9)
            matrix = BitMatrix.from_bool(dense)
            assert matrix.n_rows == n_rows and matrix.n_cols == n_cols
            assert np.array_equal(matrix.to_bool(), dense)
            for i in range(n_rows):
                assert matrix.row(i).to_frozenset() == frozenset(
                    np.flatnonzero(dense[i]).tolist()
                )
            assert np.array_equal(
                matrix.row_counts(), dense.sum(axis=1).astype(np.int64)
            )
            assert np.array_equal(matrix.transpose().to_bool(), dense.T)

            selection = [
                i for i in range(n_rows) if rng.random() < 0.5
            ]
            expected_and = frozenset(range(n_cols))
            expected_or: FrozenSet[int] = frozenset()
            for i in selection:
                row = frozenset(np.flatnonzero(dense[i]).tolist())
                expected_and = expected_and & row
                expected_or = expected_or | row
            assert matrix.reduce_and(selection).to_frozenset() == expected_and
            assert matrix.reduce_or(selection).to_frozenset() == expected_or
            # BitSet selections reduce identically to index lists.
            picked = BitSet.from_indices(n_rows, selection)
            assert matrix.reduce_and(picked).to_frozenset() == expected_and

    def test_reduce_and_empty_selection_is_intersection_identity(self):
        matrix = BitMatrix.from_bool(np.zeros((3, 70), dtype=bool))
        assert matrix.reduce_and([]) == BitSet.full(70)
        assert matrix.reduce_or([]) == BitSet.empty(70)

    def test_from_sets_matches_from_bool(self):
        rng = np.random.default_rng(55)
        for trial in range(40):
            n_cols = _universe(rng)
            sets = [
                _random_indices(rng, n_cols) for _ in range(int(rng.integers(0, 7)))
            ]
            dense = np.zeros((len(sets), n_cols), dtype=bool)
            for i, items in enumerate(sets):
                dense[i, sorted(items)] = True
            assert np.array_equal(
                BitMatrix.from_sets(sets, n_cols).to_bool(), dense
            )


class TestKernelCounters:
    def test_ops_are_tallied_and_flushed(self):
        flush_kernel_counters(EngineCounters())  # drain prior state
        a = BitSet.from_indices(70, (1, 64))
        b = BitSet.from_indices(70, (1, 5))
        _ = (a & b).count()
        snap = kernel_stats_snapshot()
        assert snap["bitset_set_ops"] >= 1
        assert snap["bitset_popcounts"] >= 1
        sink = EngineCounters()
        flush_kernel_counters(sink)
        assert sink.get("bitset_set_ops") >= 1
        assert kernel_stats_snapshot()["bitset_set_ops"] == 0


# ----------------------------------------------------------------------
# Part 2: bit-identity against the historical frozenset implementation
# ----------------------------------------------------------------------


def _ref_closure(bst: BST, support: FrozenSet[int]) -> FrozenSet[int]:
    """The pre-bitset closure: pairwise frozenset intersection."""
    ds = bst.dataset
    result: Optional[FrozenSet[int]] = None
    for s in support:
        items = ds.samples[s]
        result = items if result is None else result & items
        if not result:
            break
    return result if result is not None else frozenset()


def _ref_excluded_count(bst: BST, car_items: FrozenSet[int]) -> int:
    ds = bst.dataset
    return sum(1 for h in bst.outside if car_items <= ds.samples[h])


def _ref_support_of_itemset(
    dataset: RelationalDataset, itemset
) -> FrozenSet[int]:
    return frozenset(
        i
        for i in range(dataset.n_samples)
        if set(itemset) <= dataset.samples[i]
    )


def _ref_order_key(
    bst: BST, support: FrozenSet[int], break_ties_by_confidence: bool
) -> Tuple:
    if break_ties_by_confidence:
        excluded = _ref_excluded_count(bst, _ref_closure(bst, support))
        return (-len(support), excluded, tuple(sorted(support)))
    return (-len(support), tuple(sorted(support)))


def _ref_mine_mcmcbar(
    bst: BST,
    k: int,
    break_ties_by_confidence: bool = False,
    must_contain: Optional[int] = None,
) -> List[Tuple[FrozenSet[int], int, FrozenSet[int]]]:
    """The historical frozenset Algorithm 3, emitting result tuples."""
    if k <= 0:
        return []

    def admissible(support: FrozenSet[int]) -> bool:
        if not support:
            return False
        if must_contain is not None and must_contain not in support:
            return False
        return True

    candidates: Set[FrozenSet[int]] = set()
    for gene in bst.nonblank_genes():
        support = bst.row_support(gene)
        if admissible(support):
            candidates.add(support)

    rules: List[Tuple[FrozenSet[int], int, FrozenSet[int]]] = []
    rule_supports: List[FrozenSet[int]] = []
    emitted: Set[FrozenSet[int]] = set()
    while candidates and len(rules) < k:
        best = max(len(s) for s in candidates)
        batch = sorted(
            (s for s in candidates if len(s) == best),
            key=lambda s: _ref_order_key(bst, s, break_ties_by_confidence),
        )
        for support in batch:
            if len(rules) >= k:
                break
            rules.append((_ref_closure(bst, support), bst.class_id, support))
            rule_supports.append(support)
            emitted.add(support)
        new_supports: Set[FrozenSet[int]] = set()
        for s1 in batch:
            for s2 in rule_supports:
                meet = s1 & s2
                if admissible(meet) and meet not in emitted:
                    new_supports.add(meet)
        candidates = {s for s in candidates if s not in emitted} | new_supports
    return rules


def _ref_mine_per_sample(
    bst: BST, k: int
) -> List[Tuple[FrozenSet[int], int, FrozenSet[int]]]:
    merged = {}
    for c in bst.columns:
        for rule in _ref_mine_mcmcbar(bst, k, must_contain=c):
            merged.setdefault(rule[2], rule)
    return sorted(
        merged.values(), key=lambda r: (-len(r[2]), tuple(sorted(r[2])))
    )


def _synthetic_relational(seed: int = 0) -> RelationalDataset:
    from repro.datasets.profiles import DatasetProfile

    profile = DatasetProfile(
        name="EQ",
        long_name="Equivalence synthetic",
        n_genes=50,
        class_labels=("pos", "neg"),
        class_counts=(10, 9),
        given_training=(6, 5),
        informative_fraction=0.3,
        effect_size=2.0,
    )
    data = generate_expression_data(profile, seed=seed)
    return EntropyDiscretizer().fit(data).transform(data)


@pytest.fixture(scope="module")
def equivalence_datasets():
    return [running_example(), _synthetic_relational()]


class TestFrozensetEquivalence:
    """The ISSUE acceptance gate: packed substrate == frozenset reference,
    bit for bit, on the running example and a synthetic profile."""

    def test_support_and_closure_identical(self, equivalence_datasets):
        for ds in equivalence_datasets:
            for i in range(ds.n_samples):
                itemset = ds.samples[i]
                assert ds.support_of_itemset(itemset) == _ref_support_of_itemset(
                    ds, itemset
                )
            assert ds.support_of_itemset(()) == frozenset(range(ds.n_samples))
            rows = frozenset(range(0, ds.n_samples, 2))
            reference = None
            for r in rows:
                reference = (
                    ds.samples[r] if reference is None else reference & ds.samples[r]
                )
            assert closure_of_rows(ds, rows) == (reference or frozenset())
            assert closure_of_rows(ds, frozenset()) == frozenset()

    def test_car_support_confidence_identical(self, equivalence_datasets):
        for ds in equivalence_datasets:
            for class_id in range(ds.n_classes):
                for i in list(ds.class_members(class_id))[:4]:
                    car = CAR(frozenset(list(ds.samples[i])[:3]), class_id)
                    matching = _ref_support_of_itemset(ds, car.antecedent)
                    members = frozenset(ds.class_members(class_id))
                    assert car.all_matching(ds) == matching
                    assert car.support_set(ds) == matching & members
                    assert car.support(ds) == len(matching & members)
                    expected_conf = (
                        len(matching & members) / len(matching)
                        if matching
                        else 0.0
                    )
                    assert car.confidence(ds) == pytest.approx(expected_conf)

    def test_mined_rule_lists_identical_order_included(
        self, equivalence_datasets
    ):
        for ds in equivalence_datasets:
            for class_id in range(ds.n_classes):
                bst = BST.build(ds, class_id)
                for tie_break in (False, True):
                    mined = mine_mcmcbar(
                        bst, k=8, break_ties_by_confidence=tie_break
                    )
                    reference = _ref_mine_mcmcbar(
                        bst, k=8, break_ties_by_confidence=tie_break
                    )
                    assert [
                        (r.car_items, r.consequent, r.support) for r in mined
                    ] == reference
                mined_ps = mine_mcmcbar_per_sample(bst, k=3)
                assert [
                    (r.car_items, r.consequent, r.support) for r in mined_ps
                ] == _ref_mine_per_sample(bst, k=3)

    def test_closure_bits_matches_reference(self, equivalence_datasets):
        rng = np.random.default_rng(3)
        for ds in equivalence_datasets:
            bst = BST.build(ds, 0)
            for trial in range(20):
                support = frozenset(
                    int(i)
                    for i in np.flatnonzero(rng.random(ds.n_samples) < 0.4)
                )
                packed = BitSet.from_indices(ds.n_samples, support)
                assert closure_bits(bst, packed).to_frozenset() == _ref_closure(
                    bst, support
                )

    def test_describe_and_explanation_strings_identical(
        self, equivalence_datasets
    ):
        for ds in equivalence_datasets:
            for class_id in range(ds.n_classes):
                bst = BST.build(ds, class_id)
                for rule in mine_mcmcbar(bst, k=4):
                    # The string reference rebuilt from pure frozensets.
                    items = ",".join(
                        ds.item_names[i] for i in sorted(rule.car_items)
                    )
                    supp = ",".join(
                        ds.sample_name(s) for s in sorted(rule.support)
                    )
                    expected = (
                        f"{{{items}}}+exclusions => "
                        f"{ds.class_names[rule.consequent]}"
                        f" (support {{{supp}}})"
                    )
                    assert rule.describe(bst) == expected
                    assert rule.excluded_outside(bst) == tuple(
                        h
                        for h in bst.outside
                        if rule.car_items <= ds.samples[h]
                    )

    def test_predictions_identical_across_engines(self, equivalence_datasets):
        # Both engines walk the same bitset-backed BSTs; the reference
        # engine evaluates cell rules sample by sample with plain python
        # sets, so agreement pins the packed path to the scalar one.
        for ds in equivalence_datasets:
            fast = BSTClassifier(engine="fast").fit(ds)
            slow = BSTClassifier(engine="reference").fit(ds)
            queries = [ds.samples[i] for i in range(ds.n_samples)]
            assert np.array_equal(
                fast.predict_batch(queries), slow.predict_batch(queries)
            )
            explanation = explain_classification(fast, queries[0])
            assert explanation.predicted == int(
                np.argmax(explanation.class_values)
            )

    def test_charm_closures_are_exact(self, equivalence_datasets):
        for ds in equivalence_datasets:
            transactions = [ds.samples[i] for i in range(ds.n_samples)]
            closed = charm_closed_itemsets(transactions, 2)
            for itemset, count in closed.items():
                tidset = _ref_support_of_itemset(ds, itemset)
                assert len(tidset) == count
                # Closed: intersecting the supporting transactions gives the
                # itemset back (frozenset arithmetic only).
                closure = None
                for t in tidset:
                    closure = (
                        transactions[t]
                        if closure is None
                        else closure & transactions[t]
                    )
                assert closure == itemset


class TestRandomDatasetEquivalence:
    """Random relational datasets: the miner agrees with the embedded
    frozenset reference end to end (beyond the two fixed profiles)."""

    def test_random_mining_equivalence(self):
        rng = np.random.default_rng(42)
        for trial in range(12):
            ds = random_relational(rng)
            for class_id in range(ds.n_classes):
                bst = BST.build(ds, class_id)
                mined = mine_mcmcbar(bst, k=6)
                assert [
                    (r.car_items, r.consequent, r.support) for r in mined
                ] == _ref_mine_mcmcbar(bst, k=6)


class TestSwarPopcount:
    """The numpy < 2 SWAR fallback stays correct and forceable on modern
    numpy via the REPRO_FORCE_SWAR env toggle."""

    def test_swar_matches_native(self):
        from repro.core.bitset import (
            _native_popcount_words,
            _swar_popcount_words,
        )

        rng = np.random.default_rng(7)
        cases = [
            np.zeros(4, dtype=np.uint64),
            np.full(3, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64),
            np.array([1, 2, 4, 8, 0x8000000000000000], dtype=np.uint64),
        ] + [
            rng.integers(0, 2**64, size=size, dtype=np.uint64)
            for size in (1, 7, 64, 1000)
        ]
        for words in cases:
            assert _swar_popcount_words(words) == _native_popcount_words(
                words
            )
            # The SWAR path must not mutate its input.
            assert _swar_popcount_words(words.copy()) == _swar_popcount_words(
                words
            )

    def test_swar_row_counts_match_native(self):
        from repro.core.bitset import (
            BitMatrix,
            _native_popcount_rows,
            _swar_popcount_rows,
        )

        rng = np.random.default_rng(11)
        # Packed rows, whose tail words are clipped to the universe.
        for n_rows, n_cols in ((0, 5), (3, 0), (1, 1), (7, 63), (5, 64),
                               (9, 65), (4, 130), (50, 1000)):
            dense = rng.random((n_rows, n_cols)) < 0.5
            words = BitMatrix.from_bool(dense).words
            expected = dense.sum(axis=1)
            for count_rows in (_swar_popcount_rows, _native_popcount_rows):
                counts = count_rows(words)
                assert counts.dtype == np.int64
                assert np.array_equal(counts, expected)
        # Raw words, all 64 bits in play.
        for shape in ((1, 1), (6, 3), (40, 17), (2, 5, 9)):
            words = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
            assert np.array_equal(
                _swar_popcount_rows(words), _native_popcount_rows(words)
            )

    def test_force_swar_env_toggle(self):
        import subprocess
        import sys

        script = (
            "from repro.core import bitset\n"
            "assert bitset._popcount_words is bitset._swar_popcount_words\n"
            "assert bitset.popcount_rows is bitset._swar_popcount_rows\n"
            "b = bitset.BitSet.from_indices(130, {1, 5, 63, 64})\n"
            "assert len(b) == 4\n"
            "m = bitset.BitMatrix.from_sets([{1, 5, 63, 64}, set()], 130)\n"
            "assert m.row_counts().tolist() == [4, 0]\n"
            "print('forced-swar-ok')\n"
        )
        import os

        env = dict(os.environ, REPRO_FORCE_SWAR="1")
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "forced-swar-ok" in result.stdout

    def test_default_prefers_native_when_available(self):
        from repro.core import bitset

        if hasattr(np, "bitwise_count") and not bitset._FORCE_SWAR:
            assert bitset._popcount_words is bitset._native_popcount_words
            assert bitset.popcount_rows is bitset._native_popcount_rows
