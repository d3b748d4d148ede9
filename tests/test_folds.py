"""Fold partition scoring and search tests."""

import itertools

import numpy as np
import pytest

from labelcal.core import LabelcalError, LabelMatrix
from labelcal.folds import (
    _CHUNK,
    FoldAssignment,
    candidate_partition,
    partition_score,
    stratified_kfold,
    stratified_single_label,
)


def score_by_hand(y, fold_of, k):
    """Independent transcription: per-(label, fold) proportion deviations."""
    y = np.asarray(y, dtype=float)
    out = []
    for j in range(y.shape[1]):
        global_prop = y[:, j].mean()
        for f in range(k):
            members = [i for i in range(len(fold_of)) if fold_of[i] == f]
            out.append(abs(y[members, j].mean() - global_prop))
    return sorted(out, reverse=True)


class TestPartitionScore:
    def test_hand_count_blocked(self):
        labels = LabelMatrix(("a",), np.array([[1], [1], [0], [0]]))
        score = partition_score(labels, [0, 0, 1, 1], k=2)
        np.testing.assert_allclose(score, [0.5, 0.5])
        np.testing.assert_allclose(score, score_by_hand(labels.values, [0, 0, 1, 1], 2))

    def test_all_zero_labels(self):
        labels = LabelMatrix(("a",), np.zeros((4, 1), dtype=int))
        np.testing.assert_array_equal(partition_score(labels, [0, 1, 0, 1], 2), [0, 0])

    def test_hand_count_alternating(self):
        labels = LabelMatrix(("a",), np.array([[1], [0], [1], [0]]))
        score = partition_score(labels, [0, 1, 0, 1], k=2)
        np.testing.assert_allclose(score, [0.5, 0.5])

    def test_matches_transcription_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n, l, k = int(rng.integers(6, 40)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
            y = rng.integers(0, 2, size=(n, l))
            fold_of = rng.integers(0, k, size=n)
            while np.unique(fold_of).size < k:
                fold_of = rng.integers(0, k, size=n)
            labels = LabelMatrix(tuple(f"l{j}" for j in range(l)), y)
            np.testing.assert_allclose(
                partition_score(labels, fold_of, k),
                score_by_hand(y, fold_of, k),
                rtol=1e-12,
            )

    def test_empty_fold_rejected(self):
        labels = LabelMatrix(("a",), np.array([[1], [0]]))
        with pytest.raises(LabelcalError, match="empty fold"):
            partition_score(labels, [0, 0], k=2)


class TestStratifiedKfold:
    def test_single_candidate_is_the_seeded_partition(self):
        labels = LabelMatrix(("a",), np.array([[1], [0], [1], [0], [1], [0]]))
        out = stratified_kfold(labels, k=2, candidates=1, seed=9)
        np.testing.assert_array_equal(out.fold_of, candidate_partition(9, 0, 6, 2))

    def test_perfect_split_found(self):
        # 4 rows [1,0] and 2 rows [0,1]: a (2,1)+(2,1) split scores all-zero.
        y = np.array([[1, 0]] * 4 + [[0, 1]] * 2)
        labels = LabelMatrix(("a", "b"), y)
        # exhaustive oracle: the optimum over all balanced 2-fold partitions
        best = min(
            tuple(score_by_hand(y, assign_from_fold0(c, 6), 2))
            for c in itertools.combinations(range(6), 3)
        )
        assert best == (0.0,) * 4
        out = stratified_kfold(labels, k=2, candidates=500, seed=1)
        np.testing.assert_allclose(out.score, 0.0, atol=1e-15)

    def test_uniform_labels_tie_break_keeps_first(self):
        labels = LabelMatrix(("a",), np.ones((10, 1), dtype=int))
        out = stratified_kfold(labels, k=2, candidates=50, seed=5)
        np.testing.assert_allclose(out.score, 0.0, atol=1e-15)
        np.testing.assert_array_equal(out.fold_of, candidate_partition(5, 0, 10, 2))

    def test_winner_in_later_chunk_matches_exhaustive_scoring(self):
        rng = np.random.default_rng(5)
        labels = LabelMatrix(tuple("abcde"), (rng.random((60, 5)) < 0.3).astype(int))
        candidates = _CHUNK + 400
        scores = [
            tuple(partition_score(labels, candidate_partition(5, c, 60, 4), 4))
            for c in range(candidates)
        ]
        best = min(range(candidates), key=lambda c: (scores[c], c))
        assert best >= _CHUNK
        out = stratified_kfold(labels, k=4, candidates=candidates, seed=5)
        np.testing.assert_array_equal(out.fold_of, candidate_partition(5, best, 60, 4))
        assert tuple(out.score) == scores[best]

    def test_all_candidates_tie_across_chunks_keeps_first(self):
        labels = LabelMatrix(("a", "b"), np.zeros((9, 2), dtype=int))
        out = stratified_kfold(labels, k=3, candidates=2 * _CHUNK + 5, seed=4)
        np.testing.assert_array_equal(out.fold_of, candidate_partition(4, 0, 9, 3))
        np.testing.assert_array_equal(
            out.score, partition_score(labels, candidate_partition(4, 0, 9, 3), 3)
        )

    def test_more_candidates_never_hurt(self):
        rng = np.random.default_rng(33)
        labels = LabelMatrix(
            tuple(f"l{j}" for j in range(6)),
            (rng.random((50, 6)) < 0.15).astype(int),
        )
        small = stratified_kfold(labels, k=5, candidates=100, seed=3)
        large = stratified_kfold(labels, k=5, candidates=200, seed=3)
        assert tuple(large.score) <= tuple(small.score)

    def test_winner_beats_fresh_random_partitions(self):
        rng = np.random.default_rng(34)
        labels = LabelMatrix(
            tuple(f"l{j}" for j in range(10)),
            (rng.random((200, 10)) < 0.08).astype(int),
        )
        winner = stratified_kfold(labels, k=10, candidates=2000, seed=0)
        wins = 0
        for trial in range(1000):
            fresh = candidate_partition(10_000 + trial, 0, 200, 10)
            if tuple(winner.score) <= tuple(partition_score(labels, fresh, 10)):
                wins += 1
        assert wins >= 950

    def test_folds_partition_the_index_set(self):
        rng = np.random.default_rng(35)
        labels = LabelMatrix(("a",), rng.integers(0, 2, size=(23, 1)))
        out = stratified_kfold(labels, k=4, candidates=10, seed=2)
        sizes = np.bincount(out.fold_of, minlength=4)
        assert sizes.sum() == 23
        assert sizes.max() - sizes.min() <= 1

    def test_too_few_items_rejected(self):
        labels = LabelMatrix(("a",), np.array([[1]]))
        with pytest.raises(LabelcalError):
            stratified_kfold(labels, k=2, candidates=1, seed=0)


def assign_from_fold0(fold0, n):
    return [0 if i in fold0 else 1 for i in range(n)]


class TestStratifiedSingleLabel:
    def test_two_by_two(self):
        out = stratified_single_label([0, 0, 1, 1], k=2, seed=0)
        for fold in (0, 1):
            members = out.members(fold)
            assert len(members) == 2
            assert sorted(np.array([0, 0, 1, 1])[members]) == [0, 1]

    def test_single_class_even_split(self):
        out = stratified_single_label([0] * 10, k=5, seed=1)
        np.testing.assert_array_equal(np.bincount(out.fold_of, minlength=5), [2] * 5)

    def test_rare_class_alone(self):
        # oracle: every valid assignment splits 4 items 2+2 with the one
        # class-1 item in exactly one fold
        out = stratified_single_label([0, 0, 0, 1], k=2, seed=3)
        sizes = np.bincount(out.fold_of, minlength=2)
        np.testing.assert_array_equal(sorted(sizes), [2, 2])
        assert np.bincount(out.fold_of[[3]], minlength=2).max() == 1

    def test_per_class_counts_balanced(self):
        rng = np.random.default_rng(36)
        classes = rng.integers(0, 5, size=103)
        out = stratified_single_label(classes, k=7, seed=4)
        for c in range(5):
            counts = np.bincount(out.fold_of[classes == c], minlength=7)
            assert counts.max() - counts.min() <= 1
        overall = np.bincount(out.fold_of, minlength=7)
        assert overall.max() - overall.min() <= 1

    def test_deterministic(self):
        classes = [0, 1, 2, 0, 1, 2, 0, 1]
        a = stratified_single_label(classes, k=2, seed=11)
        b = stratified_single_label(classes, k=2, seed=11)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)


class TestFoldAssignmentInvariants:
    def test_unbalanced_sizes_rejected(self):
        with pytest.raises(LabelcalError, match="differ"):
            FoldAssignment(np.array([0, 0, 0, 1]), k=2, score=np.array([0.0]))

    def test_descending_score_enforced(self):
        with pytest.raises(LabelcalError, match="descending"):
            FoldAssignment(np.array([0, 1]), k=2, score=np.array([0.1, 0.2]))
