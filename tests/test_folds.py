"""Fold partition scoring and search tests."""

import itertools

import numpy as np
import pytest

import child
from labelcal._util import derive_rng
from labelcal.core import LabelcalError, LabelMatrix
from labelcal.folds import (
    _CHUNK,
    _SLAB,
    _fold_template,
    _slabs,
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


def score_block_oracle(items, cols, global_prop, seed, block, rows, n, k):
    """The block scorer before max-first screening: the whole block's int64
    fold ids shuffled in one call, one bincount over every positive (item,
    label) cell at once, and every row's deviations sorted.  Returns
    (score tuple, candidate, fold ids)."""
    n_labels = global_prop.size
    template = _fold_template(n, k).astype(np.int64)
    sizes = np.bincount(template, minlength=k).astype(np.float64)
    fold_of = np.tile(template, (rows, 1))
    derive_rng(seed, block).permuted(fold_of, axis=1, out=fold_of)
    keys = (np.arange(rows)[:, None] * k + fold_of[:, items]) * n_labels + cols
    counts = np.bincount(keys.ravel(), minlength=rows * k * n_labels).reshape(rows, k, n_labels)
    diffs = np.abs(counts / sizes[None, :, None] - global_prop)
    scores = np.sort(diffs.reshape(rows, -1), axis=1)[:, ::-1]
    best = np.arange(rows)
    for column in scores.T:
        best = best[column[best] == column[best].min()]
    return tuple(scores[best[0]]), block * _CHUNK + int(best[0]), fold_of[best[0]]


def search_oracle(labels, k, candidates, seed):
    """``stratified_kfold`` over ``score_block_oracle``: (score tuple, candidate, fold ids)."""
    items, cols = np.nonzero(labels.values)
    global_prop = labels.values.astype(np.float64).mean(axis=0)
    return min(
        (score_block_oracle(items, cols, global_prop, seed, b,
                            min(_CHUNK, candidates - b * _CHUNK), labels.n_items, k)
         for b in range(-(-candidates // _CHUNK))),
        key=lambda best: best[:2],
    )


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

    @pytest.mark.parametrize("fold_of", [[-1, 0, 1], [0, 1, 2]])
    def test_fold_id_out_of_range_rejected(self, fold_of):
        labels = LabelMatrix(("a",), np.array([[1], [0], [1]]))
        with pytest.raises(LabelcalError, match=OUT_OF_RANGE):
            partition_score(labels, fold_of, k=2)

    def test_fold_ids_are_checked_not_cast(self):
        labels = LabelMatrix(("a",), np.array([[1], [0], [1], [0]]))
        for fold_of, message in BAD_FOLD_IDS:
            with pytest.raises(LabelcalError, match=message):
                partition_score(labels, fold_of, k=2)
        np.testing.assert_array_equal(partition_score(labels, [0.0, 1.0, 0.0, 1.0], 2),
                                      partition_score(labels, [0, 1, 0, 1], 2))


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
        # at seed 6 the best of these candidates is row 325 of the
        # partial second block
        rng = np.random.default_rng(5)
        labels = LabelMatrix(tuple("abcde"), (rng.random((60, 5)) < 0.3).astype(int))
        candidates = _CHUNK + 400
        scores = [
            tuple(partition_score(labels, candidate_partition(6, c, 60, 4), 4))
            for c in range(candidates)
        ]
        best = min(range(candidates), key=lambda c: (scores[c], c))
        assert best >= _CHUNK
        out = stratified_kfold(labels, k=4, candidates=candidates, seed=6)
        np.testing.assert_array_equal(out.fold_of, candidate_partition(6, best, 60, 4))
        assert tuple(out.score) == scores[best]

    @pytest.mark.parametrize("seed", range(5))
    def test_winner_is_the_lexicographic_minimum_under_ties(self, seed):
        # 8 items in 2 folds give few distinct score vectors, so most
        # candidates tie on the leading entries and later ones decide
        rng = np.random.default_rng(seed)
        labels = LabelMatrix(("a", "b", "c"), rng.integers(0, 2, size=(8, 3)))
        scores = [
            tuple(partition_score(labels, candidate_partition(seed, c, 8, 2), 2))
            for c in range(300)
        ]
        best = min(range(300), key=lambda c: (scores[c], c))
        assert sum(s[0] == scores[best][0] for s in scores) > 1
        out = stratified_kfold(labels, k=2, candidates=300, seed=seed)
        np.testing.assert_array_equal(out.fold_of, candidate_partition(seed, best, 8, 2))
        assert tuple(out.score) == scores[best]

    def test_candidate_partition_is_the_row_the_search_scored(self, monkeypatch):
        drawn = []  # (block, slab) in the order the search drew them

        def record(seed, block, rows, template):
            for slab in _slabs(seed, block, rows, template):
                drawn.append((block, slab.copy()))
                yield slab

        monkeypatch.setattr("labelcal.folds._slabs", record)
        rng = np.random.default_rng(7)
        labels = LabelMatrix(("a", "b"), (rng.random((31, 2)) < 0.4).astype(int))
        candidates = 2 * _CHUNK + 37
        out = stratified_kfold(labels, k=3, candidates=candidates, seed=8)
        monkeypatch.undo()
        # each slab drawn once, in row order, and nothing after the last:
        # the winner is not drawn again
        per_block = _CHUNK // _SLAB
        assert [block for block, _ in drawn] == [0] * per_block + [1] * per_block + [2, 2]
        assert [len(slab) for _, slab in drawn] == [_SLAB] * (2 * per_block + 1) + [37 - _SLAB]
        rows = np.concatenate([slab for _, slab in drawn])  # candidate c is row c
        template_sizes = np.bincount(_fold_template(31, 3))
        for c in (0, _SLAB - 1, _SLAB, _CHUNK - 1, _CHUNK, candidates - 1):
            assert candidate_partition(8, c, 31, 3).dtype == np.int64
            np.testing.assert_array_equal(candidate_partition(8, c, 31, 3), rows[c])
            np.testing.assert_array_equal(np.bincount(rows[c], minlength=3), template_sizes)
        assert not np.array_equal(rows[0], rows[_CHUNK])
        winner = np.flatnonzero((rows == out.fold_of).all(axis=1))[0]
        np.testing.assert_array_equal(candidate_partition(8, winner, 31, 3), out.fold_of)

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

    def test_paper_scale_search_fits_in_160_mib(self):
        # 20k items x 50 rare labels, one block of candidates.  numpy and the
        # input take 119 MiB of address space and the search 5 more; holding
        # the whole block's fold ids and counts at once reached 204 MiB
        code = """if True:
            import numpy as np
            from labelcal.core import LabelMatrix
            from labelcal.folds import _CHUNK, stratified_kfold
            rates = 0.2 * 0.93 ** np.arange(50)
            y = (np.random.default_rng(0).random((20_000, 50)) < rates).astype(np.int8)
            labels = LabelMatrix(tuple(f"l{j}" for j in range(50)), y)
            stratified_kfold(labels, k=10, candidates=_CHUNK, seed=0)
        """
        run = child.run("-c", code, cap=160 << 20, timeout=300,
                        env={"OPENBLAS_NUM_THREADS": "1"})
        assert run.returncode == 0, run.stderr

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
            members = np.flatnonzero(out.fold_of == fold)
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

    @pytest.mark.parametrize("classes, message", [
        ([0.5, 0.9, 1.2, 1.7], r"^class 0\.5 of item 0 is not an integer within int64$"),
        ([[0, 1], [0, 1]], r"^classes must be a vector, got shape \(2, 2\)$"),
        ([0, -1, 0, -1], r"^class -1 of item 1 is out of range \[0, 1\)$"),
    ])
    def test_class_ids_are_checked_not_cast(self, classes, message):
        with pytest.raises(LabelcalError, match=message):
            stratified_single_label(classes, k=2, seed=0)
        np.testing.assert_array_equal(
            stratified_single_label([0.0, 0.0, 1.0, 1.0], k=2, seed=0).fold_of,
            stratified_single_label([0, 0, 1, 1], k=2, seed=0).fold_of)

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


# the bad id of [-1, 0, 1] or of [0, 1, 2], named with its item
OUT_OF_RANGE = r"^fold id (-1 of item 0|2 of item 2) is out of range \[0, 2\)$"

# (fold ids, error) pairs: before one validator, numpy's int64 cast
# truncated the first two and failed deep inside numpy on the 2-D ones
BAD_FOLD_IDS = [
    ([0.5, 1, 0, 1], r"^fold id 0\.5 of item 0 is not an integer within int64$"),
    ([0, 1, 0, 1.7], r"^fold id 1\.7 of item 3 is not an integer within int64$"),
    ([0, 1, np.nan, 1], r"^fold id nan of item 2 is not an integer within int64$"),
    ([0, np.inf, 0, 1], r"^fold id inf of item 1 is not an integer within int64$"),
    ([0, 1, 0, 2.0**63], r"^fold id 9\.223372036854776e\+18 of item 3 is not an integer within int64$"),
    (np.array([0, 2**63 + 1, 0, 1], dtype=np.uint64),
     r"^fold id 9223372036854775809 of item 1 is not an integer within int64$"),
    ([[0, 1], [0, 1]], r"^fold_of must be a vector, got shape \(2, 2\)$"),
    ([[0, 1, 0, 1]], r"^fold_of must be a vector, got shape \(1, 4\)$"),
    (np.array(["0", "1", "0", "1"]), r"^fold_of must be integers, got <U1$"),
]


class TestFoldAssignmentInvariants:
    def test_unbalanced_sizes_rejected(self):
        with pytest.raises(LabelcalError, match="differ"):
            FoldAssignment(np.array([0, 0, 0, 1]), k=2, score=np.array([0.0]))

    def test_descending_score_enforced(self):
        with pytest.raises(LabelcalError, match="descending"):
            FoldAssignment(np.array([0, 1]), k=2, score=np.array([0.1, 0.2]))

    @pytest.mark.parametrize("fold_of", [[-1, 0, 1], [0, 1, 2]])
    def test_fold_id_out_of_range_rejected(self, fold_of):
        with pytest.raises(LabelcalError, match=OUT_OF_RANGE):
            FoldAssignment(np.array(fold_of), k=2, score=np.array([0.0]))

    def test_fold_ids_are_checked_not_cast(self):
        for fold_of, message in BAD_FOLD_IDS:
            with pytest.raises(LabelcalError, match=message):
                FoldAssignment(fold_of, k=2, score=np.array([0.1]))
        out = FoldAssignment([0.0, 1.0, 0.0, 1.0], k=2, score=np.array([0.1]))
        assert out.fold_of.dtype == np.int64
        np.testing.assert_array_equal(out.fold_of, [0, 1, 0, 1])


class TestFoldCountChecked:
    # k is checked before any other argument: candidates=0 and too few
    # items would fail later checks, k=0 used to divide by zero
    @pytest.mark.parametrize("k", [0, 1, -1])
    def test_multilabel(self, k):
        labels = LabelMatrix(("a",), np.array([[1], [0], [1]]))
        with pytest.raises(LabelcalError, match=f"^k must be >= 2, got {k}$"):
            stratified_kfold(labels, k=k, candidates=0, seed=0)

    @pytest.mark.parametrize("k", [0, 1, -1])
    def test_single_label(self, k):
        for classes in ([], [0, 1, 1]):
            with pytest.raises(LabelcalError, match=f"^k must be >= 2, got {k}$"):
                stratified_single_label(classes, k=k, seed=0)
