"""Seeded synthetic inputs with planted answers.

Every generator takes a ``numpy.random.Generator`` and writes plain
files; the returned dict records what was planted so the checks can
compare the program's outputs against it.  The same seed gives the same
bytes.  Nothing here imports ``labelcal``: the program only ever sees
the generated files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TSV_HEADER = (
    "level\tpage_num\tblock_num\tpar_num\tline_num\tword_num"
    "\tleft\ttop\twidth\theight\tconf\ttext"
)
NEEDLE = "fordí"


def _write_matrix(path: Path, labels: list[str], values: np.ndarray, fmt: str) -> int:
    """CSV with a label header; returns the file size in bytes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(labels) + "\n")
        np.savetxt(fh, values, fmt=fmt, delimiter=",")
    return path.stat().st_size


def rare_label_truth(rng: np.random.Generator, n: int, n_labels: int,
                     rarest: float, commonest: float) -> np.ndarray:
    """0/1 matrix whose label frequencies run log-evenly from commonest to
    rarest; every label has at least two positives."""
    rates = np.geomspace(commonest, rarest, n_labels)
    truth = np.zeros((n, n_labels), dtype=np.int8)
    for j, rate in enumerate(rates):
        count = max(2, int(round(rate * n)))
        truth[rng.choice(n, size=count, replace=False), j] = 1
    return truth


def noisy_probabilities(rng: np.random.Generator, truth: np.ndarray) -> np.ndarray:
    """Model-like probabilities: positives mostly high, negatives a long
    tail of small values, so untruncated column sums over-count."""
    high = rng.beta(5.0, 2.0, size=truth.shape)
    low = rng.beta(0.4, 9.0, size=truth.shape)
    return np.where(truth == 1, high, low)


def oof_inputs(rng: np.random.Generator, root: Path, n: int, n_labels: int,
               years: tuple[int, int]) -> dict:
    """Annotated set for the planning path: truth, out-of-fold
    probabilities, item years and per-item metric scores."""
    labels = [f"label_{j:02d}" for j in range(n_labels)]
    truth = rare_label_truth(rng, n, n_labels, rarest=0.002, commonest=0.2)
    oof = noisy_probabilities(rng, truth)
    item_years = rng.integers(years[0], years[1] + 1, size=n)
    item_years[: years[1] - years[0] + 1] = np.arange(years[0], years[1] + 1)
    scores = rng.beta(2.0, 5.0, size=n)
    sizes = {
        "truth.csv": _write_matrix(root / "truth.csv", labels, truth, "%d"),
        "oof.csv": _write_matrix(root / "oof.csv", labels, oof, "%.17g"),
    }
    (root / "years.txt").write_text("".join(f"{y}\n" for y in item_years))
    (root / "scores.txt").write_text("".join(f"{s!r}\n" for s in scores.tolist()))
    sizes["years.txt"] = (root / "years.txt").stat().st_size
    sizes["scores.txt"] = (root / "scores.txt").stat().st_size
    return {"n_items": n, "n_labels": n_labels, "file_bytes": sizes,
            "positives_min": int(truth.sum(axis=0).min())}


def predict_inputs(rng: np.random.Generator, root: Path, n: int, n_labels: int) -> dict:
    """A large unannotated predict matrix at full float precision."""
    labels = [f"label_{j:02d}" for j in range(n_labels)]
    truth = rare_label_truth(rng, n, n_labels, rarest=0.002, commonest=0.3)
    probs = noisy_probabilities(rng, truth)
    size = _write_matrix(root / "predict.csv", labels, probs, "%.17g")
    return {"n_items": n, "n_labels": n_labels, "file_bytes": {"predict.csv": size}}


# ---------------------------------------------------------------------------
# OCR word boxes
# ---------------------------------------------------------------------------

# (box height, width per character) by paragraph kind
_GEOMETRY = {"body": (12, 6), "footnote": (9, 4), "heading": (17, 8)}
_LEFT, _RIGHT = 100, 1000
_SYLLABLES = [c + v for c in "bcdfghjklmnprstvz" for v in "aeiou"]


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        k = int(rng.integers(2, 5))
        words.add("".join(rng.choice(_SYLLABLES, size=k)))
    return sorted(words)


def _paragraph_lines(rng, vocab, kind, n_lines, indent, full_last, needle):
    """Words per line of one paragraph, justified between the margins.

    Every full line ends at the right margin; a paragraph that does not
    run on ends with a short line, and a fresh paragraph is indented.
    """
    height, cw = _GEOMETRY[kind]
    lines = []
    for line in range(n_lines):
        start = _LEFT + (3 * cw if indent and line == 0 else 0)
        last = line == n_lines - 1
        budget = (_RIGHT - start) if (full_last or not last) else (_RIGHT - start) // 2
        words: list[str] = []
        used = 0
        while True:
            word = str(vocab[int(rng.integers(len(vocab)))])
            if needle and not words and line == 0:
                word = word[:2] + NEEDLE + word[2:]
            need = len(word) * cw + (cw if words else 0)
            if words and used + need > budget:
                break
            words.append(word)
            used += need
        lines.append((start, budget, words))
    return height, cw, lines


def _boxes(page, par, top, height, cw, lines, rng, justify):
    """TSV rows for one paragraph; full lines are justified to the margin."""
    rows = []
    y = top
    for line_no, (start, budget, words) in enumerate(lines, start=1):
        widths = [len(w) * cw for w in words]
        gap_total = budget - sum(widths)
        gaps = len(words) - 1
        x = start
        for word_no, (word, width) in enumerate(zip(words, widths), start=1):
            rows.append(
                f"5\t{page}\t1\t{par}\t{line_no}\t{word_no}\t{x}\t{y}"
                f"\t{width}\t{height}\t{int(rng.integers(80, 99))}\t{word}"
            )
            if gaps and justify[line_no - 1]:
                x += width + gap_total // gaps + (1 if word_no <= gap_total % gaps else 0)
            else:
                x += width + cw
        y += height + 6
    return rows, y


def ocr_inputs(rng: np.random.Generator, root: Path, pages: int,
               paragraphs_per_page: int, quotes: int) -> dict:
    """Per-page word-box TSVs with planted paragraph kinds and run-ons.

    Every page holds body text.  Every third page starts with a heading,
    every fourth page ends with a footnote, and about half of the pages
    without a footnote end in a body paragraph that runs on, unindented,
    into the first paragraph of the next page.  Returns the expected
    paragraphs after the merge, the planted merge count, and the quotes
    with the id of the paragraph each was cut from.
    """
    tsv_dir = root / "tsv"
    tsv_dir.mkdir()
    vocab = _vocabulary(rng, 4000)
    expected: list[dict] = []   # {"id", "text", "class", "pages"}
    merges = 0
    runs_on = False
    total_bytes = 0
    for page in range(1, pages + 1):
        rows = []
        top = 80
        kinds = ["body"] * paragraphs_per_page
        if page % 3 == 1:
            kinds[0] = "heading"
        footnote = page % 4 == 0
        if footnote:
            kinds.append("footnote")
        # a run-on needs body text to close the page and to open the next one
        last_runs_on = (not footnote and page < pages and (page + 1) % 3 != 1
                        and bool(rng.random() < 0.5))
        for par, kind in enumerate(kinds, start=1):
            n_lines = {"body": int(rng.integers(3, 7)), "footnote": 2, "heading": 1}[kind]
            is_last = par == len(kinds)
            full_last = kind == "heading" or (is_last and last_runs_on)
            first_continues = par == 1 and runs_on
            needle = kind == "body" and rng.random() < 0.1
            height, cw, lines = _paragraph_lines(
                rng, vocab, kind, n_lines, indent=kind == "body" and not first_continues,
                full_last=full_last, needle=needle,
            )
            justify = [kind == "body" and (i < n_lines - 1 or full_last)
                       for i in range(n_lines)]
            par_rows, top = _boxes(page, par, top, height, cw, lines, rng, justify)
            rows += par_rows
            top += 10
            text = " ".join(" ".join(words) for _, _, words in lines)
            record_id = f"p{page:04d}_b001_p{par:03d}"
            if first_continues:
                expected[-1]["text"] += " " + text
                expected[-1]["pages"] = [expected[-1]["pages"][0], page]
                merges += 1
            else:
                expected.append({"id": record_id, "text": text, "class": kind,
                                 "pages": [page, page]})
        runs_on = last_runs_on
        path = tsv_dir / f"page{page:04d}.tsv"
        path.write_text(TSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        total_bytes += path.stat().st_size

    bodies = [e for e in expected if e["class"] == "body"]
    picks = rng.choice(len(bodies), size=quotes, replace=False)
    quote_records = []
    for q, pick in enumerate(sorted(int(p) for p in picks)):
        words = bodies[pick]["text"].split()
        length = min(len(words), 12)
        start = int(rng.integers(0, len(words) - length + 1))
        quote_records.append({"id": f"q{q:03d}", "text": " ".join(words[start:start + length]),
                              "source": bodies[pick]["id"]})
    with open(root / "quotes.jsonl", "w", encoding="utf-8") as fh:
        for record in quote_records:
            fh.write(json.dumps({"id": record["id"], "text": record["text"]},
                                ensure_ascii=False) + "\n")
    return {
        "pages": pages,
        "paragraphs": expected,
        "merges": merges,
        "quotes": {r["id"]: r["source"] for r in quote_records},
        "file_bytes": {"tsv/": total_bytes,
                       "quotes.jsonl": (root / "quotes.jsonl").stat().st_size},
    }
