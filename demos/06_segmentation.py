"""From OCR word boxes to classified, page-merged paragraphs.

The word-box table gives page/block/paragraph/line indices and pixel
geometry per word.  From it we assemble paragraphs with character-size
statistics, cluster those statistics to tell body text from footnotes
and headings, merge paragraphs that continue across page boundaries,
and finally match an annotation quote back to its paragraph.
"""

from dataclasses import replace

import numpy as np

from labelcal.core import bow_match_many
from labelcal.segmentation import (
    classify_paragraphs,
    merge_cross_page,
    paragraphs_from_tokens,
    parse_ocr_tsv,
)

rng = np.random.default_rng(0)
HEADER = "level\tpage_num\tblock_num\tpar_num\tline_num\tword_num\tleft\ttop\twidth\theight\tconf\ttext"
VOCABULARY = [f"w{c}{v}" for c in "bcdfghjklmnp" for v in "aeiou"]


def paragraph_rows(page, par, kind, n_lines, full_last_line=True):
    """Word rows for one paragraph; geometry depends on its kind."""
    height = {"body": 12, "footnote": 9, "heading": 17}[kind]
    rows = []
    for line in range(1, n_lines + 1):
        left = 100
        n_words = 8 if (line < n_lines or full_last_line) else 3
        for word in range(1, n_words + 1):
            text = str(rng.choice(VOCABULARY))
            width = len(text) * (height // 2)
            rows.append(
                f"5\t{page}\t1\t{par}\t{line}\t{word}\t{left}"
                f"\t{100 + 20 * par + 18 * line}"
                f"\t{width + int(rng.integers(0, 3))}"
                f"\t{height + int(rng.integers(0, 2))}\t95\t{text}"
            )
            left += width + height // 2
    return rows


# six pages; on pages 1, 3 and 5 the final paragraph runs to the right
# margin and continues (un-indented) as the first paragraph of the next
# page.  Footnotes appear on the other pages: a merge needs the run-on
# paragraph to be the last one on its page.
rows = []
for page in range(1, 7):
    runs_on = page % 2 == 1
    par = 1
    if page == 1:
        rows += paragraph_rows(page, par, "heading", 1)
        par += 1
    for _ in range(3):
        rows += paragraph_rows(page, par, "body", 4)
        par += 1
    if not runs_on:
        rows += paragraph_rows(page, par, "footnote", 2)
        par += 1
    rows += paragraph_rows(page, par, "body", 5, full_last_line=runs_on)

tokens = parse_ocr_tsv(HEADER + "\n" + "\n".join(rows) + "\n")
print(f"parsed {len(tokens)} word boxes")

paragraphs = paragraphs_from_tokens(tokens)
print(f"assembled {len(paragraphs)} single-page paragraphs")
for p in paragraphs[:3]:
    print(f"  {p.record_id}: char height {p.char_height:.1f}, "
          f"char width {p.char_width:.1f}, {len(p.lines)} lines")

classes = classify_paragraphs(paragraphs, min_pts=3)
paragraphs = [replace(p, cls=c) for p, c in zip(paragraphs, classes)]
# the lone heading has no density neighbors, so DBSCAN calls it noise
print("\nparagraph classes per page (reading order):")
for page in range(1, 7):
    on_page = [p.cls for p in paragraphs if p.first_page == page]
    print(f"  page {page}: {on_page}")

pages = [[p for p in paragraphs if p.first_page == n] for n in range(1, 7)]
merged = merge_cross_page(pages)
spanning = [p for p in merged if p.last_page > p.first_page]
print(f"\nafter merging: {len(merged)} paragraphs, "
      f"{len(spanning)} span a page boundary")
for p in spanning:
    print(f"  {p.record_id}: pages {p.first_page}-{p.last_page}, "
          f"{len(p.lines)} lines")

# the footnote paragraph never merges even when its last line is full:
# only body-class paragraphs take part

# match a quote (a fragment of some paragraph) back to its source
source = max(merged, key=lambda p: len(p.text))
quote = " ".join(source.text.split()[:12])
index, distance = bow_match_many([quote], [p.text for p in merged])[0]
print(f"\nquote of 12 words matched to {merged[index].record_id} "
      f"(distance {distance:.3f}); correct: {merged[index] is source}")
