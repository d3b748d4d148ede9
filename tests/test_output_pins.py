"""Every output of every subcommand, pinned by its SHA-256.

The subcommands run in process through ``dispatch`` on small inputs made
from fixed seeds, most of them by the bench's generators
(``bench/generate.py``, loaded read-only).  The runs reach the paths
that a change of output bytes is most likely to come from: truncated
cells written as the literals ``0`` and ``1``, quote tokens whose
counts are packed and ones added a posting at a time, ties in quote
matching and in the fold search, two OCR pages with a cross-page
merge, ``folds --kind multiclass`` and ``relnet --json-out``.

Each manifest is pinned without its ``duration_seconds`` line; the runs
use paths relative to the input folder, so a manifest holds no path of
the machine.  ``relnet`` and ``pbt-demo`` go through BLAS, and their
pins hold at the default OpenBLAS kernel only: another kernel can change
the last bits of their floats.

A change that means to change an output updates its pin here and names
the output and the reason in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import re
from pathlib import Path

import numpy as np

from labelcal.cli import dispatch
from labelcal.core import _PACKED_SHARE

GENERATE = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
_DURATION = re.compile(rb'^  "duration_seconds": .*\n', re.MULTILINE)

RUNS = [
    ("segment", "--tsv", "tsv", "--out", "out/paragraphs.jsonl"),
    ("segment", "--tsv", "tsv", "--merge-mode", "disjunctive", "--eps", "0.5",
     "--out", "out/disjunctive.jsonl"),
    ("match", "--quotes", "quotes.jsonl", "--paragraphs", "out/paragraphs.jsonl",
     "--out", "out/matches.json"),
    ("match", "--quotes", "tie_quotes.jsonl", "--paragraphs", "tie_paragraphs.jsonl",
     "--out", "out/tie_matches.json"),
    ("filter", "--texts", "out/paragraphs.jsonl", "--needle", "fordí", "--out", "out/kept.jsonl"),
    ("filter", "--texts", "out/paragraphs.jsonl", "--needle", "FORDÍ", "--case-fold",
     "--out", "out/kept_folded.jsonl"),
    ("folds", "--labels", "truth.csv", "--k", "3", "--candidates", "70", "--seed", "5",
     "--out", "out/folds.csv"),
    ("folds", "--labels", "tie.csv", "--k", "2", "--candidates", "40", "--out", "out/tie_folds.csv"),
    ("folds", "--labels", "classes.csv", "--kind", "multiclass", "--k", "4",
     "--out", "out/class_folds.csv"),
    ("metrics", "--probs", "oof.csv", "--truth", "truth.csv", "--years", "years.txt",
     "--out", "out/metrics.json"),
    ("metrics", "--probs", "class_probs.csv", "--truth", "classes.csv", "--kind", "multiclass",
     "--bins", "4", "--out", "out/class_metrics.json"),
    ("calibrate", "--oof", "oof.csv", "--truth", "truth.csv", "--step", "0.05",
     "--years", "years.txt", "--out", "out/calibration.json"),
    ("calibrate", "--oof", "oof.csv", "--truth", "truth.csv", "--step", "0.1",
     "--out", "out/calibration_no_years.json"),
    ("truncate", "--probs", "predict.csv", "--p-low", "0.1", "--p-high", "0.6",
     "--out", "out/truncated.csv"),
    ("sample", "--probs", "predict.csv", "--n", "25", "--seed", "3", "--out", "out/sample.json"),
    ("size-curve", "--scores", "scores.txt", "--sizes", "10", "60", "10", "--reps", "4",
     "--seed", "2", "--out", "out/curve.json"),
    ("relnet", "--probs", "out/truncated.csv", "--min-weight", "0.05",
     "--json-out", "out/relnet.json", "--out", "out/graph.dot"),
    ("relnet", "--probs", "oof.csv", "--calibrate", "half", "--out", "out/graph_half.dot"),
    ("relnet", "--truth", "truth.csv", "--out", "out/graph_truth.dot"),
    ("pbt-demo", "--mode", "multilabel", "--population", "4", "--generations", "2",
     "--items", "60", "--seed", "1", "--out", "out/pbt_multilabel.json"),
    ("pbt-demo", "--mode", "multiclass", "--population", "4", "--generations", "2",
     "--patience", "1", "--items", "60", "--labels", "3", "--out", "out/pbt_multiclass.json"),
]

# SHA-256 of every output; a manifest's without its duration_seconds line.
# relnet and pbt-demo: at the default OpenBLAS kernel.
PINS = {
    "calibration.json":
        "7dc4e270a7ae269632abb2d53bb69bd9558d6c4b2f91b287454382c14a99ffbd",
    "calibration.json.manifest.json":
        "d6e730d5de35fee4527ead28a799ee5ce47e7165a4abe181edad454eda879faf",
    "calibration_no_years.json":
        "eb302547ba2e1f49e851c2168b0c6904afa8a0bb8c2d24ff3f0f90dd142415a0",
    "calibration_no_years.json.manifest.json":
        "4788cffdd50f74fda02542afa3bf56122941788d33c72a4430614769013dae05",
    "class_folds.csv":
        "c1b09d4c759780ffd47966df46654a53ba493f70b5430a656586a0dbf6d4c9e7",
    "class_folds.csv.manifest.json":
        "8154d6b837709967ba0a8ddb1a43b785fbf6c10c41df3dc1b868ccf914ee2e04",
    "class_folds.csv.score.json":
        "13a8e91fa419b71a13e33c3ab95f235313ec8a86d214268c9f9570af85408cfa",
    "class_metrics.json":
        "bc6b277fcb1ff823fd02ccad4a0c7357e2893fe2c667551aae89f2c82f0e8646",
    "class_metrics.json.manifest.json":
        "0ae755671eda771b004afb9836bc76d83cf83ebcf44acc39b0054473d1358687",
    "curve.json":
        "a52258d81650217a6b194171c9f891e9ef39bf0968a7496eeda11cbb28f14c7a",
    "curve.json.manifest.json":
        "5c2d49a4c558a60700eebee68fb549d7f2462dd57603dc16dbb9d76a9bfea73d",
    "disjunctive.jsonl":
        "45546d2c628e77602ae20dbc4871310bf6d1fee96096bedd78adcddeffbf56c1",
    "disjunctive.jsonl.manifest.json":
        "52bc0790caa5814aac64bafb1ec73c365b36f3fbd42c932b33fad1eae4c7fef0",
    "folds.csv":
        "f37386326208ac0b4f9106244f609f54fb86b9cabd6343c23b9aa11e312faf75",
    "folds.csv.manifest.json":
        "1277b36a3436a5f3281922da89fbb8230d7d9c30fc39cede6911f8062bcefbe9",
    "folds.csv.score.json":
        "be309fc451a86b9ed8fb6cfc5f21682f23baa872f94909ec855d5234b82b29d2",
    "graph.dot":
        "602fbe917f46039ec856f57f4b187c6f7e64d0428914f9d0a9fafbbf77e887df",
    "graph.dot.manifest.json":
        "4dc736c8f166a340b291bd2640b5e2745552782bcb99caeb3ab6d9ef1b7d7c85",
    "graph_half.dot":
        "ff63cdd430abcca297a2afde0059c93968b6c83f30e0390cc4865f30aab95e95",
    "graph_half.dot.manifest.json":
        "6e1e36ddd1adc6e0820910c33a0801dcd4542c62f38478523e53255d01a03193",
    "graph_truth.dot":
        "a1cd2df4c4efb0f9c5b600fe3ede9a05a44841f91010b17643537781b0fd6d00",
    "graph_truth.dot.manifest.json":
        "70030da6c5dc23826604b77d86bc06a47735709b0655660d251591ed94506200",
    "kept.jsonl":
        "383ac9ac6a3a38b2245f30c5c9639ca1d689ca03f6f7f0a30d0e64907346d433",
    "kept.jsonl.manifest.json":
        "7e41c6a3e28ced88edeef3ded92edadb46bf6a918ce306c953e1782a59840545",
    "kept_folded.jsonl":
        "383ac9ac6a3a38b2245f30c5c9639ca1d689ca03f6f7f0a30d0e64907346d433",
    "kept_folded.jsonl.manifest.json":
        "51cc294752d15c42e83f926d7f8271a0a4be811a185ef0c94e9bee7e34002fb7",
    "matches.json":
        "b43ae07395a5b25b80f0bfd065feeb0a2ec0b060ddd3e03c0e4b831dc18498b0",
    "matches.json.manifest.json":
        "23de29e2e71b72c72bf7fd5062ba46ecdc7882087bb01815b83d57ad75fbe309",
    "metrics.json":
        "e9c9809b5e64c6701b187efebd39e237193ddc1ffaf8ade4b5c8847d41b4e6c2",
    "metrics.json.manifest.json":
        "78b4217ed5d1fed0f9b3d779d63c3c97e4200099c6a78a73c9d58f1f377f6186",
    "paragraphs.jsonl":
        "45546d2c628e77602ae20dbc4871310bf6d1fee96096bedd78adcddeffbf56c1",
    "paragraphs.jsonl.manifest.json":
        "cf4ed694d6bc860939955926178e22fc4cee620214398027734ad0ab4a3293ef",
    "pbt_multiclass.json":
        "989c5f7dcad9c23b7c37c3dce59f211b315bbd4ef31ab38f4359844018fba279",
    "pbt_multiclass.json.manifest.json":
        "88db0dca2c2bd12b28104f1e80fc10d1d6173cb5f187bc7a293425ad7508263e",
    "pbt_multilabel.json":
        "a13220458676db4c51d825a8b6530b974693454482996f796db8bea9b5c25c01",
    "pbt_multilabel.json.manifest.json":
        "c626bd62335eb16e51f5bfc26cfde561dc61844ced01a032f652629b34d522ab",
    "relnet.json":
        "33301529dba3d5aef29f0a14c2e6cb478b42fec142a0c528f413376a042a28eb",
    "sample.json":
        "1a6041f20bc6f9b6c230eed2ec0b8dba68af1949ec8e67f6e6fa802ec32e981a",
    "sample.json.manifest.json":
        "613765bdfc109b7eecbde606cadcd0a037b9fe08cba4475b13c741384416aa32",
    "tie_folds.csv":
        "6a9eb432c43b3eb43e0161a4ee9a66d1b3d7d65ba48d5db147c28c0aa05938ad",
    "tie_folds.csv.manifest.json":
        "38a97a070464eed6a085dfb2809a46df0e0704e58b11349991f778a556516978",
    "tie_folds.csv.score.json":
        "8423fcde7bbb34cbd0a83c647dab485173fd4da589938b6d1d4d4fb674f149eb",
    "tie_matches.json":
        "0c3d292ec134def11d08a24e2b60c34295f8ea9bd4f09042d0118a7f36fa13f5",
    "tie_matches.json.manifest.json":
        "5425bb0fb028ef03fcf4b6823c33a5196ec4fcabe9b3056cfc5df0e488257114",
    "truncated.csv":
        "d3ef53eabe6d60ceb00f8120755e7738f2a095b71df896fb46ed991dad0f10ca",
    "truncated.csv.manifest.json":
        "13ceee6c46fd33e853ab77afe31c110fde7e664050d13021005a30c953852055",
}


def _generate():
    spec = importlib.util.spec_from_file_location("bench_generate", GENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")


def make_inputs(root: Path) -> None:
    """The inputs of ``RUNS``, written under ``root``."""
    generate = _generate()
    generate.oof_inputs(np.random.default_rng(31), root, n=90, n_labels=5, years=(2001, 2008))
    generate.predict_inputs(np.random.default_rng(32), root, n=150, n_labels=5)
    planted = generate.ocr_inputs(np.random.default_rng(35), root, pages=2,
                                  paragraphs_per_page=4, quotes=4)
    assert planted["merges"] == 1  # page 1 runs on into page 2

    rng = np.random.default_rng(34)
    classes = np.r_[np.arange(3), rng.integers(0, 3, size=37)]
    header = "c0,c1,c2\n"
    (root / "classes.csv").write_text(header + "".join(
        ",".join("1" if c == j else "0" for j in range(3)) + "\n" for c in classes))
    probs = rng.dirichlet(np.ones(3), size=classes.size)
    (root / "class_probs.csv").write_text(header + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in probs))
    # one label, half the items: many partitions share the best score
    (root / "tie.csv").write_text("a\n" + "1\n0\n" * 4)

    # "the" is in every paragraph, so its counts are packed; every other
    # word is in one paragraph in twenty, so it is added a posting at a
    # time; paragraphs 3 and 11 are the same, and no paragraph has "zzz"
    words = [f"w{i}x{j}" for i in range(20) for j in range(3)]
    texts = [f"the {' '.join(words[3 * i:3 * i + 3])} the" for i in range(20)]
    texts[11] = texts[3]
    assert 1 < _PACKED_SHARE <= 20
    _jsonl(root / "tie_paragraphs.jsonl", [{"id": f"t{i}", "text": t} for i, t in enumerate(texts)])
    _jsonl(root / "tie_quotes.jsonl", [
        {"id": "tie", "text": "w3x0 w3x2 the"},
        {"id": "rare", "text": "w7x1 W7X1 w8x2"},
        {"id": "none", "text": "zzz"},
    ])


def output_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file ``RUNS`` writes under ``root/out``."""
    (root / "out").mkdir()
    for argv in RUNS:
        assert dispatch(list(argv)) == 0, argv
    digests = {}
    for path in sorted((root / "out").iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".manifest.json"):
            data, count = _DURATION.subn(b"", data)
            assert count == 1, path.name
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def test_every_output_keeps_its_bytes(tmp_path, monkeypatch):
    make_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = output_digests(tmp_path)
    out = tmp_path / "out"
    cells = out.joinpath("truncated.csv").read_text().replace("\n", ",").split(",")
    assert "0" in cells and "1" in cells  # written as literals
    pages = [(p["first_page"], p["last_page"]) for p in map(
        json.loads, out.joinpath("paragraphs.jsonl").read_text().splitlines())]
    assert (1, 2) in pages  # the cross-page merge
    assert digests == PINS
