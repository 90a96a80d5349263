"""Word n-gram kernel (`queries/doc_dedup._word_ngrams`) against a pure-Python
reference: `" ".join(w[i:i+n])` over `t.split(" ")`, row by row."""

from __future__ import annotations

import pyarrow as pa
import pytest

from core_ray.queries.doc_dedup import _word_ngrams

NS = (1, 2, 3, 8)


def _reference(texts, n):
    rows, grams, starts = [], [], []
    for r, t in enumerate(texts):
        if t is None:
            continue
        w = t.split(" ")
        for i in range(len(w) - n + 1):
            rows.append(r)
            grams.append(" ".join(w[i : i + n]))
            starts.append(i)
    return rows, grams, starts


def _check(col, texts, n):
    rows, grams, starts = _word_ngrams(col, n)
    assert (rows.tolist(), grams.tolist(), starts.tolist()) == _reference(texts, n)
    assert grams.dtype.kind == "U"


@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize(
    "texts",
    [
        pytest.param(["", "a b c d e f g h i", ""], id="empty_text"),
        pytest.param(["a", "a b", "a b c", "one two three four five six seven"],
                     id="fewer_than_n_words"),
        pytest.param([" lead", "trail ", "double  space here", "  ", " a  b  c ",
                      "x y z w v u t s r q"], id="odd_spaces"),
        pytest.param(["ünïcode wörds ñ 日本語 テキスト ok", "émoji 🙂 tail 🙂 a b c d",
                      "Ωmega α β γ δ ε ζ η θ"], id="non_ascii"),
        pytest.param(["", "", ""], id="all_empty"),
        pytest.param([], id="no_rows"),
    ],
)
def test_matches_python_reference(texts, n):
    _check(pa.array(texts, pa.string()), texts, n)


@pytest.mark.parametrize("n", NS)
def test_multi_chunk_chunked_array(n):
    chunks = [
        ["a b c d e f g h i j", "k l"],
        [],
        ["m n o p q r s t u v w", "", "x  y z"],
        ["ä ö ü ß a b c d e f g h"],
    ]
    col = pa.chunked_array([pa.array(c, pa.string()) for c in chunks], pa.string())
    assert col.num_chunks == 4
    texts = [t for c in chunks for t in c]
    _check(col, texts, n)
    # a sliced chunk keeps its own row numbering
    _check(col.slice(1, 4), texts[1:5], n)


@pytest.mark.parametrize("n", NS)
def test_null_text_gives_no_grams(n):
    # SQL: string_split(NULL) unnests to no rows
    texts = ["a b c d e f g h", None, "i j k l m n o p q", None]
    _check(pa.array(texts, pa.string()), texts, n)


def test_large_string_column():
    texts = ["a b c", "d e f g"]
    _check(pa.array(texts, pa.large_string()), texts, 2)
