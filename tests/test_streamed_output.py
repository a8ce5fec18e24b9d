"""The CLI's streamed output: one JSON writer, CSV in blocks, nothing held whole."""

import json
import tracemalloc
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_immanants import cli
from cayley_immanants.characters import Partition
from cayley_immanants.groups import GroupSpec
from cayley_immanants.immanants import immanant

# Scalars and containers as (streamed, materialized) pairs: the streamed
# side may hold iterators, which the oracle sees as lists.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300]),
    st.text(),
    st.sampled_from(["é", " ", "\x00\x1f", '"quoted" \\ back\\slash', "tab\there\nnewline",
                     "\U0001f600"]),
)


def _pairs_of(items):
    return [s for s, _ in items], [p for _, p in items]


def _containers(children):
    lists = st.lists(children, max_size=5).map(_pairs_of)
    return st.one_of(
        lists,
        lists.map(lambda pair: (tuple(pair[0]), tuple(pair[1]))),
        lists.map(lambda pair: (iter(pair[0]), pair[1])),
        st.dictionaries(st.text(max_size=4), children, max_size=5).map(
            lambda d: ({k: s for k, (s, _) in d.items()}, {k: p for k, (_, p) in d.items()})),
        # keys that are not str take json.dumps whole, re-indented to their depth
        st.dictionaries(st.integers(), _SCALARS, max_size=3).map(lambda d: (d, d)),
    )


_DOCS = st.recursive(_SCALARS.map(lambda v: (v, v)), _containers, max_leaves=40)


@given(_DOCS)
@settings(max_examples=150, deadline=None)
def test_writer_matches_json_dumps(pair):
    streamed, plain = pair
    assert "".join(cli._json(streamed)) == json.dumps(plain, indent=2, sort_keys=True)


@pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 600])
def test_writer_blocks_join_to_the_document(rows):
    doc = {"rows": ({"exp": [i, -i], "coeff": str(i)} for i in range(rows)), "n": rows}
    plain = {"rows": [{"exp": [i, -i], "coeff": str(i)} for i in range(rows)], "n": rows}
    blocks = list(cli._json(doc))
    assert "".join(blocks) == json.dumps(plain, indent=2, sort_keys=True)
    assert len(blocks) == rows // cli._BLOCK_ROWS + 1


def test_empty_top_level_iterators_are_empty_arrays():
    assert "".join(cli._json(iter([]))) == "[]"
    assert "".join(cli._json(x for x in ())) == "[]"
    assert "".join(cli._json(iter([iter([])]))) == "[\n  []\n]"


@pytest.mark.parametrize("argv", [
    ("support", "--group", "c6", "--report", "full"),
    ("padic", "--group", "c9", "--all"),
])
def test_out_file_gets_the_stdout_bytes(capsys, tmp_path, argv):
    # stdout is the file's text plus a final newline where it has none;
    # a CSV ends with its own row terminator
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    with open(path, newline="") as handle:
        text = handle.read()
    assert out == (text if text.endswith("\n") else text + "\n")


def test_imm_out_file_gets_the_polynomial_schema(capsys, tmp_path):
    spec, lam = GroupSpec((6,)), Partition((3, 2, 1))
    path = tmp_path / "poly.json"
    assert cli.main(["imm", "--group", "c6", "--partition", "3,2,1", "--out", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    expected = json.dumps(immanant(spec, lam).to_json_dict(), indent=2, sort_keys=True)
    assert path.read_text() == expected
    assert summary["out"] == str(path)
    assert json.loads(expected)["terms"]


class _Discard:
    """A stdout that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("argv", [
    # the polynomial and one block of 256 terms: 0.8 MB traced; a dict per
    # term (to_json_dict) alone takes 2.9 MB
    ("imm", "--group", "c10", "--partition", ",".join(["1"] * 10)),
    # one block of 4096 rows: 1.1 MB traced; all 32,066 rows in one buffer
    # and its copy take 3.9 MB
    ("padic", "--group", "c11", "--all"),
], ids=["imm-c10-det", "padic-c11"])
def test_large_outputs_are_never_held_whole(argv):
    with redirect_stdout(_Discard()):
        assert cli.main(list(argv)) == 0  # fills the per-group caches
        tracemalloc.start()
        try:
            assert cli.main(list(argv)) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20
