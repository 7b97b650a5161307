"""The CSV layer: ``save_csv`` bytes and ``load_csv`` against its line parser.

``load_csv`` reads rows in one ``np.loadtxt`` pass and falls back to the
``csv.reader`` line parser for anything that pass could read differently.
The differential test below feeds both the same generated files, lenient
and malformed ones included, and requires the same arrays or the same
exception.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfi import core
from relfi.core import TEST, TRAIN, Dataset, load_csv, save_csv

PROFILE = settings(derandomize=True, database=None, deadline=None)

# Cells the line parser reads as numbers; np.loadtxt reads them the same.
plain_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # extreme exponents too
    st.tuples(st.integers(-(10**25), 10**25), st.integers(0, 10**40), st.integers(-999, 999))
    .map(lambda t: "%d.%de%d" % t),  # long decimals, over- and underflowing ones too
    st.floats(0, 1e6).map(lambda v: f"+{v!r}"),
    st.integers(-(10**20), 10**20).map(lambda v: f" {v}\t"),
)
# Cells and tags that only the line parser reads, or that make the load fail.
ODD_CELLS = ('"1.5"', "1_000", "nan", "inf", "-Infinity", "#1", "", "0x10", "١", "1\x00",
             " ")
ODD_TAGS = ("dev", " test", "TRAIN", "trainingXX", "trai", '"test"', "test\x00", "Test ",
            "", "tést", "t€st")
ODD_LINES = ("", "   ", "#1,2,train", '"1,5",2,test')
ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def csv_files(draw):
    """(file text, split column or None, data rows if the file is clean else 0).

    One file in two is clean: only rows both readers take, perhaps a blank
    line. The others carry one or two odd cells, tags, lines or field counts.
    """
    k = draw(st.integers(1, 3))
    names = [f"x{j}" for j in range(k - 1)] + ["y"]
    split = draw(st.sampled_from([None, "split"]))
    if split is not None:
        names.insert(draw(st.integers(0, k)), split)
    clean = draw(st.booleans())
    n = draw(st.integers(0, 6))
    lines = []
    for _ in range(n):
        row = [draw(st.sampled_from([TRAIN, TEST])) if name == split else draw(plain_numbers)
               for name in names]
        lines.append(",".join(row))
    for _ in range(0 if clean else draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["cell", "tag", "tag", "line", "extra", "missing",
                                     "trailing"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "line" or not lines:
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
            continue
        rows = range(len(lines)) if draw(st.booleans()) else [min(at, len(lines) - 1)]
        for at in rows:  # every row, or one
            row = lines[at].split(",")
            if kind == "cell":
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
            elif kind == "tag" and split is not None:
                row[names.index(split)] = draw(st.sampled_from(ODD_TAGS))
            elif kind == "extra":
                row.append(draw(plain_numbers))
            elif kind == "missing":
                row.pop()
            elif kind == "trailing":
                row.append("")
            lines[at] = ",".join(row)
    if clean and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")  # a blank line is skipped
    endings = draw(st.lists(st.sampled_from(ENDINGS), min_size=1, max_size=2))
    text = "".join(line + endings[j % len(endings)]
                   for j, line in enumerate([",".join(names)] + lines))
    return text, split, n if clean else 0


def _outcome(path, split):
    try:
        data = load_csv(path, "y", split_column=split, seed=5)
    except Exception as exc:  # csv.Error and UnicodeDecodeError included
        return type(exc), str(exc)
    return data.variable_names, data.values.tobytes(), data.test_mask.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "d.csv"


# Files whose fast reading is easy to get wrong, as (text, split column, clean rows).
TRAPS = {
    "long-tag": ("y,split\n1,trainingXX\n2,test\n", "split", 0),  # S5 would read b"train"
    "nul-in-tag": ("y,split\n1,test\x00\n", "split", 0),  # numpy drops trailing NULs
    "extra-field-every-row": ("x0,y\n1,2,3\n4,5,6\n", None, 0),
    "trailing-comma": ("x0,y,split\n1,2,train,\n", "split", 0),
    "trailing-comma-no-split": ("x0,y\n1,2,\n", None, 0),
    "missing-field": ("x0,y,split\n1,2\n", "split", 0),
    "lone-cr": ("x0,y,split\r1,2,train\r3,4,test\r", "split", 2),
    "crlf-blank-line": ("x0,y,split\r\n1,2,train\r\n\r\n3,4,test\r\n", "split", 2),
    "header-only": ("x0,y,split\n", "split", 0),
    "quoted-cell": ('x0,y,split\n"1.5",2,test\n', "split", 0),
    "padded-upper-tags": ("x0,y,split\n1,2, test\n3,4,TRAIN\n", "split", 0),
    "underscore": ("x0,y\n1_000,+1.5\n", None, 0),
    "whitespace-line": ("x0,y\n1,2\n   \n", None, 0),
    "hash-cell": ("x0,y\n#1,2\n", None, 0),
    "dev-tag": ("x0,y,split\n1,2,dev\n", "split", 0),
    "latin1-tag": ("y,split\n1,tést\n", "split", 0),  # the bytes pass reads b"t\xe9st"
    "non-latin1-tag": ("y,split\n1,t€st\n", "split", 0),  # no Latin-1 byte for the euro
    "non-finite": ("x0,y\nnan,inf\n", None, 1),
}


def _assert_both_readers_agree(path, text, split, clean_rows):
    path.write_bytes(text.encode())
    fast = _outcome(path, split)
    with mock.patch.object(core, "_rows_by_loadtxt", lambda *args: None):
        line_parser = _outcome(path, split)
    assert fast == line_parser
    if clean_rows:  # and the fast pass is the one that read it
        header = core.csv_header(path)
        split_idx = header.index(split) if split else None
        assert core._rows_by_loadtxt(path, header, split_idx)[0].shape[0] == clean_rows


@pytest.mark.filterwarnings("error::UserWarning")  # none leaks out of load_csv
@pytest.mark.parametrize("case", TRAPS.values(), ids=TRAPS.keys())
def test_known_traps_load_as_the_line_parser_reads_them(scratch, case):
    _assert_both_readers_agree(scratch, *case)


@pytest.mark.filterwarnings("error::UserWarning")
@settings(PROFILE, max_examples=200)
@given(csv_files())
def test_load_matches_the_line_parser(scratch, case):
    _assert_both_readers_agree(scratch, *case)


@pytest.mark.parametrize("text", ["x0,y\n1,2\n3,4\n", 'x0,y\n"1",2\n3,4\n'],
                         ids=["fast-pass", "line-parser"])
def test_byte_order_mark_is_not_part_of_the_header(scratch, text):
    # as Excel's "CSV UTF-8" saves a file
    scratch.write_text(text)
    plain = _outcome(scratch, None)
    scratch.write_bytes(text.encode("utf-8-sig"))
    assert core.csv_header(scratch) == ["x0", "y"]
    assert _outcome(scratch, None) == plain


@pytest.mark.parametrize("split", [None, "split"])
@pytest.mark.parametrize("quote", ["", '"'], ids=["fast-pass", "line-parser"])
def test_load_builds_the_column_major_array_it_keeps(scratch, monkeypatch, split, quote):
    # Dataset takes the array load_csv hands it as it is: no second full copy
    handed, readers = [], []

    class Recording(Dataset):
        def __post_init__(self):
            handed.append(self.values)
            super().__post_init__()

    monkeypatch.setattr(core, "Dataset", Recording)
    line_parser = core._rows_by_line
    monkeypatch.setattr(core, "_rows_by_line", lambda *a: readers.append(a) or line_parser(*a))
    rows = [(1.5, -2.0, 3.25), (4.0, 0.5, -6.0), (7.0, 8.5, 9.0)]
    lines = [f"{quote}{a}{quote},{b},{c}" + ("" if split is None else f",{tag}")
             for (a, b, c), tag in zip(rows, (TRAIN, TEST, TRAIN))]
    scratch.write_text(",".join(["x0", "x1", "y"] + ([split] if split else [])) + "\n"
                       + "\n".join(lines) + "\n")
    data = load_csv(scratch, "y", split_column=split)
    assert len(readers) == (quote != "")
    assert data.values is handed[0] and data.values.flags.f_contiguous
    assert np.array_equal(data.values, rows)


def test_nul_and_overlong_cells_take_the_line_parser(scratch):
    scratch.write_bytes(b"y,split\n1,test\x00\n2,train\n")
    assert core._rows_by_loadtxt(scratch, ["y", "split"], 1) is None
    with pytest.raises(core.SchemaError, match=r"d.csv:2: split must be .* got 'test\\x00'"):
        load_csv(scratch, "y", split_column="split")
    scratch.write_text("y\n1." + "0" * csv.field_size_limit() + "\n2\n")
    with pytest.raises(core.SchemaError, match=r"d.csv:2: field larger than field limit"):
        load_csv(scratch, "y")


def test_overlong_header_is_a_schema_error(scratch):
    scratch.write_text("y" + "0" * csv.field_size_limit() + "\n2\n")
    with pytest.raises(core.SchemaError, match=r"d.csv:1: field larger than field limit"):
        core.csv_header(scratch)


def test_save_refuses_a_variable_named_split_before_opening(scratch):
    scratch.write_text("kept")
    data = Dataset(("split", "y"), np.ones((2, 2)), "y", [False, True])
    with pytest.raises(core.SchemaError, match="variable named 'split'"):
        save_csv(data, scratch)
    assert scratch.read_text() == "kept"


def _reference_bytes(data: Dataset) -> bytes:
    """The CSV ``save_csv`` must write: csv.writer rows of ``repr`` values."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(data.variable_names) + ["split"])
    for row, test in zip(data.values.tolist(), data.test_mask.tolist()):
        writer.writerow([repr(v) for v in row] + [TEST if test else TRAIN])
    return out.getvalue().encode()


def test_save_matches_the_csv_writer_across_chunks(scratch):
    rng = np.random.default_rng(3)
    n = core._SAVE_CHUNK_ROWS + 5
    values = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    values[:4, 0] = [-0.0, 1e16, 5e-324, -1.7976931348623157e308]
    values[core._SAVE_CHUNK_ROWS - 1 : core._SAVE_CHUNK_ROWS + 1, 1] = [0.1, 1e-5]
    data = Dataset(("a,b", 'q"uote', "y"), values, "y", rng.random(n) < 0.1)
    save_csv(data, scratch)
    assert scratch.read_bytes() == _reference_bytes(data)
    with mock.patch.object(core, "_rows_by_line", side_effect=AssertionError):
        back = load_csv(scratch, "y", split_column="split")  # by the fast pass alone
    assert back.values.tobytes() == data.values.tobytes()
    assert np.array_equal(back.test_mask, data.test_mask)


@settings(PROFILE, max_examples=60)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=k, max_size=k), st.booleans()),
            min_size=1, max_size=8,
        )
    )
)
def test_save_bytes_and_round_trip(scratch, rows):
    values = np.array([r for r, _ in rows])
    data = Dataset([f"v{j}" for j in range(values.shape[1])], values, "v0",
                   [t for _, t in rows])
    save_csv(data, scratch)
    assert scratch.read_bytes() == _reference_bytes(data)
    back = load_csv(scratch, "v0", split_column="split")
    assert back.values.tobytes() == data.values.tobytes()
    assert np.array_equal(back.test_mask, data.test_mask)
