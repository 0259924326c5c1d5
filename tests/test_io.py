import pytest

from heatpred.io import jsonl_ranges, line_number, read_jsonl, read_jsonl_lenient


@pytest.mark.parametrize("trailing_newline", [True, False])
def test_ranges_cut_at_line_ends_and_read_like_the_whole_file(tmp_path, trailing_newline):
    path = tmp_path / "f.jsonl"
    lines = ['{"i": %d, "pad": "%s"}' % (i, "x" * (7 * i % 23)) for i in range(9)]
    lines[3] = ""
    lines[5] = "  "
    lines[7] = '{"i": 7, bad'
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    path.write_text(text)
    whole = [(offset, str(r)) for offset, r in read_jsonl_lenient(path)]
    assert [offset for offset, _ in whole] == [text.index(ln) for ln in lines if ln.strip()]
    assert whole[-2][1].startswith(f"{path}:8: invalid JSON")
    size = len(text)
    for parts in range(1, 12):
        ranges = jsonl_ranges(path, parts)
        assert 1 <= len(ranges) <= parts
        assert ranges[0][0] == 0 and ranges[-1][1] == size
        assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:] + [(size, None)]))
        assert all(text[a - 1] == "\n" for a, _ in ranges[1:])
        pieces = [(offset, str(r)) for a, b in ranges for offset, r in read_jsonl_lenient(path, a, b)]
        assert pieces == whole


def test_empty_file_has_no_ranges(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text("")
    assert jsonl_ranges(path, 4) == []


def test_line_number_and_strict_reader(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('{"a": 1}\n\n[2]\n{"a": \n')
    assert [line_number(path, offset) for offset, _ in read_jsonl_lenient(path)] == [1, 3, 4]
    records = read_jsonl(path)
    assert next(records) == (0, {"a": 1})
    assert next(records) == (10, [2])
    with pytest.raises(ValueError, match=f"{path}:4: invalid JSON"):
        next(records)
