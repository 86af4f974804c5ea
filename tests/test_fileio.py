import json
import re

import numpy as np
import pytest

from graphssl import fileio, parallel


def format_bow(matrix):
    """bow_chunks' triplet text, joined into one string."""
    return b"".join(fileio.bow_chunks(matrix)).decode()


class TestFeatures:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,2.5\n-3.0,4.25\n")
        x = fileio.read_features(path)
        assert np.array_equal(x, [[1.0, 2.5], [-3.0, 4.25]])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n\n3,4\n")
        assert fileio.read_features(path).shape == (2, 2)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_bad_byte_names_its_line_and_its_offset_in_the_file(self, tmp_path, newline):
        path = tmp_path / "x.csv"
        path.write_bytes((b"1,2" + newline) * 10000 + b"1,\xff2" + newline)
        offset = 10000 * (3 + len(newline)) + 2
        with pytest.raises(ValueError, match=f": line 10001: byte {offset} is not UTF-8$"):
            fileio.read_features(path)


def random_feature_text():
    x = np.random.default_rng(3).standard_normal((50, 3)) * 10.0 ** np.arange(-5, 10, 5)
    return "".join(",".join(repr(v) for v in row) + "\n" for row in x.tolist())


class TestBulkFeatures:
    """read_features must return exactly what the line-by-line reader returns."""

    @pytest.mark.parametrize("text", [
        random_feature_text(),
        "1,2\n\n\n3,4\n\n",
        "1,2\n   \n3,4\n",
        " 1.5 , -2 \n\t3e-3,\t4 \n",
        "0.5\n-1\n2e300\n",
        "7,8\r\n9,10\r\n",
    ], ids=["repr-floats", "blank-lines", "whitespace-line", "spaced-fields",
            "single-column", "crlf"])
    def test_matches_line_reader(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        expected = fileio._read_features_by_line(path)
        x = fileio.read_features(path)
        assert x.dtype == expected.dtype and x.shape == expected.shape
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize("text", ["# header\n1,2\n", "1,2\n# 3,4\n", "1,2\n#\n", "", "\n \n"])
    def test_rejects_like_line_reader(self, tmp_path, text):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as expected:
            fileio._read_features_by_line(path)
        with pytest.raises(ValueError) as got:
            fileio.read_features(path)
        assert str(got.value) == str(expected.value)


class TestLabels:
    def test_assignments(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,1\n5,0\n")
        assert fileio.read_label_assignments(path) == [(0, 1), (5, 0)]

    def test_truth(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("0\n1\n1\n")
        assert fileio.read_truth(path).tolist() == [0, 1, 1]


class TestBulkTruth:
    """read_truth must return exactly what the line-by-line reader returns, or raise its error."""

    @pytest.mark.parametrize("text", [
        "0\n1\n1\n",
        "+3\n-2\n007\n",
        " 3 \n\t4\t\n",
        "3\n\n   \n4\n\n",
        "3\r\n4\r\n",
        "3\r4\r",
        "1_0\n",
        "\u0663\n",
        "\x853\xa0\n",
        "\x1c3\n",
        "3",
    ], ids=["plain", "signs-and-zeros", "spaced", "blank-and-whitespace-lines", "crlf", "cr",
            "digit-separator", "arabic-indic-digit", "unicode-spaces", "file-separator",
            "no-final-newline"])
    def test_matches_line_reader(self, tmp_path, text):
        path = tmp_path / "truth.txt"
        path.write_bytes(text.encode())
        expected = fileio._read_truth_by_line(path)
        got = fileio.read_truth(path)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("text", [
        "3.0\n", "1 2\n", "1 2\n3 4\n", "3\n1 2\n", "--3\n", "- 3\n", "3-4\n", "+\n",
        "#3\n", "", "\n \n", "9223372036854775808\n",
    ])
    def test_rejects_like_line_reader(self, tmp_path, text):
        path = tmp_path / "truth.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as expected:
            fileio._read_truth_by_line(path)
        with pytest.raises(ValueError) as got:
            fileio.read_truth(path)
        assert str(got.value) == str(expected.value)

    def test_plain_file_is_parsed_in_bulk(self, tmp_path, monkeypatch):
        path = tmp_path / "truth.txt"
        path.write_bytes("".join(f"{v}\n" for v in range(-5, 995)).encode())
        monkeypatch.setattr(fileio, "_read_truth_by_line", lambda _: pytest.fail("line reader ran"))
        assert fileio.read_truth(path).tolist() == list(range(-5, 995))


class TestBowFormat:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = np.where(rng.random((6, 5)) < 0.4, rng.random((6, 5)) * 3, 0.0)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        first.write_text(format_bow(matrix))
        parsed = fileio.read_bow(first)
        assert np.array_equal(parsed, matrix)
        second.write_text(format_bow(parsed))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("2 2 3\n0 0 1.0\n", "declares 3"),
        ("2 2 2\n0 0 1.0\n1.5 0 1.0\n", "line 3: malformed triplet"),
        # Six tokens split as 4 + 2 would still read as two valid triplets.
        ("3 3 2\n0 0 1.0 2\n1 1.5\n", "line 2: expected `row col value`"),
        # The first bad line is named, not a later one.
        ("2 2 2\n0 0 1.0\n0 9 1.0\n0 0 x\n", "line 3: index out of range"),
    ], ids=["header-mismatch", "non-integer-index", "four-field-line", "first-bad-line"])
    def test_rejects_bad_triplets(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            fileio.read_bow(path)

    def test_storage_threshold(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(format_bow(np.array([[1e-13, 2.0]])))
        assert fileio.read_bow(path).tolist() == [[0.0, 2.0]]

    def test_duplicate_coordinate_names_repeat_line(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("2 2 3\n0 1 1.0\n1 1 2.0\n\n0 1 3.0\n")
        with pytest.raises(ValueError, match=r"line 5: duplicate coordinate \(0, 1\)"):
            fileio.read_bow(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"3 2 3\n0 0 1.0\n\n1 1 2.0\n2 0 {value}\n")
        with pytest.raises(ValueError, match="line 5: non-finite value"):
            fileio.read_bow(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("2 2 2\n\n0 0 1.0\n   \n1 1 2.5\r\n\n")
        assert fileio.read_bow(path).tolist() == [[1.0, 0.0], [0.0, 2.5]]

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("2 3 0\n")
        assert np.array_equal(fileio.read_bow(path), np.zeros((2, 3)))

    @pytest.mark.parametrize("line", [
        "1_0 0 1.0", "1.0 0 1.0", "9999999999999999999 0 1.0",
        "0 0 0x1", "0 0 '2'", "0 0 1_0.5",
    ])
    def test_bad_token_names_line(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"20 2 1\n{line}\n")
        with pytest.raises(ValueError, match="line 2: ") as caught:
            fileio.read_bow(path)
        assert "malformed triplet body" not in str(caught.value)

    @pytest.mark.parametrize("separator", [b"\x1c", b"\x1f", b"\x85", b"\xa0"])
    def test_only_ascii_whitespace_separates_fields(self, tmp_path, separator):
        # numpy's whitespace delimiter also splits on these; the format does not.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2 2 2\n1 1 2.0\n0" + separator + b"0 1.0\n")
        with pytest.raises(ValueError, match="line 3: "):
            fileio.read_bow(path)

    def test_carriage_return_inside_a_line_is_whitespace(self, tmp_path):
        path = tmp_path / "cr.txt"
        path.write_bytes(b"2 2 2\n0 0\r1.5\r\n1\r1 2.0\n")
        assert fileio.read_bow(path).tolist() == [[1.5, 0.0], [0.0, 2.0]]

    def test_round_trip_bits_over_magnitudes(self, tmp_path):
        # numpy's float parser must invert repr exactly, subnormals included.
        rng = np.random.default_rng(5)
        scale = 10.0 ** rng.integers(-320, 300, (700, 40))
        matrix = np.where(rng.random((700, 40)) < 0.3, rng.standard_normal((700, 40)) * scale, 0.0)
        path = tmp_path / "m.txt"
        path.write_text(json_triplets(matrix, threshold=0.0))
        assert np.array_equal(fileio.read_bow(path), matrix)

    def test_writer_round_trips_bits_over_magnitudes(self, tmp_path):
        # The program's own triplet text reads back bit for bit, small entries as 0.
        rng = np.random.default_rng(7)
        scale = 10.0 ** rng.integers(-12, 301, (300, 40))
        matrix = np.where(rng.random((300, 40)) < 0.7, rng.standard_normal((300, 40)) * scale, 0.0)
        matrix[0, :8] = [1e-12, -1e-12, 2e-12, -123.0, 5e15, 0.5, -1e300, 1e-5]
        path = tmp_path / "m.txt"
        path.write_bytes(b"".join(fileio.bow_chunks(matrix)))
        expected = np.where(np.abs(matrix) <= fileio.THRESHOLD, 0.0, matrix)
        assert np.array_equal(fileio.read_bow(path).view(np.uint64), expected.view(np.uint64))
        values = [line.split()[2] for line in path.read_text().splitlines()[1:]]
        for form in (r"-?0\.\d+", r"-?[1-9]\d*\.\d+", r"-?\d+\.0", r"-?\d(\.\d+)?e[+-]\d\d+"):
            assert any(re.fullmatch(form, value) for value in values), form
        assert {value[0] == "-" for value in values} == {True, False}


def json_triplets(matrix, threshold=1e-12):
    """Triplet text as rendered through json.dumps, one entry at a time."""
    rows, cols = np.nonzero(np.abs(matrix) > threshold)
    lines = [f"{matrix.shape[0]} {matrix.shape[1]} {rows.size}"]
    lines += [f"{i} {j} {json.dumps(float(matrix[i, j]))}" for i, j in zip(rows, cols)]
    return "\n".join(lines) + "\n"


class TestFormatBow:
    def test_matches_json_rendering(self):
        edge = np.nextafter(1e-12, 1.0)
        matrix = np.array([
            [0.1 + 0.2, 1e16, -2.5, 0.0],
            [1e-12, -1e-12, edge, -edge],
            [123456789.123, -1e-5, 1e22, 1.0 / 3.0],
        ])
        text = format_bow(matrix)
        assert text == json_triplets(matrix)
        assert "0 0 0.30000000000000004\n" in text
        assert "0 1 1e+16\n" in text
        assert " 1e-12\n" not in text
        assert text.startswith("3 4 9\n")

    def test_subnormal_matches_json(self):
        matrix = np.array([[5e-324, 0.0], [-2.2250738585072014e-308, 1.5]])
        assert format_bow(matrix) == "2 2 1\n1 1 1.5\n"

    def test_random_matrix_matches_json(self):
        rng = np.random.default_rng(11)
        matrix = rng.standard_normal((30, 20)) * 10.0 ** rng.integers(-15, 20, (30, 20))
        assert format_bow(matrix) == json_triplets(matrix)

    # NaN compares false against the threshold; it must not be dropped as small.
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            format_bow(np.array([[bad, 1.0]]))

    @pytest.mark.parametrize("block_rows", [1, 7, 256, 10_000])
    @pytest.mark.parametrize("kind", ["random", "empty rows", "nothing kept"])
    def test_block_size_does_not_change_output(self, monkeypatch, block_rows, kind):
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((600, 30)) * 10.0 ** rng.integers(-15, 5, (600, 30))
        if kind == "empty rows":
            matrix[rng.random(600) < 0.5] = 0.0
        elif kind == "nothing kept":
            matrix = np.full((600, 30), 1e-13)
        expected = json_triplets(matrix)
        monkeypatch.setattr(fileio, "FORMAT_BLOCK_ROWS", block_rows)
        assert format_bow(matrix) == expected
        if kind == "nothing kept":
            assert expected == "600 30 0\n"


class TestBowChunks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, kind", [(600, "random"), (512, "random"), (5, "random"),
                                         (600, "nothing kept")])
    def test_chunks_join_to_format_bow(self, monkeypatch, workers, n, kind):
        # 600 rows end in a short block, 512 fill two blocks, 5 fill less than one.
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((n, 30)) * 10.0 ** rng.integers(-15, 5, (n, 30))
        if kind == "nothing kept":
            matrix = np.full((n, 30), 1e-13)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        expected = format_bow(matrix)  # formatted in this process
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        chunks = list(fileio.bow_chunks(matrix))
        assert len(chunks) == 1 + -(-n // fileio.FORMAT_BLOCK_ROWS)
        assert b"".join(chunks).decode() == expected
        if kind == "nothing kept":
            assert b"".join(chunks) == f"{n} 30 0\n".encode()

    def test_rejects_nan_before_the_first_chunk(self, monkeypatch):
        monkeypatch.setattr(fileio, "FORMAT_BLOCK_ROWS", 1)
        matrix = np.ones((3, 2))
        matrix[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fileio.bow_chunks(matrix)


class TestMetrics:
    def test_render_parse_round_trip(self):
        items = [
            ("schema", 1),
            ("name", "run"),
            ("values", [0.5, 1.0, np.float64(0.25)]),
            ("flag", True),
        ]
        text = fileio.render_metrics(items)
        parsed = fileio.parse_metrics(text)
        assert parsed == {"schema": 1, "name": "run", "values": [0.5, 1.0, 0.25], "flag": True}

    def test_deterministic_float_rendering(self):
        a = fileio.render_metrics([("x", 0.1 + 0.2)])
        b = fileio.render_metrics([("x", 0.1 + 0.2)])
        assert a == b
        assert "0.30000000000000004" in a

    def test_line_without_separator_is_rejected(self):
        with pytest.raises(ValueError, match="^metrics line 3: missing ` = ` separator$"):
            fileio.parse_metrics("schema = 1\n\nschema: 2\n")
