import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfpainleve._io import _BLOCK, _format_rows, _write_atomic, format_float, write_csv, write_lines

_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 7,
            1.7976931348623157e308, -1.7976931348623157e308]


def test_format_float_round_trips():
    for v in (np.pi, -0.0, 1e-300, 2.0 / 3.0, 1.2333601779902887):
        assert float(format_float(v)) == v


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    a = np.array([1.0, 2.0, np.pi])
    b = np.array([-1.0, 0.5, 1e-12])
    write_csv(path, ["a", "b"], [a, b])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 0], a)  # exact: 17 digits round-trip
    np.testing.assert_array_equal(data[:, 1], b)
    assert not (tmp_path / "table.csv.tmp").exists()


def test_write_csv_validation(tmp_path):
    with pytest.raises(ValueError, match="header"):
        write_csv(tmp_path / "x.csv", ["a"], [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError, match="same length"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError, match="1d columns"):
        write_csv(tmp_path / "x.csv", [], [])
    with pytest.raises(ValueError, match="1d columns"):
        write_csv(tmp_path / "x.csv", ["a"], [np.zeros((3, 1))])
    assert list(tmp_path.iterdir()) == []


# row counts on and next to block boundaries while _BLOCK divides 8192
@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 16387])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([1, 4]), ints=st.booleans(),
       floats=st.lists(st.floats(), max_size=8),
       integers=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_write_csv_bytes_match_per_value_formatting(tmp_path_factory, n, k, ints, floats,
                                                    integers, seed):
    assert 8192 % _BLOCK == 0
    pool = integers if ints else _SPECIAL + floats
    pick = np.random.default_rng(seed).integers(len(pool), size=(n, k))
    values = np.array(pool, dtype=np.int64 if ints else float)
    columns = [values[pick[:, j]] for j in range(k)]
    header = [f"c{j}" for j in range(k)]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, columns)
    expected = [",".join(header)]
    expected += [",".join(f"{pool[i]:.16e}" for i in row) for row in pick.tolist()]
    # compared as lists of lines (the split is exact), so a failure names its first line
    assert path.read_text().split("\n") == [*expected, ""]
    # summary.txt values and CSV values go through the same conversion
    for v in pool:
        assert format_float(v) == "%.16e" % v


def _ties():
    # q / 2^(17-E) with q odd and 10^E <= q / 2^(17-E) < 10^(E+1) has 18
    # significant digits, the last a 5: an exact tie for 17-digit rounding
    out = []
    for e in range(-4, 16):
        lo = int(10.0**e * 2.0 ** (17 - e)) + 1
        out += [q / 2.0 ** (17 - e) for q in range(lo | 1, lo + 200, 2)]
    return np.array(out)


def _with_neighbours(x):
    x = np.asarray(x)
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


_EDGE_VALUES = {
    # log10 rounds to k next to 10^k, so the exponent must come from the
    # unrounded scaled value: 1e-280 is 9.9999999999999996e-281
    "powers": _with_neighbours([float(f"1e{k}") for k in range(-300, 301)]),
    # 17-digit rounding that carries into the next power of ten
    "carry": [float(f"9.99999999999999999e{k}") for k in range(-300, 301)]
    + [float(f"9.9999999999999995e{k}") for k in range(-300, 301)],
    "exponents": [float(f"{m}e{k}") for m in ("1", "1.5", "9.87654321") for k in range(-330, 309)],
    "subnormals": [5e-324, 1e-323, 2.2250738585072014e-308 / 7,
                   np.nextafter(2.2250738585072014e-308, 0.0)],
    "specials": [0.0, np.nan, np.inf, 1.7976931348623157e308, 1e270, 1e-270],
    "ties": _with_neighbours(_ties()),
    # scaled fractions at or next to an integer, where the floor may be one off
    "integers": _with_neighbours(np.concatenate([
        np.arange(1.0, 3000.0), np.arange(1.0, 3000.0) / 1024, 2.0 ** np.arange(-890, 890)])),
}


def _check_per_value(values):
    for start in range(0, values.size, 2**16):
        chunk = values[start:start + 2**16]
        # lists of lines, so that a failure names the first value that differs
        expected = [*("%.16e" % v for v in chunk.tolist()), ""]
        assert _format_rows(chunk[:, None]).split("\n") == expected


@pytest.mark.parametrize("name", sorted(_EDGE_VALUES))
def test_format_rows_matches_per_value_formatting_on_edge_values(name):
    values = np.asarray(_EDGE_VALUES[name], dtype=float)
    _check_per_value(np.concatenate([values, -values]))


def test_format_rows_matches_per_value_formatting_on_random_bit_patterns():
    bits = np.random.default_rng(15).integers(0, 2**64, size=2**20, dtype=np.uint64)
    _check_per_value(bits.view(np.float64))


def test_failed_write_leaves_no_temp_file(tmp_path):
    # os.replace fails: the target is a directory
    target = tmp_path / "table.csv"
    target.mkdir()
    with pytest.raises(OSError):
        write_csv(target, ["a"], [np.zeros(3)])
    # the write itself fails: a line that is not a string
    with pytest.raises(TypeError):
        write_lines(tmp_path / "lines.txt", ["a", 1])

    # a chunk source that fails after its first chunk has reached the file
    def chunks():
        yield "x" * (4 * io.DEFAULT_BUFFER_SIZE)
        assert (tmp_path / "partial.csv.tmp").stat().st_size > 0
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        _write_atomic(tmp_path / "partial.csv", chunks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
