import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfpainleve._io import _BLOCK, _write_atomic, format_float, write_csv, write_lines

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


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from([1, 4]), ints=st.booleans(),
       floats=st.lists(st.floats(), max_size=8),
       integers=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_write_csv_bytes_match_per_value_formatting(tmp_path_factory, n, k, ints, floats,
                                                    integers, seed):
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
