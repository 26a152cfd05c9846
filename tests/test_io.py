import numpy as np
import pytest

from tfpainleve._io import format_float, write_csv, write_lines


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


def test_failed_write_leaves_no_temp_file(tmp_path):
    # os.replace fails: the target is a directory
    target = tmp_path / "table.csv"
    target.mkdir()
    with pytest.raises(OSError):
        write_csv(target, ["a"], [np.zeros(3)])
    # the write itself fails: a line that is not a string
    with pytest.raises(TypeError):
        write_lines(tmp_path / "lines.txt", ["a", 1])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
