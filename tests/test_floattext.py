import numpy as np
import pytest

from graphssl import floattext


def rendered(values):
    """floattext's text of each value, one line each."""
    values = np.asarray(values, dtype=np.float64)
    newline = np.full((values.size, 1), ord("\n"), np.uint8)
    return floattext.compress(np.hstack([floattext.slots(values), newline])).decode().splitlines()


def edge_values():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))  # 2**52 * 2**q at every q, and subnormals
    neighbours = [np.nextafter(v, towards) for v in (1e-4, 1e-5, 1e15, 1e16, 1e17)
                  for towards in (0.0, np.inf)]
    values = np.concatenate([
        [0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
         2.0**53 - 1, 2.0**53 + 2, 1e22, 1.7976931348623157e308, 0.1 + 0.2,
         1e-4, 1e-5, 1e15, 1e16, 1e17, 123.0, 0.5, 1e-323],
        neighbours, powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        np.arange(1, 2000, dtype=np.uint64).view(np.float64),  # the smallest subnormals
    ])
    return np.concatenate([values, -values])


def test_edge_values_match_repr():
    values = edge_values()
    assert rendered(values) == [repr(v) for v in values.tolist()]


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(32).integers(0, 2**64, 250_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size > 200_000
    assert rendered(values) == [repr(v) for v in values.tolist()]


def test_lines_match_joined_repr():
    rng = np.random.default_rng(1)
    matrix = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 20, (7, 5))
    matrix[2, 3], matrix[4] = -0.0, 0.0
    expected = "".join(" ".join(map(repr, row)) + "\n" for row in matrix.tolist())
    assert floattext.lines(matrix).decode() == expected


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="finite"):
        floattext.slots([1.0, value])
