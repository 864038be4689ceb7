"""The CLI's array float formatter against repr, element by element."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasso_spectra import _floattext
from lasso_spectra.cli import parse_grid


def _reprs(*columns, sep=",", end="\n"):
    """The reference: repr of every value, a row's joined by sep, each row
    followed by end."""
    return "".join(sep.join(map(repr, row)) + end for row in zip(*(c.tolist() for c in columns))).encode()


def _assert_reprs(x):
    got = _floattext.rows([x], b",", b"\n").split(b"\n")
    want = _reprs(x).split(b"\n")
    wrong = [(i, got[i], want[i]) for i in range(len(want)) if got[i] != want[i]]
    assert not wrong, (len(wrong), wrong[:5])


# Any 64 bits: every sign, exponent and fraction, nan and inf included.
_BITS = st.lists(st.integers(0, 2**64 - 1), max_size=64).map(lambda b: np.array(b, np.uint64).view(np.float64))


@settings(max_examples=60, deadline=None)
@given(x=_BITS, y=_BITS)
def test_rows_are_reprs(x, y):
    y = np.resize(y, x.size) if y.size else np.full(x.size, -0.0)
    assert _floattext.rows([x, y], b",", b"\n") == _reprs(x, y)
    assert _floattext.rows([x], b",", b", ", threads=2) == _reprs(x, end=", ")


def test_boundary_values_are_reprs():
    """The cases random bits almost never draw: every power of 2 and of 10
    that is a double, with both neighbours (the narrower lower gap at a power
    of two, and the 18-digit scale just above a power of ten); short decimals
    just above a power of ten, whose shortest digits end in 000 on that
    scale; and dyadic values a 2^(d - 17), a odd, in each decade d, which
    scale to a half-integer: two shortest candidates tie."""
    rng = np.random.default_rng(0)
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024), [float(f"1e{e}") for e in range(-323, 309)]])
    above_ten = [float(f"1.{'0' * z}{j}e{e}") for e in range(-30, 31) for z in range(10, 14) for j in (1, 7)]
    ties = [
        a * 2.0 ** (d - 17)
        for d in range(-8, 16)
        for a in rng.integers(10.0**d * 2.0 ** (17 - d), 10.0 ** (d + 1) * 2.0 ** (17 - d), 50) | 1
    ]
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), above_ten, ties])
    _assert_reprs(np.concatenate([x, -x]))


def test_rows_on_more_threads_than_cpus(monkeypatch):
    """80 blocks on 8 threads, switching every microsecond: every block in
    its place."""
    monkeypatch.setattr(_floattext, "BLOCK_ROWS", 64)
    x = np.random.default_rng(1).standard_normal(80 * 64) * 10.0 ** np.arange(-40, 40).repeat(64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _floattext.rows([x, -x], b",", b"\n", threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == _reprs(x, -x)


@pytest.mark.sweep
def test_reprs_sweep():
    """2^20 random bit patterns, and grids as parse_grid builds them, among
    them those of the benchmark and the CI."""
    rng = np.random.default_rng(34)
    for _ in range(16):
        _assert_reprs(rng.integers(0, 2**64, 2**16, dtype=np.uint64).view(np.float64))
    specs = ["0:200:0.001", "-50:400:0.01", "0:60:0.001", "-5:9:0.07", "0.123:1000:0.001", "-4.321:2000:0.01"]
    specs += [f"{rng.uniform(-1e3, 1e3)!r}:{1e4!r}:{rng.uniform(1e-4, 1.0)!r}" for _ in range(4)]
    for spec in specs:
        _assert_reprs(parse_grid(spec))
