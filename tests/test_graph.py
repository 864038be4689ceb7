from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lasso_spectra.errors import BadBreakpoints, IrrationalLength, NoPendantEdge
from lasso_spectra.graph import (
    EdgeSpec,
    GraphSpec,
    PotentialSpec,
    delta_potential,
    graph_from_json,
    graph_to_json,
    lasso_graph,
    parse_rational,
    validate,
    zero_potential,
)
from lasso_spectra.trigpoly import TrigPoly


def test_minimal_lasso_validates():
    g = lasso_graph(1, [1, 1])
    assert g.p == 2
    assert g.edges[0].role == "cycle"
    assert g.edge_length(1) == 1.0


def test_validate_idempotent():
    g = lasso_graph(1, [1])
    assert validate(g) == g


def test_bad_breakpoints_not_increasing():
    pot = PotentialSpec((Fraction(0), Fraction(1, 2), Fraction(2, 5), Fraction(1)), (0.0, 1.0, 0.0))
    edge = EdgeSpec(0, Fraction(1), "cycle", pot)
    with pytest.raises(BadBreakpoints):
        validate(GraphSpec((edge, EdgeSpec(1, Fraction(1), "pendant", zero_potential(1)))))


def test_breakpoint_endpoint_mismatch():
    pot = PotentialSpec((Fraction(0), Fraction(1, 2)), (0.0,))
    edge = EdgeSpec(1, Fraction(1), "pendant", pot)
    cyc = EdgeSpec(0, Fraction(1), "cycle", zero_potential(1))
    with pytest.raises(BadBreakpoints):
        validate(GraphSpec((cyc, edge)))


def test_no_pendant_edge_rejected():
    cyc = EdgeSpec(0, Fraction(1), "cycle", zero_potential(1))
    with pytest.raises(NoPendantEdge):
        validate(GraphSpec((cyc,)))


def test_irrational_length_rejected():
    with pytest.raises(IrrationalLength):
        parse_rational(0.333)
    with pytest.raises(IrrationalLength):
        parse_rational("pi")


def common_measure(graph):
    """The largest length dividing every edge length, by TrigPoly.freq_gcd."""
    lengths = sorted({e.length for e in graph.edges})
    return TrigPoly("cos", tuple(lengths), (1.0,) * len(lengths)).freq_gcd()


def test_common_measure_examples():
    assert common_measure(lasso_graph(1, [1, 1])) == 1
    assert common_measure(lasso_graph("1/2", ["3/4"])) == Fraction(1, 4)
    assert common_measure(lasso_graph(2, [3, 5])) == 1


@given(
    nums=st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=5),
    dens=st.lists(st.integers(min_value=1, max_value=60), min_size=2, max_size=5),
)
def test_common_measure_divides_every_length(nums, dens):
    n = min(len(nums), len(dens))
    lengths = [Fraction(a, b) for a, b in zip(nums[:n], dens[:n])]
    g = lasso_graph(lengths[0], lengths[1:])
    ell = common_measure(g)
    for e in g.edges:
        assert (e.length / ell).denominator == 1


def test_delta_potential_encoding():
    pot = delta_potential(1, "1/2", 0.7)
    assert pot.breakpoints == (0, Fraction(1, 2), 1) and pot.values == (0.0, 0.7)
    with pytest.raises(BadBreakpoints):
        delta_potential(1, "3/2", 1.0)


def test_json_round_trip(tmp_path):
    g = lasso_graph(
        "1/2", ["3/4", 1], potentials=[None, delta_potential("3/4", "1/4", -2.0), None]
    )
    blob = graph_to_json(g)
    path = tmp_path / "g.json"
    path.write_text(__import__("json").dumps(blob))
    g2, known = graph_from_json(path)
    assert known
    assert g2 == g


def test_json_text_longer_than_a_file_name():
    path = Path(__file__).resolve().parents[1] / "configs" / "lasso_triple.json"
    text = path.read_text()
    assert len(text) > 255
    assert graph_from_json(text) == graph_from_json(path)
    assert graph_from_json("\n  " + text) == graph_from_json(str(path))


def test_json_missing_path_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        graph_from_json(str(tmp_path / "absent.json"))


def test_json_without_sigma_marks_unknown_potential():
    blob = {
        "edges": [
            {"id": 0, "length": "1", "role": "cycle"},
            {"id": 1, "length": "1", "role": "pendant"},
        ]
    }
    g, known = graph_from_json(blob)
    assert not known
    assert g.edges[1].potential.values == (0.0,)


def test_json_float_length_rejected():
    blob = {
        "edges": [
            {"id": 0, "length": 1.25, "role": "cycle"},
            {"id": 1, "length": "1", "role": "pendant"},
        ]
    }
    with pytest.raises(IrrationalLength):
        graph_from_json(blob)
