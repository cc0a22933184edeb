"""The shared expression grammar: every polynomial, formula and `--expect`
text of the demo and benchmark projects, the README and the test files,
plus a list of malformed texts, parses exactly as pinned in
tests/data/parse_digests.json."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from padicstacks.definable import parse_formula, parse_q_expression
from padicstacks.polyscheme import parse_poly
from padicstacks.rings import BoundExceeded

DIGESTS = Path(__file__).parent / "data" / "parse_digests.json"
Q_POINTS = (2, 3, 5, 7)


def parse_digest(kind, text, variables):
    """What the table records for one text: sorted terms of a polynomial,
    repr of a formula AST, values of a q-expression at Q_POINTS, or the
    exception class and position of a parse error."""
    try:
        if kind == "poly":
            return [[list(e), c] for e, c in parse_poly(text, variables).sorted_terms()]
        if kind == "formula":
            return repr(parse_formula(text, variables))
        expr = parse_q_expression(text)
    except ValueError as exc:
        return {"error": type(exc).__name__, "position": exc.position}
    values = {}
    for q in Q_POINTS:
        try:
            values[str(q)] = str(expr(Fraction(q)))
        except ZeroDivisionError:
            values[str(q)] = "ZeroDivisionError"
    return values


def test_parse_digests():
    table = json.loads(DIGESTS.read_text())
    assert len(table) > 150
    for row in table:
        got = parse_digest(row["kind"], row["text"], row["variables"])
        assert got == row["result"], (row["kind"], row["text"], row["variables"])


def test_oversized_products_refused_while_parsing():
    # (x+y+1)^200 used to be built in full (about 45 s); the squaring
    # that would reach (x+y+1)^128 is refused before it starts
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="bound 4000000$"):
        parse_poly("(x+y+1)^200", ("x", "y"))
    assert time.perf_counter() - start < 2
