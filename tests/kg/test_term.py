"""Unit tests for RDF-style terms."""

import pytest

from repro.errors import InvalidTermError
from repro.kg import IRI, BlankNode, Literal, term_key, to_subject, to_term


class TestIRI:
    def test_construction(self):
        assert IRI("ClaudioRanieri").value == "ClaudioRanieri"

    def test_empty_rejected(self):
        with pytest.raises(InvalidTermError):
            IRI("")

    def test_whitespace_rejected(self):
        with pytest.raises(InvalidTermError):
            IRI("Claudio Ranieri")

    def test_local_name_from_hash(self):
        assert IRI("http://example.org/person#CR").local_name == "CR"

    def test_local_name_from_path(self):
        assert IRI("http://www.wikidata.org/entity/Q42").local_name == "Q42"

    def test_local_name_plain(self):
        assert IRI("Chelsea").local_name == "Chelsea"

    def test_equality_and_ordering(self):
        assert IRI("A") == IRI("A")
        assert IRI("A") < IRI("B")


class TestLiteral:
    def test_string_literal(self):
        literal = Literal("hello")
        assert literal.datatype == "string"
        assert str(literal) == '"hello"'

    def test_integer_literal(self):
        literal = Literal.integer(1951)
        assert literal.as_int() == 1951
        assert str(literal) == "1951"

    def test_year_literal(self):
        assert Literal.year(1984).datatype == "gYear"

    def test_non_string_lexical_rejected(self):
        with pytest.raises(InvalidTermError):
            Literal(1951)  # type: ignore[arg-type]

    def test_datatype_part_of_identity(self):
        assert Literal("1951", "integer") != Literal("1951", "string")

    def test_term_key_keeps_datatype_and_lexical_form_apart(self):
        # Joined by a colon, both would read "x:a:b".
        first, second = Literal("a:b", "x"), Literal("b", "x:a")
        assert term_key(first) != term_key(second)
        assert term_key(first) == term_key(Literal("a:b", "x"))


class TestBlankNode:
    def test_construction_and_str(self):
        assert str(BlankNode("b1")) == "_:b1"

    def test_empty_label_rejected(self):
        with pytest.raises(InvalidTermError):
            BlankNode("")


class TestCoercion:
    def test_pass_through(self):
        term = IRI("CR")
        assert to_term(term) is term

    def test_int_becomes_integer_literal(self):
        assert to_term(1951) == Literal.integer(1951)

    def test_quoted_string_becomes_literal(self):
        assert to_term('"Greater London"') == Literal("Greater London")

    def test_blank_node_prefix(self):
        assert to_term("_:x1") == BlankNode("x1")

    def test_plain_string_becomes_iri(self):
        assert to_term("Chelsea") == IRI("Chelsea")

    def test_bool_rejected(self):
        with pytest.raises(InvalidTermError):
            to_term(True)

    def test_subject_rejects_literals(self):
        with pytest.raises(InvalidTermError):
            to_subject('"literal subject"')

    def test_term_key_total_order(self):
        terms = [BlankNode("b"), Literal("x"), IRI("a")]
        ordered = sorted(terms, key=term_key)
        assert isinstance(ordered[0], IRI)
        assert isinstance(ordered[1], Literal)
        assert isinstance(ordered[2], BlankNode)
