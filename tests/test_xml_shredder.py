"""Shredding and serialization: the pre|size|level encoding is an isomorphism."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, XMLParseError
from repro.xml import (DocumentStore, serialize_subtree, shred_document,
                       shred_events)
from repro.xml.document import NodeKind
from repro.xml.parser import parse_events


FIGURE4_XML = "<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>"


class TestFigure4Encoding:
    """The running example of the paper (Figure 4)."""

    def test_pre_size_level(self, store):
        doc = shred_document(FIGURE4_XML, "fig4.xml", store)
        # index 0 is the document node added by the shredder
        assert list(doc.size[1:]) == [9, 3, 2, 0, 0, 4, 0, 2, 0, 0]
        assert list(doc.level[1:]) == [1, 2, 3, 4, 4, 2, 3, 3, 4, 4]

    def test_post_order_recoverable(self, store):
        doc = shred_document(FIGURE4_XML, "fig4.xml", store)
        post = [doc.size[pre] + pre - doc.level[pre] for pre in range(doc.node_count)]
        # post-order ranks must be a permutation of the pre-order ranks
        assert sorted(post) == list(range(doc.node_count))

    def test_children_iteration_uses_size_skipping(self, store):
        doc = shred_document(FIGURE4_XML, "fig4.xml", store)
        a = 1
        names = [doc.element_name(child) for child in doc.children_pre(a)]
        assert names == ["b", "f"]

    def test_parent_of_every_node(self, store):
        doc = shred_document(FIGURE4_XML, "fig4.xml", store)
        for pre in range(1, doc.node_count):
            parent = doc.parent_pre(pre)
            assert parent is not None
            assert parent < pre <= parent + doc.size[parent]


class TestShredding:
    def test_roundtrip_small_document(self, store):
        xml = '<a><b x="1">hi</b><c/><!--note--><d>bye</d></a>'
        doc = shred_document(xml, "t.xml", store)
        assert serialize_subtree(doc, 0) == xml

    def test_whitespace_only_text_dropped_by_default(self, store):
        doc = shred_document("<a>\n  <b/>\n</a>", "t.xml", store)
        kinds = [k for k in doc.kind]
        assert NodeKind.TEXT not in kinds

    def test_whitespace_kept_on_request(self, store):
        doc = store.new_container("keep.xml")
        from repro.xml.shredder import shred_string
        shred_string("<a> <b/> </a>", doc, keep_whitespace=True)
        assert NodeKind.TEXT in list(doc.kind)

    def test_attributes_in_separate_table(self, store):
        doc = shred_document('<a x="1" y="2"><b z="3"/></a>', "t.xml", store)
        assert doc.attribute_count == 3
        assert doc.attributes_of(1) != []

    def test_name_index_candidates_sorted(self, store):
        doc = shred_document("<a><b/><c><b/></c><b/></a>", "t.xml", store)
        candidates = doc.candidates_by_name("b")
        assert candidates == sorted(candidates)
        assert len(candidates) == 3

    def test_string_value_concatenates_descendant_text(self, store):
        doc = shred_document("<a><b>one </b><c>two</c></a>", "t.xml", store)
        assert doc.string_value(1) == "one two"

    def test_duplicate_document_name_rejected(self, store):
        shred_document("<a/>", "dup.xml", store)
        with pytest.raises(Exception):
            shred_document("<a/>", "dup.xml", store)

    def test_loaded_documents_table(self, store):
        shred_document("<a><b/></a>", "one.xml", store)
        shred_document("<c/>", "two.xml", store)
        table = store.loaded_documents_table()
        assert set(table.col("doc")) == {"one.xml", "two.xml"}


class TestMalformedDocuments:
    """A document holds exactly one top-level element and no top-level
    text; fragments (``add_document_node=False``) stay unrestricted."""

    @pytest.mark.parametrize("text,message", [
        ("", "no root element"),
        ("   ", "no root element"),
        ("<!-- only a comment -->", "no root element"),
        ("<a/><b/>", "second root element <b>"),
        ("<a/>\n<a/>", "second root element <a>"),
        ("<![CDATA[x]]><a/>", "text outside its root element"),
        ("<a/><![CDATA[x]]>", "text outside its root element"),
    ])
    def test_rejected_with_xml_parse_error(self, store, text, message):
        with pytest.raises(XMLParseError, match=re.escape(message)):
            shred_document(text, "bad.xml", store)
        assert "bad.xml" not in store

    def test_engine_load_rejects_them(self):
        from repro import MonetXQuery
        for text in ("", "   ", "<a/><b/>"):
            with pytest.raises(ReproError):
                MonetXQuery().load_document_text(text, name="bad.xml")

    @pytest.mark.parametrize("text", [
        "<a/>", " <a/> ", "<!--c--><?pi x?><a/><!--d-->",
        "<a><![CDATA[x]]></a>",
    ])
    def test_single_root_still_accepted(self, store, text):
        doc = shred_document(text, "ok.xml", store)
        assert doc.kind[0] == NodeKind.DOCUMENT

    def test_fragments_keep_their_shape(self):
        container = DocumentStore().new_container("fragment", transient=True)
        root = shred_events(parse_events("<a/><b/>"), container,
                            add_document_node=False)
        assert root == 0 and container.node_count == 2


# ---------------------------------------------------------------------------- #
# property-based: shred(serialize(t)) is an isomorphism on random trees
# ---------------------------------------------------------------------------- #
@st.composite
def random_xml(draw, depth=0):
    name = draw(st.sampled_from("abcde"))
    attributes = ""
    if draw(st.booleans()):
        attributes = f' x="{draw(st.integers(0, 9))}"'
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return f"<{name}{attributes}/>"
    children = draw(st.lists(random_xml(depth=depth + 1), max_size=3))
    text = draw(st.sampled_from(["", "t", "hello"]))
    if not text and not children:
        # empty elements always serialize in the short form
        return f"<{name}{attributes}/>"
    return f"<{name}{attributes}>{text}{''.join(children)}</{name}>"


@given(random_xml())
@settings(max_examples=60, deadline=None)
def test_shred_serialize_roundtrip(xml):
    store = DocumentStore()
    doc = shred_document(xml, "h.xml", store)
    assert serialize_subtree(doc, 0) == xml


@given(random_xml())
@settings(max_examples=60, deadline=None)
def test_structural_invariants(xml):
    store = DocumentStore()
    doc = shred_document(xml, "h.xml", store)
    total = doc.node_count
    # document node spans the whole document
    assert doc.size[0] == total - 1
    for pre in range(total):
        size = doc.size[pre]
        assert 0 <= size <= total - pre - 1
        # every node inside the subtree has a strictly larger level
        for descendant in range(pre + 1, pre + size + 1):
            assert doc.level[descendant] > doc.level[pre]
        # the node right after the subtree (if any) is not deeper
        if pre + size + 1 < total:
            assert doc.level[pre + size + 1] <= doc.level[pre] + 1
