"""Document shredding: XML text → ``pre|size|level`` document container.

The shredder performs a single forward pass over the parse events.  Because
nodes are appended in preorder, shredding causes sequential write access to
the relational tables — the reason the paper reports linear, "interactive
time" shredding.  ``size`` is back-patched when the corresponding end tag is
seen; ``level`` is the current element-stack depth.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import XMLParseError
from .document import DocumentContainer, DocumentStore, NodeKind
from .parser import (Comment, EndElement, Event, ProcessingInstruction,
                     StartElement, Text, parse_events)


def shred_events(events: Iterable[Event], container: DocumentContainer, *,
                 frag: int | None = None, base_level: int = 0,
                 add_document_node: bool = True,
                 keep_whitespace: bool = False) -> int:
    """Shred a stream of parse events into ``container``.

    Returns the pre rank of the fragment root (the document node when
    ``add_document_node`` is true, the first top-level node otherwise).
    A document must hold exactly one top-level element and no top-level
    text; a fragment may hold any sequence of nodes.  Whitespace-only text
    nodes are dropped unless ``keep_whitespace`` is set, matching the usual
    data-oriented XMark setup.
    """
    root_pre: int | None = None
    if add_document_node:
        root_pre = container.add_node(NodeKind.DOCUMENT, base_level,
                                      frag=frag)
        if frag is None:
            frag = root_pre
        base_level += 1

    stack: list[int] = []            # pre ranks of open elements
    node_count_at = {}               # pre -> node_count when opened
    top_elements = 0                 # elements outside every other element

    for event in events:
        level = base_level + len(stack)
        if isinstance(event, StartElement):
            name_id = container.names.intern(event.name)
            pre = container.add_node(NodeKind.ELEMENT, level, name_id=name_id,
                                     frag=frag)
            if frag is None:
                frag = pre
            if root_pre is None:
                root_pre = pre
            if not stack:
                top_elements += 1
                if add_document_node and top_elements > 1:
                    raise XMLParseError(
                        f"document has a second root element <{event.name}>")
            for attr_name, attr_value in event.attributes:
                if attr_name.startswith("xmlns"):
                    continue
                container.add_attribute(pre, container.names.intern(attr_name),
                                        attr_value)
            stack.append(pre)
            node_count_at[pre] = container.node_count
        elif isinstance(event, EndElement):
            if not stack:
                raise XMLParseError(f"unexpected end tag </{event.name}>")
            pre = stack.pop()
            container.set_size(pre, container.node_count - node_count_at.pop(pre) + 0)
        elif isinstance(event, Text):
            content = event.content
            if not content.strip():
                if not keep_whitespace:
                    continue
            elif add_document_node and not stack:
                raise XMLParseError("document has text outside its root "
                                    "element")
            pre = container.add_node(NodeKind.TEXT, level, value=content,
                                     frag=frag)
            if root_pre is None:
                root_pre = pre
        elif isinstance(event, Comment):
            pre = container.add_node(NodeKind.COMMENT, level, value=event.content,
                                     frag=frag)
            if root_pre is None:
                root_pre = pre
        elif isinstance(event, ProcessingInstruction):
            pre = container.add_node(NodeKind.PROCESSING_INSTRUCTION, level,
                                     value=f"{event.target} {event.content}".strip(),
                                     frag=frag)
            if root_pre is None:
                root_pre = pre
        else:  # pragma: no cover - defensive
            raise XMLParseError(f"unexpected parse event {event!r}")

    if stack:
        raise XMLParseError("document ended with unclosed elements")
    if root_pre is None or (add_document_node and not top_elements):
        raise XMLParseError("document contains no root element")
    if add_document_node:
        container.set_size(root_pre, container.node_count - root_pre - 1)
    return root_pre


def shred_string(text: str, container: DocumentContainer, *,
                 keep_whitespace: bool = False) -> int:
    """Shred an XML string into an (empty or growing) container."""
    return shred_events(parse_events(text), container,
                        keep_whitespace=keep_whitespace)


def shred_document(text: str, name: str, store: DocumentStore, *,
                   keep_whitespace: bool = False) -> DocumentContainer:
    """Shred an XML string into a new named persistent container.

    The container is filled *before* it is registered with the store, so
    concurrent readers never observe a partially shredded document (the
    registration is the atomic publication point that bumps the store's
    schema version).
    """
    container = store.detached_container(name)
    shred_string(text, container, keep_whitespace=keep_whitespace)
    store.register(container)
    return container


def shred_file(path: str, name: str, store: DocumentStore, *,
               keep_whitespace: bool = False) -> DocumentContainer:
    """Shred an XML file from disk into a new named persistent container."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return shred_document(text, name, store, keep_whitespace=keep_whitespace)
