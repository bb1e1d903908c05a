"""Trie indexes over columnar tables for the Generic-Join kernel.

A trie is the per-relation index the attribute-at-a-time expansion
walks: one nested-dict level per attribute of the relation, in the
*global* expansion order restricted to the relation's scheme.  Keys are
the interned value ids of :mod:`repro.relational.columnar`, so trie
lookups and candidate intersections are plain dict-key operations --
the same C-speed hashing the vector kernel's hash joins use, and the
reason wcoj results are byte-identical to the binary engines (both
compute over the same process-wide ids).

The representation: every interior node is a ``dict`` mapping a value
id to its child node.  The leaf payload depends on the trie's use:

* a plain trie (the materializing join) maps the last id to ``True``.
  The expansion only reads a node where the relation still has unbound
  attributes, so this payload is never inspected -- it merely
  terminates the chain;
* a *weighted* trie (the counting join) runs along only part of the
  relation's scheme and maps the last id to the number of rows behind
  that key path.  The count multiplies these weights, so here the
  payload is the point.  A weighted trie along an empty path is just
  the row count.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple, Union

from repro.relational.columnar import ColumnarTable

__all__ = ["Trie", "build_trie"]

#: A trie level: value id -> child level (or the leaf payload at the
#: last level: ``True``, or a row count in a weighted trie).
Trie = Dict[int, object]


def build_trie(
    table: ColumnarTable, path: Tuple[str, ...], weighted: bool = False
) -> Union[Trie, int]:
    """Index ``table`` as a nested-dict trie along ``path``.

    Unweighted, ``path`` must list each attribute of the table exactly
    once -- the global expansion order restricted to this relation's
    scheme.  Weighted, ``path`` may be any subset of the scheme: each
    leaf holds how many rows project onto its key path (so the weights
    sum to ``len(table)``), and an empty path yields ``len(table)``
    itself.  The build is one pass over the id columns
    (O(rows × arity) dict upserts); sibling rows share prefixes, so
    repeated prefixes cost a lookup, not an allocation.  A two-attribute
    path (a binary relation, as in the cycles and spiked cycles) runs a
    loop with one probe of the root per row; longer paths (the cliques'
    three- and four-attribute relations) walk each row's prefix tuple.
    """
    depth = len(path)
    if weighted and depth == 0:
        return len(table)
    root: Trie = {}
    if depth == 0 or len(table) == 0:
        return root
    columns = [table.column(attr) for attr in path]
    if depth == 1:
        # Single attribute: the trie is one level of membership keys.
        if weighted:
            return dict(Counter(columns[0]))
        return dict.fromkeys(columns[0], True)
    if depth == 2:
        for key, vid in zip(*columns):
            node = root.get(key)
            if node is None:
                node = root[key] = {}
            node[vid] = node.get(vid, 0) + 1 if weighted else True
        return root
    for prefix, vid in zip(zip(*columns[:-1]), columns[-1]):
        node = root
        for key in prefix:
            child = node.get(key)
            if child is None:
                child = node[key] = {}
            node = child
        node[vid] = node.get(vid, 0) + 1 if weighted else True
    return root
