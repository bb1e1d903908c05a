"""A nested-loop reference for the relational algebra and the paper's
conditions.

Each operator is the textbook definition, evaluated pair by pair:
quadratic, but obviously correct.  An operand is a ``(scheme, rows)``
pair built from the raw values a test holds: ``scheme`` is a collection
of attribute names and ``rows`` an iterable of attribute->value mappings
(dicts or :class:`~repro.relational.relation.Row` objects).  Every
operator returns a ``(frozenset scheme, set of Row)`` pair.  Nothing
here touches ``ColumnarTable`` or the value interner, so a kernel bug
that lives there cannot hide by showing up on both sides of a check.
Values are equal when they have the same type and compare equal,
tuples and frozensets element by element (:func:`typed`), the library's
rule: ``True``, ``1`` and ``1.0`` join none of each other.

The conditions C1, C1', C2, C3 and C4 are read the same way
(:func:`condition_instances`): a relation scheme is a frozenset of
attribute names and a subset a frozenset of schemes; subsets come from
``itertools.combinations``, connectivity from a breadth-first search
over schemes that share an attribute, *linked* from attribute unions,
and every count from a caller-supplied ``tau`` (normally the length of
:func:`join_all`).
"""

from itertools import combinations, product

from repro.relational.relation import Row


def _row(mapping):
    return Row(dict(mapping.items()))


def typed(value):
    """``value`` with the type of every scalar in it: two values are the
    same exactly when their images are equal."""
    if isinstance(value, tuple):
        return type(value), tuple(typed(item) for item in value)
    if isinstance(value, frozenset):
        return type(value), frozenset(typed(item) for item in value)
    return type(value), value


def _agree(left, right):
    """True when two rows agree on every attribute they share."""
    return all(
        typed(right[attr]) == typed(value) for attr, value in left.items() if attr in right
    )


def join(left, right):
    """Natural join: every merge of a left row and a right row that agree
    on their shared attributes (a Cartesian product when none are shared)."""
    (lscheme, lrows), (rscheme, rrows) = left, right
    rrows = list(rrows)
    rows = {
        Row({**dict(lrow.items()), **dict(rrow.items())})
        for lrow in lrows
        for rrow in rrows
        if _agree(lrow, rrow)
    }
    return frozenset(lscheme) | frozenset(rscheme), rows


def join_all(operands):
    """The natural join of a nonempty sequence of operands, left to right."""
    operands = list(operands)
    scheme, rows = operands[0]
    result = frozenset(scheme), {_row(row) for row in rows}
    for operand in operands[1:]:
        result = join(result, operand)
    return result


def semijoin(left, right):
    """The left rows that agree with at least one right row."""
    (scheme, lrows), (_, rrows) = left, right
    rrows = list(rrows)
    return frozenset(scheme), {
        _row(lrow) for lrow in lrows if any(_agree(lrow, rrow) for rrow in rrows)
    }


def antijoin(left, right):
    """The left rows that agree with no right row."""
    (scheme, lrows), (_, rrows) = left, right
    rrows = list(rrows)
    return frozenset(scheme), {
        _row(lrow) for lrow in lrows if not any(_agree(lrow, rrow) for rrow in rrows)
    }


def project(source, attributes):
    """Every row restricted to ``attributes`` (set semantics)."""
    wanted = frozenset(attributes)
    return wanted, {Row({attr: row[attr] for attr in wanted}) for row in source[1]}


def operand(scheme, tuples):
    """An operand from positional tuples in sorted attribute order (the
    convention of :func:`~repro.relational.relation.relation`)."""
    order = sorted(scheme)
    return frozenset(scheme), [dict(zip(order, values)) for values in tuples]


def _image(rows):
    return {tuple((attr, typed(value)) for attr, value in row.items()) for row in rows}


def assert_matches(result, expected):
    """``result`` (a Relation) has the oracle's scheme and decoded rows,
    value types included."""
    scheme, rows = expected
    assert set(result.scheme) == set(scheme)
    assert len(result) == len(rows)
    assert _image(result.rows) == _image(rows)


# -- the paper's conditions -------------------------------------------------------


def linked(first, second):
    """The paper's *linked*: the attribute unions of two subsets meet."""
    return bool(set().union(*first) & set().union(*second))


def is_connected(subset):
    """True when a breadth-first search over schemes sharing an attribute
    reaches every scheme of the (nonempty) subset."""
    schemes = list(subset)
    reached = {schemes[0]}
    frontier = [schemes[0]]
    while frontier:
        scheme = frontier.pop(0)
        for other in schemes:
            if other not in reached and scheme & other:
                reached.add(other)
                frontier.append(other)
    return len(reached) == len(schemes)


def connected_subsets(schemes):
    """Every connected nonempty subset of ``schemes``, as frozensets."""
    schemes = list(schemes)
    return [
        frozenset(combo)
        for size in range(1, len(schemes) + 1)
        for combo in combinations(schemes, size)
        if is_connected(combo)
    ]


_PREDICATES = {
    "C1": lambda lhs, rhs: lhs <= rhs,
    "C1'": lambda lhs, rhs: lhs < rhs,
    "C2": lambda joined, sides: joined <= sides[0] or joined <= sides[1],
    "C3": lambda joined, sides: joined <= sides[0] and joined <= sides[1],
    "C4": lambda joined, sides: joined >= sides[0] and joined >= sides[1],
}


def condition_instances(condition, schemes, tau):
    """Every quantifier instance of ``condition`` over the connected
    subsets of ``schemes``, as ``(subsets, lhs, rhs, holds)``.

    C1 and C1' range over disjoint ``(E, E1, E2)`` with ``E`` linked to
    ``E1`` and not to ``E2``, comparing ``lhs = tau(E ∪ E1)`` with
    ``rhs = tau(E ∪ E2)``.  C2, C3 and C4 range over unordered disjoint
    linked pairs ``(E1, E2)``, comparing ``lhs = tau(E1 ∪ E2)`` with
    ``rhs = (tau(E1), tau(E2))``.
    """
    subsets = connected_subsets(schemes)
    holds = _PREDICATES[condition]
    out = []
    if condition in ("C1", "C1'"):
        for e, e1, e2 in product(subsets, repeat=3):
            if e & e1 or e & e2 or e1 & e2:
                continue
            if linked(e, e1) and not linked(e, e2):
                lhs, rhs = tau(e | e1), tau(e | e2)
                out.append(((e, e1, e2), lhs, rhs, holds(lhs, rhs)))
        return out
    for e1, e2 in combinations(subsets, 2):
        if not e1 & e2 and linked(e1, e2):
            joined, sides = tau(e1 | e2), (tau(e1), tau(e2))
            out.append(((e1, e2), joined, sides, holds(joined, sides)))
    return out
