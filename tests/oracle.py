"""A nested-loop reference for the relational algebra.

Each operator is the textbook definition, evaluated pair by pair:
quadratic, but obviously correct.  An operand is a ``(scheme, rows)``
pair built from the raw values a test holds: ``scheme`` is a collection
of attribute names and ``rows`` an iterable of attribute->value mappings
(dicts or :class:`~repro.relational.relation.Row` objects).  Every
operator returns a ``(frozenset scheme, set of Row)`` pair.  Nothing
here touches ``ColumnarTable`` or the value interner, so a kernel bug
that lives there cannot hide by showing up on both sides of a check.
"""

from repro.relational.relation import Row


def _row(mapping):
    return Row(dict(mapping.items()))


def _agree(left, right):
    """True when two rows agree on every attribute they share."""
    return all(right[attr] == value for attr, value in left.items() if attr in right)


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


def assert_matches(result, expected):
    """``result`` (a Relation) has the oracle's scheme and decoded rows."""
    scheme, rows = expected
    assert set(result.scheme) == set(scheme)
    assert len(result) == len(rows)
    assert result.rows == rows
