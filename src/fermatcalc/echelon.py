"""Exact sparse reduced row echelon forms over any field.

Rows are sparse dicts {column index: nonzero coefficient}.  Column indices
are integers whose natural order is the processing order; the caller decides
what that order means (ascending or descending in a monomial order).  The
pivot of a row is its first nonzero column, so the stored rows always form
the unique reduced echelon basis of the span of the inserted rows: results
computed along different routes can be compared verbatim.

Columns at or above `width` are tag columns.  They take part in every row
operation but never hold a pivot, so a stored row's tag entries record which
combination of input rows it is (the augmented matrix [A | I]).

The engine only uses `+ - *`, `1 / x` and truthiness of the coefficients, so
the same code runs over `CyclotomicNumber` and over `Fraction`.
`reaches_rank_mod_p` takes a rank modulo a prime on plain ints instead: each
row is packed into one int, a field of bits per column, so a row operation is
one big-int multiply-add.  Fields are reduced modulo p only where a residue
is read and once per pivot row (delayed modular reduction, as in
FFLAS-FFPACK).
Solving x + 3y = 5, 2x + 4y = 6 by reducing the target (5, 6) against the rows
(1, 2) and (3, 4), each tagged with its own column:

>>> from fractions import Fraction
>>> pivots = {}
>>> for i, row in enumerate([{0: 1, 1: 2}, {0: 3, 1: 4}]):
...     row = {c: Fraction(v) for c, v in row.items()}
...     _ = echelon_insert(pivots, {**row, 2 + i: Fraction(1)}, width=2)
>>> target = {0: Fraction(5), 1: Fraction(6)}
>>> reduce_row(pivots, target, width=2) is None   # target lies in the row span
True
>>> [-target[2 + i] for i in range(2)]             # target = -1*(1,2) + 2*(3,4)
[Fraction(-1, 1), Fraction(2, 1)]
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

__all__ = ["echelon", "echelon_insert", "reaches_rank_mod_p", "reduce_row"]


def _row_submul(row: dict, factor, pivot_row: dict, skip: int):
    """row -= factor * pivot_row, leaving column `skip` untouched."""
    neg = -factor
    for c, v in pivot_row.items():
        if c == skip:
            continue
        cur = row.get(c)
        nv = neg * v if cur is None else cur + neg * v
        if nv:
            row[c] = nv
        elif cur is not None:
            del row[c]


def reduce_row(pivots: dict[int, dict], row: dict, width=math.inf) -> int | None:
    """Clear every pivot column of `row` in place against the stored rows.

    Returns the first remaining column below `width`, or None when the row
    reduces to zero outside the tag columns.  Stored rows vanish at every
    pivot but their own, so one pass over the pivots present in the row
    suffices."""
    for c in [k for k in row if k in pivots]:
        _row_submul(row, row.pop(c), pivots[c], c)
    return min((c for c in row if c < width), default=None)


def echelon_insert(pivots: dict[int, dict], row: dict, width=math.inf) -> int | None:
    """Insert one row into a reduced echelon collection.  Returns the new
    pivot column, or None when the row reduces to zero below `width`.

    Invariant maintained: every stored row is monic at its pivot, has no
    support before it, and vanishes at every other pivot column."""
    c = reduce_row(pivots, row, width)
    if c is None:
        return None
    inv = 1 / row[c]
    if inv != 1:
        for k in row:
            row[k] = row[k] * inv
    for existing in pivots.values():
        f = existing.pop(c, None)
        if f is not None:
            _row_submul(existing, f, row, c)
    pivots[c] = row
    return c


def echelon(rows: Iterable[dict]) -> dict[int, dict]:
    """Reduced echelon basis {pivot column: row} of the span of `rows`."""
    pivots: dict[int, dict] = {}
    for row in rows:
        echelon_insert(pivots, dict(row))
    return pivots


def reaches_rank_mod_p(rows: Sequence[dict[int, int]], p: int, target: int) -> bool:
    """Whether `rows`, int entries in [1, p), reach rank `target` over F_p.

    Each row is packed into one int, `width` bits per column and the least
    column lowest.  Elimination runs forward column by column: the column's
    pivot row is reduced into [0, p) field by field and scaled to 1, and
    every other active row r with residue f != 0 there takes
    r += (p - f) * pivot, which clears the column mod p.  A row joins the
    active rows only when none of them has a nonzero residue at the current
    column, reduced on arrival against the pivots so far, so a tall matrix
    reads about as many rows as its rank.  It stops once the rank reaches
    `target` or too few rows or columns are left to reach it.  The rows are
    not modified."""
    if len(rows) < target:
        return False
    cols = sorted(set().union(*rows))
    # A pivot holds entries in [0, p) and p - f lies in [1, p), so a field
    # that took k <= len(rows) updates stays below p + k (p-1)^2 < 2^width:
    # no field carries into the next.
    width = 2 * p.bit_length() + len(rows).bit_length() + 1
    mask = (1 << width) - 1
    shift = dict(zip(cols, range(0, width * len(cols), width)))
    active: list[int] = []
    pivots: list[tuple[int, int]] = []  # (shift of the pivot column, pivot row)
    arrived = 0
    for j, s in enumerate(shift.values()):
        rank = len(pivots)
        if rank >= target:
            return True
        if rank + len(cols) - j < target or rank + len(active) + len(rows) - arrived < target:
            return False
        residues = [(r >> s & mask) % p for r in active]
        pivot = None
        for i, f in enumerate(residues):
            if f:
                pivot = active.pop(i)
                del residues[i]
                break
        while pivot is None and arrived < len(rows):
            r = 0
            for c, v in rows[arrived].items():
                r |= v << shift[c]
            arrived += 1
            for ps, pr in pivots:
                f = (r >> ps & mask) % p
                if f:
                    r += (p - f) * pr
            if (r >> s & mask) % p:
                pivot = r
            else:
                active.append(r)
                residues.append(0)
        if pivot is None:
            continue
        rest = pivot >> s
        inv = pow(rest & mask, -1, p)
        pivot, at = 0, s
        while rest:
            v = rest & mask
            if v:
                pivot |= v * inv % p << at
            rest >>= width
            at += width
        for i, f in enumerate(residues):
            if f:
                active[i] += (p - f) * pivot
        pivots.append((s, pivot))
    return len(pivots) >= target
