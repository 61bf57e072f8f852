"""The query contract: one strict parser for every entry point.

A BSTC query is a *discretized* profile (Section 5.3, Algorithm 6): the
expressed items over the ``n_items`` training vocabulary.  An ``ndarray``
is a dense indicator (1-D of length ``n_items``; a 2-D batch holds one per
row) whose entries are booleans or exactly 0/1; any other iterable is a set
of item ids, each a Python or numpy integer (never a bool, float or string)
in ``[0, n_items)``, duplicates and the empty set allowed.  Anything else
(NaN, ``0.2``, ``-3.0``, ``1.9``, ``"1"``, ``True``, id 999) is a
:class:`~repro.errors.QueryError`, never coerced or dropped.
"""

from __future__ import annotations

from typing import AbstractSet, Any, FrozenSet, Iterable, Optional, Union

import numpy as np

from ..errors import QueryError

__all__ = ["Query", "as_item_set", "as_query", "as_query_matrix"]

Query = Union[AbstractSet[int], np.ndarray]

_BOOL_TYPES = frozenset({bool, np.bool_})


def _dense(query: np.ndarray, n_items: Optional[int]) -> np.ndarray:
    """Check a dense indicator vector; returns it as bool (as is when
    there is no vocabulary)."""
    if query.ndim != 1:
        raise QueryError(
            f"query must be a 1-D gene vector, got shape {query.shape}"
        )
    if n_items is not None and query.shape[0] != n_items:
        raise QueryError(
            f"query has {query.shape[0]} items; the model was trained on"
            f" {n_items} genes"
        )
    if query.dtype.kind not in "biuf":
        raise QueryError(f"query dtype {query.dtype} is not boolean/numeric")
    for bad, rule in (
        (~np.isfinite(query), "finite"),
        ((query != 0) & (query != 1) & (n_items is not None), "0 or 1"),
    ):
        if bad.any():
            gene = int(np.flatnonzero(bad)[0])
            raise QueryError(
                f"query gene {gene} is {query[gene].item()!r}"
                f" (values must be {rule})"
            )
    return query if n_items is None else query.astype(bool, copy=False)


def as_query(query: Any, n_items: Optional[int]) -> Any:
    """One query as its ``bool[n_items]`` indicator vector (a bool vector
    comes back as is).  With ``n_items=None`` (a model that declares no
    vocabulary) only the form is checked and the query comes back as is."""
    if isinstance(query, np.ndarray):
        return _dense(query, n_items)
    try:
        ids = list(query)
        arr = np.array(ids) if ids else np.zeros(0, dtype=np.intp)
    except (TypeError, ValueError, OverflowError) as exc:
        raise QueryError(
            f"query must be an indicator vector or an item-id set: {exc}"
        ) from exc
    # np.array([True, 2]) is int64, hence the explicit element-type check.
    if (
        arr.ndim != 1
        or arr.dtype.kind not in "iu"
        or _BOOL_TYPES.intersection(map(type, ids))
    ):
        bad = next(
            (i for i in ids if type(i) in _BOOL_TYPES
             or not isinstance(i, (int, np.integer))),
            arr.dtype,
        )
        raise QueryError(f"query item ids must be integers, got {bad!r}")
    upper = np.inf if n_items is None else n_items
    outside = arr[(arr < 0) | (arr >= upper)]
    if outside.size:
        raise QueryError(
            f"query item index {outside[0]} is outside the model's"
            f" [0, {upper}) gene range"
        )
    if n_items is None:
        return query
    vector = np.zeros(n_items, dtype=bool)
    vector[arr] = True
    return vector


def as_item_set(query: Any, n_items: int) -> FrozenSet[int]:
    """One query as the set of its expressed item ids."""
    return frozenset(np.flatnonzero(as_query(query, n_items)).tolist())


def as_query_matrix(queries: Iterable[Any], n_items: int) -> np.ndarray:
    """A query batch (a 2-D ``ndarray`` of dense rows, or a sequence of
    queries) as its ``bool[n_queries, n_items]`` indicator matrix."""
    rows = [as_query(q, n_items) for q in queries]
    return np.stack(rows) if rows else np.zeros((0, n_items), dtype=bool)
