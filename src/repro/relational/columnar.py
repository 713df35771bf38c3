"""Column arrays: the row storage of a relation.

A :class:`~repro.relational.relation.Relation` stores one immutable 1-D NumPy
array per attribute and nothing else; row tuples are views read from them.
The helpers here build such arrays from Python values and derive the next
snapshot of one from a mutation batch: a swap-remove gather for deletions,
positional writes into a copy for updates, one append for insertions —
into the unused room behind the last row, or into a new buffer.  None of
them writes an element of an existing snapshot, so an array already handed
out stays consistent with the snapshot it was read from.

Every array round-trips its values: ``array.tolist()`` and ``array.item(i)``
return the Python objects the rows held, equal in value and in type.  Typed
arrays are used only where NumPy guarantees that; every other column is an
``object`` array holding the original objects.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.relational.delta import RelationDelta

Row = Tuple[Any, ...]

#: Python types a typed array returns unchanged, with the dtype kinds NumPy
#: may infer for them (``np.asarray`` turns ints beyond int64 into floats or
#: objects, which the kind check rejects).
_NATIVE_KINDS: Dict[type, str] = {int: "iu", float: "f", bool: "b", str: "U", bytes: "S"}


def as_column_array(values: Sequence[object]) -> npt.NDArray[Any]:
    """1-D array over a column's values, falling back to ``object`` dtype.

    A column whose values all share one of the types ``int``, ``float``,
    ``bool``, ``str`` or ``bytes`` becomes a typed array (fast vectorized
    comparisons and gathers); anything else — mixed types, ``None``, tuples,
    NumPy scalars, ints beyond 64 bits — is stored as an object array so row
    identity is preserved.  So are strings ending in NUL, which ``<U``/``S``
    arrays silently strip.  Integer columns are stored in the smallest safe
    signed dtype for their value range (NumPy's int64 default quadruples
    resident bytes for typical key columns).
    """
    if not len(values):
        return np.asarray([])
    types = {type(v) for v in values}
    kinds = _NATIVE_KINDS.get(types.pop()) if len(types) == 1 else None
    if kinds is None or (kinds in "US" and _any_nul_suffix(values)):
        return _object_array(values)
    array = np.asarray(values)
    if array.ndim != 1 or array.dtype.kind not in kinds:
        return _object_array(values)
    return shrink_integer_array(array)


def _any_nul_suffix(values: Sequence[object]) -> bool:
    """Whether some value of a ``str`` or ``bytes`` column ends in NUL."""
    nul = b"\x00" if isinstance(values[0], bytes) else "\x00"
    return any(map(methodcaller("endswith", nul), values))


#: the dtypes integer columns shrink to, with their ranges
_SHRUNK_RANGES = [(t, int(np.iinfo(t).min), int(np.iinfo(t).max)) for t in (np.int16, np.int32)]


def shrink_integer_array(array: npt.NDArray[Any]) -> npt.NDArray[Any]:
    """Downcast a signed integer array to the smallest dtype holding its range.

    int8 is deliberately skipped (the savings on tiny columns are noise);
    non-integer and empty arrays pass through unchanged.
    """
    if array.dtype.kind != "i" or array.size == 0 or array.dtype.itemsize <= 2:
        return array
    lo, hi = int(array.min()), int(array.max())
    for candidate, low, high in _SHRUNK_RANGES:
        if low <= lo and hi <= high:
            return array.astype(candidate)
    return array


def _object_array(values: Sequence[object]) -> npt.NDArray[Any]:
    array = np.empty(len(values), dtype=object)
    array[:] = list(values)
    return array


def concat_column_arrays(base: npt.NDArray[Any], tail: npt.NDArray[Any]) -> npt.NDArray[Any]:
    """Concatenate two column arrays preserving row identity.

    Same-kind arrays concatenate natively (NumPy widens string widths and
    numeric precision as needed); anything else — object arrays or kind
    mismatches such as an int column receiving a string — falls back to one
    object array, matching what :func:`as_column_array` would build from the
    combined values.  An empty side contributes nothing, not its dtype.
    """
    if not len(base):
        return tail
    if not len(tail):
        return base
    if base.dtype == object or tail.dtype == object or base.dtype.kind != tail.dtype.kind:
        out = np.empty(len(base) + len(tail), dtype=object)
        out[: len(base)] = base.tolist()
        out[len(base) :] = tail.tolist()
        return out
    return np.concatenate([base, tail])


def tuple_key_array(columns: Sequence[npt.NDArray[Any]]) -> npt.NDArray[Any]:
    """Object array of per-row key tuples from several column arrays."""
    if not columns:
        raise ValueError("at least one column is required")
    return _object_array(list(zip(*(column.tolist() for column in columns))))


def with_values(
    array: npt.NDArray[Any], positions: Sequence[int], values: Sequence[object]
) -> npt.NDArray[Any]:
    """Copy of ``array`` holding ``values`` at ``positions``.

    When the dtype cannot hold the new values exactly (a longer string into a
    ``<U`` column, an int outside the shrunk range, a value of another type)
    the column is rebuilt from its values instead.
    """
    if array.dtype == object:
        new = _object_array(values)
    else:
        new = as_column_array(values)
        if not _holds(array.dtype, new.dtype):
            column = array.tolist()
            for position, value in zip(positions, values):
                column[position] = value
            return as_column_array(column)
    out = array.copy()
    out[list(positions)] = new
    return out


def with_room(array: npt.NDArray[Any], size: int) -> npt.NDArray[Any]:
    """A new buffer holding ``array[:size]``, with room to append behind it."""
    buffer = np.empty(size + size // 8 + 16, dtype=array.dtype)
    buffer[:size] = array[:size]
    return buffer


def patched(
    array: npt.NDArray[Any],
    buffer: Optional[npt.NDArray[Any]],
    delta: RelationDelta,
    project: Callable[[Row], object],
    inserted_rows: Sequence[Row] = (),
) -> Tuple[npt.NDArray[Any], Optional[npt.NDArray[Any]]]:
    """``(next snapshot, buffer behind it)`` of a per-row array after one batch.

    ``project`` maps a row to this array's value (one attribute, or the key
    tuple of a composite key); ``inserted_rows`` are the rows the batch
    appends.  ``buffer`` is the caller's own buffer whose prefix is ``array``
    (None when it has none): insertions are written into the room behind that
    prefix, which no snapshot covers, and only a full buffer is reallocated.
    Deletions/moves become one swap-remove gather into a new buffer with
    room, replacements one positional write into a copy.
    """
    survivors = delta.new_size - len(delta.inserted)
    if delta.deleted or delta.moved:
        buffer = with_room(array, survivors)
        if delta.moved:
            buffer[[new for _, new in delta.moved]] = array[[old for old, _ in delta.moved]]
        array = buffer[:survivors]
    # identity, not equality: an update of 1 to True must reach the column
    replacements = [
        (position, project(new))
        for position, old, new in delta.replaced
        if project(old) is not project(new)
    ]
    if replacements:
        positions, values = zip(*replacements)
        array, buffer = with_values(array, positions, values), None
    if delta.inserted:
        tail = as_column_array([project(row) for row in inserted_rows])
        end = survivors + len(tail)
        if buffer is None or len(buffer) < end or not _holds(buffer.dtype, tail.dtype):
            buffer = with_room(concat_column_arrays(array, tail), end)
        else:
            buffer[survivors:end] = tail
        array = buffer[:end]
    return array, buffer


def _holds(buffer: np.dtype[Any], values: np.dtype[Any]) -> bool:
    """Whether a buffer of one dtype takes values of another unchanged."""
    if buffer == object:
        return True
    return values.kind == buffer.kind and np.can_cast(values, buffer)


__all__ = [
    "as_column_array",
    "concat_column_arrays",
    "patched",
    "shrink_integer_array",
    "tuple_key_array",
    "with_room",
    "with_values",
]
