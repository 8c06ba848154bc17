"""Exception types, and the checks of JSON fields, counts and step-log cells, shared
across the package."""

import numpy as np


class RejectedInputError(ValueError):
    """An input value violates a documented domain precondition."""


class ContractViolationError(RuntimeError):
    """An API was driven out of its documented call order or state."""


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def json_keys(data, keys, where: str) -> None:
    """Reject ``data`` unless it is an object whose every key is one of ``keys``."""
    if type(data) is not dict:
        raise RejectedInputError(f"{where} must be an object, got {data!r:.80}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise RejectedInputError(f"{where} has an unknown key {unknown[0]!r}; "
                                 f"known keys: {', '.join(keys)}")


def json_field(data, key: str, kind: type, where: str, default=_REQUIRED):
    """``data[key]``, rejected unless ``data`` is an object and the value has JSON type ``kind``.

    ``float`` admits an integer too, but not one beyond the range of a
    double, which ``float()`` cannot convert; ``int`` and ``float`` never
    admit a boolean.  A missing key yields ``default`` when one is given.
    """
    if type(data) is not dict:
        raise RejectedInputError(f"{where} must be an object, got {data!r:.80}")
    if key not in data:
        if default is _REQUIRED:
            raise RejectedInputError(f"{where} has no {key!r}")
        return default
    value = data[key]
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise RejectedInputError(f"{where}: {key!r} must be {_TYPE_NAMES[kind]}, "
                                 f"got {value!r:.80}")
    if kind is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            raise RejectedInputError(f"{where}: {key!r} must be a number within the range of "
                                     f"a double, got an integer of {value.bit_length()} bits"
                                     ) from None
    return value


def positive_int(value, what: str) -> int:
    """``value``, rejected unless it is an integer >= 1; a boolean is no integer here."""
    if type(value) is not int or value < 1:
        raise RejectedInputError(f"{what} must be an integer >= 1, got {value!r}")
    return value


def _parsed(cells, parse, name: str, first_row: int) -> list:
    """``parse`` applied to a step-log column; a cell it cannot parse is rejected by row.

    ``first_row`` is the row number of the first cell; the header is row 1.
    """
    try:
        return list(map(parse, cells))
    except ValueError:
        for row_no, cell in enumerate(cells, start=first_row):
            try:
                parse(cell)
            except ValueError:
                raise RejectedInputError(f"row {row_no}: {name} {cell!r} does not parse") from None
        raise


def _array(cells, dtype, name: str, first_row: int = 2) -> np.ndarray:
    """The ``dtype`` array of a step-log column, each cell parsed by ``np.array``
    as ``int`` or ``float`` parses it.  A column it rejects is rescanned: the
    first cell that does not parse is named, else the first integer beyond 64 bits.
    """
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        values = _parsed(cells, int if dtype is np.int64 else float, name, first_row)
        k = next(k for k, v in enumerate(values) if not -2**63 <= v < 2**63)
        raise RejectedInputError(f"row {first_row + k}: {name} {cells[k]!r} "
                                 "does not fit in 64 bits") from None
