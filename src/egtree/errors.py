"""Exception types, and the checks of a decoded JSON object, shared across the package."""


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

    ``float`` admits an integer too; ``int`` and ``float`` never admit a
    boolean.  A missing key yields ``default`` when one is given.
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
    return value
