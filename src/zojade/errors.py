"""Exception types, and the one check of a value's kind and of a parameter
object's keys that the config schema, the run configs and the builders share."""

import sys

import numpy as np


class ZojadeError(Exception):
    """Base class for all package errors."""


class ConfigurationError(ZojadeError):
    """Invalid configuration, topology spec, or instance parameters."""


class EvaluationError(ZojadeError):
    """An objective evaluation produced a non-finite value."""


class InstanceConstructionError(ZojadeError):
    """A ground-truth solver failed while building a problem instance."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # a comparison, because math.isfinite raises OverflowError on an int past the float range
    return isinstance(value, (int, float)) and not isinstance(value, bool) and (
        abs(value) <= sys.float_info.max
    )


def _is_seed_list(value) -> bool:
    if not isinstance(value, list) or not all(map(_is_int, value)):
        return False
    return 0 < len(value) == len(set(value))


def _is_int_array(value) -> bool:
    array = np.asarray(value)
    if array.size == 0:  # np.asarray([]) is float64 but holds no value
        return True
    if array.dtype.kind not in "iu":
        return False
    # np.asarray turns [True, 2] into integers, so a sequence's own entries are tested
    return isinstance(value, np.ndarray) or not any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
    )


#: Path separators and the control characters U+0000-U+001F and U+007F; a
#: newline in a label would split the comment line of its trace CSV.
_NOT_IN_FILE_NAMES = frozenset("/\\\x7f" + "".join(map(chr, range(32))))


def _is_file_name(value) -> bool:
    return isinstance(value, str) and value not in ("", ".", "..") and (
        _NOT_IN_FILE_NAMES.isdisjoint(value))


INT, POS_INT, NUM = "an integer", "a positive integer", "a finite number"
PROB, BOOL, PATH = "a number in (0, 1]", "a boolean", "a non-empty path string"
POS_NUM, NONNEG = "a positive finite number", "a nonnegative finite number"
PAIR, SEEDS = "a list of two finite numbers", "a non-empty list of distinct integers"
FILE_NAME, OBJECT, LIST = "one file-name component", "an object", "a non-empty list"
INTS = "an array of integers"

#: kind -> the test a value of that kind passes.  Kinds are JSON-native: a
#: number is a Python int or float (np.float64 subclasses float; numpy
#: integers and np.float32 do not), never a bool, and finite.  Only INTS,
#: the kind of index and count arrays, takes numpy integers as entries.
KINDS = {
    INT: _is_int,
    POS_INT: lambda v: _is_int(v) and v > 0,
    NUM: _is_number,
    PROB: lambda v: _is_number(v) and 0.0 < v <= 1.0,
    BOOL: lambda v: isinstance(v, bool),
    PATH: lambda v: isinstance(v, str) and v != "" and "\0" not in v,
    POS_NUM: lambda v: _is_number(v) and v > 0.0,
    NONNEG: lambda v: _is_number(v) and v >= 0.0,
    PAIR: lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
    SEEDS: _is_seed_list,
    FILE_NAME: _is_file_name,
    OBJECT: lambda v: isinstance(v, dict),
    LIST: lambda v: isinstance(v, list) and v != [],
    INTS: _is_int_array,
}


def require(kind: str, **values) -> None:
    """Raise a ConfigurationError naming the first of `values` that is not of `kind`."""
    test = KINDS[kind]
    for name, value in values.items():
        if not test(value):
            raise ConfigurationError(f"{name} must be {kind}, got {value!r}")


def check_entry(entry: dict, kinds: dict, context: str, prefix: str = "", required=None) -> None:
    """Raise a ConfigurationError for keys of `entry` outside `kinds`, else for
    keys of `required` (default: all of `kinds`) it lacks, else for its first
    value, in `kinds` order, not of its kind, named `prefix` + key."""
    unknown = sorted(set(entry) - set(kinds), key=str)  # a dict built in Python may mix key types
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {unknown}")
    missing = sorted(set(kinds if required is None else required) - set(entry))
    if missing:
        raise ConfigurationError(f"{context}: missing required keys {missing}")
    for key, kind in kinds.items():
        if key in entry:
            require(kind, **{prefix + key: entry[key]})
