"""The canonical JSON encoding of artifacts, and checked reads of them.

Model files, array states, feature caches, CSV tables and reports come
from outside the program, so their loaders read inside `reading(path,
what)`: a missing key, a value of the wrong JSON type, a list of the wrong
length or bytes that are not UTF-8 text surface as one DataError that
names the file, never as a KeyError or TypeError from deep inside the
loader or, later, from the code that uses what it loaded.
"""

from __future__ import annotations

import csv
import json
import zipfile
from contextlib import contextmanager

import numpy as np

from .errors import DataError

NUMBER = (int, float)
NULL = type(None)


def dump_json(doc) -> str:
    """Canonical serialization: alphabetical keys, fixed indentation, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_json(path, doc) -> None:
    with open(path, "w") as fh:
        fh.write(dump_json(doc))


def _no_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def parse_json(text: str):
    """The JSON document in text; NaN, Infinity and -Infinity raise ValueError."""
    return json.loads(text, parse_constant=_no_constant)


def load_json(path):
    """parse_json of the file at path."""
    with open(path, "r") as fh:
        return parse_json(fh.read())


def typed(value, kind, what: str):
    """value, if it is an instance of kind; a JSON boolean is not a number."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        names = "/".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise TypeError(f"{what} is {type(value).__name__}, expected {names}")
    return value


def typed_list(value, kind, what: str, length: int | None = None) -> list:
    """value, if it is a list of `kind` items, `length` of them when given."""
    typed(value, list, what)
    if length is not None and len(value) != length:
        raise ValueError(f"{what} has {len(value)} entries, expected {length}")
    for i, item in enumerate(value):
        typed(item, kind, f"{what}[{i}]")
    return value


@contextmanager
def reading(path, what: str):
    """Turn the errors of reading a malformed `what` from path into a DataError."""
    try:
        yield
    except KeyError as exc:
        raise DataError(f"{path}: malformed {what}: missing key {exc}") from exc
    except UnicodeDecodeError as exc:  # no offset: a text file's decoder counts from its buffered block
        raise DataError(f"{path}: malformed {what}: not UTF-8 text ({exc.reason})") from exc
    except (TypeError, ValueError, IndexError, OverflowError, zipfile.BadZipFile, csv.Error) as exc:
        raise DataError(f"{path}: malformed {what}: {exc}") from exc


def load_npz(path):
    """np.load of the .npz archive at path, with pickles refused; call it inside `reading`."""
    # np.load takes anything that is not a zip or .npy file for a pickle.
    if not zipfile.is_zipfile(path):
        raise ValueError("not an .npz archive")
    return np.load(path, allow_pickle=False)
