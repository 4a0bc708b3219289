"""Attribute-style records for lexicon entities.

Every entity (frame, frame element, lexical unit, relation, semantic type,
sentence, annotation set, document) is a ``Record``: a dict whose keys double
as attributes, tagged with an entity kind under ``_type``.  Keys enumerate in
insertion order and the constructors in the rest of the package always insert
in a fixed canonical order, so the attribute listing of a given entity kind is
stable across calls and processes.

A value built on first read is a ``Derived``.  ``Record`` calls its
``derive(record, key)`` under ``LOCK`` and writes back what it returns, so
repeated reads return the identical object, and threads that first touch a
value together build it once.  A read of any other value pays one
``isinstance`` check.  There are two kinds:

- ``Lazy(fn, *args)`` holds a callable and its arguments, so a thunk needs no
  closure.  It is the package's one mechanism for a value that reads a file
  or can fail: exemplar sentences, cross-file references, and the store's
  memo, which keeps a ``Lazy`` per entry, so every file loads by resolving
  one.  A build that fails with a ``ParseError`` or an ``IntegrityError``
  fails the same way on every later resolve, without running again: a file
  that does not load is read once.  Each state change is one store, so any
  other error, a failed read or an interrupt, leaves the thunk to run again.
- Every other ``Derived`` is built from data its record already holds, reads
  no file and cannot fail, and costs no object of its own: the value is that
  data, or one singleton shared by every record.  ``xmlio``'s docstring
  lists the slots that hold one.

Resolving a value may load a file and loading a file may resolve values, so
one re-entrant lock serves both; two could deadlock against each other.

Everything that runs under ``LOCK`` runs through ``build``, with the cyclic
garbage collector paused.  A file's parse makes many short-lived containers;
a collection in the middle of it would promote them to the oldest generation,
and the count of those promotions later sets off full passes over the whole
growing lexicon.  With no collection inside a build, the first one after it
sees only the records that outlive it.  A nested build finds the collector
off and leaves it off; the outermost one restores the state it found, also
when the build raises.
"""

import gc
import threading

from .errors import IntegrityError, ParseError

LOCK = threading.RLock()


def build(fn, *args):
    """``fn(*args)`` under ``LOCK``, with the cyclic collector paused."""
    with LOCK:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args)
        finally:
            if enabled:
                gc.enable()


class Derived:
    """A value that its record builds on first read: ``derive(record, key)``,
    which subclasses define."""

    __slots__ = ()


class Lazy(Derived):
    """A deferred value: ``fn(*args)``, evaluated at most once."""

    __slots__ = ("_thunk", "_value", "_done")

    def __init__(self, *thunk):
        self._thunk = thunk
        self._value = None
        self._done = False

    def resolve(self):
        if not self._done:
            with LOCK:
                if not self._done:
                    try:
                        self._value = build(*self._thunk)
                    except (ParseError, IntegrityError) as exc:
                        # The type and arguments, not the error: its traceback
                        # would hold the failed parse's frames.
                        self._thunk = (_fail, type(exc), *exc.args)
                        raise
                    self._done = True
                    self._thunk = None
        return self._value

    def derive(self, record, key):
        return self.resolve()


def _fail(error, *args):
    raise error(*args)


class Record(dict):
    """Dict with attribute access, a kind tag, and transparent lazy and derived values."""

    __slots__ = ()

    def __getitem__(self, key):
        value = dict.__getitem__(self, key)
        if isinstance(value, Derived):
            value = build(self._derive, key)
        return value

    def _derive(self, key):
        value = dict.__getitem__(self, key)
        if isinstance(value, Derived):  # not yet built by another thread
            value = value.derive(self, key)
            dict.__setitem__(self, key, value)
        return value

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name, value):
        self[name] = value

    def __repr__(self):
        kind = dict.get(self, "_type", "record")
        bits = [f"<{kind}"]
        for key in ("ID", "name"):
            value = dict.get(self, key)
            if value is not None and not isinstance(value, Lazy):
                bits.append(f"{key}={value}")
        return " ".join(bits) + ">"


def attribute_names(entity):
    """The entity's attribute names, in its stable enumeration order."""
    return [key for key in entity.keys() if not key.startswith("_")]


def record_type(entity):
    """The entity's kind tag, such as "frame", "lu" or "annotationset"."""
    return entity["_type"]
