"""Frozen records that check their fields: NamedTuples, built far faster than dataclasses."""

import functools


def checked(cls):
    """The NamedTuple class cls, its _check(self) run on every record built: by a call, by
    _replace and _make (through tuple.__new__, not __new__), and by unpickling or copying."""
    new = cls.__new__

    @functools.wraps(new)
    def __new__(kind, *args, **kwargs):
        self = new(kind, *args, **kwargs)
        self._check()
        return self

    cls.__new__, cls._make = __new__, classmethod(lambda kind, values: kind(*values))
    return cls
