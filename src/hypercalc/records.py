"""The base of the package's frozen records.  A record's fields are its
`__slots__`, less `_`-named caches; its `__init__` sets them with `_set`, and
it is then read-only, and compares, hashes, prints and pickles by them."""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # the class and the fields, which copies and pickles rebuild
        return self.__class__, tuple([getattr(self, n) for n in self.__slots__ if n[0] != "_"])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{self.__class__.__qualname__}({shown})"
