"""Plain record classes: the package's value types without dataclasses.

A record names its fields in __slots__ and sets them in __init__ through
_init. It compares equal to a record of the same class with equal fields
and lists every field in its repr; a frozen record also hashes by its
fields and refuses assignment. Importing dataclasses pulls in inspect,
which alone costs more start-up time than the arithmetic of a small
request.
"""

from operator import attrgetter


def _refuse(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable")


def _hash(self) -> int:
    return hash(self._fields(self))


class Record:
    """Base of a record whose fields are its __slots__, in order.

    Declare a subclass with frozen=True to make its instances immutable
    once __init__ has run and hashable by their fields, unless the class
    defines its own __hash__, which it keeps. Every subclass's constructor
    takes a leading run of its __slots__ positionally, in order; the slots
    after that run are derived, set by the constructor from the ones it
    takes. Pickling and copying pass the constructor only that run.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)
        cls._args = cls.__slots__[: cls.__init__.__code__.co_argcount - 1]
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
            if cls.__dict__.get("__hash__") is None:
                cls.__hash__ = _hash

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)
