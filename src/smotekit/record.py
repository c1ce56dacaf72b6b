"""The bases of the package's record types.

A record is a plain class whose ``__init__`` takes its fields by the
documented parameters, checks them and stores them. ``_fields`` names them
in parameter order (underscored, as in ``namedtuple``, so that no field name
can clash with it). From it, :class:`_Record` gives each record the repr
``Name(field=value, ...)`` and equality by value with a record of the same
class. A :class:`_FrozenRecord` also hashes by value and refuses assignment
and deletion after ``__init__``, which stores its fields with
``vars(self).update``.
"""


class _Record:
    """Repr and value equality over the fields ``_fields`` names; unhashable,
    since its fields may be reassigned."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class _FrozenRecord(_Record):
    """A record whose fields are set once, by ``__init__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
