"""The bases of the package's record types.

A record is a plain class whose ``__init__`` takes its fields by the
documented parameters, checks them and stores them. ``_fields`` names them
in parameter order (underscored, as in ``namedtuple``, so that no field name
can clash with it). From it, :class:`_Record` gives each record the repr
``Name(field=value, ...)`` and equality by value with a record of the same
class. A :class:`_FrozenRecord` also hashes by value and refuses assignment
and deletion after ``__init__``, which stores its fields with
``vars(self).update``. Its hash is computed once, on the first ``hash``
call, and kept out of its repr, equality, copies and pickles.
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

    _hash = None  # set on the first __hash__ call: the fields never change

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = vars(self)["_hash"] = hash(self._values())
        return h

    def __getstate__(self) -> dict:
        """The fields without the cached hash, which a process with other
        string hashes must compute afresh."""
        state = dict(vars(self))
        state.pop("_hash", None)
        return state
