"""The base of gfadm's record classes: named fields, set once, compared by value.

A record class writes its own ``__init__``, which checks its arguments and
stores them, in order, with :meth:`Record._set`.  Its fields are that
``__init__``'s parameters, in order.  After ``__init__`` an assignment raises, as on a
frozen dataclass; equality and hashing take the class and the fields'
values, and the repr shows them.  Nothing is generated at run time, so a
record class costs what a plain class costs to create.
"""


class Record:
    """Fields named by the subclass's ``__init__`` parameters; read-only once set.

    Attributes that are not fields, a cached property's included, live in
    the instance's ``__dict__`` beside them and take no part in equality,
    hashing or the repr.
    """

    _fields = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _set(self, *values) -> None:
        """Store the fields' values, in the order of ``_fields``, and their
        tuple, which equality and hashing compare.

        Each goes through ``object.__setattr__``, in the same order on every
        instance, so the instances share one key layout and reading a field
        is as fast as on any plain object; filling ``vars(self)`` instead
        makes every later read about three times slower.
        """
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
