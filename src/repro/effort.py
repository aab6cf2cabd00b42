"""Additive effort record: namespaced integer counters.

Every layer that spends work counts it on an :class:`Effort` with
``count(key, n)``.  A key is a flat string; a dot splits it into a
namespace and a counter (``"dc_effort.newton"``), while bare keys are the
evaluator's headline counters (``"simulations"``, ``"cache_hits"``).

Records only ever add, so the whole accounting algebra is three
operations: a :meth:`~Effort.snapshot` before a piece of work, the delta
``after - before`` once it is done, and the fold ``a + b`` that pools
deltas across pool workers, shards and resumed runs.  :meth:`to_dict`
nests one level at the first dot (``{"dc_effort": {"newton": 3}}``) and
:meth:`from_dict` inverts it, so reports, checkpoints and serve
artifacts carry a record without knowing its keys.

A record may *declare* keys: a declared key renders even at zero, and
every delta taken from the record keeps it.  Undeclared keys appear once
they have been counted, and a delta keeps them only when they moved.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional


class Effort:
    """Namespaced, additive integer counters (see module docstring)."""

    def __init__(self, counts: Optional[Mapping[str, int]] = None,
                 declare: Iterable[str] = ()):
        declare = tuple(declare)
        self._declared = frozenset(declare)
        self._counts: Dict[str, int] = dict.fromkeys(declare, 0)
        for key, n in (counts or {}).items():
            self.count(key, n)

    def count(self, key: str, n: int = 1) -> None:
        """Record ``n`` units of work under ``key``."""
        self._counts[key] = self._counts.get(key, 0) + int(n)

    def __getitem__(self, key: str) -> int:
        return self._counts.get(key, 0)

    def __contains__(self, key: str) -> bool:
        return key in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def namespace(self, name: str) -> Dict[str, int]:
        """The counters under ``name.`` keyed by their short names."""
        prefix = name + "."
        return {key[len(prefix):]: n for key, n in self._counts.items()
                if key.startswith(prefix)}

    # -- algebra --------------------------------------------------------------
    def snapshot(self) -> "Effort":
        """An independent copy (take one before the work to measure)."""
        copy = Effort(declare=())
        copy._declared = self._declared
        copy._counts = dict(self._counts)
        return copy

    def __iadd__(self, other: "Effort") -> "Effort":
        for key, n in other._counts.items():
            self._counts[key] = self._counts.get(key, 0) + n
        self._declared |= other._declared
        return self

    def __add__(self, other: "Effort") -> "Effort":
        total = self.snapshot()
        total += other
        return total

    def __sub__(self, before: "Effort") -> "Effort":
        """The work done since the snapshot ``before``: counters that
        moved, plus this record's declared keys."""
        delta = Effort(declare=())
        delta._declared = self._declared
        for key, n in self._counts.items():
            n -= before[key]
            if n or key in self._declared:
                delta._counts[key] = n
        return delta

    def clear(self) -> None:
        """Back to the declared keys, all at zero."""
        self._counts = {key: 0 for key in self._counts
                        if key in self._declared}

    def __eq__(self, other) -> bool:
        return isinstance(other, Effort) and self._counts == other._counts

    def __repr__(self) -> str:
        return f"Effort({self._counts!r})"

    # -- wire form ------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON form: bare keys at the top, namespaces as nested dicts."""
        out: Dict = {}
        for key, n in self._counts.items():
            space, dot, name = key.partition(".")
            if dot:
                out.setdefault(space, {})[name] = n
            else:
                out[key] = n
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Effort":
        """Inverse of :meth:`to_dict`; every key present stays declared,
        so a round trip renders its zeros again."""
        counts: Dict[str, int] = {}
        for key, value in data.items():
            if isinstance(value, Mapping):
                for name, n in value.items():
                    counts[f"{key}.{name}"] = int(n)
            else:
                counts[key] = int(value)
        return cls(counts, declare=counts)


__all__ = ["Effort"]
