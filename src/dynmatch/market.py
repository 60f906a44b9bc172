"""Agent types, pairwise match values, and instance (de)serialization.

A market instance is a finite set of agent types. Each type arrives as a
Poisson process and, once present, stays for an exponential sojourn unless
its departure rate is INFINITE, in which case the agent leaves immediately
after arriving (it can still be matched at its own arrival instant). Match
values live on unordered type pairs and default to zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple


class _Infinite:
    """Marker for an infinite departure rate. Deliberately not a float so
    arithmetic with it is always explicit (pressure() returns 0, the LP fixes
    the type's rows to zero, the simulator never queues such agents)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self):
        return (_infinite_instance, ())


def _infinite_instance() -> "_Infinite":
    return INFINITE


INFINITE = _Infinite()


class AgentId(NamedTuple):
    """Identity of a single simulated agent: (type id, per-type serial)."""

    type_id: int
    serial: int

    def text(self) -> str:
        return f"{self.type_id}:{self.serial}"

    @staticmethod
    def from_text(s: str) -> "AgentId":
        a, b = s.split(":")
        return AgentId(int(a), int(b))


@dataclass(frozen=True)
class AgentType:
    id: int
    label: str
    arrival_rate: float
    departure_rate: float | _Infinite

    @property
    def impatient(self) -> bool:
        return self.departure_rate is INFINITE


class MatchValueMatrix:
    """Symmetric nonnegative values on unordered type pairs; absent pairs are 0."""

    __slots__ = ("n_types", "_values")

    def __init__(
        self,
        n_types: int,
        entries: Mapping[tuple[int, int], float] | Iterable[tuple[tuple[int, int], float]] = (),
    ):
        self.n_types = n_types
        items = entries.items() if isinstance(entries, Mapping) else entries
        values: dict[tuple[int, int], float] = {}
        for (x, y), v in items:
            key = (x, y) if x <= y else (y, x)
            v = float(v)
            if key in values and values[key] != v:
                raise ValueError(f"conflicting values for pair {key}")
            values[key] = v
        self._values = values

    def get(self, x: int, y: int) -> float:
        key = (x, y) if x <= y else (y, x)
        return self._values.get(key, 0.0)

    def items(self) -> list[tuple[tuple[int, int], float]]:
        return sorted(self._values.items())

    def dense(self) -> list[list[float]]:
        n = self.n_types
        out = [[0.0] * n for _ in range(n)]
        for (x, y), v in self._values.items():
            if x < n and y < n:
                out[x][y] = v
                out[y][x] = v
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatchValueMatrix)
            and self.n_types == other.n_types
            and self._values == other._values
        )

    def __repr__(self) -> str:
        return f"MatchValueMatrix(n_types={self.n_types}, entries={self.items()!r})"


@dataclass(frozen=True)
class MarketInstance:
    types: tuple[AgentType, ...]
    values: MatchValueMatrix

    @property
    def n_types(self) -> int:
        return len(self.types)

    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.types)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def validate_instance(instance: MarketInstance) -> list[Violation]:
    """Domain validation; returns an empty list iff the instance is usable."""
    out: list[Violation] = []
    types = instance.types
    if not types:
        out.append(Violation("no_types", "instance must declare at least one type"))
        return out
    seen_labels: dict[str, int] = {}
    for i, t in enumerate(types):
        if t.id != i:
            out.append(
                Violation(
                    "non_canonical_ids",
                    f"type at position {i} has id {t.id}; ids must be 0..n-1 in order",
                )
            )
        if not t.label:
            out.append(Violation("empty_label", f"type {t.id} has an empty label"))
        if t.label in seen_labels:
            out.append(
                Violation("duplicate_label", f"label {t.label!r} used by more than one type")
            )
        seen_labels.setdefault(t.label, i)
        lam = t.arrival_rate
        if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam > 0):
            out.append(
                Violation(
                    "arrival_rate_not_positive",
                    f"type {t.label!r}: arrival_rate must be positive and finite, got {lam!r}",
                )
            )
        mu = t.departure_rate
        if mu is not INFINITE:
            if not (isinstance(mu, (int, float)) and math.isfinite(mu) and mu > 0):
                out.append(
                    Violation(
                        "departure_rate_not_positive",
                        f"type {t.label!r}: departure_rate must be positive and finite "
                        f"or the INFINITE marker, got {mu!r}",
                    )
                )
    n = len(types)
    if instance.values.n_types != n:
        out.append(
            Violation(
                "value_matrix_size_mismatch",
                f"value matrix sized for {instance.values.n_types} types, instance has {n}",
            )
        )
    for (x, y), v in instance.values.items():
        if not (0 <= x < n and 0 <= y < n):
            out.append(
                Violation("value_index_out_of_range", f"value entry for unknown pair ({x}, {y})")
            )
            continue
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            out.append(
                Violation("non_finite_value", f"match value for pair ({x}, {y}) is {v!r}")
            )
        elif v < 0:
            out.append(
                Violation(
                    "negative_match_value",
                    f"match value for pair ({x}, {y}) must be nonnegative, got {v!r}",
                )
            )
    return out


def pressure(instance: MarketInstance, type_id: int) -> float:
    """Offered load lambda/mu of one type; 0 for impatient types.

    This is both the LP cap on any single matching fraction of the type and
    the exponent in its steady-state presence probability 1 - exp(-lambda/mu).
    """
    t = instance.types[type_id]  # IndexError propagates for out-of-range ids
    if t.departure_rate is INFINITE:
        return 0.0
    return t.arrival_rate / t.departure_rate


class InstanceFormatError(ValueError):
    """Structural problem in an instance document (unknown field, bad shape)."""


_TYPE_FIELDS = {"label", "arrival_rate", "departure_rate"}


def parse_instance(text: str) -> MarketInstance:
    """Parse the JSON instance format.

    {
      "types":  [{"label": str, "arrival_rate": num, "departure_rate": num | "inf"}, ...],
      "values": [[label_a, label_b, num], ...]
    }

    Unknown fields anywhere are rejected, as are duplicate labels in use
    positions (duplicate value pairs). Domain checks (positivity and the
    like) are validate_instance's job, not the parser's.
    """
    doc = json.loads(text)  # json.JSONDecodeError (with line info) propagates
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    unknown = set(doc) - {"types", "values"}
    if unknown:
        raise InstanceFormatError(f"unknown top-level field(s): {sorted(unknown)}")
    raw_types = doc.get("types")
    if not isinstance(raw_types, list):
        raise InstanceFormatError('"types" must be an array')
    types: list[AgentType] = []
    label_to_id: dict[str, int] = {}
    for i, entry in enumerate(raw_types):
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"types[{i}] must be an object")
        unknown = set(entry) - _TYPE_FIELDS
        if unknown:
            raise InstanceFormatError(f"types[{i}]: unknown field(s) {sorted(unknown)}")
        missing = _TYPE_FIELDS - set(entry)
        if missing:
            raise InstanceFormatError(f"types[{i}]: missing field(s) {sorted(missing)}")
        label = entry["label"]
        if not isinstance(label, str):
            raise InstanceFormatError(f"types[{i}]: label must be a string")
        lam = entry["arrival_rate"]
        if isinstance(lam, bool) or not isinstance(lam, (int, float)):
            raise InstanceFormatError(f"types[{i}]: arrival_rate must be a number")
        mu_raw = entry["departure_rate"]
        mu: float | _Infinite
        if mu_raw == "inf":
            mu = INFINITE
        elif isinstance(mu_raw, bool) or not isinstance(mu_raw, (int, float)):
            raise InstanceFormatError(
                f'types[{i}]: departure_rate must be a number or the string "inf"'
            )
        else:
            mu = float(mu_raw)
        types.append(AgentType(id=i, label=label, arrival_rate=float(lam), departure_rate=mu))
        if label not in label_to_id:
            label_to_id[label] = i
    raw_values = doc.get("values", [])
    if not isinstance(raw_values, list):
        raise InstanceFormatError('"values" must be an array')
    entries: dict[tuple[int, int], float] = {}
    for i, triple in enumerate(raw_values):
        if not (isinstance(triple, list) and len(triple) == 3):
            raise InstanceFormatError(f"values[{i}] must be [label_a, label_b, value]")
        la, lb, v = triple
        if not (isinstance(la, str) and isinstance(lb, str)):
            raise InstanceFormatError(f"values[{i}]: labels must be strings")
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InstanceFormatError(f"values[{i}]: value must be a number")
        if la not in label_to_id or lb not in label_to_id:
            missing_label = la if la not in label_to_id else lb
            raise InstanceFormatError(f"values[{i}]: unknown type label {missing_label!r}")
        a, b = label_to_id[la], label_to_id[lb]
        key = (a, b) if a <= b else (b, a)
        if key in entries:
            raise InstanceFormatError(f"values[{i}]: duplicate pair ({la!r}, {lb!r})")
        entries[key] = float(v)
    return MarketInstance(
        types=tuple(types), values=MatchValueMatrix(len(types), entries)
    )


def emit_instance(instance: MarketInstance) -> str:
    """Serialize back to the documented JSON format; parse(emit(x)) == x."""
    types = [
        {
            "label": t.label,
            "arrival_rate": t.arrival_rate,
            "departure_rate": "inf" if t.departure_rate is INFINITE else t.departure_rate,
        }
        for t in instance.types
    ]
    labels = instance.labels()
    values = [
        [labels[x], labels[y], v] for (x, y), v in instance.values.items()
    ]
    return json.dumps({"types": types, "values": values}, indent=2) + "\n"


def load_instance(path: str) -> MarketInstance:
    with open(path) as fh:
        return parse_instance(fh.read())


def save_instance(instance: MarketInstance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(emit_instance(instance))
