"""Fixed-point scalar and vector types shared by every layer of the system.

The paper's scope is fixed-point DSP code, so the type system is small:
signed/unsigned integers of 8, 16, 32 and 64 bits, and vectors of those.
All arithmetic in the interpreters wraps modulo the type width (two's
complement), matching C/Halide semantics; saturating operations are provided
as explicit helpers so instruction semantics can opt in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import TypeMismatchError

_VALID_BITS = (1, 8, 16, 32, 64)


@dataclass(frozen=True)
class ScalarType:
    """A fixed-width integer type such as ``u8`` or ``i32``.

    ``bits == 1`` is the boolean type produced by comparisons; it is always
    unsigned.
    """

    bits: int
    signed: bool

    def __post_init__(self) -> None:
        if self.bits not in _VALID_BITS:
            raise TypeMismatchError(f"unsupported bit width: {self.bits}")
        if self.bits == 1 and self.signed:
            raise TypeMismatchError("boolean type cannot be signed")

    @property
    def min_value(self) -> int:
        return -(1 << (self.bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> int:
        return (1 << (self.bits - 1)) - 1 if self.signed else (1 << self.bits) - 1

    @property
    def name(self) -> str:
        if self.bits == 1:
            return "bool"
        return ("i" if self.signed else "u") + str(self.bits)

    def __repr__(self) -> str:
        return self.name

    def widened(self) -> "ScalarType":
        """The type with double the bit width (same signedness)."""
        if self.bits >= 64:
            raise TypeMismatchError("cannot widen a 64-bit type")
        return ScalarType(self.bits * 2, self.signed)

    def narrowed(self) -> "ScalarType":
        """The type with half the bit width (same signedness)."""
        if self.bits <= 8:
            raise TypeMismatchError("cannot narrow an 8-bit type")
        return ScalarType(self.bits // 2, self.signed)

    def wrap(self, value: int) -> int:
        """Reduce ``value`` into this type's range with two's-complement wrap."""
        masked = value & ((1 << self.bits) - 1)
        if self.signed and masked >= (1 << (self.bits - 1)):
            masked -= 1 << self.bits
        return masked

    def saturate(self, value: int) -> int:
        """Clamp ``value`` into this type's representable range."""
        if value < self.min_value:
            return self.min_value
        if value > self.max_value:
            return self.max_value
        return value

    def contains(self, value: int) -> bool:
        return self.min_value <= value <= self.max_value

    def can_represent(self, other: "ScalarType") -> bool:
        """True if every value of ``other`` is representable in this type."""
        return (
            self.min_value <= other.min_value and self.max_value >= other.max_value
        )


BOOL = ScalarType(1, False)
U8 = ScalarType(8, False)
I8 = ScalarType(8, True)
U16 = ScalarType(16, False)
I16 = ScalarType(16, True)
U32 = ScalarType(32, False)
I32 = ScalarType(32, True)
U64 = ScalarType(64, False)
I64 = ScalarType(64, True)

SCALAR_TYPES = (U8, I8, U16, I16, U32, I32, U64, I64)

_BY_NAME = {t.name: t for t in SCALAR_TYPES + (BOOL,)}


def scalar_type(name: str) -> ScalarType:
    """Look up a scalar type by name, e.g. ``scalar_type("u16")``."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise TypeMismatchError(f"unknown scalar type name: {name!r}") from None


@dataclass(frozen=True)
class VectorType:
    """A vector of ``lanes`` elements of scalar type ``elem``."""

    elem: ScalarType
    lanes: int

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise TypeMismatchError(f"vector must have >= 1 lane: {self.lanes}")

    @property
    def name(self) -> str:
        return f"{self.elem.name}x{self.lanes}"

    def __repr__(self) -> str:
        return self.name

    @property
    def bits(self) -> int:
        return self.elem.bits * self.lanes

    @property
    def bytes(self) -> int:
        return self.bits // 8

    def widened(self) -> "VectorType":
        return VectorType(self.elem.widened(), self.lanes)

    def narrowed(self) -> "VectorType":
        return VectorType(self.elem.narrowed(), self.lanes)


@lru_cache(maxsize=None)
def vector_type(elem_name: str, lanes: int) -> VectorType:
    """Look up a vector type by element name and lane count."""
    return VectorType(scalar_type(elem_name), lanes)


def require_same_type(a, b, context: str = "") -> None:
    """Raise :class:`TypeMismatchError` unless ``a`` and ``b`` are equal types."""
    if a != b:
        where = f" in {context}" if context else ""
        raise TypeMismatchError(f"type mismatch{where}: {a} vs {b}")


class kept_property:
    """A read-only property of an immutable node, computed on its first
    read and kept in the node's ``__dict__``.

    A non-data descriptor: once the value is kept, the instance attribute
    shadows the descriptor, so later reads cost a dict lookup.  Unlike
    ``functools.cached_property`` before Python 3.12, it takes no lock, so
    threads reading properties of nodes that refer to each other cannot
    deadlock; two threads that race compute the same value.  The kept
    value is no dataclass field, so equality, hash and repr ignore it.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


def cache_expr_hash(cls):
    """Class decorator: memoize the dataclass-generated ``__hash__``.

    Expression nodes are immutable trees used as dict/set keys throughout
    synthesis (memo tables, substitution maps, subtree dedup); the generated
    hash re-walks the whole subtree on every call, which turns those lookups
    quadratic.  Caching the value on first use makes a node's hash O(1) and
    a fresh tree's hash O(nodes), without changing its value.  The first
    use reads the cache with ``getattr``'s default rather than catching an
    ``AttributeError``, whose cost per node would triple the first hash of
    a fresh tree.
    """
    base_hash = cls.__hash__

    def __hash__(self):
        value = getattr(self, "_hash", None)
        if value is None:
            value = base_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self):
        # The cached value holds for this process's string-hash seed only;
        # a pickle may load in a process with another seed.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls
