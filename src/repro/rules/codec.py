"""Abstraction and (de)serialization for rewrite rules.

A rule's **LHS** is a parameterized spec pattern: the spec expression with
every buffer/scalar *name* replaced by a positional slot (``n0, n1, ...``
in first-occurrence order, exactly the normalization
:func:`repro.synthesis.engine.canonical_expr` applies under the verdict
cache) and every distinct ``(value, dtype)`` constant replaced by a
parameter slot (``c0, c1, ...``).  Two specs that differ only in buffer
names or constant values therefore share one LHS key, which is what makes
a mined lowering reusable.

The **RHS** is the selected machine program re-rendered against the same
abstraction: name fields that referenced a spec buffer become slot
references, constants (and instruction immediates) whose value matches an
abstracted spec constant become parameter references, and everything else
— offsets, lane counts, strides, opcode names — stays literal.
Instantiating the RHS under a new spec's bindings rebuilds a concrete
program; :class:`~repro.hvx.isa.HvxInstr`'s eager type check rejects
ill-typed instantiations at construction time.

Abstraction is deliberately *optimistic*: an immediate that happens to
equal a spec constant is parameterized even though the coincidence may
not generalize.  That is safe because every instantiated candidate is
re-checked against the full valuation bank before it is ever returned
(see :meth:`repro.rules.library.RuleLibrary.match`) — a wrong
generalization costs one refuted query, never a wrong program.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from ..errors import ReproError, TypeMismatchError
from ..ir import expr as ir_expr
from ..synthesis.engine import _NAME_FIELDS, _field_names, canonical_spec
from ..targets import nodes as N
from ..types import ScalarType, scalar_type

#: bump when the template encoding changes shape; mismatched records are
#: skipped at load time (the library just re-mines)
FORMAT_VERSION = 1

#: dataclass fields whose string value names a type, not a buffer
_TYPE_FIELDS = frozenset({"dtype", "elem", "target"})

#: node classes a template may contain, by class name
_NODE_CLASSES = {
    cls.__name__: cls
    for cls in (
        ir_expr.Const, ir_expr.ScalarVar, ir_expr.Load, ir_expr.Broadcast,
        ir_expr.Absd, ir_expr.Cast, ir_expr.SaturatingCast, ir_expr.Select,
    ) + ir_expr.BINARY_OPS + ir_expr.COMPARE_OPS
    + (N.HvxLoad, N.HvxSplat, N.HvxInstr)
}


class RuleCodecError(ReproError):
    """A template could not be encoded or instantiated.

    Raised for unbound slots, unknown node classes and type-check
    rejections; the matcher treats it as "this rule does not apply" and
    falls through to the next candidate (ultimately to CEGIS).
    """


class Abstraction:
    """Slot assignment shared between a spec (LHS) and its program (RHS).

    In *open* mode (the spec walk) unseen names and constants are assigned
    fresh slots; in *frozen* mode (the program walk) only slots the spec
    already created are referenced — anything else stays literal, since a
    program value with no spec counterpart cannot be rebound.
    """

    def __init__(self):
        self.names: dict[str, str] = {}
        self.consts: dict[tuple[int, str], str] = {}
        self.frozen = False

    def name_slot(self, name: str) -> str | None:
        slot = self.names.get(name)
        if slot is None and not self.frozen:
            slot = self.names[name] = f"n{len(self.names)}"
        return slot

    def const_slot(self, value: int, dtype_name: str) -> str | None:
        key = (value, dtype_name)
        slot = self.consts.get(key)
        if slot is None and not self.frozen:
            slot = self.consts[key] = f"c{len(self.consts)}"
        return slot

    def imm_slot(self, value: int) -> str | None:
        """The first constant slot (in slot order) holding ``value``,
        regardless of dtype — immediates are bare ints on the wire."""
        for (cval, _dtype), slot in self.consts.items():
            if cval == value:
                return slot
        return None

    def bindings(self) -> "Bindings":
        return Bindings(
            names={slot: name for name, slot in self.names.items()},
            consts={slot: key for key, slot in self.consts.items()},
        )


@dataclasses.dataclass(frozen=True)
class Bindings:
    """Slot → concrete value maps extracted from one spec."""

    names: dict  # slot -> buffer/scalar name
    consts: dict  # slot -> (value, dtype name)


def encode_node(node, ab: Abstraction) -> dict:
    """One expression node (IR or machine) as a JSON-safe template tree."""
    if isinstance(node, ir_expr.Const):
        slot = ab.const_slot(node.value, node.dtype.name)
        if slot is not None:
            return {"_": "param", "id": slot, "dtype": node.dtype.name}
        return {"_": "Const", "value": node.value, "dtype": node.dtype.name}
    name = type(node).__name__
    if name not in _NODE_CLASSES:
        raise RuleCodecError(f"cannot encode node kind {name!r}")
    out = {"_": name}
    for field_name in _field_names(type(node)):
        out[field_name] = _encode_value(getattr(node, field_name), field_name,
                                        ab)
    return out


def _encode_value(value, field_name: str, ab: Abstraction):
    if isinstance(value, (ir_expr.Expr, N.HvxExpr)):
        return encode_node(value, ab)
    if isinstance(value, ScalarType):
        return value.name
    if isinstance(value, str):
        if field_name in _NAME_FIELDS:
            slot = ab.name_slot(value)
            if slot is not None:
                return {"_": "slot", "id": slot}
        return value
    if isinstance(value, (tuple, list)):
        if field_name == "imms":
            return [_encode_imm(v, ab) for v in value]
        return [_encode_value(v, field_name, ab) for v in value]
    if isinstance(value, (bool, int)):
        return value
    raise RuleCodecError(
        f"cannot encode field {field_name!r} of type {type(value).__name__}"
    )


def _encode_imm(value: int, ab: Abstraction):
    slot = ab.imm_slot(value)
    if slot is not None:
        return {"_": "imm", "id": slot}
    return value


def decode_node(tree: dict, bindings: Bindings):
    """Rebuild a concrete expression from a template under ``bindings``."""
    kind = tree.get("_")
    if kind == "param":
        value, dtype_name = _const_binding(tree["id"], bindings)
        try:
            return ir_expr.Const(value, scalar_type(dtype_name))
        except (TypeMismatchError, ValueError, KeyError) as exc:
            raise RuleCodecError(f"bad constant binding: {exc}") from exc
    cls = _NODE_CLASSES.get(kind)
    if cls is None:
        raise RuleCodecError(f"unknown template node kind {kind!r}")
    kwargs = {}
    for field_name, value in tree.items():
        if field_name == "_":
            continue
        kwargs[field_name] = _decode_value(value, field_name, bindings)
    try:
        return cls(**kwargs)
    except (TypeMismatchError, TypeError, ValueError) as exc:
        # The binding produced an ill-typed node (HvxInstr type-checks
        # eagerly) — this rule does not apply to this spec.
        raise RuleCodecError(f"instantiation rejected: {exc}") from exc


def _decode_value(value, field_name: str, bindings: Bindings):
    if isinstance(value, dict):
        kind = value.get("_")
        if kind == "slot":
            name = bindings.names.get(value.get("id"))
            if name is None:
                raise RuleCodecError(f"unbound name slot {value.get('id')!r}")
            return name
        if kind == "imm":
            return _const_binding(value.get("id"), bindings)[0]
        return decode_node(value, bindings)
    if isinstance(value, list):
        return tuple(_decode_value(v, field_name, bindings) for v in value)
    if isinstance(value, str) and field_name in _TYPE_FIELDS:
        try:
            return scalar_type(value)
        except (KeyError, ValueError) as exc:
            raise RuleCodecError(f"unknown scalar type {value!r}") from exc
    return value


def _const_binding(slot, bindings: Bindings) -> tuple[int, str]:
    binding = bindings.consts.get(slot)
    if binding is None:
        raise RuleCodecError(f"unbound constant slot {slot!r}")
    return binding


@dataclasses.dataclass(frozen=True)
class SpecPattern:
    """One spec's abstraction: its keys plus the bindings to undo it.

    ``exact`` hashes the rename-insensitive but *constant-literal*
    canonical rendering (:func:`repro.synthesis.engine.canonical_spec` —
    the same identity the verdict cache and request coalescer use), so an
    exact-key rule hit on replayed traffic reproduces the originally
    synthesized program byte for byte.  ``lhs`` additionally abstracts
    constants, which is what lets one rule cover a family of specs.
    """

    exact: str
    lhs: str
    root: str
    bindings: Bindings


def abstract_spec(spec, memo: dict | None = None) -> SpecPattern:
    """Abstract one spec expression into its pattern keys and bindings;
    ``memo`` is passed on to :func:`canonical_spec`."""
    ab = Abstraction()
    tree = encode_node(spec, ab)
    pattern = json.dumps(tree, separators=(",", ":"), sort_keys=True)
    return SpecPattern(
        exact=hashlib.sha256(canonical_spec(spec, memo).encode()).hexdigest(),
        lhs=hashlib.sha256(pattern.encode()).hexdigest(),
        root=root_signature(spec),
        bindings=ab.bindings(),
    )


def encode_program(program, spec_ab_or_spec) -> dict:
    """Render a machine program as an RHS template against its spec.

    Accepts either the spec expression itself or an :class:`Abstraction`
    already populated by the spec walk.
    """
    if isinstance(spec_ab_or_spec, Abstraction):
        ab = spec_ab_or_spec
    else:
        ab = Abstraction()
        encode_node(spec_ab_or_spec, ab)
    ab.frozen = True
    try:
        return encode_node(program, ab)
    finally:
        ab.frozen = False


def root_signature(spec) -> str:
    """A cheap pre-filter key: the spec's root class and result type."""
    try:
        type_name = spec.type.name
    except Exception:
        type_name = "?"
    return f"{type(spec).__name__}:{type_name}"
