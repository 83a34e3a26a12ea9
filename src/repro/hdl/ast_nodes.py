"""AST node definitions for the Verilog subset.

Nodes are plain dataclasses.  The tree mirrors the textual structure of the
source: a :class:`SourceFile` holds :class:`Module` definitions, each with
port/net declarations, continuous assignments, always blocks and child
instantiations.  :mod:`repro.hdl.elaborator` lowers this tree to a gate
netlist; :mod:`repro.mentor.circuit_graph` lifts it into a property graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Node",
    "SourceFile",
    "Module",
    "Port",
    "NetDecl",
    "ParamDecl",
    "Range",
    "Expr",
    "Identifier",
    "Number",
    "UnaryOp",
    "BinaryOp",
    "TernaryOp",
    "Concat",
    "Repeat",
    "IndexSelect",
    "RangeSelect",
    "FunctionCall",
    "Assign",
    "AlwaysBlock",
    "EventControl",
    "Statement",
    "BlockingAssign",
    "NonBlockingAssign",
    "IfStatement",
    "CaseItem",
    "CaseStatement",
    "SeqBlock",
    "Instance",
    "PortConnection",
]


@dataclass
class Node:
    """Base class for every AST node."""

    line: int = field(default=0, kw_only=True)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class Number(Expr):
    """A numeric literal with optional explicit ``width`` (None = unsized)."""

    value: int
    width: int | None = None
    base: str = "d"
    text: str = ""


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class TernaryOp(Expr):
    cond: Expr
    if_true: Expr
    if_false: Expr


@dataclass
class Concat(Expr):
    parts: list[Expr]


@dataclass
class Repeat(Expr):
    count: Expr
    value: Expr


@dataclass
class IndexSelect(Expr):
    base: Expr
    index: Expr


@dataclass
class RangeSelect(Expr):
    base: Expr
    msb: Expr
    lsb: Expr


@dataclass
class FunctionCall(Expr):
    name: str
    args: list[Expr]


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Range(Node):
    """A ``[msb:lsb]`` vector range (expressions, resolved at elaboration)."""

    msb: Expr
    lsb: Expr


@dataclass
class Port(Node):
    name: str
    direction: str  # "input" | "output" | "inout"
    range: Range | None = None
    is_reg: bool = False
    signed: bool = False


@dataclass
class NetDecl(Node):
    name: str
    kind: str  # "wire" | "reg" | "integer"
    range: Range | None = None
    signed: bool = False
    array_range: Range | None = None  # memories: reg [7:0] mem [0:255]


@dataclass
class ParamDecl(Node):
    name: str
    value: Expr
    local: bool = False


# --------------------------------------------------------------------------
# Behavioural statements
# --------------------------------------------------------------------------


@dataclass
class Statement(Node):
    """Base class for procedural statements."""


@dataclass
class BlockingAssign(Statement):
    target: Expr
    value: Expr


@dataclass
class NonBlockingAssign(Statement):
    target: Expr
    value: Expr


@dataclass
class IfStatement(Statement):
    cond: Expr
    then_body: list[Statement]
    else_body: list[Statement] = field(default_factory=list)


@dataclass
class CaseItem(Node):
    labels: list[Expr]  # empty list => default
    body: list[Statement] = field(default_factory=list)


@dataclass
class CaseStatement(Statement):
    subject: Expr
    items: list[CaseItem] = field(default_factory=list)
    kind: str = "case"  # case | casez | casex


@dataclass
class SeqBlock(Statement):
    body: list[Statement] = field(default_factory=list)


@dataclass
class EventControl(Node):
    """``@(posedge clk or negedge rst_n)`` / ``@(*)`` sensitivity."""

    edges: list[tuple[str, str]] = field(default_factory=list)  # (edge, signal)
    is_star: bool = False

    @property
    def is_sequential(self) -> bool:
        return any(edge in ("posedge", "negedge") for edge, _ in self.edges)

    @property
    def clock(self) -> str | None:
        """Name of the first posedge/negedge signal, if sequential."""
        for edge, sig in self.edges:
            if edge in ("posedge", "negedge"):
                return sig
        return None


@dataclass
class AlwaysBlock(Node):
    event: EventControl
    body: list[Statement] = field(default_factory=list)


# --------------------------------------------------------------------------
# Structural
# --------------------------------------------------------------------------


@dataclass
class Assign(Node):
    """Continuous assignment ``assign lhs = rhs;``."""

    target: Expr
    value: Expr


@dataclass
class PortConnection(Node):
    port: str | None  # None for positional connections
    expr: Expr | None


@dataclass
class Instance(Node):
    module_name: str
    instance_name: str
    connections: list[PortConnection] = field(default_factory=list)
    param_overrides: list[tuple[str | None, Expr]] = field(default_factory=list)


@dataclass
class Module(Node):
    name: str
    ports: list[Port] = field(default_factory=list)
    params: list[ParamDecl] = field(default_factory=list)
    nets: list[NetDecl] = field(default_factory=list)
    assigns: list[Assign] = field(default_factory=list)
    always_blocks: list[AlwaysBlock] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    source_text: str = ""

    def port(self, name: str) -> Port | None:
        for p in self.ports:
            if p.name == name:
                return p
        return None


@dataclass
class SourceFile(Node):
    modules: list[Module] = field(default_factory=list)
    #: The Verilog this was parsed from; the frontend cache keys on it.
    text: str = field(default="", repr=False)

    def module(self, name: str) -> Module | None:
        for m in self.modules:
            if m.name == name:
                return m
        return None
