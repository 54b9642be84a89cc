"""Syntax tree of the scripting language.

Nodes compare structurally; positions are left out of both equality and repr.
"""

from dataclasses import dataclass, field
from typing import Optional


def _pos_field():
    return field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class Node:
    pass


# -- expressions -----------------------------------------------------------

@dataclass(frozen=True)
class Num(Node):
    value: object
    line: int = _pos_field()


@dataclass(frozen=True)
class Imag(Node):
    value: float
    line: int = _pos_field()


@dataclass(frozen=True)
class Str(Node):
    value: str
    line: int = _pos_field()


@dataclass(frozen=True)
class Ident(Node):
    name: str
    line: int = _pos_field()


@dataclass(frozen=True)
class Unary(Node):
    op: str
    operand: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class Binary(Node):
    op: str
    left: Node
    right: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class Assign(Node):
    op: str            # = += -= *= /=
    target: Node
    value: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class IncDec(Node):
    op: str            # ++ --
    target: Node
    prefix: bool = False
    line: int = _pos_field()


@dataclass(frozen=True)
class Arg(Node):
    value: Node
    name: Optional[str] = None


@dataclass(frozen=True)
class Call(Node):
    callee: Node
    args: tuple
    line: int = _pos_field()


@dataclass(frozen=True)
class Index(Node):
    base: Node
    args: tuple        # () means the bare [] accessor
    line: int = _pos_field()


@dataclass(frozen=True)
class Member(Node):
    base: Node
    name: str
    line: int = _pos_field()


@dataclass(frozen=True)
class Transpose(Node):
    base: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class ListExpr(Node):
    items: tuple
    line: int = _pos_field()


@dataclass(frozen=True)
class Range(Node):
    start: Node
    step: Optional[Node]
    stop: Node
    line: int = _pos_field()


# -- statements --------------------------------------------------------------

@dataclass(frozen=True)
class Program(Node):
    body: tuple


@dataclass(frozen=True)
class Declarator(Node):
    name: str
    sizes: tuple = ()            # constructor arguments, e.g. V(n) or f("path")
    init: Optional[Node] = None


@dataclass(frozen=True)
class Decl(Node):
    base: str                    # int real complex string bool mesh matrix ofstream ifstream
    dims: int                    # 0 scalar, 1 array [int], 2 matrix [int,int]
    subtype: Optional[str]       # e.g. complex for matrix<complex>
    decls: tuple
    line: int = _pos_field()


@dataclass(frozen=True)
class FespaceDecl(Node):
    name: str
    mesh: Node
    elem: Node
    named: tuple = ()
    line: int = _pos_field()


@dataclass(frozen=True)
class FeDecl(Node):
    space: str
    subtype: Optional[str]
    decls: tuple
    line: int = _pos_field()


@dataclass(frozen=True)
class MacroDef(Node):
    name: str
    params: Optional[tuple]      # None when defined without parentheses
    body: tuple                  # raw tokens
    line: int = _pos_field()


@dataclass(frozen=True)
class BorderDef(Node):
    name: str
    param: str
    t0: Node
    t1: Node
    body: tuple                  # statements assigning x, y, label
    line: int = _pos_field()


@dataclass(frozen=True)
class FuncDef(Node):
    name: str
    ret_type: Optional[str]      # None for analytic `func f = expr;`
    params: Optional[tuple]      # ((base, dims, name), ...)
    body: Node                   # Block for formal functions, expression otherwise
    line: int = _pos_field()


@dataclass(frozen=True)
class VarfDef(Node):
    name: str
    unknown: str
    test: str
    named: tuple
    body: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class ProblemDef(Node):
    kind: str                    # "problem" | "solve"
    name: str
    unknown: str
    test: str
    named: tuple
    body: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class If(Node):
    cond: Node
    then: Node
    orelse: Optional[Node]
    line: int = _pos_field()


@dataclass(frozen=True)
class For(Node):
    init: Node
    cond: Node
    change: Node
    body: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class While(Node):
    cond: Node
    body: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class Break(Node):
    line: int = _pos_field()


@dataclass(frozen=True)
class Continue(Node):
    line: int = _pos_field()


@dataclass(frozen=True)
class Return(Node):
    value: Optional[Node]
    line: int = _pos_field()


@dataclass(frozen=True)
class Block(Node):
    body: tuple
    line: int = _pos_field()


@dataclass(frozen=True)
class ExprStmt(Node):
    expr: Node
    line: int = _pos_field()


@dataclass(frozen=True)
class LoadStmt(Node):
    module: str
    line: int = _pos_field()

