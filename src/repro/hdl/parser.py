"""Recursive-descent parser for the Verilog-2001 subset.

Supports ANSI and non-ANSI module headers, parameter lists, wire/reg/integer
declarations (with vector ranges and memories), continuous assignments,
always blocks (sequential and combinational) with if/case/begin-end bodies,
and module instantiation with named or positional connections and parameter
overrides.  Generate blocks and functions are recognised but only in the
simple forms used by :mod:`repro.designs`.
"""

from __future__ import annotations

from .ast_nodes import (
    AlwaysBlock,
    Assign,
    BinaryOp,
    BlockingAssign,
    CaseItem,
    CaseStatement,
    Concat,
    EventControl,
    Expr,
    Identifier,
    IfStatement,
    IndexSelect,
    Instance,
    Module,
    NetDecl,
    NonBlockingAssign,
    Number,
    ParamDecl,
    Port,
    PortConnection,
    Range,
    RangeSelect,
    Repeat,
    SourceFile,
    Statement,
    TernaryOp,
    UnaryOp,
)
from .lexer import Token, tokenize

__all__ = ["ParseError", "parse_source", "parse_number"]


class ParseError(ValueError):
    """Raised when the token stream does not match the grammar."""


# Binary operator precedence (higher binds tighter).  Mirrors IEEE 1364.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "~^": 4,
    "^~": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "<<<": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
    "**": 11,
}

_UNARY_OPS = frozenset({"~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"})


def parse_number(text: str) -> Number:
    """Parse a Verilog numeric literal string into a :class:`Number`."""
    raw = text.replace("_", "")
    if "'" not in raw:
        if "." in raw:
            return Number(value=int(float(raw)), width=None, base="d", text=text)
        return Number(value=int(raw), width=None, base="d", text=text)
    size_part, rest = raw.split("'", 1)
    width = int(size_part) if size_part else None
    if rest and rest[0] in "sS":
        rest = rest[1:]
    base_ch = rest[0].lower() if rest and rest[0].lower() in "bodh" else "d"
    digits = rest[1:] if rest and rest[0].lower() in "bodh" else rest
    digits = digits.replace("?", "x")
    base = {"b": 2, "o": 8, "d": 10, "h": 16}[base_ch]
    # Treat x/z bits as 0 for elaboration purposes.
    clean = "".join("0" if c in "xXzZ" else c for c in digits) or "0"
    return Number(value=int(clean, base), width=width, base=base_ch, text=text)


class _Parser:
    def __init__(self, tokens: list[Token], source: str) -> None:
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self._lines = source.splitlines()

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.at(kind, value):
            tok = self.peek()
            self.pos += 1
            return tok
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r}, got {got.value!r} at line {got.line}:{got.col}"
            )
        return tok

    # -- top level ---------------------------------------------------------

    def parse(self) -> SourceFile:
        sf = SourceFile(text=self.source)
        while not self.at("EOF"):
            if self.at("KEYWORD", "module"):
                sf.modules.append(self.parse_module())
            else:
                tok = self.peek()
                raise ParseError(
                    f"unexpected {tok.value!r} at top level, line {tok.line}"
                )
        return sf

    def _slice_source(self, start_line: int, end_line: int) -> str:
        lo = max(start_line - 1, 0)
        hi = min(end_line, len(self._lines))
        return "\n".join(self._lines[lo:hi])

    def parse_module(self) -> Module:
        start = self.expect("KEYWORD", "module")
        name = self.expect("ID").value
        mod = Module(name=name, line=start.line)
        if self.accept("OP", "#"):
            self.expect("OP", "(")
            while not self.at("OP", ")"):
                self.accept("KEYWORD", "parameter")
                self._skip_optional_range()
                pname = self.expect("ID").value
                self.expect("OP", "=")
                mod.params.append(ParamDecl(name=pname, value=self.parse_expr()))
                if not self.accept("OP", ","):
                    break
            self.expect("OP", ")")
        if self.accept("OP", "("):
            self._parse_port_list(mod)
            self.expect("OP", ")")
        self.expect("OP", ";")
        while not self.at("KEYWORD", "endmodule"):
            self.parse_module_item(mod)
        end = self.expect("KEYWORD", "endmodule")
        mod.source_text = self._slice_source(start.line, end.line)
        return mod

    def _skip_optional_range(self) -> Range | None:
        if self.at("OP", "["):
            return self.parse_range()
        return None

    def _parse_port_list(self, mod: Module) -> None:
        if self.at("OP", ")"):
            return
        while True:
            if self.peek().value in ("input", "output", "inout"):
                direction = self.expect("KEYWORD").value
                is_reg = bool(self.accept("KEYWORD", "reg"))
                self.accept("KEYWORD", "wire")
                signed = bool(self.accept("KEYWORD", "signed"))
                rng = self._skip_optional_range()
                pname = self.expect("ID").value
                mod.ports.append(
                    Port(
                        name=pname,
                        direction=direction,
                        range=rng,
                        is_reg=is_reg,
                        signed=signed,
                    )
                )
                # ANSI style allows comma-separated same-direction names.
                while self.accept("OP", ","):
                    if self.peek().value in ("input", "output", "inout"):
                        self.pos -= 1  # let outer loop re-handle the comma
                        break
                    pname = self.expect("ID").value
                    mod.ports.append(
                        Port(
                            name=pname,
                            direction=direction,
                            range=rng,
                            is_reg=is_reg,
                            signed=signed,
                        )
                    )
                if self.accept("OP", ","):
                    continue
                break
            # non-ANSI: just names, declared in the body
            pname = self.expect("ID").value
            mod.ports.append(Port(name=pname, direction="unresolved"))
            if not self.accept("OP", ","):
                break

    def parse_range(self) -> Range:
        self.expect("OP", "[")
        msb = self.parse_expr()
        self.expect("OP", ":")
        lsb = self.parse_expr()
        self.expect("OP", "]")
        return Range(msb=msb, lsb=lsb)

    # -- module items --------------------------------------------------------

    def parse_module_item(self, mod: Module) -> None:
        tok = self.peek()
        if tok.kind == "KEYWORD":
            if tok.value in ("input", "output", "inout"):
                self._parse_body_port_decl(mod)
                return
            if tok.value in ("wire", "reg", "integer", "genvar"):
                self._parse_net_decl(mod)
                return
            if tok.value in ("parameter", "localparam"):
                self._parse_param_decl(mod)
                return
            if tok.value == "assign":
                self._parse_assign(mod)
                return
            if tok.value == "always":
                mod.always_blocks.append(self.parse_always())
                return
            if tok.value in ("generate", "endgenerate"):
                self.pos += 1  # transparent: items inside parsed normally
                return
            if tok.value == "function":
                self._skip_until_keyword("endfunction")
                return
            raise ParseError(f"unsupported item {tok.value!r} at line {tok.line}")
        if tok.kind == "ID":
            mod.instances.extend(self.parse_instances())
            return
        raise ParseError(f"unexpected {tok.value!r} at line {tok.line}")

    def _skip_until_keyword(self, kw: str) -> None:
        while not self.at("EOF") and not self.at("KEYWORD", kw):
            self.pos += 1
        self.expect("KEYWORD", kw)

    def _parse_body_port_decl(self, mod: Module) -> None:
        direction = self.expect("KEYWORD").value
        is_reg = bool(self.accept("KEYWORD", "reg"))
        self.accept("KEYWORD", "wire")
        signed = bool(self.accept("KEYWORD", "signed"))
        rng = self._skip_optional_range()
        while True:
            name = self.expect("ID").value
            existing = mod.port(name)
            if existing is not None:
                existing.direction = direction
                existing.range = rng
                existing.is_reg = is_reg
                existing.signed = signed
            else:
                mod.ports.append(
                    Port(
                        name=name,
                        direction=direction,
                        range=rng,
                        is_reg=is_reg,
                        signed=signed,
                    )
                )
            if not self.accept("OP", ","):
                break
        self.expect("OP", ";")

    def _parse_net_decl(self, mod: Module) -> None:
        kind = self.expect("KEYWORD").value
        signed = bool(self.accept("KEYWORD", "signed"))
        rng = self._skip_optional_range()
        while True:
            name = self.expect("ID").value
            array_range = self._skip_optional_range()
            decl = NetDecl(
                name=name, kind=kind, range=rng, signed=signed, array_range=array_range
            )
            mod.nets.append(decl)
            if self.accept("OP", "="):
                # wire w = expr;  -> implicit continuous assignment
                value = self.parse_expr()
                mod.assigns.append(Assign(target=Identifier(name=name), value=value))
            if not self.accept("OP", ","):
                break
        self.expect("OP", ";")

    def _parse_param_decl(self, mod: Module) -> None:
        kw = self.expect("KEYWORD").value
        self._skip_optional_range()
        while True:
            name = self.expect("ID").value
            self.expect("OP", "=")
            mod.params.append(
                ParamDecl(name=name, value=self.parse_expr(), local=kw == "localparam")
            )
            if not self.accept("OP", ","):
                break
        self.expect("OP", ";")

    def _parse_assign(self, mod: Module) -> None:
        self.expect("KEYWORD", "assign")
        while True:
            target = self.parse_expr()
            self.expect("OP", "=")
            value = self.parse_expr()
            mod.assigns.append(Assign(target=target, value=value))
            if not self.accept("OP", ","):
                break
        self.expect("OP", ";")

    # -- always blocks -------------------------------------------------------

    def parse_always(self) -> AlwaysBlock:
        tok = self.expect("KEYWORD", "always")
        self.expect("OP", "@")
        event = self.parse_event_control()
        body = self.parse_statement_or_block()
        return AlwaysBlock(event=event, body=body, line=tok.line)

    def parse_event_control(self) -> EventControl:
        ev = EventControl()
        if self.accept("OP", "*"):
            ev.is_star = True
            return ev
        self.expect("OP", "(")
        if self.accept("OP", "*"):
            ev.is_star = True
            self.expect("OP", ")")
            return ev
        while True:
            edge = "level"
            if self.at("KEYWORD", "posedge") or self.at("KEYWORD", "negedge"):
                edge = self.expect("KEYWORD").value
            sig = self.expect("ID").value
            ev.edges.append((edge, sig))
            if self.accept("KEYWORD", "or") or self.accept("OP", ","):
                continue
            break
        self.expect("OP", ")")
        return ev

    def parse_statement_or_block(self) -> list[Statement]:
        if self.at("KEYWORD", "begin"):
            self.expect("KEYWORD", "begin")
            if self.accept("OP", ":"):
                self.expect("ID")
            body: list[Statement] = []
            while not self.at("KEYWORD", "end"):
                body.append(self.parse_statement())
            self.expect("KEYWORD", "end")
            return body
        return [self.parse_statement()]

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind == "KEYWORD" and tok.value == "if":
            return self.parse_if()
        if tok.kind == "KEYWORD" and tok.value in ("case", "casez", "casex"):
            return self.parse_case()
        if tok.kind == "KEYWORD" and tok.value == "begin":
            from .ast_nodes import SeqBlock

            return SeqBlock(body=self.parse_statement_or_block(), line=tok.line)
        # assignment: the target is an lvalue, not a full expression, so the
        # nonblocking arrow <= is not swallowed as a comparison operator
        target = self.parse_lvalue()
        if self.accept("OP", "<="):
            value = self.parse_expr()
            self.expect("OP", ";")
            return NonBlockingAssign(target=target, value=value, line=tok.line)
        self.expect("OP", "=")
        value = self.parse_expr()
        self.expect("OP", ";")
        return BlockingAssign(target=target, value=value, line=tok.line)

    def parse_lvalue(self) -> Expr:
        """Parse an assignment target: identifier selects or a concat."""
        if self.at("OP", "{"):
            self.expect("OP", "{")
            parts = [self.parse_lvalue()]
            while self.accept("OP", ","):
                parts.append(self.parse_lvalue())
            self.expect("OP", "}")
            return Concat(parts=parts)
        return self._parse_postfix()

    def parse_if(self) -> IfStatement:
        tok = self.expect("KEYWORD", "if")
        self.expect("OP", "(")
        cond = self.parse_expr()
        self.expect("OP", ")")
        then_body = self.parse_statement_or_block()
        else_body: list[Statement] = []
        if self.accept("KEYWORD", "else"):
            else_body = self.parse_statement_or_block()
        return IfStatement(cond=cond, then_body=then_body, else_body=else_body, line=tok.line)

    def parse_case(self) -> CaseStatement:
        kw = self.expect("KEYWORD")
        self.expect("OP", "(")
        subject = self.parse_expr()
        self.expect("OP", ")")
        stmt = CaseStatement(subject=subject, kind=kw.value, line=kw.line)
        while not self.at("KEYWORD", "endcase"):
            if self.accept("KEYWORD", "default"):
                self.accept("OP", ":")
                stmt.items.append(CaseItem(labels=[], body=self.parse_statement_or_block()))
                continue
            labels = [self.parse_expr()]
            while self.accept("OP", ","):
                labels.append(self.parse_expr())
            self.expect("OP", ":")
            stmt.items.append(CaseItem(labels=labels, body=self.parse_statement_or_block()))
        self.expect("KEYWORD", "endcase")
        return stmt

    # -- instances -------------------------------------------------------------

    def parse_instances(self) -> list[Instance]:
        module_name = self.expect("ID").value
        param_overrides: list[tuple[str | None, Expr]] = []
        if self.accept("OP", "#"):
            self.expect("OP", "(")
            while not self.at("OP", ")"):
                if self.accept("OP", "."):
                    pname = self.expect("ID").value
                    self.expect("OP", "(")
                    param_overrides.append((pname, self.parse_expr()))
                    self.expect("OP", ")")
                else:
                    param_overrides.append((None, self.parse_expr()))
                if not self.accept("OP", ","):
                    break
            self.expect("OP", ")")
        instances: list[Instance] = []
        while True:
            inst_name = self.expect("ID").value
            self.expect("OP", "(")
            conns: list[PortConnection] = []
            if not self.at("OP", ")"):
                while True:
                    if self.accept("OP", "."):
                        pname = self.expect("ID").value
                        self.expect("OP", "(")
                        expr = None if self.at("OP", ")") else self.parse_expr()
                        self.expect("OP", ")")
                        conns.append(PortConnection(port=pname, expr=expr))
                    else:
                        conns.append(PortConnection(port=None, expr=self.parse_expr()))
                    if not self.accept("OP", ","):
                        break
            self.expect("OP", ")")
            instances.append(
                Instance(
                    module_name=module_name,
                    instance_name=inst_name,
                    connections=conns,
                    param_overrides=list(param_overrides),
                )
            )
            if not self.accept("OP", ","):
                break
        self.expect("OP", ";")
        return instances

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        if self.accept("OP", "?"):
            if_true = self.parse_expr()
            self.expect("OP", ":")
            if_false = self.parse_expr()
            return TernaryOp(cond=cond, if_true=if_true, if_false=if_false)
        return cond

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "OP" or tok.value not in _BINARY_PRECEDENCE:
                return left
            prec = _BINARY_PRECEDENCE[tok.value]
            if prec < min_prec:
                return left
            self.pos += 1
            right = self._parse_binary(prec + 1)
            left = BinaryOp(op=tok.value, left=left, right=right)

    def _parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.value in _UNARY_OPS:
            self.pos += 1
            return UnaryOp(op=tok.value, operand=self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        base = self._parse_primary()
        while self.at("OP", "["):
            self.expect("OP", "[")
            first = self.parse_expr()
            if self.accept("OP", ":"):
                second = self.parse_expr()
                self.expect("OP", "]")
                base = RangeSelect(base=base, msb=first, lsb=second)
            elif self.accept("OP", "+:"):
                # [base +: width] indexed part select
                width = self.parse_expr()
                self.expect("OP", "]")
                base = RangeSelect(
                    base=base,
                    msb=BinaryOp(op="+", left=first, right=BinaryOp(op="-", left=width, right=Number(value=1))),
                    lsb=first,
                )
            else:
                self.expect("OP", "]")
                base = IndexSelect(base=base, index=first)
        return base

    def _parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.pos += 1
            num = parse_number(tok.value)
            num.line = tok.line
            return num
        if tok.kind == "ID":
            self.pos += 1
            if self.at("OP", "("):
                from .ast_nodes import FunctionCall

                self.expect("OP", "(")
                args: list[Expr] = []
                if not self.at("OP", ")"):
                    args.append(self.parse_expr())
                    while self.accept("OP", ","):
                        args.append(self.parse_expr())
                self.expect("OP", ")")
                return FunctionCall(name=tok.value, args=args, line=tok.line)
            return Identifier(name=tok.value, line=tok.line)
        if self.accept("OP", "("):
            inner = self.parse_expr()
            self.expect("OP", ")")
            return inner
        if self.accept("OP", "{"):
            first = self.parse_expr()
            if self.at("OP", "{"):
                # replication {N{expr}}
                self.expect("OP", "{")
                value = self.parse_expr()
                while self.accept("OP", ","):
                    extra = self.parse_expr()
                    value = Concat(parts=[value, extra])
                self.expect("OP", "}")
                self.expect("OP", "}")
                return Repeat(count=first, value=value)
            parts = [first]
            while self.accept("OP", ","):
                parts.append(self.parse_expr())
            self.expect("OP", "}")
            return Concat(parts=parts)
        raise ParseError(f"unexpected token {tok.value!r} at line {tok.line}:{tok.col}")


def parse_source(text: str) -> SourceFile:
    """Parse Verilog ``text`` into a :class:`SourceFile` AST."""
    return _Parser(tokenize(text), text).parse()
