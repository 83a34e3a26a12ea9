"""Elaboration: lower a parsed Verilog AST to a flat gate-level netlist.

The elaborator bit-blasts every signal into single-bit nets and synthesizes
word-level RTL operators into generic gates:

* bitwise ops -> per-bit gates; reductions -> balanced gate trees
* ``+``/``-`` -> ripple-carry adders; ``*`` -> shift-and-add array multiplier
* comparisons -> subtract-based comparators; shifts -> barrel shifters
* ternaries and if/case statements -> MUX2 trees (priority order preserved)
* ``always @(posedge clk)`` bodies -> symbolic next-state functions feeding
  one DFF per written bit; reg arrays become register banks with
  decoder-enabled write ports and mux-tree read ports
* module instances are flattened recursively with ``/``-separated
  hierarchical names; parameter overrides are applied per instance

The output is a :class:`repro.hdl.netlist.Netlist` whose quality is then the
subject of the synthesis engine.
"""

from __future__ import annotations

import math

from .. import obs
from .ast_nodes import (
    AlwaysBlock,
    BinaryOp,
    BlockingAssign,
    CaseStatement,
    Concat,
    Expr,
    FunctionCall,
    Identifier,
    IfStatement,
    IndexSelect,
    Instance,
    Module,
    NonBlockingAssign,
    Number,
    RangeSelect,
    Repeat,
    SeqBlock,
    SourceFile,
    Statement,
    TernaryOp,
    UnaryOp,
)
from .netlist import Netlist

__all__ = ["ElaborationError", "Elaborator", "elaborate", "eval_const_expr"]

#: Safety cap on total memory bits expanded into register banks.
MAX_ARRAY_BITS = 1 << 17


class ElaborationError(ValueError):
    """Raised when the design cannot be lowered to gates."""


def _copy_arrays(arrays: dict[str, list[list[str]]]) -> dict[str, list[list[str]]]:
    return {k: [list(w) for w in v] for k, v in arrays.items()}


class _BitsExpr(Expr):
    """Internal expression wrapping already-synthesized bits."""

    def __init__(self, bits: list[str]) -> None:
        super().__init__()
        self.bits = bits


class _Scope:
    """Per-instance elaboration scope: parameters, signals, net bindings."""

    def __init__(self, module: Module, prefix: str, params: dict[str, int]) -> None:
        self.module = module
        self.prefix = prefix
        self.params = params
        # signal name -> list of net names (one per bit, LSB first)
        self.sigbits: dict[str, list[str]] = {}
        # array signal name -> list of words, each a list of net names
        self.arrays: dict[str, list[list[str]]] = {}
        self.widths: dict[str, int] = {}
        self.array_depths: dict[str, int] = {}


class Elaborator:
    """Drives elaboration of ``top`` within a parsed :class:`SourceFile`."""

    def __init__(
        self,
        source: SourceFile,
        top: str,
        params: dict[str, int] | None = None,
    ) -> None:
        self.source = source
        self.top_name = top
        self.top_params = dict(params or {})
        self.netlist = Netlist(name=top)
        self._const_nets: dict[int, str] = {}

    # -- public API ----------------------------------------------------------

    def elaborate(self) -> Netlist:
        module = self.source.module(self.top_name)
        if module is None:
            raise ElaborationError(f"top module {self.top_name!r} not found")
        scope = self._make_scope(module, prefix="", overrides=self.top_params)
        self._declare_top_ports(scope)
        self._elaborate_module(scope)
        self._finalize_outputs(scope)
        return self.netlist

    # -- scope / signal plumbing ----------------------------------------------

    def _make_scope(
        self, module: Module, prefix: str, overrides: dict[str, int]
    ) -> _Scope:
        params: dict[str, int] = {}
        for decl in module.params:
            if not decl.local and decl.name in overrides:
                params[decl.name] = overrides[decl.name]
            else:
                params[decl.name] = self._eval_const(decl.value, params)
        for name, value in overrides.items():
            params.setdefault(name, value)
        scope = _Scope(module, prefix, params)
        for port in module.ports:
            scope.widths[port.name] = self._range_width(port.range, params)
        for net in module.nets:
            width = self._range_width(net.range, params)
            scope.widths[net.name] = width
            if net.array_range is not None:
                depth = self._range_width(net.array_range, params)
                if depth * width > MAX_ARRAY_BITS:
                    raise ElaborationError(
                        f"array {net.name!r} too large ({depth}x{width} bits)"
                    )
                scope.array_depths[net.name] = depth
        return scope

    def _range_width(self, rng, params: dict[str, int]) -> int:
        if rng is None:
            return 1
        msb = self._eval_const(rng.msb, params)
        lsb = self._eval_const(rng.lsb, params)
        return abs(msb - lsb) + 1

    def _signal_bits(self, scope: _Scope, name: str) -> list[str]:
        """Net names for signal ``name`` in ``scope``, creating lazily."""
        if name in scope.sigbits:
            return scope.sigbits[name]
        if name not in scope.widths:
            if name in scope.params:
                value = scope.params[name]
                width = max(value.bit_length(), 1)
                bits = [self._const_net(value >> i & 1) for i in range(width)]
                scope.sigbits[name] = bits
                return bits
            raise ElaborationError(
                f"undeclared signal {name!r} in {scope.module.name}"
            )
        width = scope.widths[name]
        if width == 1:
            bits = [f"{scope.prefix}{name}"]
        else:
            bits = [f"{scope.prefix}{name}[{i}]" for i in range(width)]
        for bit in bits:
            self.netlist.get_or_add_net(bit)
        scope.sigbits[name] = bits
        return bits

    def _array_words(self, scope: _Scope, name: str) -> list[list[str]]:
        if name in scope.arrays:
            return scope.arrays[name]
        width = scope.widths[name]
        depth = scope.array_depths[name]
        words = []
        for w in range(depth):
            bits = [f"{scope.prefix}{name}[{w}][{i}]" for i in range(width)]
            for bit in bits:
                self.netlist.get_or_add_net(bit)
            words.append(bits)
        scope.arrays[name] = words
        return words

    def _const_net(self, value: int) -> str:
        value = value & 1
        if value not in self._const_nets:
            net = self.netlist.add_net(f"$const{value}")
            self.netlist.add_cell("CONST1" if value else "CONST0", [], net.name)
            self._const_nets[value] = net.name
        return self._const_nets[value]

    def _declare_top_ports(self, scope: _Scope) -> None:
        for port in scope.module.ports:
            bits = self._signal_bits(scope, port.name)
            for bit in bits:
                net = self.netlist.nets[bit]
                if port.direction == "input":
                    net.is_input = True
                    self.netlist.primary_inputs.append(bit)
                elif port.direction == "output":
                    net.is_output = True
                    self.netlist.primary_outputs.append(bit)

    def _finalize_outputs(self, scope: _Scope) -> None:
        """Tie any undriven non-input nets to constant 0 (safe default)."""
        zero = None
        for name, net in list(self.netlist.nets.items()):
            if net.driver is None and not net.is_input and (net.sinks or net.is_output):
                if name.startswith("$const"):
                    continue
                if zero is None:
                    zero = self._const_net(0)
                if name == zero:
                    continue
                self.netlist.add_cell("BUF", [zero], name)

    # -- constant evaluation ----------------------------------------------------

    def _eval_const(self, expr: Expr, params: dict[str, int]) -> int:
        return eval_const_expr(expr, params)


    def _try_const(self, expr: Expr, scope: _Scope) -> int | None:
        try:
            return self._eval_const(expr, scope.params)
        except ElaborationError:
            return None

    # -- width inference ---------------------------------------------------------

    def _width_of(self, expr: Expr, scope: _Scope) -> int:
        if isinstance(expr, Number):
            return expr.width or max(expr.value.bit_length(), 1)
        if isinstance(expr, Identifier):
            if expr.name in scope.widths:
                return scope.widths[expr.name]
            if expr.name in scope.params:
                return max(scope.params[expr.name].bit_length(), 1)
            raise ElaborationError(f"undeclared signal {expr.name!r}")
        if isinstance(expr, UnaryOp):
            if expr.op in ("!", "&", "|", "^", "~&", "~|", "~^"):
                return 1
            return self._width_of(expr.operand, scope)
        if isinstance(expr, BinaryOp):
            if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||", "===", "!=="):
                return 1
            if expr.op in ("<<", ">>", "<<<", ">>>"):
                return self._width_of(expr.left, scope)
            if expr.op == "*":
                return self._width_of(expr.left, scope) + self._width_of(
                    expr.right, scope
                )
            return max(
                self._width_of(expr.left, scope), self._width_of(expr.right, scope)
            )
        if isinstance(expr, TernaryOp):
            return max(
                self._width_of(expr.if_true, scope),
                self._width_of(expr.if_false, scope),
            )
        if isinstance(expr, Concat):
            return sum(self._width_of(p, scope) for p in expr.parts)
        if isinstance(expr, Repeat):
            count = self._eval_const(expr.count, scope.params)
            return count * self._width_of(expr.value, scope)
        if isinstance(expr, IndexSelect):
            base = expr.base
            if isinstance(base, Identifier) and base.name in scope.array_depths:
                return scope.widths[base.name]
            return 1
        if isinstance(expr, RangeSelect):
            msb = self._eval_const(expr.msb, scope.params)
            lsb = self._eval_const(expr.lsb, scope.params)
            return abs(msb - lsb) + 1
        raise ElaborationError(f"cannot size {type(expr).__name__}")

    # -- gate builders --------------------------------------------------------------

    def _gate(self, gate: str, inputs: list[str]) -> str:
        out = self.netlist.add_net().name
        self.netlist.add_cell(gate, inputs, out)
        return out

    def _reduce_tree(self, gate: str, bits: list[str]) -> str:
        """Balanced reduction tree (AND2/OR2/XOR2) over ``bits``."""
        if not bits:
            return self._const_net(0)
        layer = list(bits)
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(self._gate(gate, [layer[i], layer[i + 1]]))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def _mux(self, sel: str, a: str, b: str) -> str:
        """MUX2: sel==0 -> a, sel==1 -> b."""
        return self._gate("MUX2", [sel, a, b])

    def _ripple_add(
        self, a: list[str], b: list[str], carry: str
    ) -> tuple[list[str], str, list[str]]:
        """Ripple-carry core; returns (sums, carry out, created cell names)."""
        members: list[str] = []

        def gate(kind: str, inputs: list[str]) -> str:
            out = self._gate(kind, inputs)
            members.append(self.netlist.nets[out].driver)
            return out

        out = []
        for i in range(len(a)):
            axb = gate("XOR2", [a[i], b[i]])
            out.append(gate("XOR2", [axb, carry]))
            gen = gate("AND2", [a[i], b[i]])
            prop = gate("AND2", [axb, carry])
            carry = gate("OR2", [gen, prop])
        return out, carry, members

    #: Minimum width at which synthesized adders are tagged for the
    #: carry-select resynthesis pass (repro.synth.optimizer).
    ADDER_TAG_WIDTH = 8

    def _adder(self, a: list[str], b: list[str], carry_in: str | None = None) -> list[str]:
        """Ripple-carry adder; result width = max(len(a), len(b)).

        Wide adders are tagged (attrs['adder'] on the anchor cell) so the
        synthesis engine can later rebuild them as carry-select adders —
        the DesignWare "implementation selection" analogue.
        """
        width = max(len(a), len(b))
        a = self._extend(a, width)
        b = self._extend(b, width)
        cin = carry_in or self._const_net(0)
        out, cout, members = self._ripple_add(a, b, cin)
        self._tag_adder(a, b, cin, out, cout, members)
        return out

    def _tag_adder(
        self,
        a: list[str],
        b: list[str],
        cin: str,
        outs: list[str],
        cout: str,
        members: list[str],
    ) -> None:
        # Adders inside multiplier arrays are not tagged: their critical
        # paths run diagonally through the sums, so carry-select rebuilds
        # only add load there.
        if getattr(self, "_in_multiplier", False):
            return
        if len(outs) < self.ADDER_TAG_WIDTH:
            return
        anchor = self.netlist.nets[outs[0]].driver
        self.netlist.cells[anchor].attrs["adder"] = {
            "a": list(a),
            "b": list(b),
            "cin": cin,
            "outs": list(outs),
            "cout": cout,
            "members": list(members),
        }

    def _negate(self, bits: list[str]) -> list[str]:
        inverted = [self._gate("NOT", [b]) for b in bits]
        one = [self._const_net(1)] + [self._const_net(0)] * (len(bits) - 1)
        return self._adder(inverted, one)

    def _subtract(self, a: list[str], b: list[str]) -> tuple[list[str], str]:
        """a - b via two's complement; returns (diff bits, final carry).

        Final carry==1 means a >= b for unsigned operands.
        """
        width = max(len(a), len(b))
        a = self._extend(a, width)
        b = self._extend(b, width)
        b_inv = [self._gate("NOT", [bit]) for bit in b]
        cin = self._const_net(1)
        out, cout, members = self._ripple_add(a, b_inv, cin)
        self._tag_adder(a, b_inv, cin, out, cout, members)
        return out, cout

    def _multiplier(self, a: list[str], b: list[str]) -> list[str]:
        """Shift-and-add array multiplier, width = len(a)+len(b)."""
        total = len(a) + len(b)
        acc = [self._const_net(0)] * total
        self._in_multiplier = True
        try:
            for j, b_bit in enumerate(b):
                partial = [self._const_net(0)] * j
                partial += [self._gate("AND2", [a_bit, b_bit]) for a_bit in a]
                partial = self._extend(partial, total)
                acc = self._adder(acc, partial)[:total]
        finally:
            self._in_multiplier = False
        return acc

    def _barrel_shift(self, value: list[str], amount: list[str], left: bool) -> list[str]:
        width = len(value)
        stages = max(1, math.ceil(math.log2(width))) if width > 1 else 1
        current = list(value)
        zero = self._const_net(0)
        for s in range(min(stages, len(amount))):
            shift = 1 << s
            shifted = []
            for i in range(width):
                src = i - shift if left else i + shift
                shifted.append(current[src] if 0 <= src < width else zero)
            current = [
                self._mux(amount[s], current[i], shifted[i]) for i in range(width)
            ]
        return current

    def _extend(self, bits: list[str], width: int) -> list[str]:
        if len(bits) >= width:
            return bits[:width]
        return bits + [self._const_net(0)] * (width - len(bits))

    # -- expression synthesis -------------------------------------------------------

    def _synth_expr(
        self,
        expr: Expr,
        scope: _Scope,
        env: dict[str, list[str]] | None = None,
    ) -> list[str]:
        """Synthesize ``expr`` to a bit vector of net names (LSB first).

        ``env`` optionally overrides signal bindings (used inside always
        blocks for blocking-assignment semantics).
        """
        if isinstance(expr, _BitsExpr):
            return list(expr.bits)
        const = self._try_const(expr, scope)
        if const is not None and not isinstance(expr, Identifier):
            width = expr.width if isinstance(expr, Number) and expr.width else None
            width = width or max(const.bit_length(), 1)
            return [self._const_net(const >> i & 1) for i in range(width)]
        if isinstance(expr, Identifier):
            if env is not None and expr.name in env:
                return list(env[expr.name])
            return list(self._signal_bits(scope, expr.name))
        if isinstance(expr, Number):
            width = expr.width or max(expr.value.bit_length(), 1)
            return [self._const_net(expr.value >> i & 1) for i in range(width)]
        if isinstance(expr, UnaryOp):
            return self._synth_unary(expr, scope, env)
        if isinstance(expr, BinaryOp):
            return self._synth_binary(expr, scope, env)
        if isinstance(expr, TernaryOp):
            cond = self._to_bool(self._synth_expr(expr.cond, scope, env))
            t = self._synth_expr(expr.if_true, scope, env)
            f = self._synth_expr(expr.if_false, scope, env)
            width = max(len(t), len(f))
            t = self._extend(t, width)
            f = self._extend(f, width)
            return [self._mux(cond, f[i], t[i]) for i in range(width)]
        if isinstance(expr, Concat):
            bits: list[str] = []
            for part in reversed(expr.parts):  # verilog concat is MSB-first
                bits.extend(self._synth_expr(part, scope, env))
            return bits
        if isinstance(expr, Repeat):
            count = self._eval_const(expr.count, scope.params)
            unit = self._synth_expr(expr.value, scope, env)
            return unit * count
        if isinstance(expr, IndexSelect):
            return self._synth_index(expr, scope, env)
        if isinstance(expr, RangeSelect):
            base_bits = self._synth_expr(expr.base, scope, env)
            msb = self._eval_const(expr.msb, scope.params)
            lsb = self._eval_const(expr.lsb, scope.params)
            lo, hi = min(msb, lsb), max(msb, lsb)
            base_bits = self._extend(base_bits, hi + 1)
            return base_bits[lo : hi + 1]
        raise ElaborationError(f"cannot synthesize {type(expr).__name__}")

    def _synth_index(
        self, expr: IndexSelect, scope: _Scope, env: dict[str, list[str]] | None
    ) -> list[str]:
        base = expr.base
        if isinstance(base, Identifier) and base.name in scope.array_depths:
            words = self._array_words(scope, base.name)
            if env is not None and base.name in getattr(env, "arrays", {}):
                words = env.arrays[base.name]  # pragma: no cover - defensive
            idx_const = self._try_const(expr.index, scope)
            if idx_const is not None:
                return list(words[idx_const % len(words)])
            idx_bits = self._synth_expr(expr.index, scope, env)
            return self._mux_word_tree(words, idx_bits)
        idx_const = self._try_const(expr.index, scope)
        base_bits = self._synth_expr(base, scope, env)
        if idx_const is not None:
            if idx_const >= len(base_bits):
                return [self._const_net(0)]
            return [base_bits[idx_const]]
        idx_bits = self._synth_expr(expr.index, scope, env)
        shifted = self._barrel_shift(base_bits, idx_bits, left=False)
        return [shifted[0]]

    def _mux_word_tree(self, words: list[list[str]], sel: list[str]) -> list[str]:
        """Select one word from ``words`` with select bits (LSB first)."""
        level = [list(w) for w in words]
        bit_idx = 0
        while len(level) > 1:
            s = sel[bit_idx] if bit_idx < len(sel) else self._const_net(0)
            nxt = []
            for i in range(0, len(level) - 1, 2):
                a, b = level[i], level[i + 1]
                width = max(len(a), len(b))
                a = self._extend(a, width)
                b = self._extend(b, width)
                nxt.append([self._mux(s, a[k], b[k]) for k in range(width)])
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
            bit_idx += 1
        return level[0]

    def _to_bool(self, bits: list[str]) -> str:
        if len(bits) == 1:
            return bits[0]
        return self._reduce_tree("OR2", bits)

    def _synth_unary(
        self, expr: UnaryOp, scope: _Scope, env: dict[str, list[str]] | None
    ) -> list[str]:
        bits = self._synth_expr(expr.operand, scope, env)
        if expr.op == "~":
            return [self._gate("NOT", [b]) for b in bits]
        if expr.op == "!":
            return [self._gate("NOT", [self._to_bool(bits)])]
        if expr.op == "-":
            return self._negate(bits)
        if expr.op == "+":
            return bits
        if expr.op == "&":
            return [self._reduce_tree("AND2", bits)]
        if expr.op == "|":
            return [self._reduce_tree("OR2", bits)]
        if expr.op == "^":
            return [self._reduce_tree("XOR2", bits)]
        if expr.op == "~&":
            return [self._gate("NOT", [self._reduce_tree("AND2", bits)])]
        if expr.op == "~|":
            return [self._gate("NOT", [self._reduce_tree("OR2", bits)])]
        if expr.op == "~^":
            return [self._gate("NOT", [self._reduce_tree("XOR2", bits)])]
        raise ElaborationError(f"unsupported unary {expr.op!r}")

    def _synth_binary(
        self, expr: BinaryOp, scope: _Scope, env: dict[str, list[str]] | None
    ) -> list[str]:
        op = expr.op
        if op in ("&&", "||"):
            a = self._to_bool(self._synth_expr(expr.left, scope, env))
            b = self._to_bool(self._synth_expr(expr.right, scope, env))
            return [self._gate("AND2" if op == "&&" else "OR2", [a, b])]
        if op in ("<<", "<<<", ">>", ">>>"):
            value = self._synth_expr(expr.left, scope, env)
            shift_const = self._try_const(expr.right, scope)
            if shift_const is not None:
                zero = self._const_net(0)
                width = len(value)
                if op in ("<<", "<<<"):
                    return ([zero] * shift_const + value)[:width]
                return (value[shift_const:] + [zero] * shift_const)[:width]
            amount = self._synth_expr(expr.right, scope, env)
            return self._barrel_shift(value, amount, left=op in ("<<", "<<<"))
        a = self._synth_expr(expr.left, scope, env)
        b = self._synth_expr(expr.right, scope, env)
        if op in ("&", "|", "^", "~^", "^~"):
            width = max(len(a), len(b))
            a = self._extend(a, width)
            b = self._extend(b, width)
            gate = {"&": "AND2", "|": "OR2", "^": "XOR2", "~^": "XNOR2", "^~": "XNOR2"}[op]
            return [self._gate(gate, [a[i], b[i]]) for i in range(width)]
        if op == "+":
            return self._adder(a, b)
        if op == "-":
            diff, _ = self._subtract(a, b)
            return diff
        if op == "*":
            return self._multiplier(a, b)
        if op in ("==", "!=", "===", "!=="):
            width = max(len(a), len(b))
            a = self._extend(a, width)
            b = self._extend(b, width)
            diffs = [self._gate("XOR2", [a[i], b[i]]) for i in range(width)]
            any_diff = self._reduce_tree("OR2", diffs)
            if op in ("!=", "!=="):
                return [any_diff]
            return [self._gate("NOT", [any_diff])]
        if op in ("<", ">", "<=", ">="):
            if op == "<":
                _, carry = self._subtract(a, b)  # carry==1 -> a >= b
                return [self._gate("NOT", [carry])]
            if op == ">=":
                _, carry = self._subtract(a, b)
                return [carry]
            if op == ">":
                _, carry = self._subtract(b, a)  # carry==1 -> b >= a
                return [self._gate("NOT", [carry])]
            _, carry = self._subtract(b, a)
            return [carry]
        if op in ("/", "%"):
            divisor = self._try_const(expr.right, scope)
            if divisor is not None and divisor > 0 and divisor & (divisor - 1) == 0:
                shift = divisor.bit_length() - 1
                if op == "/":
                    return a[shift:] + [self._const_net(0)] * shift
                return a[:shift] if shift else [self._const_net(0)]
            raise ElaborationError("division only by constant powers of two")
        raise ElaborationError(f"unsupported binary {op!r}")

    # -- statements / always blocks -----------------------------------------------

    def _elaborate_module(self, scope: _Scope) -> None:
        module = scope.module
        for assign in module.assigns:
            value = self._synth_expr(assign.value, scope)
            self._drive_lvalue(assign.target, value, scope)
        for block in module.always_blocks:
            if block.event.is_sequential:
                self._elaborate_sequential(block, scope)
            else:
                self._elaborate_combinational(block, scope)
        for inst in module.instances:
            self._elaborate_instance(inst, scope)

    def _lvalue_bits(self, target: Expr, scope: _Scope) -> list[str]:
        """Resolve an lvalue to the exact nets it drives (no gating)."""
        if isinstance(target, Identifier):
            return self._signal_bits(scope, target.name)
        if isinstance(target, IndexSelect):
            base = target.base
            if isinstance(base, Identifier) and base.name in scope.array_depths:
                idx = self._eval_const(target.index, scope.params)
                return self._array_words(scope, base.name)[idx]
            idx = self._eval_const(target.index, scope.params)
            return [self._signal_bits(scope, self._ident_name(base))[idx]]
        if isinstance(target, RangeSelect):
            msb = self._eval_const(target.msb, scope.params)
            lsb = self._eval_const(target.lsb, scope.params)
            lo, hi = min(msb, lsb), max(msb, lsb)
            return self._signal_bits(scope, self._ident_name(target.base))[lo : hi + 1]
        if isinstance(target, Concat):
            bits: list[str] = []
            for part in reversed(target.parts):
                bits.extend(self._lvalue_bits(part, scope))
            return bits
        raise ElaborationError(f"unsupported lvalue {type(target).__name__}")

    @staticmethod
    def _ident_name(expr: Expr) -> str:
        if isinstance(expr, Identifier):
            return expr.name
        raise ElaborationError("lvalue base must be a plain identifier")

    def _drive_lvalue(self, target: Expr, value: list[str], scope: _Scope) -> None:
        bits = self._lvalue_bits(target, scope)
        value = self._extend(value, len(bits))
        for i, bit in enumerate(bits):
            self.netlist.add_cell("BUF", [value[i]], self._claim(bit))

    def _claim(self, net_name: str) -> str:
        """Return ``net_name`` ready to be driven (errors on double drive)."""
        net = self.netlist.nets[net_name]
        if net.driver is not None:
            raise ElaborationError(f"multiple drivers on net {net_name!r}")
        return net_name

    # Symbolic execution carries two environments so Verilog scheduling
    # semantics hold: ``reads`` is what RHS expressions see (updated by
    # blocking assignments only) and ``env`` is the end-of-block value
    # (updated by both kinds; DFD next-state for sequential blocks).
    def _exec_statements(
        self,
        statements: list[Statement],
        scope: _Scope,
        env: dict[str, list[str]],
        arrays: dict[str, list[list[str]]],
        reads: dict[str, list[str]] | None = None,
    ) -> None:
        if reads is None:
            reads = {}
        for stmt in statements:
            self._exec_statement(stmt, scope, env, arrays, reads)

    def _exec_statement(
        self,
        stmt: Statement,
        scope: _Scope,
        env: dict[str, list[str]],
        arrays: dict[str, list[list[str]]],
        reads: dict[str, list[str]],
    ) -> None:
        if isinstance(stmt, (BlockingAssign, NonBlockingAssign)):
            self._exec_assign(stmt, scope, env, arrays, reads)
            return
        if isinstance(stmt, SeqBlock):
            self._exec_statements(stmt.body, scope, env, arrays, reads)
            return
        if isinstance(stmt, IfStatement):
            cond = self._to_bool(self._synth_expr(stmt.cond, scope, reads))
            then_env, then_arrays = dict(env), {k: [list(w) for w in v] for k, v in arrays.items()}
            else_env, else_arrays = dict(env), {k: [list(w) for w in v] for k, v in arrays.items()}
            then_reads, else_reads = dict(reads), dict(reads)
            self._exec_statements(stmt.then_body, scope, then_env, then_arrays, then_reads)
            self._exec_statements(stmt.else_body, scope, else_env, else_arrays, else_reads)
            self._merge_env(cond, then_env, else_env, env, scope)
            self._merge_arrays(cond, then_arrays, else_arrays, arrays, scope)
            self._merge_env(cond, then_reads, else_reads, reads, scope)
            return
        if isinstance(stmt, CaseStatement):
            self._exec_case(stmt, scope, env, arrays, reads)
            return
        raise ElaborationError(f"unsupported statement {type(stmt).__name__}")

    def _exec_assign(
        self,
        stmt: BlockingAssign | NonBlockingAssign,
        scope: _Scope,
        env: dict[str, list[str]],
        arrays: dict[str, list[list[str]]],
        reads: dict[str, list[str]],
    ) -> None:
        value = self._synth_expr(stmt.value, scope, reads)
        blocking = isinstance(stmt, BlockingAssign)
        self._write_target(stmt.target, value, scope, env, arrays, reads)
        if blocking:
            self._write_target(stmt.target, value, scope, reads, arrays, reads)

    def _write_target(
        self,
        target: Expr,
        value: list[str],
        scope: _Scope,
        store: dict[str, list[str]],
        arrays: dict[str, list[list[str]]],
        reads: dict[str, list[str]],
    ) -> None:
        if isinstance(target, Identifier):
            width = scope.widths.get(target.name, len(value))
            store[target.name] = self._extend(value, width)
            return
        if isinstance(target, IndexSelect):
            base = target.base
            if isinstance(base, Identifier) and base.name in scope.array_depths:
                self._exec_array_write(base.name, target.index, value, scope, reads, arrays)
                return
            name = self._ident_name(base)
            current = list(store.get(name) or self._signal_bits(scope, name))
            idx_const = self._try_const(target.index, scope)
            if idx_const is not None:
                if idx_const < len(current):
                    current[idx_const] = self._extend(value, 1)[0]
            else:
                idx_bits = self._synth_expr(target.index, scope, reads)
                bit = self._extend(value, 1)[0]
                for i in range(len(current)):
                    is_i = self._index_equals(idx_bits, i)
                    current[i] = self._mux(is_i, current[i], bit)
            store[name] = current
            return
        if isinstance(target, RangeSelect):
            name = self._ident_name(target.base)
            current = list(store.get(name) or self._signal_bits(scope, name))
            msb = self._eval_const(target.msb, scope.params)
            lsb = self._eval_const(target.lsb, scope.params)
            lo, hi = min(msb, lsb), max(msb, lsb)
            value = self._extend(value, hi - lo + 1)
            for i in range(lo, hi + 1):
                if i < len(current):
                    current[i] = value[i - lo]
            store[name] = current
            return
        if isinstance(target, Concat):
            offset = 0
            for part in reversed(target.parts):
                part_width = self._width_of(part, scope)
                part_bits = self._extend(value[offset : offset + part_width], part_width)
                self._write_target(part, part_bits, scope, store, arrays, reads)
                offset += part_width
            return
        raise ElaborationError(f"unsupported assign target {type(target).__name__}")

    def _exec_array_write(
        self,
        name: str,
        index: Expr,
        value: list[str],
        scope: _Scope,
        reads: dict[str, list[str]],
        arrays: dict[str, list[list[str]]],
    ) -> None:
        if name not in arrays:
            arrays[name] = [list(w) for w in self._array_words(scope, name)]
        words = arrays[name]
        width = scope.widths[name]
        value = self._extend(value, width)
        idx_const = self._try_const(index, scope)
        if idx_const is not None:
            words[idx_const % len(words)] = list(value)
            return
        idx_bits = self._synth_expr(index, scope, reads)
        for w, word in enumerate(words):
            en = self._index_equals(idx_bits, w)
            words[w] = [self._mux(en, word[i], value[i]) for i in range(width)]

    def _index_equals(self, idx_bits: list[str], value: int) -> str:
        terms = []
        for i, bit in enumerate(idx_bits):
            want = value >> i & 1
            terms.append(bit if want else self._gate("NOT", [bit]))
        if value >> len(idx_bits):
            return self._const_net(0)
        return self._reduce_tree("AND2", terms)

    def _merge_env(
        self,
        cond: str,
        then_env: dict[str, list[str]],
        else_env: dict[str, list[str]],
        out: dict[str, list[str]],
        scope: _Scope,
    ) -> None:
        # Merge in first-write order, not set order: every mux allocates
        # fresh net names, so a hash-seeded order would make the netlist
        # differ between processes.
        for name in dict.fromkeys([*then_env, *else_env]):
            # A branch that did not write keeps the signal's prior value.
            t = then_env.get(name) or self._signal_bits(scope, name)
            e = else_env.get(name) or self._signal_bits(scope, name)
            if t == e:
                out[name] = list(t)
                continue
            width = max(len(t), len(e))
            t = self._extend(t, width)
            e = self._extend(e, width)
            out[name] = [self._mux(cond, e[i], t[i]) for i in range(width)]

    def _merge_arrays(
        self,
        cond: str,
        then_arrays: dict[str, list[list[str]]],
        else_arrays: dict[str, list[list[str]]],
        out: dict[str, list[list[str]]],
        scope: _Scope,
    ) -> None:
        for name in dict.fromkeys([*then_arrays, *else_arrays]):
            t = then_arrays.get(name) or self._array_words(scope, name)
            e = else_arrays.get(name) or self._array_words(scope, name)
            merged = []
            for tw, ew in zip(t, e):
                if tw == ew:
                    merged.append(list(tw))
                else:
                    merged.append(
                        [self._mux(cond, ew[i], tw[i]) for i in range(len(tw))]
                    )
            out[name] = merged

    def _exec_case(
        self,
        stmt: CaseStatement,
        scope: _Scope,
        env: dict[str, list[str]],
        arrays: dict[str, list[list[str]]],
        reads: dict[str, list[str]],
    ) -> None:
        subject = self._synth_expr(stmt.subject, scope, reads)
        default = (dict(env), _copy_arrays(arrays), dict(reads))
        branches: list[tuple[str, dict, dict, dict]] = []
        for item in stmt.items:
            item_env = dict(env)
            item_arrays = _copy_arrays(arrays)
            item_reads = dict(reads)
            self._exec_statements(item.body, scope, item_env, item_arrays, item_reads)
            if not item.labels:
                default = (item_env, item_arrays, item_reads)
                continue
            matches = []
            for label in item.labels:
                label_bits = self._synth_expr(label, scope, reads)
                width = max(len(subject), len(label_bits))
                s = self._extend(subject, width)
                l = self._extend(label_bits, width)
                diffs = [self._gate("XNOR2", [s[i], l[i]]) for i in range(width)]
                matches.append(self._reduce_tree("AND2", diffs))
            branches.append(
                (self._reduce_tree("OR2", matches), item_env, item_arrays, item_reads)
            )
        # Build a priority chain: earlier items win.
        result_env, result_arrays, result_reads = default
        for match, item_env, item_arrays, item_reads in reversed(branches):
            merged_env: dict[str, list[str]] = {}
            merged_arrays: dict[str, list[list[str]]] = {}
            merged_reads: dict[str, list[str]] = {}
            self._merge_env(match, item_env, result_env, merged_env, scope)
            self._merge_arrays(match, item_arrays, result_arrays, merged_arrays, scope)
            self._merge_env(match, item_reads, result_reads, merged_reads, scope)
            result_env, result_arrays, result_reads = merged_env, merged_arrays, merged_reads
        env.clear()
        env.update(result_env)
        arrays.clear()
        arrays.update(result_arrays)
        reads.clear()
        reads.update(result_reads)

    def _elaborate_sequential(self, block: AlwaysBlock, scope: _Scope) -> None:
        clock = block.event.clock
        if clock is None:
            raise ElaborationError("sequential block without clock")
        clock_net = self._signal_bits(scope, clock)[0]
        env: dict[str, list[str]] = {}
        arrays: dict[str, list[list[str]]] = {}
        self._exec_statements(block.body, scope, env, arrays)
        for name, next_bits in env.items():
            current = self._signal_bits(scope, name)
            width = len(current)
            next_bits = self._extend(next_bits, width)
            for i in range(width):
                if next_bits[i] == current[i]:
                    continue
                self.netlist.add_cell(
                    "DFF", [next_bits[i]], self._claim(current[i]), clock=clock_net
                )
        for name, words in arrays.items():
            current_words = self._array_words(scope, name)
            for w, next_word in enumerate(words):
                for i, next_bit in enumerate(next_word):
                    if next_bit == current_words[w][i]:
                        continue
                    self.netlist.add_cell(
                        "DFF",
                        [next_bit],
                        self._claim(current_words[w][i]),
                        clock=clock_net,
                    )

    def _elaborate_combinational(self, block: AlwaysBlock, scope: _Scope) -> None:
        env: dict[str, list[str]] = {}
        arrays: dict[str, list[list[str]]] = {}
        self._exec_statements(block.body, scope, env, arrays)
        for name, bits in env.items():
            current = self._signal_bits(scope, name)
            bits = self._extend(bits, len(current))
            for i, target in enumerate(current):
                if bits[i] == target:
                    # Unassigned path would form a latch; tie to 0 instead.
                    bits = list(bits)
                    bits[i] = self._const_net(0)
                self.netlist.add_cell("BUF", [bits[i]], self._claim(target))

    # -- hierarchy --------------------------------------------------------------

    def _elaborate_instance(self, inst: Instance, scope: _Scope) -> None:
        child_mod = self.source.module(inst.module_name)
        if child_mod is None:
            raise ElaborationError(f"unknown module {inst.module_name!r}")
        overrides: dict[str, int] = {}
        settable = [p for p in child_mod.params if not p.local]
        for i, (pname, pexpr) in enumerate(inst.param_overrides):
            value = self._eval_const(pexpr, scope.params)
            if pname is not None:
                overrides[pname] = value
            elif i < len(settable):
                overrides[settable[i].name] = value
        prefix = f"{scope.prefix}{inst.instance_name}/"
        child_scope = self._make_scope(child_mod, prefix, overrides)
        # Bind connections before elaborating the child so port bits alias
        # parent nets directly (no buffer insertion for inputs).
        connections = self._resolve_connections(inst, child_mod)
        for port, expr in connections:
            if expr is None:
                continue
            if port.direction == "input":
                bits = self._synth_expr(expr, scope)
                width = child_scope.widths[port.name]
                child_scope.sigbits[port.name] = self._extend(bits, width)
            elif port.direction == "output":
                child_bits = self._signal_bits(child_scope, port.name)
                target_bits = self._lvalue_bits(expr, scope)
                self._bind_output(child_bits, target_bits)
            else:
                raise ElaborationError("inout ports are not supported")
        self._elaborate_module(child_scope)

    def _bind_output(self, child_bits: list[str], target_bits: list[str]) -> None:
        # Hierarchy-boundary buffers: kept by default, removable by the
        # synthesis engine's flatten/ungroup commands.
        for i, target in enumerate(target_bits):
            source = child_bits[i] if i < len(child_bits) else self._const_net(0)
            self.netlist.add_cell("BUF", [source], self._claim(target), hierarchy=True)

    def _resolve_connections(self, inst: Instance, child_mod: Module):
        pairs = []
        if inst.connections and inst.connections[0].port is not None:
            by_name = {c.port: c.expr for c in inst.connections}
            for port in child_mod.ports:
                pairs.append((port, by_name.get(port.name)))
        else:
            for i, port in enumerate(child_mod.ports):
                expr = (
                    inst.connections[i].expr if i < len(inst.connections) else None
                )
                pairs.append((port, expr))
        return pairs


def eval_const_expr(expr: Expr, params: dict[str, int]) -> int:
    """Evaluate a constant Verilog expression under a parameter env.

    Shared by the elaborator and by CircuitMentor's AST feature extraction.
    Raises :class:`ElaborationError` on non-constant expressions.
    """
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, Identifier):
        if expr.name in params:
            return params[expr.name]
        raise ElaborationError(f"non-constant identifier {expr.name!r}")
    if isinstance(expr, UnaryOp):
        value = eval_const_expr(expr.operand, params)
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(value == 0)
        raise ElaborationError(f"non-constant unary {expr.op!r}")
    if isinstance(expr, BinaryOp):
        left = eval_const_expr(expr.left, params)
        right = eval_const_expr(expr.right, params)
        ops = {
        "+": lambda: left + right,
        "-": lambda: left - right,
        "*": lambda: left * right,
        "/": lambda: left // right,
        "%": lambda: left % right,
        "**": lambda: left**right,
        "<<": lambda: left << right,
        ">>": lambda: left >> right,
        "<": lambda: int(left < right),
        ">": lambda: int(left > right),
        "<=": lambda: int(left <= right),
        ">=": lambda: int(left >= right),
        "==": lambda: int(left == right),
        "!=": lambda: int(left != right),
        "&": lambda: left & right,
        "|": lambda: left | right,
        "^": lambda: left ^ right,
        "&&": lambda: int(bool(left) and bool(right)),
        "||": lambda: int(bool(left) or bool(right)),
        }
        if expr.op in ops:
            return ops[expr.op]()
        raise ElaborationError(f"non-constant binary {expr.op!r}")
    if isinstance(expr, TernaryOp):
        cond = eval_const_expr(expr.cond, params)
        branch = expr.if_true if cond else expr.if_false
        return eval_const_expr(branch, params)
    if isinstance(expr, FunctionCall) and expr.name == "$clog2":
        value = eval_const_expr(expr.args[0], params)
        return max(1, math.ceil(math.log2(max(value, 1))))
    raise ElaborationError(f"cannot constant-fold {type(expr).__name__}")


def elaborate(
    source: SourceFile | str,
    top: str,
    params: dict[str, int] | None = None,
) -> Netlist:
    """Elaborate ``top`` from parsed or raw Verilog ``source`` to a netlist."""
    if isinstance(source, str):
        from .parser import parse_source

        with obs.span("hdl.parse"):
            source = parse_source(source)
    with obs.span("hdl.elaborate"):
        return Elaborator(source, top, params).elaborate()
