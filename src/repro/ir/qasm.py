"""OpenQASM 2.0 emission and parsing.

The compiler's final deliverable, as in the paper, is OpenQASM 2.0 text
targeting the IBM machines. Only the subset the IR can represent is
supported (one quantum and one classical register, the IR gate set).

A bare register name broadcasts as in OpenQASM 2.0: ``measure q -> c;``
measures ``q[i] -> c[i]`` for every index, a one-qubit gate on ``q``
applies once per qubit, and ``barrier q;`` spans the whole register. A
multi-qubit gate may not take a register argument: with one quantum
register the broadcast would pair each qubit with itself.

Parsing is an input boundary: every malformed, oversized or
out-of-range program raises :class:`~repro.exceptions.QasmError`, and
no register may exceed :data:`MAX_REGISTER_SIZE` nor a program
:data:`MAX_STATEMENTS` statements, counting each gate a broadcast
expands to. The ScaffIR parser shares both caps.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional, Type

from repro.exceptions import CircuitError, QasmError, ReproError
from repro.ir.circuit import Circuit
from repro.ir.gates import PARAMETRIC_GATES, Gate

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";'

#: Largest register size either parser accepts: the paper's NISQ
#: ceiling of 1,000 qubits, above every in-tree device (the largest,
#: ``grid144``, has 144 qubits). Register indices are bounded by it too.
MAX_REGISTER_SIZE = 1000
#: Most statements (QASM) or non-empty lines (ScaffIR) a program may
#: hold, so parsing time and memory stay bounded.
MAX_STATEMENTS = 100_000

_QREG_RE = re.compile(r"^qreg\s+(\w+)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+(\w+)\s*\[\s*(\d+)\s*\]$")
_ARG_RE = re.compile(r"^(\w+)(?:\s*\[\s*(\d+)\s*\])?$")
# The parameter list runs to the last ")", so it may nest parentheses;
# the arguments after it hold none. The word boundary and the arguments'
# non-space first character leave one way to split a statement, so a
# match takes time linear in its length.
_GATE_RE = re.compile(r"^(\w+)\b(?:\s*\((.*)\))?\s+([^()\s][^()]*)$",
                      re.DOTALL)
_MEASURE_RE = re.compile(r"^measure\s+(.+?)\s*->\s*(.+)$")


def circuit_to_qasm(circuit: Circuit, qreg: str = "q",
                    creg: str = "c") -> str:
    """Serialize *circuit* to OpenQASM 2.0 text.

    SWAP gates are emitted via the standard ``swap`` from qelib1.
    """
    lines: List[str] = [_HEADER,
                        f"qreg {qreg}[{circuit.n_qubits}];"]
    if circuit.n_cbits > 0:
        lines.append(f"creg {creg}[{circuit.n_cbits}];")
    for gate in circuit.gates:
        lines.append(_gate_to_qasm(gate, qreg, creg))
    return "\n".join(lines) + "\n"


def _gate_to_qasm(gate: Gate, qreg: str, creg: str) -> str:
    args = ", ".join(f"{qreg}[{q}]" for q in gate.qubits)
    if gate.is_measure:
        return f"measure {qreg}[{gate.qubits[0]}] -> {creg}[{gate.cbit}];"
    if gate.name == "barrier":
        return f"barrier {args};"
    if gate.param is not None:
        return f"{gate.name}({gate.param!r}) {args};"
    return f"{gate.name} {args};"


def qasm_to_circuit(text: str, name: str = "qasm") -> Circuit:
    """Parse an OpenQASM 2.0 program (supported subset) into a circuit.

    Raises:
        QasmError: On malformed input, unsupported constructs, indices
            outside their register, or input over the size caps.
    """
    statements = _split_statements(text)
    if len(statements) > MAX_STATEMENTS:
        raise QasmError(f"more than {MAX_STATEMENTS} statements")
    n_qubits: Optional[int] = None
    n_cbits = 0
    qreg_name = creg_name = None
    gates: List[Gate] = []

    for stmt in statements:
        if stmt.startswith("OPENQASM") or stmt.startswith("include"):
            continue
        m = _QREG_RE.match(stmt)
        if m:
            if qreg_name is not None:
                raise QasmError("multiple quantum registers not supported")
            qreg_name = m.group(1)
            n_qubits = _register_int(m.group(2), "qreg size", QasmError)
            continue
        m = _CREG_RE.match(stmt)
        if m:
            if creg_name is not None:
                raise QasmError("multiple classical registers not supported")
            creg_name = m.group(1)
            n_cbits = _register_int(m.group(2), "creg size", QasmError)
            continue
        if n_qubits is None:
            raise QasmError(f"gate before qreg declaration: {stmt!r}")
        m = _MEASURE_RE.match(stmt)
        if m:
            new = _parse_measure(m.group(1), m.group(2), qreg_name,
                                 creg_name, n_qubits, n_cbits)
        else:
            new = _parse_gate(stmt, qreg_name, n_qubits)
        if len(gates) + len(new) > MAX_STATEMENTS:
            raise QasmError(f"more than {MAX_STATEMENTS} statements "
                            f"after register broadcasts")
        gates.extend(new)

    if n_qubits is None:
        raise QasmError("no qreg declaration found")
    return _build_circuit(n_qubits, n_cbits, gates, name, QasmError)


def _register_int(digits: str, what: str,
                  error: Type[ReproError]) -> int:
    """A register size or index, at most :data:`MAX_REGISTER_SIZE`.

    Long digit strings are rejected before ``int`` sees them, so no
    input reaches Python's integer-string conversion limit.
    """
    limit = MAX_REGISTER_SIZE
    if len(digits) > len(str(limit)) or int(digits) > limit:
        shown = digits if len(digits) <= 12 else digits[:12] + "..."
        raise error(f"{what} {shown} exceeds the register limit {limit}")
    return int(digits)


def _build_circuit(n_qubits: int, n_cbits: Optional[int],
                   gates: List[Gate], name: str,
                   error: Type[ReproError]) -> Circuit:
    """Assemble a parsed program, raising its parser's *error* type for
    an empty register or an index outside its register."""
    try:
        circuit = Circuit(n_qubits, n_cbits, name=name)
        for gate in gates:
            circuit.append(gate)
    except CircuitError as exc:
        raise error(str(exc)) from exc
    return circuit


def _split_statements(text: str) -> List[str]:
    no_comments = re.sub(r"//[^\n]*", "", text)
    return [s.strip() for s in no_comments.split(";") if s.strip()]


def _parse_arg(token: str, reg_name: Optional[str],
               kind: str) -> Optional[int]:
    """The index of ``name[i]``, or ``None`` for a bare register name."""
    m = _ARG_RE.match(token.strip())
    if not m:
        raise QasmError(f"cannot parse {kind} argument {token!r}")
    if reg_name is not None and m.group(1) != reg_name:
        raise QasmError(f"unknown {kind} register {m.group(1)!r}")
    if m.group(2) is None:
        return None
    return _register_int(m.group(2), f"{kind} index", QasmError)


def _parse_measure(q_text: str, c_text: str, qreg_name: Optional[str],
                   creg_name: Optional[str], n_qubits: int,
                   n_cbits: int) -> List[Gate]:
    q = _parse_arg(q_text, qreg_name, "quantum")
    c = _parse_arg(c_text, creg_name, "classical")
    if q is not None and c is not None:
        return [Gate("measure", (q,), cbit=c)]
    if q is not None or c is not None or n_qubits != n_cbits:
        raise QasmError(f"cannot measure {q_text.strip()} -> "
                        f"{c_text.strip()}: a register measures into a "
                        f"register of its size ({n_qubits} qubits, "
                        f"{n_cbits} bits)")
    return [Gate("measure", (i,), cbit=i) for i in range(n_qubits)]


def _parse_gate(stmt: str, qreg_name: Optional[str],
                n_qubits: int) -> List[Gate]:
    m = _GATE_RE.match(stmt)
    if not m:
        raise QasmError(f"cannot parse statement {stmt!r}")
    op, param_text, args_text = m.group(1), m.group(2), m.group(3)
    op = op.lower()
    args = [_parse_arg(a, qreg_name, "quantum")
            for a in args_text.split(",")]
    param = None
    if param_text is not None:
        if op not in PARAMETRIC_GATES:
            raise QasmError(f"{op} does not take a parameter")
        param = _eval_param(param_text)
    if None not in args:
        operands = [tuple(args)]
    elif op == "barrier":
        operands = [tuple(range(n_qubits))]
    elif len(args) == 1:
        operands = [(i,) for i in range(n_qubits)]
    else:
        raise QasmError(f"cannot broadcast {op!r} over a register: "
                        f"{stmt!r} would pair a qubit with itself")
    try:
        return [Gate(op, qubits, param=param) for qubits in operands]
    except Exception as exc:  # re-raise as a parse error with context
        raise QasmError(f"invalid gate {stmt!r}: {exc}") from exc


#: Longest parameter expression accepted. It bounds the evaluator's
#: time and its recursion depth (one level per character at most).
_MAX_PARAM_CHARS = 256

_PARAM_TOKEN_RE = re.compile(
    r"\s*(?:(\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_]\w*)|(\S))")
_PARAM_CONSTANTS = {"pi": math.pi, "e": math.e}


def _eval_param(text: str) -> float:
    """Evaluate a rotation-angle expression like ``pi/4`` or ``-0.5*pi``.

    A recursive-descent evaluator over numbers, ``pi``, ``e``,
    ``+ - * /``, unary signs and parentheses. Anything else, text over
    :data:`_MAX_PARAM_CHARS` characters, or a non-finite value raises
    :class:`QasmError`; nothing reaches ``eval``.
    """
    if len(text) > _MAX_PARAM_CHARS:
        raise QasmError(f"parameter expression longer than "
                        f"{_MAX_PARAM_CHARS} characters")
    tokens: List[object] = []
    for number, name, symbol in _PARAM_TOKEN_RE.findall(text):
        if number:
            tokens.append(float(number))
        elif name in _PARAM_CONSTANTS:
            tokens.append(_PARAM_CONSTANTS[name])
        elif symbol and symbol in "+-*/()":
            tokens.append(symbol)
        elif name or symbol:
            raise QasmError(f"unsupported parameter expression {text!r}")
    parser = _ParamParser(tokens, text)
    value = parser.expression()
    if parser.pos != len(tokens):
        raise parser.error()
    if not math.isfinite(value):
        raise QasmError(f"parameter {text!r} is not finite")
    return value


class _ParamParser:
    """Grammar: ``expression := term (('+' | '-') term)*``,
    ``term := factor (('*' | '/') factor)*``,
    ``factor := ('+' | '-') factor | number | '(' expression ')'``."""

    def __init__(self, tokens: List[object], text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def error(self) -> QasmError:
        return QasmError(f"cannot evaluate parameter {self.text!r}")

    def _take(self, *symbols: str) -> Optional[str]:
        """Consume and return the next token if it is one of *symbols*."""
        if self.pos < len(self.tokens) and self.tokens[self.pos] in symbols:
            self.pos += 1
            return self.tokens[self.pos - 1]
        return None

    def expression(self) -> float:
        value = self.term()
        while True:
            op = self._take("+", "-")
            if op is None:
                return value
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs

    def term(self) -> float:
        value = self.factor()
        while True:
            op = self._take("*", "/")
            if op is None:
                return value
            rhs = self.factor()
            if op == "*":
                value *= rhs
            elif rhs == 0.0:
                raise QasmError(f"division by zero in parameter "
                                f"{self.text!r}")
            else:
                value /= rhs

    def factor(self) -> float:
        sign = self._take("+", "-")
        if sign is not None:
            value = self.factor()
            return -value if sign == "-" else value
        if self._take("("):
            value = self.expression()
            if self._take(")") is None:
                raise self.error()
            return value
        if self.pos < len(self.tokens) and \
                isinstance(self.tokens[self.pos], float):
            self.pos += 1
            return self.tokens[self.pos - 1]
        raise self.error()
