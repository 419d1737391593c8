"""Line-oriented problem DSL and the shared expression surface syntax.

Scalar syntax: infix + - * ^, rational literals p/q, chart variables, and
exp( ) sin( ) cos( ) ln( ).  Tensor syntax adds the basis tokens d/dx<i>
(vector) and dx<i> (form) and the wedge, spelled ^.  The caret is a power
only between a scalar base and an integer exponent; any graded operand
makes it a wedge (a scalar operand then acts by multiplication).

Problem files are one directive per line, # comments allowed:

    chart x0 x1 x2 y
    vol dx0^dx1^dx2^dy
    pi = (d/dx1 - x2*d/dx0)^d/dx2
    E = d/dx0
    seed 0
    points 64
    tol 1e-9
    run verify pair gv

Exactly one tensor-input style per file: pi [+ E], or theta, or
omega + Omega.  A missing vol defaults to the flat top form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .alg import DiffForm, GradedElement, MultiVector, wedge
from .expr import (IDENT_RE, SETTINGS, Chart, ExprError, KernelError, Sampler,
                   ScalarExpr, cos_, exp_, ln_, sin_)


class DslError(KernelError):
    def __init__(self, message: str, line: int = 0, col: int = 0,
                 expected: Tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}, col {col}: " if line else ""
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}{message}{exp}")


_TOKEN_RE = re.compile(rf"""
    (?P<ws>\s+)
  | (?P<vec>d/d{IDENT_RE.pattern})
  | (?P<num>\d+)
  | (?P<ident>{IDENT_RE.pattern})
  | (?P<op>[-+*^/()])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # "vec" | "num" | "ident" | "op" | "end"
    text: str
    line: int
    col: int


def tokenize(text: str, line: int = 1, col0: int = 0) -> List[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DslError(f"unexpected character {text[pos]!r}", line, col0 + pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        out.append(Token(kind, m.group(), line, col0 + m.start() + 1))
    out.append(Token("end", "", line, col0 + len(text) + 1))
    return out


Value = Union[ScalarExpr, GradedElement]

_FUNCS = {"exp": exp_, "sin": sin_, "cos": cos_}

# Deepest nesting of parentheses, function calls and unary minus in one
# expression: parsing, printing and evaluating recurse once per level.
MAX_NESTING = 100


class _ExprParser:
    """Pratt parser over mixed scalar / graded values."""

    def __init__(self, chart: Chart, tokens: List[Token]):
        self.chart = chart
        self.toks = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise DslError(f"got {t.text or 'end of input'!r}", t.line, t.col, (op,))

    def parse(self) -> Value:
        v = self.expr(0)
        t = self.peek()
        if t.kind != "end":
            raise DslError(f"trailing input {t.text!r}", t.line, t.col,
                           ("+", "-", "*", "^", "end of expression"))
        return v

    def expr(self, min_bp: int) -> Value:
        t = self.next()
        left = self.prefix(t)
        while True:
            t = self.peek()
            if t.kind != "op" or t.text not in ("+", "-", "*", "^"):
                break
            bp = {"+": 10, "-": 10, "*": 20, "^": 30}[t.text]
            if bp < min_bp:
                break
            self.next()
            if t.text == "^":
                left = self.caret(left, t)
            else:
                right = self.expr(bp + 1)
                left = self.combine(t, left, right)
        return left

    def nested(self, t: Token, min_bp: int) -> Value:
        """`expr(min_bp)` one nesting level below the token `t`."""
        if self.depth == MAX_NESTING:
            raise DslError(f"nesting deeper than the limit of {MAX_NESTING}", t.line, t.col)
        self.depth += 1
        v = self.expr(min_bp)
        self.depth -= 1
        return v

    def prefix(self, t: Token) -> Value:
        if t.kind == "op" and t.text == "-":
            v = self.nested(t, 25)  # binds tighter than +- and *, looser than ^
            return -v if isinstance(v, ScalarExpr) else v.scale(-1)
        if t.kind == "op" and t.text == "(":
            v = self.nested(t, 0)
            self.expect_op(")")
            return v
        if t.kind == "num":
            value = Fraction(int(t.text))
            nt = self.peek()
            if nt.kind == "op" and nt.text == "/":
                self.next()
                den = self.next()
                if den.kind != "num":
                    raise DslError("malformed rational literal", den.line, den.col,
                                   ("integer denominator",))
                if int(den.text) == 0:
                    raise DslError("zero denominator", den.line, den.col)
                value /= int(den.text)
            return ScalarExpr.const(value)
        if t.kind == "vec":
            name = t.text[3:]
            if name not in self.chart.vars:
                raise DslError(f"unknown vector basis {t.text!r}", t.line, t.col,
                               tuple(f"d/d{v}" for v in self.chart.vars))
            return MultiVector.basis(self.chart, [self.chart.index(name)])
        if t.kind == "ident":
            name = t.text
            nt = self.peek()
            if nt.kind == "op" and nt.text == "(" and (name in _FUNCS or name == "ln"):
                self.next()
                arg = self.nested(t, 0)
                self.expect_op(")")
                if not isinstance(arg, ScalarExpr):
                    raise DslError(f"{name}() takes a scalar argument", t.line, t.col)
                try:
                    if name == "ln":
                        return ln_(arg, self.chart.positive)
                    return _FUNCS[name](arg)
                except ExprError as e:
                    raise DslError(str(e), t.line, t.col) from None
            if name in self.chart.vars:
                return ScalarExpr.var(name)
            if name.startswith("d") and name[1:] in self.chart.vars:
                return DiffForm.basis(self.chart, [self.chart.index(name[1:])])
            raise DslError(f"unknown identifier {name!r}", t.line, t.col,
                           ("a chart variable", "dx<i>", "d/dx<i>",
                            "exp", "sin", "cos", "ln"))
        raise DslError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col,
                       ("a term",))

    def caret(self, left: Value, t: Token) -> Value:
        # scalar ^ integer-literal is a power; anything graded wedges
        nt = self.peek()
        neg = False
        if nt.kind == "op" and nt.text == "-":
            self.next()
            neg = True
            nt = self.peek()
        if isinstance(left, ScalarExpr) and nt.kind == "num":
            self.next()
            k = int(nt.text)
            after = self.peek()
            if after.kind == "op" and after.text == "/":
                raise DslError("exponents must be integers", after.line, after.col)
            try:
                return left ** (-k if neg else k)
            except ZeroDivisionError:
                raise DslError("negative power of the zero expression",
                               t.line, t.col) from None
        if neg:
            raise DslError("'-' after ^ needs an integer exponent", t.line, t.col)
        right = self.expr(31)
        if isinstance(left, ScalarExpr) and isinstance(right, ScalarExpr):
            raise DslError("scalar ^ scalar needs an integer literal exponent",
                           t.line, t.col)
        return self.combine(Token("op", "^", t.line, t.col), left, right)

    def combine(self, t: Token, a: Value, b: Value) -> Value:
        sc_a, sc_b = isinstance(a, ScalarExpr), isinstance(b, ScalarExpr)
        if t.text in ("+", "-"):
            if sc_a != sc_b:
                raise DslError("cannot add a scalar and a graded element",
                               t.line, t.col)
            try:
                return a + b if t.text == "+" else a - b
            except KernelError as e:
                raise DslError(str(e), t.line, t.col) from None
        # * or the wedge ^, where a scalar acts by multiplication; caret has
        # refused scalar ^ scalar already
        if sc_a and sc_b:
            return a * b
        if sc_a:
            return b.scale(a)
        if sc_b:
            return a.scale(b)
        if t.text == "*":
            raise DslError("use ^ to wedge graded elements", t.line, t.col)
        try:
            return wedge(a, b)
        except KernelError as e:
            raise DslError(str(e), t.line, t.col) from None


def parse_value(chart: Chart, text: str, line: int = 1, col0: int = 0) -> Value:
    return _ExprParser(chart, tokenize(text, line, col0)).parse()


# `line` and `col0` place the text in its file: errors name the line and
# the column col0 + (position in the text), counted from 1.

def _parse_as(kind: type, noun: str, chart: Chart, text: str, line: int,
              col0: int) -> Value:
    """The text's value as a `kind`; a scalar stands for a grade-0 element."""
    v = parse_value(chart, text, line, col0)
    if isinstance(v, kind):
        return v
    if isinstance(v, ScalarExpr):
        return kind.scalar(chart, v)
    raise DslError(f"expected a {noun} expression", line, col0 + 1)


def parse_scalar(chart: Chart, text: str, line: int = 1, col0: int = 0) -> ScalarExpr:
    return _parse_as(ScalarExpr, "scalar", chart, text, line, col0)


def parse_multivector(chart: Chart, text: str, line: int = 1,
                      col0: int = 0) -> MultiVector:
    return _parse_as(MultiVector, "multivector", chart, text, line, col0)


def parse_form(chart: Chart, text: str, line: int = 1, col0: int = 0) -> DiffForm:
    return _parse_as(DiffForm, "differential-form", chart, text, line, col0)


# --- problem files -------------------------------------------------------------

COMMANDS = ("verify", "pair", "gv", "codim1", "poissonize", "bridge",
            "rescale", "unimodular")

# the commands that take an argument, and how each reads its text
ARGUMENTS = {"rescale": parse_scalar, "unimodular": parse_multivector}


def check_command(name: str, has_argument: bool, line: int = 0, col: int = 0,
                  arg_col: int = 0):
    """The command rule: `name` is one of COMMANDS, and an argument is
    given exactly when it is in ARGUMENTS.  A refusal is placed at the
    name's column `col`, or at `arg_col` for an argument not taken."""
    if name not in COMMANDS:
        raise DslError(f"unknown command {name!r}", line, col, COMMANDS)
    if name in ARGUMENTS and not has_argument:
        raise DslError(f"{name} needs a parenthesized argument", line, col)
    if name not in ARGUMENTS and has_argument:
        raise DslError(f"{name} takes no argument", line, arg_col)


class Command(tuple):
    """A command of a `run` line, equal to its (name, argument text or None)
    pair.  `origin` is the (line, column offset) of the argument text in
    the file; a command built in code is a plain pair and has none."""

    def __new__(cls, name: str, text: Optional[str], origin: Tuple[int, int]):
        command = super().__new__(cls, (name, text))
        command.origin = origin
        return command

    def __getnewargs__(self):
        return (*self, self.origin)


@dataclass(frozen=True)
class ProblemFile:
    chart: Chart
    vol: Optional[DiffForm]
    style: str                      # "pi" | "theta" | "lcs"
    pi: Optional[MultiVector] = None
    E: Optional[MultiVector] = None
    theta: Optional[DiffForm] = None
    omega1: Optional[DiffForm] = None
    omega2: Optional[DiffForm] = None
    sampler: Sampler = Sampler()
    commands: Tuple[Tuple[str, Optional[str]], ...] = ()  # Commands when parsed

    def canonical_text(self) -> str:
        lines = [f"chart {' '.join(self.chart.vars)}"]
        if self.vol is not None:
            lines.append(f"vol {self.vol}")
        if self.style == "pi":
            lines.append(f"pi = {self.pi}")
            if self.E is not None and not self.E.is_identically_zero:
                lines.append(f"E = {self.E}")
        elif self.style == "theta":
            lines.append(f"theta = {self.theta}")
        else:
            lines.append(f"omega = {self.omega1}")
            lines.append(f"Omega = {self.omega2}")
        for name in SETTINGS:
            value = getattr(self.sampler, name)
            if value != getattr(Sampler(), name):
                lines.append(f"{name} {value}")
        if self.commands:
            parts = [c if a is None else f"{c}({a})" for c, a in self.commands]
            lines.append("run " + " ".join(parts))
        return "\n".join(lines) + "\n"


def parse_setting(name: str, text: str, line: int = 0, col: int = 1) -> Union[int, float]:
    """A sampling setting (`seed`, `points` or `tol`) read from its text, as
    a problem-file line (starting at column `col`) or a command-line flag
    gives it, by the rule `Sampler` enforces (`expr.SETTINGS`)."""
    convert, valid, what = SETTINGS[name]
    try:
        value = convert(text)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise DslError(f"bad {name} {text!r}", line, col, (what,))
    return value


def _lstrip(text: str, col0: int) -> Tuple[str, int]:
    """`text` without its leading whitespace, and the column offset of what
    is left."""
    rest = text.lstrip()
    return rest, col0 + len(text) - len(rest)


def _split_commands(rest: str, line_no: int, col0: int) -> List[Command]:
    """The commands of a `run` line whose command text `rest` starts at
    column offset `col0`."""
    out: List[Command] = []
    i = 0
    n = len(rest)
    while i < n:
        while i < n and rest[i].isspace():  # rest ends in a non-space
            i += 1
        m = re.match(r"[a-z0-9]+", rest[i:])
        if not m:
            raise DslError(f"bad command text {rest[i:]!r}", line_no, col0 + i + 1,
                           COMMANDS)
        name = m.group()
        name_col = col0 + i + 1
        i += m.end()
        check_command(name, rest.startswith("(", i), line_no, name_col, col0 + i + 1)
        arg = None
        start = i
        if i < n and rest[i] == "(":
            depth = 0
            start = i + 1
            while i < n:
                if rest[i] == "(":
                    depth += 1
                elif rest[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            if depth != 0:
                raise DslError("unbalanced parentheses in command argument",
                               line_no, col0 + start)
            arg = rest[start:i]
            i += 1
        out.append(Command(name, arg, (line_no, col0 + start)))
    return out


def parse_problem(text: str) -> ProblemFile:
    """A problem file from its text.  Errors name the line and the column
    in the file: of the directive, of the value, or inside it."""
    chart: Optional[Chart] = None
    vol_text = None
    decls = {}
    settings = {}
    commands: List[Command] = []

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line, lead = _lstrip(raw_line.split("#", 1)[0].rstrip(), 0)
        if not line:
            continue
        word = line.split(None, 1)[0]
        wcol = lead + 1
        rest, rest_col0 = _lstrip(line[len(word):], lead + len(word))
        if word == "chart":
            if chart is not None:
                raise DslError("duplicate chart declaration", line_no, wcol)
            spans = list(re.finditer(r"\S+", rest))
            if not spans:
                raise DslError("chart needs variable names", line_no, wcol)
            try:
                chart = Chart(tuple(m.group() for m in spans))
            except ExprError as e:  # a bad name is placed at its column
                col = wcol if e.position is None else rest_col0 + spans[e.position].start() + 1
                raise DslError(str(e), line_no, col) from None
            continue
        if word in SETTINGS:
            settings[word] = parse_setting(word, rest, line_no, rest_col0 + 1)
            continue
        if word == "run":
            commands.extend(_split_commands(rest, line_no, rest_col0))
            continue
        if word == "vol":
            if chart is None:
                raise DslError("chart must be declared before vol", line_no, wcol)
            if vol_text is not None:
                raise DslError("duplicate vol declaration", line_no, wcol)
            vol_text = (rest, line_no, rest_col0)
            continue
        if word in ("pi", "E", "theta", "omega", "Omega"):
            if chart is None:
                raise DslError(f"chart must be declared before {word}", line_no, wcol)
            if not rest.startswith("="):
                raise DslError(f"{word} needs '= <expression>'", line_no,
                               rest_col0 + 1, ("=",))
            if word in decls:
                raise DslError(f"duplicate declaration of {word}", line_no, wcol)
            value_text, value_col0 = _lstrip(rest[1:], rest_col0 + 1)
            decls[word] = (value_text, line_no, value_col0)
            continue
        raise DslError(f"unknown directive {word!r}", line_no, wcol,
                       ("chart", "vol", "pi", "E", "theta", "omega", "Omega",
                        "seed", "points", "tol", "run"))

    if chart is None:
        raise DslError("missing chart declaration")
    styles = [s for s, keys in (("pi", ("pi",)), ("theta", ("theta",)),
                                ("lcs", ("omega", "Omega")))
              if any(k in decls for k in keys)]
    if len(styles) != 1:
        raise DslError("exactly one tensor-input style per file "
                       "(pi [E] | theta | omega Omega); got: "
                       + (", ".join(sorted(decls)) or "none"))
    style = styles[0]
    if "E" in decls and style != "pi":
        raise DslError("E only combines with pi")
    if style == "lcs" and not ("omega" in decls and "Omega" in decls):
        raise DslError("LCS input needs both omega and Omega")

    vol = None
    if vol_text is not None:
        vol = parse_form(chart, *vol_text)

    def refuse(word: str, message: str):
        _, line_no, col0 = decls[word]
        raise DslError(message, line_no, col0 + 1)

    if style == "pi":
        pi = parse_multivector(chart, *decls["pi"])
        E = (parse_multivector(chart, *decls["E"]) if "E" in decls
             else MultiVector.zero(chart, 1))
        if pi.terms and pi.grade != 2:
            refuse("pi", f"pi must have grade 2, got {pi.grade}")
        if E.terms and E.grade != 1:
            refuse("E", f"E must have grade 1, got {E.grade}")
        tensors = {"pi": pi, "E": E}
    elif style == "theta":
        theta = parse_form(chart, *decls["theta"])
        if theta.grade != 1:
            refuse("theta", "theta must be a 1-form")
        tensors = {"theta": theta}
    else:
        omega1 = parse_form(chart, *decls["omega"])
        omega2 = parse_form(chart, *decls["Omega"])
        if omega1.terms and omega1.grade != 1:
            refuse("omega", "omega must be a 1-form")
        if omega2.terms and omega2.grade != 2:
            refuse("Omega", "Omega must be a 2-form")
        tensors = {"omega1": omega1, "omega2": omega2}
    return ProblemFile(chart, vol, style, sampler=Sampler(**settings),
                       commands=tuple(commands), **tensors)
