"""Vector observables over a system's phase points or increments.

An observable is an expression tree evaluated vectorized along orbit
spans. The config mini-grammar is a restricted Python expression syntax
parsed through ``ast`` (see the README for the BNF):

- ``indicator(a,b)``: 1 on a <= x < b, else 0 (first coordinate)
- ``frac`` / ``y``: first / second phase coordinate
- ``iid(law, d=k)``: the shift's realized increment vector (law and d
  must match the system)
- ``cobdrift(h=EXPR, c=[..])``: h(Tx) - h(x) + c
- numbers, ``+ - * /``, unary minus, ``pow(e,k)``, ``floor(e)``,
  ``sin2pi(e)``, ``cos2pi(e)``, and vector literals ``[e1,...,ed]``.

Scalar subexpressions broadcast against vector ones; dimensions are
checked at parse time.

Each node declares ``lattice``: ``(m, K)`` when every value it takes is
k * 2^-m for an integer |k| <= K, so it lies on 2^-m Z with
|value| <= B = K * 2^-m; else None. Both are Python ints, so bounds add
without rounding. These nodes have one: the Rademacher ``iid`` (0, 1),
``indicator`` (0, 1), finite constants (every float is p / 2^m),
vectors, sums, differences and negations of lattice nodes, products of
a lattice node with an integer constant c (bound K * max(|c|, 1); a
negated literal such as ``-3`` is one constant), and
``cobdrift`` of a lattice ``h`` and constant ``c`` (bound
2 K_h + max |c| * 2^m). Everything else, such as ``frac``, ``y``,
``sin2pi``, ``pow``, ``floor``, division and the Gaussian and Cauchy
laws, declares None. A node's bound covers its lattice children's and
its own arithmetic, so when K <= 2^53 at the root every value in the
tree is computed exactly; the engine then sums in float64 (see
``engine``).
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, _whole
from .systems import LAWS, OrbitData, SystemSpec


class Node:
    """Expression-tree node; subclasses define dim, lookahead, lattice, needs."""

    dim: int = 1
    lookahead: int = 0
    lattice: tuple | None = None    # (m, K): values k * 2^-m with |k| <= K

    def needs(self) -> set:
        return set()

    def eval(self, data: OrbitData, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError


def _pos(data: OrbitData, lo, hi, coord: int) -> np.ndarray:
    return data.positions[data.rows(lo, hi), coord]


def _dyadic(value: float) -> tuple | None:
    # a finite float is p / 2^m in lowest terms: on 2^-m Z with bound |p|
    if not math.isfinite(value):
        return None
    p, q = value.as_integer_ratio()
    return q.bit_length() - 1, abs(p)


def _join(*lattices, add: bool = False) -> tuple | None:
    # the finest lattice of several, with the largest of their bounds on it
    # (their sum, with add); None if any is None
    if None in lattices:
        return None
    m = max(mi for mi, _ in lattices)
    bounds = [k << (m - mi) for mi, k in lattices]
    return m, sum(bounds) if add else max(bounds)


@dataclass(eq=False)
class Const(Node):
    value: float

    def __post_init__(self):
        self.lattice = _dyadic(self.value)

    def eval(self, data, lo, hi):
        return np.full((hi - lo + 1, 1), self.value)


@dataclass(eq=False)
class Coord(Node):
    coord: int  # 0 = frac, 1 = y

    def needs(self):
        return {("position", self.coord + 1)}

    def eval(self, data, lo, hi):
        return _pos(data, lo, hi, self.coord)[:, None]


@dataclass(eq=False)
class Indicator(Node):
    a: float
    b: float
    lattice = (0, 1)

    def needs(self):
        return {("position", 1)}

    def eval(self, data, lo, hi):
        x = _pos(data, lo, hi, 0)
        return ((x >= self.a) & (x < self.b)).astype(np.float64)[:, None]


@dataclass(eq=False)
class Iid(Node):
    law: str
    d: int

    def __post_init__(self):
        self.dim = self.d
        self.lattice = (0, 1) if self.law == "rademacher" else None

    def needs(self):
        return {("increments", self.law, self.d)}

    def eval(self, data, lo, hi):
        return data.increments[data.rows(lo, hi)]


@dataclass(eq=False)
class Unary(Node):
    fn: str  # neg | floor | sin2pi | cos2pi
    child: Node

    def __post_init__(self):
        self.dim = self.child.dim
        self.lookahead = self.child.lookahead
        if self.fn == "neg":
            self.lattice = self.child.lattice

    def needs(self):
        return self.child.needs()

    def eval(self, data, lo, hi):
        v = self.child.eval(data, lo, hi)
        if self.fn == "neg":
            return -v
        if self.fn == "floor":
            return np.floor(v)
        if self.fn == "sin2pi":
            return np.sin(2.0 * np.pi * v)
        return np.cos(2.0 * np.pi * v)


@dataclass(eq=False)
class Power(Node):
    child: Node
    exponent: float

    def __post_init__(self):
        self.dim = self.child.dim
        self.lookahead = self.child.lookahead

    def needs(self):
        return self.child.needs()

    def eval(self, data, lo, hi):
        return self.child.eval(data, lo, hi) ** self.exponent


@dataclass(eq=False)
class BinOp(Node):
    op: str  # add | sub | mul | div
    left: Node
    right: Node

    def __post_init__(self):
        dl, dr = self.left.dim, self.right.dim
        if dl != dr and 1 not in (dl, dr):
            raise ConfigInvalid("observable", f"dimension mismatch {dl} vs {dr}")
        self.dim = max(dl, dr)
        self.lookahead = max(self.left.lookahead, self.right.lookahead)
        self.lattice = self._lattice()

    def _lattice(self) -> tuple | None:
        if self.op in ("add", "sub"):
            return _join(self.left.lattice, self.right.lattice, add=True)
        if self.op == "mul":
            # a lattice node times an integer constant stays on the node's lattice
            for node, const in ((self.left, self.right), (self.right, self.left)):
                if node.lattice and isinstance(const, Const) and const.value.is_integer():
                    m, k = node.lattice
                    return m, k * max(abs(int(const.value)), 1)
        return None

    def needs(self):
        return self.left.needs() | self.right.needs()

    def eval(self, data, lo, hi):
        a = self.left.eval(data, lo, hi)
        b = self.right.eval(data, lo, hi)
        if self.op == "add":
            return a + b
        if self.op == "sub":
            return a - b
        if self.op == "mul":
            return a * b
        return a / b


@dataclass(eq=False)
class Vector(Node):
    children: list

    def __post_init__(self):
        if any(c.dim != 1 for c in self.children):
            raise ConfigInvalid("observable", "vector components must be scalar")
        self.dim = len(self.children)
        self.lookahead = max(c.lookahead for c in self.children)
        self.lattice = _join(*(c.lattice for c in self.children))

    def needs(self):
        out = set()
        for c in self.children:
            out |= c.needs()
        return out

    def eval(self, data, lo, hi):
        return np.hstack([c.eval(data, lo, hi) for c in self.children])


@dataclass(eq=False)
class Cobdrift(Node):
    """phi(x) = h(Tx) - h(x) + c; ergodic sums telescope to h(T^n x) - h(x) + n c."""

    h: Node
    c: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        self.c = c
        if self.h.dim != len(c):
            raise ConfigInvalid(
                "observable", f"cobdrift h has dim {self.h.dim}, c has dim {len(c)}")
        self.dim = self.h.dim
        self.lookahead = self.h.lookahead + 1
        self.lattice = _join(self.h.lattice, self.h.lattice, _join(*map(_dyadic, c)),
                             add=True)

    def needs(self):
        return self.h.needs()

    def eval(self, data, lo, hi):
        ahead = self.h.eval(data, lo + 1, hi + 1)
        here = self.h.eval(data, lo, hi)
        return ahead - here + self.c[None, :]


_FUNCS1 = {"floor", "sin2pi", "cos2pi"}


def _finite(value) -> float:
    # a numeric literal as a float, refused unless it is a finite float64
    if not abs(value) <= np.finfo(np.float64).max.item():
        raise ConfigInvalid("observable", f"literal {value!r} is not a finite number")
    return float(value)


class _Builder:
    """Restricted ast -> Node translation; everything else is ConfigInvalid."""

    def build(self, node) -> Node:
        if isinstance(node, ast.Expression):
            return self.build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(node.value, bool):
                return Const(_finite(node.value))
            raise ConfigInvalid("observable", f"bad literal {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id == "frac":
                return Coord(0)
            if node.id == "y":
                return Coord(1)
            raise ConfigInvalid("observable", f"unknown name {node.id!r}")
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                # a negated literal is one constant, so it can be an integer factor
                child = self.build(node.operand)
                return Const(-child.value) if isinstance(child, Const) else Unary("neg", child)
            raise ConfigInvalid("observable", "only unary minus is supported")
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div"}
            if isinstance(node.op, ast.Pow):
                return Power(self.build(node.left), self._number(node.right))
            for k, name in ops.items():
                if isinstance(node.op, k):
                    return BinOp(name, self.build(node.left), self.build(node.right))
            raise ConfigInvalid("observable", "unsupported operator")
        if isinstance(node, ast.List):
            return Vector([self.build(e) for e in node.elts])
        if isinstance(node, ast.Call):
            return self._call(node)
        raise ConfigInvalid("observable", f"unsupported syntax {type(node).__name__}")

    def _number(self, node) -> float:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return _finite(node.value)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._number(node.operand)
        raise ConfigInvalid("observable", "expected a numeric literal")

    def _call(self, node: ast.Call) -> Node:
        if not isinstance(node.func, ast.Name):
            raise ConfigInvalid("observable", "unsupported call form")
        name = node.func.id
        kw = {k.arg: k.value for k in node.keywords}
        if name == "indicator":
            if len(node.args) != 2 or kw:
                raise ConfigInvalid("observable", "indicator takes (a, b)")
            a, b = (self._number(x) for x in node.args)
            if not (0.0 <= a < b <= 1.0):
                raise ConfigInvalid("observable", f"bad interval [{a},{b})")
            return Indicator(a, b)
        if name == "pow":
            if len(node.args) != 2 or kw:
                raise ConfigInvalid("observable", "pow takes (expr, k)")
            return Power(self.build(node.args[0]), self._number(node.args[1]))
        if name in _FUNCS1:
            if len(node.args) != 1 or kw:
                raise ConfigInvalid("observable", f"{name} takes one argument")
            return Unary(name, self.build(node.args[0]))
        if name == "iid":
            if len(node.args) != 1 or not isinstance(node.args[0], ast.Name):
                raise ConfigInvalid("observable", "iid takes (law, d=k)")
            law = node.args[0].id
            if law not in LAWS:
                raise ConfigInvalid("observable", f"unknown law {law!r}")
            d = self._number(kw["d"]) if "d" in kw else 1
            if set(kw) - {"d"}:
                raise ConfigInvalid("observable", "iid takes (law, d=k)")
            return Iid(law, _whole("observable", d, 1))
        if name == "cobdrift":
            if node.args or set(kw) != {"h", "c"}:
                raise ConfigInvalid("observable", "cobdrift takes (h=expr, c=[..])")
            h = self.build(kw["h"])
            cnode = kw["c"]
            if isinstance(cnode, ast.List):
                c = [self._number(e) for e in cnode.elts]
            else:
                c = [self._number(cnode)]
            return Cobdrift(h, np.asarray(c))
        raise ConfigInvalid("observable", f"unknown function {name!r}")


@dataclass(frozen=True)
class ObservableSpec:
    """Parsed observable: source text, tree, dimension, orbit lookahead."""

    text: str
    root: Node
    d: int
    lookahead: int

    def evaluate(self, data: OrbitData, lo: int, hi: int) -> np.ndarray:
        """Values phi(T^k x) for k = lo..hi; data must span [lo, hi+lookahead]."""
        return self.root.eval(data, lo, hi)

    def validate_for(self, system: SystemSpec):
        """Check the expression can be evaluated on this system's orbits."""
        for need in self.root.needs():
            if need[0] == "position":
                pdim = system.position_dim
                if pdim is None:
                    raise ConfigInvalid(
                        "observable", "position terms need an interval or torus system")
                if need[1] > pdim:
                    raise ConfigInvalid(
                        "observable", f"coordinate {need[1]} exceeds phase dimension {pdim}")
            else:
                _, law, d = need
                if system.kind != "iid-shift":
                    raise ConfigInvalid("observable", "iid(...) needs an iid-shift system")
                if system.law != law or system.d != d:
                    raise ConfigInvalid(
                        "observable",
                        f"iid({law}, d={d}) does not match system "
                        f"({system.law}, d={system.d})")


def parse_observable(text: str) -> ObservableSpec:
    """Parse the observable mini-grammar into an ObservableSpec."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as e:
        raise ConfigInvalid("observable", f"parse error: {e.msg}") from None
    root = _Builder().build(tree)
    return ObservableSpec(text, root, root.dim, root.lookahead)


def centered_indicator(a: float, b: float) -> ObservableSpec:
    """1_[a,b) minus its mean b-a; centered by construction."""
    return parse_observable(f"indicator({a!r},{b!r})-{b - a!r}")


def iid_increment(law: str, d: int = 1) -> ObservableSpec:
    return parse_observable(f"iid({law},d={d})")


def coboundary_of(psi: ObservableSpec, drift=None) -> ObservableSpec:
    """phi = psi o T - psi (+ optional constant drift vector)."""
    if drift is None:
        drift = np.zeros(psi.d)
    drift = np.atleast_1d(np.asarray(drift, dtype=np.float64))
    ctext = "[" + ",".join(repr(float(v)) for v in drift) + "]"
    return parse_observable(f"cobdrift(h={psi.text},c={ctext})")
