"""Propositional formulas: syntax tree, parser, renderer and simplifier.

Grammar (lowest precedence first, ``->`` right-associative, ``&``/``|``
left-associative, ``~`` binds tightest)::

    formula  :=  or_expr ('->' formula)?
    or_expr  :=  and_expr ('|' and_expr)*
    and_expr :=  unary ('&' unary)*
    unary    :=  '~' unary | ident | 'true' | 'false' | '(' formula ')'

Identifiers match ``[a-zA-Z_][a-zA-Z0-9_']*``; ``true`` and ``false`` are
reserved constants and never atoms. ``render`` emits minimal parentheses and
``parse_formula(render(f))`` returns ``f`` itself.

Formulas are hash-consed (Filliâtre & Conchon, 2006), as are proof steps
(``core.ProofStep``), through the one table here: build them only through
their constructors, which return the one live node of each structure, so
equality is object identity. ``copy``, ``deepcopy`` and ``pickle`` give
back the same node.
"""

from __future__ import annotations

import functools
import re
from _weakref import _remove_dead_weakref
from weakref import KeyedRef

# distinct texts remembered by ``parse_formula`` (and by ``core.parse_step``)
PARSE_CACHE_SIZE = 4096

IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")
RESERVED = ("true", "false")


class ParseError(ValueError):
    """Malformed input; ``position`` is the 1-based offset of the failure."""

    def __init__(self, message: str, position: int, expected: str = ""):
        detail = f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


# hash-consing table for formulas and proof steps: a structure's key (its
# class, then its fields) -> a weak reference to its one live object. A miss
# stores its object with one ``dict.setdefault``, which is atomic, so threads
# that race to build a structure (``stepwise serve`` runs one per
# connection) all get the object stored first, and takes no lock; a dead
# object's entry removes itself.
_TABLE: dict = {}


def _forget(ref, table=_TABLE, remove=_remove_dead_weakref) -> None:
    # the callback of a dead object's reference: drops the entry only if it
    # still holds a dead reference (a live object may have taken the key);
    # the defaults keep the names bound while the interpreter shuts down
    remove(table, ref.key)


def intern(cls, fields: tuple):
    """The one live ``cls`` object of ``fields``: the table's, else a new
    one with ``fields`` in its ``__match_args__`` slots and ``None`` in its
    ``_caches``. Constructors look the key up themselves first."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        object.__setattr__(obj, name, value)
    for name in cls._caches:
        object.__setattr__(obj, name, None)
    key = (cls, *fields)
    ref = KeyedRef(obj, _forget, key)
    while True:
        live = _TABLE.setdefault(key, ref)()
        if live is not None:
            return live
        _remove_dead_weakref(_TABLE, key)  # died, its callback not run yet


class Interned:
    """Base of the hash-consed types: a constructor returns the one live
    object of its fields, so equality and hashing are object identity and
    ``copy``, ``deepcopy`` and ``pickle`` give back the same object. Objects
    are immutable; the ``_caches`` slots keep values computed from the
    fields once."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()
    _caches: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({args})"


class Formula(Interned):
    """Base class; concrete nodes are Atom, Const, Not, And, Or, Implies.

    Nodes are hash-consed (see ``Interned``). Each node keeps its
    ``render`` text and ``atoms`` set once computed.
    """

    __slots__ = _caches = ("_text", "_atoms")


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        ref = _TABLE.get((cls, name))
        node = ref and ref()
        if node is None and not (isinstance(name, str) and IDENT_RE.fullmatch(name)
                                 and name not in RESERVED):
            raise ValueError(f"invalid atom name: {name!r}")
        return node or intern(cls, (name,))


class Const(Formula):
    __slots__ = __match_args__ = ("value",)

    def __new__(cls, value: bool):
        if not isinstance(value, bool):
            raise TypeError(f"Const takes a bool, got {value!r}")
        ref = _TABLE.get((cls, value))
        return ref and ref() or intern(cls, (value,))


class Not(Formula):
    __slots__ = __match_args__ = ("operand",)

    def __new__(cls, operand: Formula):
        ref = _TABLE.get((cls, operand))
        return ref and ref() or intern(cls, (operand,))


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        ref = _TABLE.get((cls, left, right))
        return ref and ref() or intern(cls, (left, right))


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


TRUE = Const(True)
FALSE = Const(False)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[a-zA-Z_][a-zA-Z0-9_']*)|(?P<imp>->)|(?P<op>[~&|()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Returns (kind, text, 1-based position) triples, ending with an EOF token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("ident"):
            word = m.group("ident")
            kind = word if word in RESERVED else "ident"
            tokens.append((kind, word, m.start("ident") + 1))
        elif m.group("imp"):
            tokens.append(("->", "->", m.start("imp") + 1))
        else:
            op = m.group("op")
            tokens.append((op, op, m.start("op") + 1))
        pos = m.end()
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise ParseError(f"unexpected {got!r}", tok[2], expected=repr(kind))
        return self.advance()

    def formula(self) -> Formula:
        left = self.or_expr()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.formula())
        return left

    def or_expr(self) -> Formula:
        node = self.and_expr()
        while self.peek()[0] == "|":
            self.advance()
            node = Or(node, self.and_expr())
        return node

    def and_expr(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "&":
            self.advance()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if kind == "~":
            self.advance()
            return Not(self.unary())
        if kind == "ident":
            self.advance()
            return Atom(text)
        if kind == "true":
            self.advance()
            return TRUE
        if kind == "false":
            self.advance()
            return FALSE
        if kind == "(":
            self.advance()
            inner = self.formula()
            self.expect(")")
            return inner
        got = text or "end of input"
        raise ParseError(f"unexpected {got!r}", pos, expected="a formula")


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_formula(text: str) -> Formula:
    """Parse one formula; memoised, since formulas are immutable (equal
    texts share one tree; a text that fails raises again)."""
    parser = _Parser(_tokenize(text))
    node = parser.formula()
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {tok!r}", pos, expected="end of input")
    return node


# ---------------------------------------------------------------------------
# Rendering and inspection
# ---------------------------------------------------------------------------

# Precedence levels used for minimal parenthesisation.
_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4
_PREC = {Implies: _PREC_IMP, Or: _PREC_OR, And: _PREC_AND}


def _render_at(f: Formula, min_prec: int) -> str:
    text = render(f)
    return f"({text})" if _PREC.get(type(f), _PREC_UNARY) < min_prec else text


def render(f: Formula) -> str:
    """Minimal-parenthesis text form; reparses to the same node. Kept on
    the node once computed."""
    text = f._text
    if text is not None:
        return text
    if isinstance(f, Atom):
        text = f.name
    elif isinstance(f, Const):
        text = "true" if f.value else "false"
    elif isinstance(f, Not):
        text = "~" + _render_at(f.operand, _PREC_UNARY)
    elif isinstance(f, And):
        text = f"{_render_at(f.left, _PREC_AND)} & {_render_at(f.right, _PREC_AND + 1)}"
    elif isinstance(f, Or):
        text = f"{_render_at(f.left, _PREC_OR)} | {_render_at(f.right, _PREC_OR + 1)}"
    else:
        text = f"{_render_at(f.left, _PREC_IMP + 1)} -> {_render_at(f.right, _PREC_IMP)}"
    object.__setattr__(f, "_text", text)
    return text


def atoms(f: Formula) -> frozenset[str]:
    """The atom names in ``f``; kept on the node once computed."""
    names = f._atoms
    if names is None:
        if isinstance(f, Atom):
            names = frozenset((f.name,))
        elif isinstance(f, Const):
            names = frozenset()
        elif isinstance(f, Not):
            names = atoms(f.operand)
        else:
            names = atoms(f.left) | atoms(f.right)  # type: ignore[union-attr]
        object.__setattr__(f, "_atoms", names)
    return names


def fold_constants(f: Formula) -> Formula:
    """Boolean-constant simplification, bottom-up to fixpoint.

    Rewrites (both operand orders for the commutative connectives):
    A&true->A, A&false->false, A|true->true, A|false->A, ~true->false,
    ~false->true, true->A -> A, A->true -> true, false->A -> true.
    """
    if isinstance(f, (Atom, Const)):
        return f
    if isinstance(f, Not):
        inner = fold_constants(f.operand)
        if inner == TRUE:
            return FALSE
        if inner == FALSE:
            return TRUE
        return Not(inner)
    left = fold_constants(f.left)  # type: ignore[union-attr]
    right = fold_constants(f.right)  # type: ignore[union-attr]
    if isinstance(f, And):
        if left == FALSE or right == FALSE:
            return FALSE
        if left == TRUE:
            return right
        if right == TRUE:
            return left
        return And(left, right)
    if isinstance(f, Or):
        if left == TRUE or right == TRUE:
            return TRUE
        if left == FALSE:
            return right
        if right == FALSE:
            return left
        return Or(left, right)
    if isinstance(f, Implies):
        if left == FALSE or right == TRUE:
            return TRUE
        if left == TRUE:
            return right
        return Implies(left, right)
    raise TypeError(f"not a formula: {f!r}")
