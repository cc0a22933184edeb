"""The expression text syntax shared by polynomials, formula sides and
q-expressions:

  expr   := term (('+' | '-') term)*
  term   := factor ('*' factor)*          ('/' too where a parser allows it)
  factor := base ['^' INT]
  base   := '-' factor | '(' expr ')' | leaf

Each parser supplies its own leaves, and how +, -, *, /, negation and
powers combine its values; the default is Python's own operators.
"""

import operator


class PolyParseError(ValueError):
    """Syntax error in the polynomial text format, with position info."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text, symbols, error):
    """(kind, value, position) triples ending with ('end', None, len(text)).

    Kinds are 'int', 'name' and the one- or two-character symbols listed
    in `symbols`; any other character raises `error` at its position."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        symbol = text[i : i + 2] if text[i : i + 2] in symbols else ch
        if symbol not in symbols:
            raise error(f"unexpected character {ch!r}", i)
        tokens.append((symbol, symbol, i))
        i += len(symbol)
    tokens.append(("end", None, len(text)))
    return tokens


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}


class _ExprParser:
    """Recursive descent over the shared grammar.  Subclasses define
    `leaf()`; they may override `symbols`, `products`, `error` and the
    combining hooks `binary`, `negate` and `power`."""

    symbols = ("+", "-", "*", "^", "(", ")")
    products = ("*",)
    error = PolyParseError

    def __init__(self, text):
        self.tokens = _tokenize(text, self.symbols, self.error)
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def end(self, node):
        """`node`, after checking that no input is left."""
        kind, value, pos = self.peek()
        if kind != "end":
            raise self.error(f"trailing input {value!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = self.binary(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in self.products:
            op = self.take()[0]
            node = self.binary(op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek()[0] == "^":
            self.take()
            kind, k, pos = self.take()
            if kind != "int":
                raise self.error("exponent must be a nonnegative integer", pos)
            return self.power(node, k)
        return node

    def base(self):
        kind = self.peek()[0]
        if kind == "-":
            self.take()
            return self.negate(self.factor())
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        return self.leaf()

    def binary(self, op, a, b):
        return _BINARY[op](a, b)

    def negate(self, a):
        return -a

    def power(self, a, k):
        return a**k
