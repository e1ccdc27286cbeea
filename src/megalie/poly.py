"""Exact multivariate polynomials over the rationals.

Terms are stored sparsely as {exponent tuple: coefficient} over a fixed,
ordered variable list.  Printing uses the graded lexicographic order and
produces strings that re-parse to the same polynomial.

Grammar accepted by parse():

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | var | var '^' uint | '(' expr ')'

with variable names matching [A-Za-z_][A-Za-z0-9_]* and rationals being
digits ['/' digits].
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

from .linalg import format_rat


class PolyError(ValueError):
    """Syntax or variable error while parsing; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


Exponents = tuple[int, ...]


def _monomial_sort_key(exps: Exponents) -> tuple:
    # graded lex, descending: higher total degree first, then lexicographic
    return (-sum(exps), tuple(-e for e in exps))


Terms = Mapping[Exponents, Fraction]


def _mul_terms(left: Terms, right: Terms) -> dict[Exponents, Fraction]:
    """Product of two term dicts; cancelled terms stay in as zero coefficients."""
    out: dict[Exponents, Fraction] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(map(operator.add, e1, e2))
            c = out.get(key)
            out[key] = c1 * c2 if c is None else c + c1 * c2
    return out


class Poly:
    """Immutable sparse polynomial over a fixed variable tuple."""

    __slots__ = ("variables", "terms", "_lead")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Fraction] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        clean: dict[Exponents, Fraction] = {}
        if terms:
            width = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError("exponent tuple width does not match variables")
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    @staticmethod
    def _from_terms(variables: tuple[str, ...], terms: Terms) -> "Poly":
        """Trusted constructor for code that built the term dict itself.

        The keys must already be exponent tuples as wide as `variables` and
        the values Fractions; zero coefficients are dropped, nothing else is
        checked or coerced.  Outside input goes through Poly(...).
        """
        p = object.__new__(Poly)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", {e: c for e, c in terms.items() if c})
        object.__setattr__(p, "_lead", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "Poly":
        return Poly(variables)

    @staticmethod
    def const(variables: Sequence[str], value) -> "Poly":
        value = Fraction(value)
        if value == 0:
            return Poly(variables)
        return Poly(variables, {(0,) * len(tuple(variables)): value})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        try:
            idx = variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return Poly(variables, {exps: Fraction(1)})

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def mentions(self, name: str) -> bool:
        idx = self.variables.index(name)
        return any(e[idx] > 0 for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({self.to_str()!r})"

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.get(exps)
            out[exps] = coeff if c is None else c + coeff
        return Poly._from_terms(self.variables, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly._from_terms(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return Poly._from_terms(self.variables, _mul_terms(self.terms, other.terms))

    def scaled(self, q) -> "Poly":
        q = Fraction(q)
        return Poly._from_terms(self.variables, {e: q * c for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        """By repeated squaring: about 2*log2(k) products, never more than k."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        square = self
        while k:
            if k & 1:
                result = square if result is None else result * square
            k >>= 1
            if k:
                square = square * square
        return Poly.const(self.variables, 1) if result is None else result

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "Poly":
        idx = self.variables.index(name)
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e:
                # distinct monomials stay distinct when one exponent drops by one
                out[exps[:idx] + (e - 1,) + exps[idx + 1 :]] = coeff * e
        return Poly._from_terms(self.variables, out)

    def substitute(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Composite polynomial: each variable the mapping names is replaced.

        Images must be polynomials over self.variables, which stay the
        variables of the result; the exponents of unmapped variables are
        copied through unchanged.
        """
        if any(image.variables != self.variables for image in mapping.values()):
            raise ValueError("substitution images must be over the polynomial's variables")
        mapped = [(idx, mapping[name]) for idx, name in enumerate(self.variables) if name in mapping]
        powers: dict[tuple[int, int], dict[Exponents, Fraction]] = {}
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            kept = list(exps)
            for idx, _ in mapped:
                kept[idx] = 0
            term = {tuple(kept): coeff}
            for idx, image in mapped:
                e = exps[idx]
                if e:
                    if (idx, e) not in powers:
                        powers[idx, e] = (image**e).terms
                    term = _mul_terms(term, powers[idx, e])
            for key, c in term.items():
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return Poly._from_terms(self.variables, out)

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            prod = coeff
            for name, e in zip(self.variables, exps):
                if e:
                    prod *= Fraction(values[name]) ** e
            total += prod
        return total

    def lift(self, variables: Sequence[str]) -> "Poly":
        """Same polynomial over a superset variable tuple."""
        variables = tuple(variables)
        positions = []
        for name in self.variables:
            try:
                positions.append(variables.index(name))
            except ValueError:
                raise ValueError(f"target variables are missing {name!r}") from None
        out: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            key = [0] * len(variables)
            for pos, e in zip(positions, exps):
                key[pos] = e
            out[tuple(key)] = coeff
        return Poly._from_terms(variables, out)

    # -- structure ---------------------------------------------------------

    def leading_term(self) -> tuple[Exponents, Fraction]:
        """Graded-lex leading (exponents, coefficient); scanned once, then cached."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lead is None:
            exps = min(self.terms, key=_monomial_sort_key)
            object.__setattr__(self, "_lead", (exps, self.terms[exps]))
        return self._lead

    def linear_decompose(self, name: str) -> tuple["Poly", "Poly"] | None:
        """Write self = coeff * name + rest when degree in name is 1.

        Returns (coeff, rest), both free of the variable, or None.
        """
        idx = self.variables.index(name)
        coeff: dict[Exponents, Fraction] = {}
        rest: dict[Exponents, Fraction] = {}
        saw_linear = False
        for exps, c in self.terms.items():
            e = exps[idx]
            if e == 0:
                rest[exps] = c
            elif e == 1:
                saw_linear = True
                key = tuple(0 if i == idx else x for i, x in enumerate(exps))
                coeff[key] = c
            else:
                return None
        if not saw_linear:
            return None
        return Poly._from_terms(self.variables, coeff), Poly._from_terms(self.variables, rest)

    def exact_div(self, divisor: "Poly") -> "Poly | None":
        """Quotient self / divisor when the division is exact, else None."""
        self._check(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if divisor.is_constant():
            return self.scaled(Fraction(1) / divisor.constant_value())
        remainder = self
        quotient = Poly.zero(self.variables)
        lead_exps, lead_coeff = divisor.leading_term()
        while not remainder.is_zero():
            r_exps, r_coeff = remainder.leading_term()
            diff = tuple(a - b for a, b in zip(r_exps, lead_exps))
            if any(d < 0 for d in diff):
                return None
            factor = Poly(self.variables, {diff: r_coeff / lead_coeff})
            quotient = quotient + factor
            remainder = remainder - factor * divisor
        return quotient

    def content_normalized(self) -> "Poly":
        """Scale so coefficients are coprime integers, leading one positive."""
        if self.is_zero():
            return self
        nums = [abs(c.numerator) for c in self.terms.values()]
        dens = [c.denominator for c in self.terms.values()]
        g = 0
        for v in nums:
            g = gcd(g, v)
        l = 1
        for v in dens:
            l = l * v // gcd(l, v)
        scale = Fraction(l, g)
        scaled = self.scaled(scale)
        _, lead = scaled.leading_term()
        if lead < 0:
            scaled = -scaled
        return scaled

    def monomial_variables(self) -> list[str] | None:
        """If self is a single term, the variables appearing in it; else None."""
        if len(self.terms) != 1:
            return None
        (exps,) = self.terms
        return [name for name, e in zip(self.variables, exps) if e > 0]

    # -- printing -----------------------------------------------------------

    def to_str(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_monomial_sort_key):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([format_rat(mag)] + factors)
            else:
                body = format_rat(mag)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = f"-{first_body}" if first_sign == "-" else first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __str__(self) -> str:
        return self.to_str()


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rational>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise PolyError(f"unexpected character {stripped[0]!r}", at)
        for kind in ("rational", "name", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value, m.start(kind)))
                break
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.variables = tuple(variables)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise PolyError(f"expected {symbol!r}", pos)
        self.advance()

    def parse_expr(self) -> Poly:
        negative = False
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            negative = True
        result = self.parse_term()
        if negative:
            result = -result
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                result = result + term if value == "+" else result - term
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == "rational":
            num, _, den = value.partition("/")
            if den and int(den) == 0:
                raise PolyError("zero denominator", pos)
            q = Fraction(int(num), int(den)) if den else Fraction(int(num))
            return Poly.const(self.variables, q)
        if kind == "name":
            if value not in self.variables:
                raise PolyError(f"unknown variable {value!r}", pos)
            base = Poly.var(self.variables, value)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "^":
                self.advance()
                kind3, value3, pos3 = self.advance()
                if kind3 != "rational" or "/" in value3:
                    raise PolyError("exponent must be an unsigned integer", pos3)
                return base ** int(value3)
            return base
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise PolyError("expected a rational, variable, or '('", pos)


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse the polynomial grammar over the given variable list."""
    parser = _Parser(text, variables)
    result = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise PolyError(f"trailing input {value!r}", pos)
    return result
