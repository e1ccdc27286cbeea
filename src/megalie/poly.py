"""Exact multivariate polynomials over the rationals.

Terms are stored sparsely as {exponent tuple: coefficient} over a fixed,
ordered variable list.  A coefficient is a Python int when it is integral
and a Fraction only where a denominator survives, so polynomials with
integer coefficients (the wave-equation fields and maps, the structure
equations) run on int arithmetic alone.  An int and a Fraction of equal
value compare and hash alike, so equality, hashing and printing do not
depend on which one is stored; no float ever enters.  Printing uses the
graded lexicographic order and produces strings that re-parse to the same
polynomial.

Grammar accepted by parse():

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | var | var '^' uint | '(' expr ')'

with variable names matching [A-Za-z_][A-Za-z0-9_]* and rationals being
digits ['/' digits].  Parentheses nest at most _MAX_NESTING deep, and no
exponent, product or parsed polynomial has total degree above MAX_DEGREE.

The work of expanding products is bounded too.  A product of polynomials
with a and b terms forms a*b term pairs; one parse, one Lie bracket of
vector fields (src/megalie/vectorfield.py) and one substitute_all call,
which forms only products that substitute a moved coordinate in a
push-forward, form at most MAX_PAIRS of them in all.  So a short input can
neither parse, bracket nor push forward into millions of terms.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Mapping, Sequence

from .linalg import format_rat, rat


class PolyError(ValueError):
    """Syntax or variable error while parsing; carries the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpansionError(ValueError):
    """A substitution, bracket or block determinant too large to expand or to read back.

    It would form more than MAX_PAIRS term pairs (permutations, for a block
    determinant), or (in a push-forward or a bracket) give a polynomial of
    degree above MAX_DEGREE.
    """


# The shipped fixtures have degree at most 3.  Pushing a term of degree k
# forward expands it into up to k + 1 terms or more, so k is bounded.
MAX_DEGREE = 100
# A product of rational terms costs up to several microseconds per term
# pair, so this caps one parse, substitution or bracket at about a second.
# The test suite and the benchmark workloads form fewer than 100 pairs per
# product.
MAX_PAIRS = 100_000


Exponents = tuple[int, ...]


def _monomial_sort_key(exps: Exponents) -> tuple:
    # graded lex: the largest key leads (higher total degree, then lexicographic)
    return (sum(exps), exps)


# An int when integral, else a Fraction; equal values compare and hash alike.
Coefficient = int | Fraction
Terms = Mapping[Exponents, Coefficient]


def _coefficient(value) -> Coefficient:
    """An int, Fraction or rational literal as a coefficient: an int when integral.

    A bool becomes 0 or 1; anything else goes through linalg.rat, so a
    float is refused.
    """
    if type(value) is int:
        return value
    value = rat(int(value) if isinstance(value, bool) else value)
    return value.numerator if value.denominator == 1 else value


def _mul_terms(left: Terms, right: Terms) -> dict[Exponents, Coefficient]:
    """Product of two term dicts; cancelled terms stay in as zero coefficients."""
    out: dict[Exponents, Coefficient] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(map(operator.add, e1, e2))
            c = out.get(key)
            out[key] = c1 * c2 if c is None else c + c1 * c2
    return out


def _nonzero(terms: Terms) -> dict[Exponents, Coefficient]:
    """The nonzero terms, an integral Fraction (say 1/2 + 1/2) turned into its int."""
    return {
        e: c if type(c) is int or c.denominator != 1 else c.numerator
        for e, c in terms.items()
        if c
    }


def _power(terms: Terms, k: int, times=_mul_terms) -> Terms:
    """terms^k for k >= 1 by repeated squaring: about 2*log2(k) products, never more than k.

    Each product is times(left, right); cancelled terms are dropped after it.
    """
    result = None
    while k:
        if k & 1:
            result = terms if result is None else _nonzero(times(result, terms))
        k >>= 1
        if k:
            terms = _nonzero(times(terms, terms))
    return result


class Poly:
    """Immutable sparse polynomial over a fixed variable tuple."""

    __slots__ = ("variables", "terms", "_lead")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponents, Coefficient] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        clean: dict[Exponents, Coefficient] = {}
        if terms:
            width = len(self.variables)
            for exps, coeff in terms.items():
                if len(exps) != width:
                    raise ValueError("exponent tuple width does not match variables")
                coeff = _coefficient(coeff)
                if coeff != 0:
                    clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    @staticmethod
    def _from_terms(variables: tuple[str, ...], terms: Terms) -> "Poly":
        """Trusted constructor for code that built the term dict itself.

        The keys must already be exponent tuples as wide as `variables` and
        the values ints or Fractions; zero coefficients are dropped and an
        integral Fraction becomes its int, nothing else is checked or
        coerced.  Outside input goes through Poly(...).
        """
        p = object.__new__(Poly)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "terms", _nonzero(terms))
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
        variables = tuple(variables)
        return Poly(variables, {(0,) * len(variables): value})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        try:
            idx = variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        exps = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return Poly(variables, {exps: 1})

    # -- predicates ------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max(map(sum, self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.terms.get((0,) * len(self.variables), 0))

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
        q = _coefficient(q)
        return Poly._from_terms(self.variables, {e: q * c for e, c in self.terms.items()})

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if k == 0:
            return Poly.const(self.variables, 1)
        return Poly._from_terms(self.variables, _power(self.terms, k))

    # -- calculus ----------------------------------------------------------

    def derivative(self, name: str) -> "Poly":
        idx = self.variables.index(name)
        out: dict[Exponents, Coefficient] = {}
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
        return substitute_all([self], mapping)[0]

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            prod = coeff
            for name, e in zip(self.variables, exps):
                if e:
                    prod *= rat(values[name]) ** e
            total += prod
        return total

    # -- structure ---------------------------------------------------------

    def leading_term(self) -> tuple[Exponents, Coefficient]:
        """Graded-lex leading (exponents, coefficient); scanned once, then cached."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lead is None:
            exps = max(self.terms, key=_monomial_sort_key)
            object.__setattr__(self, "_lead", (exps, self.terms[exps]))
        return self._lead

    def linear_decompose(self, name: str) -> tuple["Poly", "Poly"] | None:
        """Write self = coeff * name + rest when degree in name is 1.

        Returns (coeff, rest), both free of the variable, or None.
        """
        idx = self.variables.index(name)
        coeff: dict[Exponents, Coefficient] = {}
        rest: dict[Exponents, Coefficient] = {}
        for exps, c in self.terms.items():
            e = exps[idx]
            if e == 0:
                rest[exps] = c
            elif e == 1:
                key = tuple(0 if i == idx else x for i, x in enumerate(exps))
                coeff[key] = c
            else:
                return None
        if not coeff:
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
            # Fraction(a, b), not a / b: two ints would divide into a float
            factor = Poly(self.variables, {diff: Fraction(r_coeff, lead_coeff)})
            quotient = quotient + factor
            remainder = remainder - factor * divisor
        return quotient

    def content_normalized(self) -> "Poly":
        """Scale so coefficients are coprime integers, leading one positive."""
        if self.is_zero():
            return self
        scale = Fraction(
            lcm(*(c.denominator for c in self.terms.values())),
            gcd(*(c.numerator for c in self.terms.values())),
        )
        _, lead = self.leading_term()
        if scale == 1:
            return self if lead > 0 else -self
        return self.scaled(scale if lead > 0 else -scale)

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
        parts = []  # "+ body" or "- body", the magnitude first unless it is 1 on a non-constant term
        for exps in sorted(self.terms, key=_monomial_sort_key, reverse=True):
            coeff = self.terms[exps]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in compress(zip(self.variables, exps), exps)
            ]
            if not factors or abs(coeff) != 1:
                factors.insert(0, format_rat(abs(coeff)))
            parts.append(f"{'-' if coeff < 0 else '+'} {'*'.join(factors)}")
        text = " ".join(parts)
        return text[2:] if text[0] == "+" else f"-{text[2:]}"

    def __str__(self) -> str:
        return self.to_str()


def substitute_all(polys: Sequence[Poly], mapping: Mapping[str, Poly]) -> list[Poly]:
    """[p.substitute(mapping) for p in polys], with one memo of image powers for all.

    Only the variables the mapping names are substituted, so the budget
    counts only their products; a push-forward maps only the coordinates its
    map moves.  Every product counts its term pairs before it is expanded;
    past MAX_PAIRS in all, ExpansionError is raised instead.
    """
    powers: dict[tuple[int, int], Terms] = {}
    pairs = 0
    variables = polys[0].variables if polys else ()
    # in variable order: each term multiplies its images in it, which the pair count follows
    mapped = sorted((variables.index(name), image) for name, image in mapping.items() if name in variables)

    def times(left: Terms, right: Terms) -> dict[Exponents, Coefficient]:
        nonlocal pairs
        pairs += len(left) * len(right)
        if pairs > MAX_PAIRS:
            raise ExpansionError(f"substitution expands past {MAX_PAIRS} term pairs")
        return _mul_terms(left, right)

    results = []
    for p in polys:
        if any(image.variables != p.variables for image in mapping.values()):
            raise ValueError("substitution images must be over the polynomial's variables")
        out: dict[Exponents, Coefficient] = {}
        for exps, coeff in p.terms.items():
            kept = list(exps)
            for idx, _ in mapped:
                kept[idx] = 0
            term = {tuple(kept): coeff}
            for idx, image in mapped:
                e = exps[idx]
                if e:
                    if (idx, e) not in powers:
                        powers[idx, e] = _power(image.terms, e, times)
                    term = times(term, powers[idx, e])
            for key, c in term.items():
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        results.append(Poly._from_terms(p.variables, out))
    return results


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<rational>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*^()]))"
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


# Each parenthesis level costs three Python frames of the recursive descent.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.variables = tuple(variables)
        self.index = 0
        self.depth = 0
        self.pairs = 0  # term pairs of the products expanded so far

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
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                factor = self.parse_factor()
                # deg(pq) = deg p + deg q over the rationals; checked before expanding
                if result.degree() + factor.degree() > MAX_DEGREE:
                    raise PolyError(f"degree above {MAX_DEGREE}", pos)
                self.pairs += len(result.terms) * len(factor.terms)
                if self.pairs > MAX_PAIRS:
                    raise PolyError(f"products expand past {MAX_PAIRS} term pairs", pos)
                result = result * factor
            else:
                return result

    def parse_factor(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == "rational":
            num, _, den = value.partition("/")
            if den and int(den) == 0:
                raise PolyError("zero denominator", pos)
            q = Fraction(int(num), int(den)) if den else int(num)
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
                # the length test keeps int() off digit strings past its limit
                if len(value3.lstrip("0")) > len(str(MAX_DEGREE)) or int(value3) > MAX_DEGREE:
                    raise PolyError(f"degree above {MAX_DEGREE}", pos3)
                return base ** int(value3)
            return base
        if kind == "op" and value == "(":
            if self.depth == _MAX_NESTING:
                raise PolyError(f"parentheses nested deeper than {_MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
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
