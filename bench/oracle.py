"""Independent exact arithmetic for checking megalie's outputs.

Everything here is plain `fractions.Fraction` code written for the
benchmark: structure-constant algebras, Gaussian elimination, small dense
matrices, sparse polynomials and polynomial vector fields.  Nothing is
imported from megalie, so a defect in the program's own arithmetic cannot
hide itself by also corrupting the check.

Conventions:
  * an algebra is (names, c) with c a dict {(i, j): {k: Fraction}} holding
    both orders of every nonzero bracket;
  * a matrix acts on column vectors: column k is the image of basis vector k;
  * a polynomial is a dict {monomial: Fraction}, a monomial being a tuple of
    (variable, exponent) pairs sorted by variable name, exponents positive;
  * a vector field is a dict {variable: polynomial}, zero components omitted.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# algebras given by structure constants


def algebra(names, brackets):
    """(names, c) from {(i, j): {k: value}}; antisymmetric partners filled in."""
    c = {}
    for (i, j), result in brackets.items():
        row = {k: Fraction(v) for k, v in result.items() if Fraction(v) != 0}
        if row:
            c[(i, j)] = row
            c[(j, i)] = {k: -v for k, v in row.items()}
    return tuple(names), c


def filiform(n):
    """L_n: [e1, ei] = e(i+1) for 2 <= i < n."""
    names = [f"e{i}" for i in range(1, n + 1)]
    return algebra(names, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def heisenberg(k):
    """h_k on x1..xk, y1..yk, z: [xi, yi] = z."""
    names = [f"x{i}" for i in range(1, k + 1)] + [f"y{i}" for i in range(1, k + 1)] + ["z"]
    return algebra(names, {(i, k + i): {2 * k: 1} for i in range(k)})


def diagonal(n):
    """diag_n on e0..e(n-1): [e0, ei] = i*ei."""
    names = [f"e{i}" for i in range(n)]
    return algebra(names, {(0, i): {i: i} for i in range(1, n)})


def algebra_from_json(data):
    """Algebra file format (names or 0-based indices as references)."""
    names = list(data["basis"])

    def ref(r):
        return r if isinstance(r, int) else names.index(r)

    brackets = {}
    for entry in data.get("brackets", []):
        i, j = ref(entry["left"]), ref(entry["right"])
        brackets[(i, j)] = {ref(k): parse_rational(v) for k, v in entry["result"].items()}
    return algebra(names, brackets)


def bracket(c, n, x, y):
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            row = c.get((i, j))
            if row:
                f = xi * yj
                for k, v in row.items():
                    out[k] += f * v
    return out


def unit(n, i):
    return [ONE if k == i else ZERO for k in range(n)]


def ad_matrix(c, n, i):
    cols = [bracket(c, n, unit(n, i), unit(n, j)) for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def is_automorphism(c, n, m):
    """Invertible and m[ei, ej] = [m ei, m ej] for every pair."""
    if det(m) == 0:
        return False
    images = [[m[r][i] for r in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if mat_vec(m, bracket(c, n, unit(n, i), unit(n, j))) != bracket(c, n, images[i], images[j]):
                return False
    return True


def derivation_dim(c, n):
    """dim Der(g): n^2 minus the rank of the Leibniz constraints.

    Unknown d[a][b] (column b = image of e_b) sits at index a*n + b.  For
    each pair i < j and component m:
      sum_k c_ij^k d[m][k] - sum_l d[l][i] c_lj^m - sum_l d[l][j] c_il^m = 0.
    """
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                row = {}
                for k, v in c.get((i, j), {}).items():
                    row[m * n + k] = row.get(m * n + k, ZERO) + v
                for l in range(n):
                    v = c.get((l, j), {}).get(m)
                    if v:
                        row[l * n + i] = row.get(l * n + i, ZERO) - v
                    v = c.get((i, l), {}).get(m)
                    if v:
                        row[l * n + j] = row.get(l * n + j, ZERO) - v
                row = {k: v for k, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    return n * n - sparse_rank(rows)


# ---------------------------------------------------------------------------
# linear algebra


def sparse_rank(rows):
    """Rank of rows given as {column: Fraction} dicts (Gaussian elimination)."""
    pivots = {}  # column -> normalized row with leading entry 1 at column
    for row in rows:
        row = dict(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = ONE / row[col]
                pivots[col] = {k: v * inv for k, v in row.items()}
                break
            f = row[col]
            for k, v in pivot.items():
                w = row.get(k, ZERO) - f * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    return len(pivots)


class Span:
    """Row space of a set of vectors, kept as an echelon basis."""

    def __init__(self, vectors=()):
        self.pivots = {}
        for v in vectors:
            self.add(v)

    def _reduce(self, v):
        v = list(v)
        for col in sorted(self.pivots):
            if v[col] != 0:
                f = v[col]
                p = self.pivots[col]
                v = [a - f * b for a, b in zip(v, p)]
        return v

    def add(self, v):
        r = self._reduce(v)
        for col, x in enumerate(r):
            if x != 0:
                inv = ONE / x
                self.pivots[col] = [y * inv for y in r]
                return True
        return False

    def contains(self, v):
        return all(x == 0 for x in self._reduce(v))

    @property
    def dim(self):
        return len(self.pivots)


def rref(rows, n):
    """Reduced row echelon form (zero rows dropped), leading entries 1."""
    m = [list(r) for r in rows]
    out = []
    for col in range(n):
        pivot = next((r for r in m if r[col] != 0), None)
        if pivot is None:
            continue
        m.remove(pivot)
        inv = ONE / pivot[col]
        pivot = [x * inv for x in pivot]
        m = [[a - r[col] * b for a, b in zip(r, pivot)] for r in m]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
    return out


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))] for i in range(len(a))]


def mat_vec(m, v):
    return [sum((row[k] * v[k] for k in range(len(v))), ZERO) for row in m]


def transpose(m):
    return [list(col) for col in zip(*m)]


def identity(n):
    return [unit(n, i) for i in range(n)]


def inverse(m):
    n = len(m)
    aug = [list(row) + unit(n, i) for i, row in enumerate(m)]
    reduced = rref(aug, 2 * n)
    if len(reduced) != n or any(reduced[i][i] != 1 for i in range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in reduced]


def det(m):
    n = len(m)
    a = [list(row) for row in m]
    out = ONE
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def exp_nilpotent(m):
    """exp(m) for nilpotent m, as the finite series."""
    n = len(m)
    out = identity(n)
    term = identity(n)
    for k in range(1, n + 1):
        term = [[x / k for x in row] for row in mat_mul(term, m)]
        if all(x == 0 for row in term for x in row):
            return out
        out = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(out, term)]
    raise ValueError("matrix is not nilpotent")


# ---------------------------------------------------------------------------
# polynomials


def parse_rational(text):
    num, _, den = str(text).strip().partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _monomial(pairs):
    merged = {}
    for var, e in pairs:
        merged[var] = merged.get(var, 0) + e
    return tuple(sorted((v, e) for v, e in merged.items() if e))


def parse_poly(text):
    """Parse 'term (+|- term)*' with terms like '-3/2*x^2*u_x' or 'a33'.

    This is the printed form of megalie polynomials and of the shipped
    fixtures; parentheses are not part of it and are rejected.
    """
    tokens = text.strip().split(" ")
    terms = [(1, tokens[0])]
    if len(tokens) % 2 != 1:
        raise ValueError(f"cannot parse polynomial {text!r}")
    for sign, body in zip(tokens[1::2], tokens[2::2]):
        if sign not in "+-" or len(sign) != 1:
            raise ValueError(f"cannot parse polynomial {text!r}")
        terms.append((1 if sign == "+" else -1, body))
    out = {}
    for sign, body in terms:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff = Fraction(sign)
        pairs = []
        for factor in body.split("*"):
            if not factor or "(" in factor or ")" in factor:
                raise ValueError(f"cannot parse polynomial {text!r}")
            if factor[0].isdigit():
                coeff *= parse_rational(factor)
            else:
                var, _, e = factor.partition("^")
                pairs.append((var, int(e) if e else 1))
        key = _monomial(pairs)
        out[key] = out.get(key, ZERO) + coeff
    return {k: v for k, v in out.items() if v != 0}


def poly_const(value):
    value = Fraction(value)
    return {(): value} if value else {}


def poly_var(name):
    return {((name, 1),): ONE}


def poly_add(p, q, scale=ONE):
    out = dict(p)
    for k, v in q.items():
        w = out.get(k, ZERO) + scale * v
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def poly_scale(p, q):
    q = Fraction(q)
    return {k: v * q for k, v in p.items()} if q else {}


def poly_mul(p, q):
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            key = _monomial(k1 + k2)
            w = out.get(key, ZERO) + v1 * v2
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def poly_deriv(p, var):
    out = {}
    for key, v in p.items():
        e = dict(key).get(var, 0)
        if e:
            new = _monomial([(w, f - 1 if w == var else f) for w, f in key])
            out[new] = out.get(new, ZERO) + v * e
    return {k: v for k, v in out.items() if v != 0}


def poly_compose(p, mapping):
    """p with every mapped variable replaced by its image polynomial."""
    out = {}
    for key, v in p.items():
        term = poly_const(v)
        for var, e in key:
            image = mapping.get(var, poly_var(var))
            for _ in range(e):
                term = poly_mul(term, image)
        out = poly_add(out, term)
    return out


def poly_eval(p, values):
    total = ZERO
    for key, v in p.items():
        for var, e in key:
            x = values[var]
            if x == 0:
                v = ZERO
                break
            v *= x**e
        total += v
    return total


def poly_of_megalie(p):
    """Read a megalie Poly's variable tuple and term dict into this form."""
    out = {}
    for exps, coeff in p.terms.items():
        key = _monomial([(var, e) for var, e in zip(p.variables, exps) if e])
        out[key] = out.get(key, ZERO) + Fraction(coeff)
    return {k: v for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# polynomial vector fields


def field_of_megalie(fld):
    return {var: poly_of_megalie(p) for var, p in fld.components.items() if p.terms}


def field_bracket(x, y, variables):
    """[X, Y]^v = X(Y^v) - Y(X^v)."""
    out = {}
    for v in variables:
        total = {}
        for w, xw in x.items():
            if v in y:
                total = poly_add(total, poly_mul(xw, poly_deriv(y[v], w)))
        for w, yw in y.items():
            if v in x:
                total = poly_add(total, poly_mul(yw, poly_deriv(x[v], w)), -ONE)
        if total:
            out[v] = total
    return out


def field_add(x, y, scale=ONE):
    out = dict(x)
    for v, p in y.items():
        q = poly_add(out.get(v, {}), p, scale)
        if q:
            out[v] = q
        else:
            out.pop(v, None)
    return out


def pushforward(forward, inverse_map, q, variables):
    """(T_* Q)^i = (sum_j Q^j d T^i / d z_j) composed with T^-1."""
    out = {}
    for v in variables:
        total = {}
        fwd = forward.get(v, poly_var(v))
        for w, qw in q.items():
            total = poly_add(total, poly_mul(qw, poly_deriv(fwd, w)))
        total = poly_compose(total, inverse_map)
        if total:
            out[v] = total
    return out


WAVE_VARIABLES = ("t", "x", "u", "u_x", "f", "g")


def wave_field(kind, p=None):
    """Wave-equation equivalence-algebra generators, from their formulas.

    D(p) = p dx - p_x u_x du_x + 2 p_x f df + p_xx u_x f dg
    G(p) = p du + p_x du_x - p_xx f dg
    """
    var = poly_var
    if kind in ("D", "G"):
        px = poly_deriv(p, "x")
        pxx = poly_deriv(px, "x")
        if kind == "D":
            field = {
                "x": p,
                "u_x": poly_scale(poly_mul(px, var("u_x")), -1),
                "f": poly_scale(poly_mul(px, var("f")), 2),
                "g": poly_mul(poly_mul(pxx, var("u_x")), var("f")),
            }
        else:
            field = {"u": p, "u_x": px, "g": poly_scale(poly_mul(pxx, var("f")), -1)}
    else:
        field = {
            "Du": {"u": var("u"), "u_x": var("u_x"), "g": var("g")},
            "Dt": {"t": var("t"), "f": poly_scale(var("f"), -2), "g": poly_scale(var("g"), -2)},
            "Pt": {"t": poly_const(1)},
            "F1": {"u": var("t")},
            "F2": {"u": poly_mul(var("t"), var("t")), "g": poly_const(2)},
        }[kind]
    return {v: q for v, q in field.items() if q}


def x_power(k, coeff=1):
    return {(("x", k),) if k else (): Fraction(coeff)} if coeff else {}


def field_coordinates(fields, target):
    """Coefficients of target over the given fields, or None if outside.

    Solves over the joint monomial basis by elimination on the augmented
    columns; the fields must be linearly independent.
    """
    keys = sorted({(v, k) for fld in list(fields) + [target] for v, p in fld.items() for k in p})
    m = len(fields)
    rows = []
    for v, k in keys:
        row = [fld.get(v, {}).get(k, ZERO) for fld in fields]
        row.append(target.get(v, {}).get(k, ZERO))
        rows.append(row)
    reduced = rref(rows, m + 1)
    if any(row[m] != 0 and all(x == 0 for x in row[:m]) for row in reduced):
        return None
    if len([row for row in reduced if any(x != 0 for x in row[:m])]) != m:
        raise ValueError("fields are linearly dependent")
    return [reduced[i][m] for i in range(m)]
