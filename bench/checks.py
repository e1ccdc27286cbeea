"""Checks of megalie's outputs against facts computed apart from it.

Each check returns a list of error strings; an empty list is a pass.  The
arithmetic is the benchmark's own (oracle.py).  Randomness comes only from
the `random.Random` passed in, which the runner seeds from --seed, so a seed
fixes every sampled automorphism, parameter value and Jacobi triple.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import oracle as o

SAMPLES = 3  # sampled automorphisms per solved parametrization
JACOBI_TRIPLES = 40

# README facts for m5 (basis G1, F1, F2, Pt, Dt).
M5_FREE = ["a15", "a25", "a33", "a35", "a44", "a45"]
M5_RELATIONS = [
    ("a55", "1"),
    ("a34", "0"),
    ("a24", "a44*a35"),
    ("a14", "a44*a25 - a45*a24"),
    ("a22", "a33*a44"),
    ("a11", "a33*a44^2"),
    ("a12", "a33*a44*a45"),
    ("a23", "2*a33*a45"),
    ("a13", "a33*a45^2"),
]
# The five listed invariant spans plus 0 and g, as basis index sets.
M5_INVARIANT = {(), (0,), (0, 1), (0, 1, 2), (0, 1, 3), (0, 1, 2, 3), (0, 1, 2, 3, 4)}


class Spec:
    """What is known about one analyzed algebra, independently of megalie."""

    def __init__(self, kind, algebra, param=None):
        self.kind = kind  # filiform | wave6 | m5 | sl2d | heisenberg | diagonal
        self.names, self.c = algebra
        self.n = len(self.names)
        self.param = param


def nonzero_rational(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3]))


def rows_of(strings):
    return [[o.parse_rational(x) for x in row] for row in strings]


def _invariant(m, rows):
    span = o.Span(rows)
    return all(span.contains(o.mat_vec(m, row)) for row in rows)


def _blocks(a, sizes):
    out, start = [], 0
    for size in sizes:
        out.append([row[start : start + size] for row in a[start : start + size]])
        start += size
    return out


# ---------------------------------------------------------------------------
# analysis reports


def check_report(report, spec, rng):
    errors = []
    names, c = o.algebra_from_json(report["algebra"])
    if names != spec.names or c != spec.c:
        return [f"{spec.kind}: report algebra differs from the independently built one"]
    if report["validation"]["ok"] is not True:
        return [f"{spec.kind}: validation failed"]
    n = spec.n
    members = [rows_of(m["basis"]) for m in report["lattice"]["members"]]
    for rows, m in zip(members, report["lattice"]["members"]):
        span = o.Span(rows)
        if span.dim != m["dim"] or len(rows) != m["dim"]:
            errors.append(f"{spec.kind}: member {m['provenance']} has the wrong dimension")
        if not all(span.contains(o.bracket(c, n, o.unit(n, i), row)) for i in range(n) for row in rows):
            errors.append(f"{spec.kind}: member {m['provenance']} is not an ideal")
    errors += _closed_form(report, spec, members)

    aut = report["automorphisms"]
    b_t = o.transpose(rows_of(report["adapted_basis"]["change_of_basis"]))
    b_t_inv = o.inverse(b_t)
    system = {
        "pattern": aut["shape"],
        "assignments": {k: o.parse_poly(v) for k, v in aut["assignments"].items()},
        "residual": [o.parse_poly(e) for e in aut["residual_equations"]],
        "side": [o.parse_poly(s) for s in aut["side_conditions"]],
        "blocks": report["adapted_basis"]["block_sizes"],
    }
    shape_names = [name for row in aut["shape"] for name in row if name != "0"]
    unknowns = set(aut["free_parameters"]) | set(aut["assignments"])
    if sorted(shape_names) != sorted(unknowns) or set(aut["free_parameters"]) & set(aut["assignments"]):
        return errors + [f"{spec.kind}: shape, free parameters and assignments do not match"]
    if not aut["residual_equations"]:
        errors += _check_solved(report, spec, members, system, b_t, b_t_inv, rng)
    else:
        errors += _check_residual(report, spec, members, system, b_t, b_t_inv, rng)
    return errors


def _closed_form(report, spec, members):
    n = spec.n
    aut = report["automorphisms"]
    identity = o.identity(n)
    if spec.kind == "filiform":
        expected = [identity[n - d :] for d in range(n + 1)]
        if members != expected:
            return ["filiform: lattice is not {0, g} plus the lower central series, dims 0..n"]
    elif spec.kind == "wave6":
        invariant = aut.get("invariant_coordinate_subspaces") or []
        got = (len(members), len(aut["free_parameters"]), len(invariant))
        if got != (13, 6, 10):
            return [f"wave6: (members, free parameters, invariant spans) = {got}, expected (13, 6, 10)"]
    elif spec.kind == "m5":
        if sorted(aut["free_parameters"]) != M5_FREE:
            return [f"m5: free parameters {aut['free_parameters']}"]
        spans = set()
        for s in aut.get("invariant_coordinate_subspaces") or []:
            rows = rows_of(s["basis"])
            support = tuple(row.index(1) for row in rows)
            if any(sum(1 for x in row if x != 0) != 1 for row in rows):
                return ["m5: an invariant span is not a coordinate span"]
            spans.add(support)
        if spans != M5_INVARIANT:
            return [f"m5: invariant spans {sorted(spans)}"]
    elif spec.kind == "sl2d":
        if [len(m) for m in members] != [0, n] or not aut["residual_equations"]:
            return ["sl2d: expected the lattice {0, g} and a residual system"]
    elif spec.kind in ("heisenberg", "diagonal"):
        middle = identity[n - 1 :] if spec.kind == "heisenberg" else identity[1:]
        if members != [[], middle, identity]:
            return [f"{spec.kind}: lattice is not 0, the {'center' if spec.kind == 'heisenberg' else 'derived algebra'} and g"]
    return []


def _values_from_matrix(a, pattern):
    values = {}
    errors = []
    for i, row in enumerate(pattern):
        for j, name in enumerate(row):
            if name == "0":
                if a[i][j] != 0:
                    errors.append(f"entry ({i + 1},{j + 1}) is forced zero but is {a[i][j]}")
            else:
                values[name] = a[i][j]
    return values, errors


def _matrix_from_values(values, pattern):
    return [[Fraction(0) if name == "0" else values[name] for name in row] for row in pattern]


def _side_errors(a, system, label):
    errors = []
    values, _ = _values_from_matrix(a, system["pattern"])
    for k, (side, block) in enumerate(zip(system["side"], _blocks(a, system["blocks"]))):
        d = o.det(block)
        if d == 0 or o.poly_eval(side, values) != d:
            errors.append(f"{label}: side condition {k} is not the nonzero block determinant")
    return errors


def _check_solved(report, spec, members, system, b_t, b_t_inv, rng):
    errors = []
    aut = report["automorphisms"]
    der = o.derivation_dim(spec.c, spec.n)
    if len(aut["free_parameters"]) != der:
        errors.append(f"{spec.kind}: {len(aut['free_parameters'])} free parameters but dim Der(g) = {der}")
    inner = report.get("inner_consistency")
    if not inner or inner.get("ok") is not True:
        errors.append(f"{spec.kind}: inner-automorphism consistency is not ok")
    invariant = [rows_of(s["basis"]) for s in aut.get("invariant_coordinate_subspaces") or []]
    if not invariant:
        errors.append(f"{spec.kind}: no invariant coordinate subspaces listed")
    for sample in range(SAMPLES):
        for _ in range(50):
            values = {name: nonzero_rational(rng) for name in aut["free_parameters"]}
            for name, poly in system["assignments"].items():
                values[name] = o.poly_eval(poly, values)
            a = _matrix_from_values(values, system["pattern"])
            if all(o.det(block) != 0 for block in _blocks(a, system["blocks"])):
                break
        else:
            return errors + [f"{spec.kind}: no admissible parameter values found"]
        label = f"{spec.kind} sample {sample}"
        errors += _side_errors(a, system, label)
        if spec.kind == "m5":
            for lhs, rhs in M5_RELATIONS:
                if values[lhs] != o.poly_eval(o.parse_poly(rhs), values):
                    errors.append(f"{label}: README relation {lhs} = {rhs} fails")
        m = o.mat_mul(o.mat_mul(b_t, a), b_t_inv)
        if not o.is_automorphism(spec.c, spec.n, m):
            errors.append(f"{label}: sampled matrix does not preserve every bracket")
            continue
        for rows in members + invariant:
            if not _invariant(m, rows):
                errors.append(f"{label}: a listed subspace is not invariant")
                break
    return errors


def known_automorphisms(spec, rng):
    """Automorphisms built from closed forms, in the original basis."""
    n, c = spec.n, spec.c
    out = [("identity", o.identity(n))]
    exps = []
    for i in range(n):
        ad = o.ad_matrix(c, n, i)
        power = o.identity(n)
        for _ in range(n):
            power = o.mat_mul(power, ad)
        if all(x == 0 for row in power for x in row):
            t = nonzero_rational(rng)
            exp = o.exp_nilpotent([[t * x for x in row] for row in ad])
            exps.append((f"exp({t} ad {spec.names[i]})", exp))
    out += exps
    scales = None
    if spec.kind == "sl2d":  # the torus: D1 -> l D1, Dx -> Dx, Dx2 -> Dx2 / l
        lam = nonzero_rational(rng)
        scales = [lam, Fraction(1), 1 / lam]
    elif spec.kind == "diagonal":
        scales = [Fraction(1)] + [nonzero_rational(rng) for _ in range(n - 1)]
    elif spec.kind == "heisenberg":
        a = [nonzero_rational(rng) for _ in range(spec.param)]
        z = nonzero_rational(rng)
        scales = a + [z / x for x in a] + [z]
    if scales is not None:
        scaling = [[scales[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        out.append(("scaling", scaling))
        if exps:
            out.append((f"scaling after {exps[0][0]}", o.mat_mul(scaling, exps[0][1])))
    return out


def _check_residual(report, spec, members, system, b_t, b_t_inv, rng):
    errors = []
    for label, m in known_automorphisms(spec, rng):
        label = f"{spec.kind} {label}"
        if not o.is_automorphism(spec.c, spec.n, m):
            errors.append(f"{label}: the benchmark's own automorphism is wrong")
            continue
        for rows in members:
            if not _invariant(m, rows):
                errors.append(f"{label}: a lattice member is not invariant")
                break
        a = o.mat_mul(o.mat_mul(b_t_inv, m), b_t)
        values, shape_errors = _values_from_matrix(a, system["pattern"])
        errors += [f"{label}: {e}" for e in shape_errors]
        if shape_errors:
            continue
        for name, poly in system["assignments"].items():
            if values[name] != o.poly_eval(poly, values):
                errors.append(f"{label}: assignment for {name} fails")
        for k, eq in enumerate(system["residual"]):
            if o.poly_eval(eq, values) != 0:
                errors.append(f"{label}: residual equation {k} fails")
        errors += _side_errors(a, system, label)
    return errors


# ---------------------------------------------------------------------------
# CLI outputs


def check_cli_analyze(result, expected_code, fixture_bytes, golden_text, spec, rng):
    code, out, err = result
    if code != expected_code:
        return [f"analyze {spec.kind}: exit {code}, expected {expected_code}"]
    block = f'  "input": {{\n    "sha256": "{hashlib.sha256(fixture_bytes).hexdigest()}"\n  }},\n'
    at = golden_text.index('  "algebra": ')
    if out != golden_text[:at] + block + golden_text[at:]:
        return [f"analyze {spec.kind}: report is not byte-equal to the golden report"]
    return check_report(json.loads(out), spec, rng)


def check_cli_exact(result, expected_text, label):
    code, out, err = result
    if code != 0:
        return [f"{label}: exit {code}"]
    if out != expected_text:
        return [f"{label}: output differs from the expected bytes"]
    return []


def check_cli_fields(result, expected, label):
    """A field-list JSON on stdout whose fields equal expected {name: field}."""
    code, out, err = result
    if code != 0:
        return [f"{label}: exit {code}"]
    data = json.loads(out)
    got = {f["name"]: {v: o.parse_poly(p) for v, p in f["components"].items()} for f in data["fields"]}
    if list(got) != list(expected):
        return [f"{label}: field names {list(got)}"]
    return [f"{label}: field {name} differs" for name in expected if got[name] != expected[name]]


def check_cli_table(result, fixture_fields, variables):
    code, out, err = result
    if code != 0:
        return [f"bracket-table: exit {code}"]
    table = json.loads(out)
    names = list(fixture_fields)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    entries = table["brackets"]
    if [(e["left"], e["right"]) for e in entries] != pairs:
        return ["bracket-table: wrong pairs"]
    errors = []
    for e in entries:
        got = {v: o.parse_poly(p) for v, p in e["bracket"].items()}
        want = o.field_bracket(fixture_fields[e["left"]], fixture_fields[e["right"]], variables)
        if got != want:
            errors.append(f"bracket-table: [{e['left']},{e['right']}] differs")
    return errors


# ---------------------------------------------------------------------------
# vector-field front end


def expected_wave_field(name):
    if name[0] in "DG" and name[1:].isdigit():
        return o.wave_field(name[0], o.x_power(int(name[1:])))
    return o.wave_field(name)


def check_realized(fields):
    errors = []
    for name, fld in fields:
        if o.field_of_megalie(fld) != expected_wave_field(name):
            errors.append(f"realize: {name} differs from its formula")
    return errors


def check_table(table, fields, rng):
    """Full ordered table {(i, j): [Fi, Fj]} against the oracle and closed forms."""
    v = o.WAVE_VARIABLES
    names = [name for name, _ in fields]
    ours = [expected_wave_field(name) for name in names]
    got = {key: o.field_of_megalie(br) for key, br in table.items()}
    errors = []
    for (i, j), br in got.items():
        if br != o.field_bracket(ours[i], ours[j], v):
            errors.append(f"table: [{names[i]},{names[j]}] differs from the oracle bracket")
        if o.field_add(br, got[(j, i)]) != {}:
            errors.append(f"table: [{names[i]},{names[j]}] is not antisymmetric")
    index = {name: i for i, name in enumerate(names)}
    degrees = [int(name[1:]) for name in names if name[0] == "D" and name[1:].isdigit()]
    for k in degrees:
        for m in degrees:
            if k == m:
                continue
            dd = got[(index[f"D{k}"], index[f"D{m}"])]
            if dd != o.wave_field("D", o.x_power(k + m - 1, m - k)):
                errors.append(f"table: [D(x^{k}),D(x^{m})] breaks the closed form")
            dg = got[(index[f"D{k}"], index[f"G{m}"])]
            if dg != o.wave_field("G", o.x_power(k + m - 1, m)):
                errors.append(f"table: [D(x^{k}),G(x^{m})] breaks the closed form")
    count = len(names)
    for _ in range(JACOBI_TRIPLES):
        a, b, c = rng.sample(range(count), 3)
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            total = o.field_add(total, o.field_bracket(ours[x], got[(y, z)], v))
        if total:
            errors.append(f"table: Jacobi fails on ({names[a]},{names[b]},{names[c]})")
    return errors


def check_extracted(algebra, spec):
    names, c, n = spec.names, spec.c, spec.n
    if tuple(algebra.basis_names) != names:
        return ["extract: basis names differ"]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if Fraction(algebra.c[i][j][k]) != c.get((i, j), {}).get(k, 0):
                    return [f"extract: constant c[{i}][{j}][{k}] differs from the fixture"]
    return []


def check_composites(composites, oracle_maps):
    errors = []
    for (first, second), pm in composites:
        f1, i1 = oracle_maps[first]
        f2, i2 = oracle_maps[second]
        for v in pm.variables:
            fwd = o.poly_compose(f2.get(v, o.poly_var(v)), f1)
            inv = o.poly_compose(i1.get(v, o.poly_var(v)), i2)
            if o.poly_of_megalie(pm.forward[v]) != fwd or o.poly_of_megalie(pm.inverse[v]) != inv:
                errors.append(f"compose: {first} then {second} differs on {v}")
    return errors


def check_homomorphism(outcome, field_count, label):
    pairs = field_count * (field_count - 1) // 2
    if outcome.get("ok") is not True or outcome.get("pairs") != pairs or outcome.get("failures"):
        failures = outcome.get("failures") or []
        return [f"verify_homomorphism {label}: ok={outcome.get('ok')}, pairs={outcome.get('pairs')}, {len(failures)} failing pairs"]
    return []


def check_roundtrip(result, fields, oracle_map, label):
    pushed, back = result
    fwd, inv = oracle_map
    errors = []
    for (name, fld), p, q in zip(fields, pushed, back):
        ours = o.field_of_megalie(fld)
        if o.field_of_megalie(q) != ours:
            errors.append(f"roundtrip {label}: {name} does not come back")
        if o.field_of_megalie(p) != o.pushforward(fwd, inv, ours, o.WAVE_VARIABLES):
            errors.append(f"roundtrip {label}: pushforward of {name} differs from the oracle")
    return errors
