"""The benchmark's workloads: inputs, timed operations and their checks.

lattice      analyze() on the filiform algebras L8 and L10 and on wave6, the
             span Du, Dt, Pt, F1, F2, G1 of the wave family.  The megaideal
             closure dominates; every parametrization is solved, so the
             enumeration and the inner-automorphism check run too.
elimination  analyze() on the Heisenberg algebra h3 (dim 7) and on diag8
             ([e0, ei] = i*ei).  The lattices are tiny; the time goes to
             expanding block determinants and to triangular elimination, and
             every input ends in a residual system.
wave         the vector-field front end: realize D(x^k), G(x^k) for k <= 8
             with the five fixed generators, the full ordered bracket table,
             push-forwards under the shipped maps and their compositions,
             structure extraction, and the CLI on the shipped fixtures.

lattice and elimination also run three short CLI commands (analyze m5,
vf extract m5, vf pushforward by tshift), so that the CLI, report and
vector-field layers do a little work on every workload.

Every input is built in code or read from fixtures/; out/ holds the golden
reports that `python scripts/analyze_fixtures.py` regenerates.
"""

from __future__ import annotations

import contextlib
import io
import json
from functools import cached_property

import checks
import oracle as o

WAVE_DEGREE = 8
MAPS = ("tshift", "uscale", "ugauge")
PAIRS = [(a, b) for a in MAPS for b in MAPS if a != b]  # composites a.then(b)
FIXED = ("Du", "Dt", "Pt", "F1", "F2")
M5_FIELDS = (("G1", "G0"), ("F1", "F1"), ("F2", "F2"), ("Pt", "Pt"), ("Dt", "Dt"))


class Op:
    """One timed operation: run(state) -> output, check(output, state, rng)."""

    def __init__(self, name, run, check, key=None):
        self.name = name
        self.run = run
        self.check = check
        self.key = key or (lambda output: output)


def call_cli(mg, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Expected:
    """Facts the checks compare against, built after timing and cached."""

    def __init__(self, root):
        self.root = root

    def text(self, rel):
        return (self.root / rel).read_text(encoding="utf-8")

    def bytes(self, rel):
        return (self.root / rel).read_bytes()

    def spec(self, kind, param=None):
        if kind == "filiform":
            return checks.Spec(kind, o.filiform(param), param)
        if kind == "heisenberg":
            return checks.Spec(kind, o.heisenberg(param), param)
        if kind == "diagonal":
            return checks.Spec(kind, o.diagonal(param), param)
        if kind == "wave6":
            return checks.Spec(kind, self.wave6)
        return checks.Spec(kind, o.algebra_from_json(json.loads(self.text(f"fixtures/{kind}.json"))))

    @cached_property
    def wave6(self):
        names = ("Du", "Dt", "Pt", "F1", "F2", "G1")
        fields = [o.wave_field(k) for k in names[:5]] + [o.wave_field("G", o.poly_const(1))]
        brackets = {}
        for i in range(6):
            for j in range(i + 1, 6):
                br = o.field_bracket(fields[i], fields[j], o.WAVE_VARIABLES)
                brackets[(i, j)] = dict(enumerate(o.field_coordinates(fields, br)))
        return o.algebra(names, brackets)

    @cached_property
    def fixture_fields(self):
        data = json.loads(self.text("fixtures/wave_eq_family.json"))
        return {
            f["name"]: {v: o.parse_poly(p) for v, p in f["components"].items()}
            for f in data["fields"]
        }

    @cached_property
    def maps(self):
        out = {}
        for name in MAPS:
            data = json.loads(self.text(f"fixtures/maps/{name}.json"))
            out[name] = tuple(
                {v: o.parse_poly(p) for v, p in data[section].items()}
                for section in ("forward", "inverse")
            )
        return out

    def pushed_fixture(self, map_name):
        fwd, inv = self.maps[map_name]
        return {
            name: o.pushforward(fwd, inv, fld, o.WAVE_VARIABLES)
            for name, fld in self.fixture_fields.items()
        }


def _cli_ops(mg, root, exp, full):
    """CLI commands on the shipped fixtures, each checked independently."""
    family = str(root / "fixtures" / "wave_eq_family.json")

    def analyze(kind, code):
        return Op(
            f"cli analyze {kind}",
            lambda state: call_cli(mg, ["analyze", str(root / "fixtures" / f"{kind}.json")]),
            lambda out, state, rng: checks.check_cli_analyze(
                out,
                code,
                exp.bytes(f"fixtures/{kind}.json"),
                exp.text(f"out/{kind}_analysis.json"),
                exp.spec(kind),
                rng,
            ),
        )

    def push(name):
        return Op(
            f"cli vf pushforward {name}",
            lambda state: call_cli(
                mg, ["vf", "pushforward", family, str(root / "fixtures" / "maps" / f"{name}.json")]
            ),
            lambda out, state, rng: checks.check_cli_fields(
                out, exp.pushed_fixture(name), f"vf pushforward {name}"
            ),
        )

    extract = Op(
        "cli vf extract m5",
        lambda state: call_cli(
            mg, ["vf", "extract", family, "--fields", "G1,F1,F2,Pt,Dt", "--name", "m5"]
        ),
        lambda out, state, rng: checks.check_cli_exact(
            out, exp.text("fixtures/m5.json"), "vf extract m5"
        ),
    )
    table = Op(
        "cli vf bracket-table",
        lambda state: call_cli(mg, ["vf", "bracket-table", family]),
        lambda out, state, rng: checks.check_cli_table(
            out, exp.fixture_fields, o.WAVE_VARIABLES
        ),
    )
    if full:
        return [analyze("m5", 0), analyze("sl2d", 3), table, extract] + [push(m) for m in MAPS]
    return [analyze("m5", 0), extract, push("tshift")]


def _analyze_op(mg, name, g, spec):
    return Op(
        f"analyze {name}",
        lambda state: mg.analysis.analyze(g),
        lambda report, state, rng: checks.check_report(report, spec(), rng),
    )


# ---------------------------------------------------------------------------


def _algebra(mg, name, names, brackets):
    return mg.algebra.algebra_from_brackets(name, names, brackets)


class Lattice:
    name = "lattice"

    def setup(self, mg, root):
        def filiform(n):
            names = [f"e{i}" for i in range(1, n + 1)]
            return _algebra(mg, f"L{n}", names, {(0, i): {i + 1: 1} for i in range(1, n - 1)})

        vf, poly = mg.vectorfield, mg.poly
        fields = [(k, vf.realize_family(k)) for k in FIXED]
        fields.append(("G1", vf.realize_family("G", poly.Poly.const(vf.FAMILY_VARIABLES, 1))))
        return {"L8": filiform(8), "L10": filiform(10), "wave6": vf.extract_structure(fields, name="wave6")}

    def ops(self, mg, root, inputs, exp):
        return [
            _analyze_op(mg, "L8", inputs["L8"], lambda: exp.spec("filiform", 8)),
            _analyze_op(mg, "L10", inputs["L10"], lambda: exp.spec("filiform", 10)),
            _analyze_op(mg, "wave6", inputs["wave6"], lambda: exp.spec("wave6")),
        ] + _cli_ops(mg, root, exp, full=False)


class Elimination:
    name = "elimination"

    def setup(self, mg, root):
        k = 3
        names = [f"x{i}" for i in range(1, k + 1)] + [f"y{i}" for i in range(1, k + 1)] + ["z"]
        h3 = _algebra(mg, "h3", names, {(i, k + i): {2 * k: 1} for i in range(k)})

        names = [f"e{i}" for i in range(8)]
        diag8 = _algebra(mg, "diag8", names, {(0, i): {i: i} for i in range(1, 8)})
        return {"h3": h3, "diag8": diag8}

    def ops(self, mg, root, inputs, exp):
        return [
            _analyze_op(mg, "h3", inputs["h3"], lambda: exp.spec("heisenberg", 3)),
            _analyze_op(mg, "diag8", inputs["diag8"], lambda: exp.spec("diagonal", 8)),
        ] + _cli_ops(mg, root, exp, full=False)


class Wave:
    name = "wave"

    def setup(self, mg, root):
        vf = mg.vectorfield
        maps = {}
        for name in MAPS:
            data = json.loads((root / "fixtures" / "maps" / f"{name}.json").read_text(encoding="utf-8"))
            maps[name] = vf.pointmap_from_dict(data)
        inverses = {name: vf.PointMap(pm.variables, pm.inverse, pm.forward) for name, pm in maps.items()}
        x = mg.poly.Poly.var(vf.FAMILY_VARIABLES, "x")
        params = [x**k for k in range(WAVE_DEGREE + 1)]
        return {"maps": maps, "inverses": inverses, "params": params}

    def ops(self, mg, root, inputs, exp):
        maps, inverses, params = inputs["maps"], inputs["inverses"], inputs["params"]

        def realize(state):
            vf = mg.vectorfield
            fields = [(k, vf.realize_family(k)) for k in FIXED]
            for k, p in enumerate(params):
                fields += [(f"D{k}", vf.realize_family("D", p)), (f"G{k}", vf.realize_family("G", p))]
            state["fields"] = fields
            return fields

        def table(state):
            fields = [f for _, f in state["fields"]]
            return {
                (i, j): mg.vectorfield.lie_bracket(a, b)
                for i, a in enumerate(fields)
                for j, b in enumerate(fields)
                if i != j
            }

        def extract(state):
            named = dict(state["fields"])
            return mg.vectorfield.extract_structure([(n, named[k]) for n, k in M5_FIELDS], name="m5")

        def compose(state):
            state["composites"] = [((a, b), maps[a].then(maps[b])) for a, b in PAIRS]
            return state["composites"]

        def verify(label, pm_of):
            return Op(
                f"verify_homomorphism {label}",
                lambda state: mg.vectorfield.verify_homomorphism(pm_of(state), state["fields"]),
                lambda out, state, rng: checks.check_homomorphism(out, len(state["fields"]), label),
            )

        def roundtrip(name):
            def run(state):
                push = mg.vectorfield.pushforward
                pushed = [push(maps[name], f) for _, f in state["fields"]]
                return pushed, [push(inverses[name], p) for p in pushed]

            return Op(
                f"pushforward roundtrip {name}",
                run,
                lambda out, state, rng: checks.check_roundtrip(out, state["fields"], exp.maps[name], name),
            )

        ops = [
            Op("realize family", realize, lambda out, state, rng: checks.check_realized(out)),
            Op("bracket table", table, lambda out, state, rng: checks.check_table(out, state["fields"], rng)),
            Op(
                "extract m5",
                extract,
                lambda out, state, rng: checks.check_extracted(out, exp.spec("m5")),
            ),
            Op(
                "compose maps",
                compose,
                lambda out, state, rng: checks.check_composites(out, exp.maps),
                key=lambda out: [(labels, pm.forward, pm.inverse) for labels, pm in out],
            ),
        ]
        ops += [verify(name, lambda state, name=name: maps[name]) for name in MAPS]
        ops += [
            verify(f"{a} then {b}", lambda state, pos=pos: state["composites"][pos][1])
            for pos, (a, b) in enumerate(PAIRS)
        ]
        ops += [roundtrip(name) for name in MAPS]
        return ops + _cli_ops(mg, root, exp, full=True)


WORKLOADS = {w.name: w for w in (Lattice(), Elimination(), Wave())}
