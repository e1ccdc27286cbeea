"""Parser fuzzing: mutated fixture files never crash the CLI.

Random subtrees of the shipped JSON fixtures are replaced by random JSON
values: non-ASCII digit strings, deeply nested parentheses, basis and
variable names, powers and products of any degree, and JSON nested far
past the decoder's recursion limit.  Whatever the input, `validate`,
`vf bracket-table` and `vf pushforward` answer with a documented exit code
(0-3) and never report an internal error.  The parser's degree and
expansion bounds and the work bound on substitutions keep every parse and
every push-forward of a mutated input cheap, under the shipped maps and
under an affine shear that mixes all six variables.
"""

import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megalie import cli

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


ALGEBRA = load("m5.json")
FIELDS = load("wave_eq_family.json")
SHEAR = {
    "variables": FIELDS["variables"],
    "forward": {"t": "t + x + u + u_x + f + g"},
    "inverse": {"t": "t - x - u - u_x - f - g"},
}
MAPS = [load(f"maps/{name}.json") for name in ("tshift", "uscale", "ugauge")] + [SHEAR]

NAMES = ALGEBRA["basis"] + FIELDS["variables"] + ["0", "4", "5"]
# non-ASCII digits and parentheses nested past any reasonable depth
ODD = ["²", "(" * 5000 + "u", "٣", "١٢*t", "t^" + "9" * 5000, "(t + u)*t^99"]
# powers around and far past the degree bound, alone and in products
powers = st.builds(
    lambda var, k, more: "*".join([f"{var}^{k}"] * more),
    st.sampled_from(["t", "u", "x", "(t + 1)"]),
    st.sampled_from([0, 1, 99, 100, 101, 2_000, 100_000]) | st.integers(0, 10**9),
    st.integers(1, 3),
)
# a marker string that becomes raw nested JSON text after dumping
DEEP = re.compile(r'"\\u0000deep(\d+)\\u0000"')

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False)
)
strings = st.one_of(
    st.sampled_from(NAMES),
    powers,
    st.text(alphabet="0123456789/+-*() tuxfg_٣²", max_size=12),
    st.text(max_size=6),
)
values = st.one_of(
    st.sampled_from(ODD),
    scalars,
    strings,
    st.sampled_from([40, 900, 100_000]).map(lambda d: f"\x00deep{d}\x00"),
    st.recursive(
        st.one_of(scalars, strings, st.sampled_from(ODD)),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(strings | st.sampled_from(ODD), children, max_size=3),
        max_leaves=6,
    ),
)


def paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def mutated(draw, document):
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(document))))
        document = replaced(document, path, draw(values))
    text = json.dumps(document, ensure_ascii=False)
    return DEEP.sub(lambda m: "[" * int(m[1]) + "]" * int(m[1]), text)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, argv, files):
    """cli.main on the given file texts; returns (exit code, stderr)."""
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(workdir / a) if a in files else a for a in argv])
    return code, stderr.getvalue()


def assert_handled(code, err):
    assert code in (0, 1, 2, 3), err
    assert "InternalError" not in err


@given(text=mutated(ALGEBRA))
@settings(max_examples=300, deadline=None)
def test_validate(workdir, text):
    assert_handled(*run(workdir, ["validate", "alg.json"], {"alg.json": text}))


@given(text=mutated(FIELDS))
@settings(max_examples=200, deadline=None)
def test_vf_bracket_table(workdir, text):
    assert_handled(*run(workdir, ["vf", "bracket-table", "f.json"], {"f.json": text}))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_vf_pushforward(workdir, data):
    pm = data.draw(st.sampled_from(MAPS))
    if data.draw(st.booleans()):
        files = {"f.json": data.draw(mutated(FIELDS)), "m.json": json.dumps(pm)}
    else:
        files = {"f.json": json.dumps(FIELDS), "m.json": data.draw(mutated(pm))}
    assert_handled(*run(workdir, ["vf", "pushforward", "f.json", "m.json"], files))
