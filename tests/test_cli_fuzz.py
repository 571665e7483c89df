"""Command-line fuzzing: every argv ends in an answer or a clean user error.

Argument vectors are drawn from the subcommands, their flags, plausible
values and junk tokens, and run through ``cli.main`` in this one process.
Help flags are left out: they print and exit by design.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aperykit import cli

COMMANDS = ["analyze", "apery", "typeset", "affine", "hasse", "staircase", "verify"]
FLAGS = [
    "--gens", "--wrt", "--order", "--strategy", "--dump-basis", "--format",
    "--dim", "--lambda", "--x-order", "--axes", "--fix", "--extent", "--count",
    "--seed", "--kmin", "--kmax", "--max-gen", "--homology", "--nope", "-x", "--",
    "--format=json", "--format=text", "--gens=3,5,7",
]
VALUES = [
    "json", "text", "dot", "scan", "direct", "lex", "revlex", "grevlex",
    "3,5,7", "7,8,9,13", "2,3", "1", "4,6", "3,5,5", "5,3", "0,3", "", ",",
    "a,b", "2,0;1,1;0,2", "1,0;0,1", "0,0", "1,2;2,1", "2;3", "1,2,3",
    "apery:j=3,inner=1-2,revlex", "apery:j=2,inner=1,lex",
    "apery:j=4,inner=1-3-2,revlex", "apery:j=1", "apery:", "y1,y2", "x,y1",
    "y1", "y9,x", "x=1", "y3=0", "y1=", "8,8", "3", "-1", "1,1",
]


def _is_help(token: str) -> bool:
    return token.startswith("-h") or (len(token) >= 3 and "--help".startswith(token))


JUNK = st.text(alphabet="-=,;:xy0123456789abc ", max_size=6).filter(
    lambda t: not _is_help(t) and not t.startswith("--f")
)
TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    st.sampled_from(VALUES),
    st.integers(-3, 30).map(str),
    JUNK,
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS + ["nope", ""]))
    argv = [command] + draw(st.lists(TOKENS, max_size=8))
    if command == "verify":
        # keep the seeded sweep small; the last occurrence of a flag wins
        argv += ["--count", "2", "--max-gen", "20"]
    return argv


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def json_requested(argv) -> bool:
    """True when the last ``--format`` before any ``--`` asks for json."""
    if "--" in argv:
        argv = argv[: argv.index("--")]
    fmt = None
    for i, token in enumerate(argv):
        if token == "--format" and i + 1 < len(argv):
            fmt = argv[i + 1]
        elif token.startswith("--format="):
            fmt = token[len("--format="):]
    return fmt == "json"


PROBES = [
    ["analyze", "--gens", "3,5,7"],
    ["apery", "--gens", "7,8,9,13", "--wrt", "13", "--dump-basis"],
    ["typeset", "--gens", "7,8,9,13", "--format", "text"],
]
FRESH = [invoke(argv) for argv in PROBES]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(argvs())
def test_every_argv_answers_or_fails_cleanly(argv):
    code, out, err = invoke(argv)
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        # json is also the default format of most subcommands
        try:
            payload = json.loads(err)
        except ValueError:
            assert not json_requested(argv), (argv, err)
            assert "error:" in err, (argv, err)
        else:
            assert set(payload) == {"error", "kind"}, (argv, err)
            assert payload["kind"] == "user"
    for probe, fresh in zip(PROBES, FRESH):
        assert invoke(probe) == fresh, (argv, probe)


def test_verify_rejects_k_ranges_without_a_monoid():
    # these used to draw generator sets forever
    for extra in (["--kmin", "1", "--kmax", "1"], ["--kmin", "3", "--kmax", "3", "--max-gen", "4"]):
        code, _, err = invoke(["verify", "--count", "1"] + extra)
        assert code == 1
        assert "no k in" in json.loads(err)["error"]
