"""Command-line behavior: output shape, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from coxkit import cli, core
from coxkit.automata import build_automaton
from coxkit.cli import build_parser, main
from coxkit.core import CoxeterSystem, coxeter_matrix_from_descriptor
from coxkit.field import AlgebraicNumber
from coxkit.roots import root_poset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _env(**extra):
    """The environment of a fresh `python3 -m coxkit` from the checkout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _coxkit(*argv, **env):
    """(exit code, stdout, stderr) of `python3 -m coxkit argv`."""
    proc = subprocess.run([sys.executable, "-m", "coxkit", *argv], env=_env(**env),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_roots_text(capsys):
    code, out, err = run(capsys, "roots", "A3", "--max-depth", "6")
    assert code == 0
    assert "depth 0:" in out
    assert out.rstrip().endswith("6 roots")


def test_roots_json_and_covers(capsys):
    code, out, _ = run(capsys, "roots", "~A2", "--max-depth", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 3
    assert len(obj["roots"]) == 12
    letters = {c[2] for c in obj["covers"]}
    assert letters <= {1, 2, 3}



@pytest.mark.parametrize("spec, depth", [("H3", 20), ("~G2", 8), ("U3", 5),
                                         ("[[1,3,3],[3,1,4],[3,4,1]]", 5)])
def test_roots_json_coords_are_each_coordinate_as_text(capsys, spec, depth):
    """The "coords" of every root are str of its coordinates, in poset
    order, over Q, Q(sqrt 5) and Q(sqrt 2)."""
    code, out, _ = run(capsys, "roots", spec, "--max-depth", str(depth), "--json")
    assert code == 0
    poset = root_poset(CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec)), max_depth=depth)
    assert [r["coords"] for r in json.loads(out)["roots"]] == \
        [[str(c) for c in r.coords] for r in poset.roots]

def test_roots_dot_file(tmp_path, capsys):
    target = tmp_path / "poset.dot"
    code, _, _ = run(capsys, "roots", "A2", "--max-depth", "3",
                     "--dot", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_automaton_series(capsys):
    code, out, _ = run(capsys, "automaton", "~A2", "--kind", "pref",
                       "--series", "--terms", "8")
    assert code == 0
    assert "states: 16" in out
    assert "series coefficients:" in out


# The stdout of `automaton <spec> --kind <kind> --series` as counted on
# the full automaton, 2n + 5 words per length before Berlekamp-Massey:
# its SHA-256, the denominator's degree and the last line.
HEAVY_SERIES = [
    ("~A4", "red", "7f26e37dc140c811b4ea83cbdbb2eb1bff83f4bbf9163e513b78d388ca64aab8", 54,
     "series coefficients: ['1', '5', '20', '70', '230', '700', '2080', '5910', '16310', '43890', '115900', '297850']"),
    ("~A4", "pref", "b64780744d6da696523be1a738f4ad939a668e7b2fc10d7c93c0e54bdec87277", 4,
     "series coefficients: ['0', '5', '10', '20', '40', '40', '80', '160', '320', '320', '640', '1280']"),
    ("~D4", "red", "eeb31fd1124205e056680d9a55ea6f7551e6d362c789b49f7588c5d7b12fa086", 80,
     "series coefficients: ['1', '5', '20', '68', '204', '600', '1752', '4800', '12696', '33000', '85896', '219288']"),
    ("~D4", "pref", "58e1c1f1d84b9db910b7d4d856037e1ba16c47215389f6a6705bbc83edf09ad3", 5,
     "series coefficients: ['0', '5', '8', '24', '48', '96', '96', '240', '720', '1440', '2880', '2880']"),
]


@pytest.mark.parametrize("spec, kind, digest, degree, last", [
    pytest.param(*case, id="%s-%s" % case[:2]) for case in HEAVY_SERIES])
def test_heavy_automaton_series_prints_what_the_full_count_printed(
        capsys, spec, kind, digest, degree, last):
    code, out, _ = run(capsys, "automaton", spec, "--kind", kind, "--series")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == last
    assert lines[2].split(" den ")[1].count(",") == degree
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_automaton_json(capsys):
    code, out, _ = run(capsys, "automaton", "A2", "--json", "--series")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "red"
    assert obj["series"]["num"] == ["1", "2", "2", "2"]
    assert obj["series"]["den"] == ["1"]


def test_reflections_census(capsys):
    code, out, _ = run(capsys, "reflections", "A2", "--max-length", "3")
    assert code == 0
    assert "census by length: 1:2 3:1" in out


def test_prefixes_of_reflection(capsys):
    code, out, _ = run(capsys, "prefixes", "A3", "12321", "--json")
    assert code == 0
    obj = json.loads(out)
    assert sorted(obj["prefixes"]) == ["123", "132", "321"]
    assert obj["palindrome"] == "12321"


def test_prefixes_word_check(capsys):
    code, out, _ = run(capsys, "prefixes", "A3", "12")
    assert code == 0
    assert "reflection-prefix of" in out
    code, out, _ = run(capsys, "prefixes", "A3", "21")
    assert code == 0
    assert "reflection-prefix of" in out


def test_prefixes_identity_is_domain_error(capsys):
    code, _, err = run(capsys, "prefixes", "A3", "e")
    assert code == 4
    assert "error" in err


@pytest.mark.parametrize("word, kind", [("12321", "reflection"), ("123", "123: reflection-prefix")])
def test_prefixes_tests_the_word_once(capsys, monkeypatch, word, kind):
    """A reflection lists its prefixes and any other word is checked as a
    prefix; either way one job calls is_reflection once."""
    real = core.is_reflection
    calls = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coxkit" and getattr(module, "is_reflection", None) is real:
            monkeypatch.setattr(module, "is_reflection", lambda w: calls.append(w) or real(w))
    code, out, _ = run(capsys, "prefixes", "A3", word)
    assert (code, out.startswith(kind), len(calls)) == (0, True, 1)


def test_dihedral_pinned(capsys):
    code, out, _ = run(capsys, "dihedral", "[[1,3,3],[3,1,4],[3,4,1]]",
                       "3123213", "3132313", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["canonical"] == ["1", "31213"]
    assert obj["order_m"] == 4


def test_dihedral_rejects_non_reflection(capsys):
    code, _, err = run(capsys, "dihedral", "A3", "12", "2")
    assert code == 4


def test_dihedral_equal_reflections_are_a_domain_error(capsys):
    code, out, err = run(capsys, "dihedral", "A3", "1", "1")
    assert code == 4
    assert out == ""
    assert err == "error: the two reflections must be distinct\n"


def test_affine_text(capsys):
    code, out, _ = run(capsys, "affine", "~A2", "--terms", "5")
    assert code == 0
    assert "orbit 1 (size 3)" in out
    assert "depth series" in out
    assert "reflection series" in out


def test_affine_json(capsys):
    code, out, _ = run(capsys, "affine", "~B3", "--json", "--terms", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["depth_period"] == 20
    assert obj["orbit_series"][0]["M"] in (3, 4)


def test_affine_rejects_finite_type(capsys):
    code, _, _ = run(capsys, "affine", "A3")
    assert code == 2


def test_bad_spec_exit_code(capsys):
    code, _, _ = run(capsys, "roots", "Z9", "--max-depth", "3")
    assert code == 2


def test_limit_exit_code(capsys):
    code, _, _ = run(capsys, "roots", "~A2", "--max-depth", "40",
                     "--max-roots", "20")
    assert code == 3


def test_automaton_state_cap_exit_code(capsys):
    code, out, err = run(capsys, "automaton", "~E8", "--max-elements", "1000")
    assert code == 3
    assert out == ""
    assert "1000 states" in err


def test_automaton_small_root_cap_exit_code(capsys):
    # U4 has 1,062,880 11-small roots; the cap stops their enumeration
    code, out, err = run(capsys, "automaton", "U4", "--m", "11", "--max-elements", "10")
    assert (code, out, err) == (3, "", "error: root enumeration exceeded 10\n")


def test_field_degree_cap_exit_code(capsys):
    # Q(2cos(pi/4001)) has degree 2000, Q(2cos(pi/1009)) degree 504
    code, out, err = run(capsys, "roots", "I2(4001)", "--max-depth", "1")
    assert (code, out) == (3, "")
    assert err == "error: the field Q(2cos(pi/4001)) has degree over 1024\n"
    code, out, _ = run(capsys, "roots", "I2(1009)", "--max-depth", "1")
    assert code == 0 and out.endswith("4 roots\n")


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_terms_past_the_digit_limit_exit_3(capsys, extra):
    # U8 words grow like 7^k: q^5089 has 4301 digits, one more than
    # str() converts by default, and nothing is printed before the guard
    code, out, err = run(capsys, "automaton", "U8", "--series",
                         "--terms", "5200", *extra)
    assert code == 3
    assert out == ""
    assert err.startswith("error: the coefficient of q^5089 has more than")
    assert err.rstrip().endswith("lower --terms")
    assert len(err.splitlines()) == 1


def test_parser_built_once_per_process(capsys, monkeypatch):
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    example = ["automaton", "A2", "--m", "0", "--series", "--terms", "6"]
    assert main(example) == 0
    first = capsys.readouterr().out
    assert main(["automaton", "A3", "--terms", "-1"]) == 2
    assert capsys.readouterr().err.startswith("usage: coxkit automaton")
    assert main(["dihedral", "A3", "1", "1"]) == 4
    capsys.readouterr()
    assert main(example) == 0
    assert capsys.readouterr().out == first
    assert len(builds) == 1
    cli._parser.cache_clear()
    assert build_parser() is not build_parser()


def test_mem_cap_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("COXKIT_MAX_MEM", "lots")
    code, _, err = run(capsys, "roots", "A2", "--max-depth", "2")
    assert code == 2
    assert "COXKIT_MAX_MEM" in err


def _address_space_cap_holds():
    """Whether a fresh interpreter under RLIMIT_AS = 150 MB fails to map
    300 MB (mapped, never touched, so an unenforced cap costs nothing)."""
    probe = ("import mmap, resource\n"
             "resource.setrlimit(resource.RLIMIT_AS, (150_000_000, 150_000_000))\n"
             "try:\n    mmap.mmap(-1, 300_000_000)\nexcept OSError:\n    raise SystemExit(7)\n")
    try:
        import resource  # noqa: F401
    except ImportError:
        return False
    return subprocess.run([sys.executable, "-c", probe], timeout=60).returncode == 7


def test_mem_cap_exits_3_in_a_fresh_process():
    """The documented COXKIT_MAX_MEM guard: the U4 poset past depth 10
    outgrows 150 MB and exits 3 with one line, never a traceback."""
    if not _address_space_cap_holds():
        pytest.skip("RLIMIT_AS is not enforced here")
    code, out, err = _coxkit("roots", "U4", "--max-depth", "11", "--max-roots", "5000000",
                             COXKIT_MAX_MEM="150000000")
    assert (code, out, err) == (3, "", "error: memory cap exceeded\n")
    code, out, err = _coxkit("roots", "A2", "--max-depth", "2", COXKIT_MAX_MEM="abc")
    assert (code, out) == (2, "")
    assert err == "error: COXKIT_MAX_MEM must be an integer byte count\n"


def _read_one_line_and_close(argv, first, **env):
    """Run coxkit with a reader that takes one line, which must be first,
    and closes the pipe, as `head -1` does; coxkit must exit 128 +
    SIGPIPE with nothing on stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "coxkit", *argv], env=_env(**env),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert b"Traceback" not in err
    assert err == b""


def test_closed_pipe_exits_141_without_a_traceback():
    """The census goes out a line at a time, 259 KB in all, far past a
    default 64 KiB pipe, so a later write fails."""
    _read_one_line_and_close(["reflections", "~A2", "--max-length", "401"],
                             b"1  length=1  palindrome=1\n")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [("roots", "U4", "--max-depth", "5", "--json"),
                                  ("automaton", "~B3", "--json")], ids=["roots", "automaton"])
def test_closed_pipe_exits_141_after_one_large_write(argv, unbuffered):
    """A report written in one call, 351 KB and 110 KB here, past a 64 KiB
    pipe: the closing reader leaves part of the write untaken, and over
    the unbuffered binary layer of PYTHONUNBUFFERED the text layer drops
    that part without an error unless coxkit writes it again."""
    _read_one_line_and_close(argv, b"{\n", PYTHONUNBUFFERED=unbuffered)


def test_output_is_deterministic(capsys):
    argv = ("automaton", "~C2", "--m", "1", "--kind", "pref", "--series",
            "--terms", "10", "--json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_dihedral_infinite_pair_in_all_infinite_group(capsys):
    # the all-infinite U3 form is rational, with Gram entries -1: its
    # Cartan coefficients 2B/|a|^2 must not become an int/int division,
    # whose floats would keep this call from finishing
    code, out, _ = run(capsys, "dihedral", "U3", "13213131231", "121313121")
    assert code == 0
    assert out == ("canonical generators: {121313121, 13213131231}, "
                   "m = infinite-or-large\n")


def test_reflections_of_e6(capsys):
    # E6's 36 positive roots, of depth at most 10, give its 36 reflections
    start = time.perf_counter()
    code, out, _ = run(capsys, "reflections", "E6", "--max-length", "37")
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 37
    assert lines[-1] == ("census by length: 1:6 3:5 5:5 7:5 9:4 11:3 13:3 "
                         "15:2 17:1 19:1 21:1")
    assert elapsed < 12.0


# Kostant: in a simply laced finite group the roots of height h, which
# are the reflections of length 2h - 1, number the exponents >= h
EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}


@pytest.mark.parametrize("name", sorted(EXPONENTS))
def test_reflection_census_follows_exponents(capsys, name):
    exps = EXPONENTS[name]
    top = 2 * max(exps) - 1
    start = time.perf_counter()
    code, out, _ = run(capsys, "reflections", name, "--max-length", str(top))
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.splitlines()
    census = " ".join("%d:%d" % (2 * h - 1, sum(e >= h for e in exps))
                      for h in range(1, max(exps) + 1))
    assert lines[-1] == "census by length: " + census
    assert len(lines) - 1 == sum(exps)
    assert elapsed < 10.0


def test_reflections_bounded_by_max_roots(capsys):
    code, out, err = run(capsys, "reflections", "U3", "--max-length", "41",
                         "--max-roots", "1000")
    assert code == 3
    assert out == ""
    assert err == "error: root enumeration exceeded 1000\n"


def test_prefixes_bounded_by_max_roots(capsys):
    # a reflection of depth 4 in the all-infinite rank-4 group: the walk
    # down from its root visits the five roots of one chain
    code, out, err = run(capsys, "prefixes", "U4", "123414321", "--max-roots", "4")
    assert code == 3
    assert out == ""
    assert err == "error: root enumeration exceeded 4\n"


def test_prefixes_visit_only_the_roots_below(capsys):
    # a reflection of depth 15 in U3 with 16 roots below its root, though
    # U3 has far more than 100000 roots of depth at most 15
    code, out, err = run(capsys, "prefixes", "U3", "1231231231231231321321321321321")
    assert (code, err) == (0, "")
    assert out == ("reflection 1231231231231231321321321321321, "
                   "palindromic word 1231231231231231321321321321321\n"
                   "  prefix 1231231231231231\n"
                   "1 prefixes\n")
    code, _, err = run(capsys, "prefixes", "U3", "1231231231231231321321321321321",
                       "--max-roots", "15")
    assert (code, err) == (3, "error: root enumeration exceeded 15\n")


def test_reflections_do_not_enumerate_the_ball(capsys):
    # the radius-41 ball of ~A5 is far past --max-elements; its 126
    # reflections of length <= 41 are 126 roots of depth <= 20
    code, out, _ = run(capsys, "reflections", "~A5", "--max-length", "41")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 127
    assert lines[-1] == "census by length: " + " ".join(
        "%d:6" % k for k in range(1, 42, 2))


def test_internal_error_exit_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("depth or dp_inf is path dependent")

    monkeypatch.setattr("coxkit.cli.root_poset", broken)
    code, out, err = run(capsys, "roots", "A2", "--max-depth", "2")
    assert code == 1
    assert out == ""
    assert err == "error: internal error: depth or dp_inf is path dependent\n"
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ("automaton", "A2", "--m", "-1"),
    ("roots", "A2", "--max-depth", "-1"),
    ("automaton", "A2", "--series", "--terms", "-3"),
    ("affine", "~A2", "--terms", "-3"),
    ("reflections", "A2", "--max-length", "-2"),
    ("roots", "A2", "--max-depth", "two"),
])
def test_negative_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "non-negative integer" in err


def test_non_integral_bond_exit_2(capsys):
    code, out, err = run(capsys, "roots", "[[1,3.7],[3.7,1]]", "--max-depth", "2")
    assert code == 2
    assert out == ""
    assert err == "error: Coxeter matrix entries must be integers, got 3.7\n"


@pytest.mark.parametrize("spec", ["[1,2]", "[null]", "[1.5]", "[true]"])
@pytest.mark.parametrize("argv", [
    ("roots", "--max-depth", "3"),
    ("automaton",),
    ("reflections", "--max-length", "3"),
    ("prefixes", "1"),
    ("dihedral", "1", "2"),
])
def test_matrix_rows_not_arrays_exit_2(capsys, spec, argv):
    code, out, err = run(capsys, argv[0], spec, *argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: Coxeter matrix rows must be arrays\n"


@pytest.mark.parametrize("argv", [
    ("roots", "A2", "--max-depth", "2"),
    ("automaton", "A2"),
])
def test_unwritable_dot_file_exit_2(tmp_path, capsys, argv):
    target = str(tmp_path / "missing" / "x.dot")
    code, _, err = run(capsys, *argv, "--dot", target)
    assert code == 2
    assert err.startswith("error: cannot write %s" % target)
    assert len(err.splitlines()) == 1


def test_max_elements_is_an_automaton_option(capsys):
    code, out, err = run(capsys, "roots", "U3", "--max-depth", "2", "--max-elements", "5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --max-elements 5" in err


@pytest.mark.parametrize("argv", [
    ("affine", "~A2", "--max-roots", "5"),
    ("dihedral", "A3", "1", "2", "--max-roots", "5"),
])
def test_max_roots_only_where_roots_are_enumerated(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --max-roots 5" in err


def reference_label(coords):
    """A root's label spelled from its coordinates alone: the digits when
    every coordinate is an integer from 0 to 9, else the tuple."""
    digits = []
    for x in coords:
        v = x
        if isinstance(v, AlgebraicNumber):
            v = None if any(v.coeffs[1:]) else v.coeffs[0]
        ok = v is not None and v == int(v) and 0 <= v <= 9
        digits.append(str(int(v)) if ok else None)
    if None in digits:
        return "(" + ", ".join(str(x) for x in coords) + ")"
    return "".join(digits)


@pytest.mark.parametrize("spec, depth, m", [
    ("U3", 2, 1),  # every label a digit string
    ("U4", 3, 1),  # coordinates above 9: parenthesised labels
    ("[[1,3,4],[3,1,5],[4,5,1]]", 5, 1),  # hyperbolic, field degree 16
    ("~B3", 8, 0),
])
def test_labels_match_reference(capsys, spec, depth, m):
    system = CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
    poset = root_poset(system, max_depth=depth)
    ref = [reference_label(r.coords) for r in poset.roots]
    assert poset.labels() == ref
    assert [poset.label(i) for i in range(len(poset))] == ref
    assert all(lab.isdigit() for lab in ref) == (spec == "U3")

    code, out, _ = run(capsys, "roots", spec, "--max-depth", str(depth), "--json")
    assert code == 0
    obj = json.loads(out)
    assert [r["label"] for r in obj["roots"]] == ref
    assert obj["covers"] == [[ref[lo], ref[hi], s + 1, lg] for lo, hi, s, lg in poset.edges]

    code, out, _ = run(capsys, "roots", spec, "--max-depth", str(depth), "--poset")
    assert code == 0
    expected = []
    for d in sorted({r.depth for r in poset.roots}):
        expected.append("depth %d:" % d)
        for r in poset.roots:
            if r.depth == d:
                ups = ["%d:%s%s" % (s + 1, ref[j], "(long)" if lg else "")
                       for s, j, lg in poset.up[r.index]]
                expected.append("  %s  dp_inf=%d  covers: %s"
                                % (ref[r.index], r.dpinf, ", ".join(ups) or "-"))
    expected.append("%d roots" % len(poset))
    assert out.splitlines() == expected

    dfa = build_automaton(system, m)
    small = [reference_label(r.coords) for r in dfa.poset.roots]
    code, out, _ = run(capsys, "automaton", spec, "--m", str(m), "--json")
    assert code == 0
    sets = [[small[j] for j in key] for key, _ in dfa.states]
    assert [state["set"] for state in json.loads(out)["states"]] == sets
    assert [dfa.state_label(i) for i in range(len(sets))] == \
        ["{%s}" % ",".join(labels) for labels in sets]


def test_help_returns_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: coxkit")
    assert err == ""
    code, out, _ = run(capsys, "roots", "--help")
    assert code == 0
    assert out.startswith("usage: coxkit roots")


def _readme_argvs():
    from test_readme import _examples
    return [argv for argv, _ in _examples()]


# --json reports of every subcommand on the groups of the acceptance suite
ACCEPTANCE_REPORTS = [
    ["roots", "[[1,3,3],[3,1,4],[3,4,1]]", "--max-depth", "4"],
    ["roots", "[[1,3,3],[3,1,0],[3,0,1]]", "--max-depth", "5"],
    ["roots", "H3", "--max-depth", "20"],
    ["automaton", "~A2", "--m", "0", "--kind", "pref", "--series"],
    ["automaton", "[[1,3,3],[3,1,4],[3,4,1]]", "--m", "1"],
    ["reflections", "A3", "--max-length", "5"],
    ["reflections", "~A2", "--max-length", "7"],
    ["prefixes", "A3", "12321"],
    ["prefixes", "A3", "123"],
    ["prefixes", "A3", "2"],
    ["dihedral", "[[1,3,3],[3,1,4],[3,4,1]]", "1", "2"],
    ["affine", "~B3"],
    ["affine", "~F4", "--terms", "3"],
]


@pytest.mark.parametrize("argv", _readme_argvs() + ACCEPTANCE_REPORTS,
                         ids=lambda argv: " ".join(argv))
def test_json_writer_prints_what_json_dumps_prints(capsys, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    {}, [], (), [[]], {"a": {}}, [{}, [], ()], {"": [[], {}]},
    ("a", ("b", [1, -2])),
    {"quote\"": "back\\slash", "ctl": "\x00\x01\t\n\r\x1f\x7f", "uni": "é☃\U0001d11e"},
    [True, False, None, 0, -1, 10 ** 3999, -(10 ** 3999)],
    {"nested": [{"deep": [[True], {"x": None}]}], "n": -7},
])
def test_json_writer_matches_json_dumps_on_edge_cases(obj):
    assert cli._json(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [1.5, [0.0], {"x": float("nan")}, {1: "int key"}, {"s": {1}}])
def test_json_writer_rejects_other_types(obj):
    with pytest.raises(TypeError):
        cli._json(obj)
