"""Command-line interface.

Subcommands cover root posets, the canonical automata, reflection
censuses, reflection-prefixes, dihedral reflection subgroups, and the
affine closed forms.  Output is deterministic; --json switches every
subcommand to a machine-readable report.

`main(argv)` returns the exit code and never raises SystemExit: 0 on
success and for --help, 1 for an internal error, 2 for bad input
(argparse's usage errors included), 3 when a resource cap is hit, 4 for
the library's domain errors (`core.DomainError`), such as a word that is
not a reflection, and 141 (128 + SIGPIPE) when the reader of stdout
closes it early.
"""

import argparse
import functools
import io
import json
import os
import sys
from itertools import islice
from json.encoder import encode_basestring_ascii

from .affine import affine_datum, affine_to_obj
from .automata import KINDS, _flags, build_automaton, dfa_to_dot
from .core import CoxeterSystem, DomainError, LimitExceeded, \
    coxeter_matrix_from_descriptor, format_word, parse_word
from .dihedral import canonical_generators
from .prefixes import _palindrome, is_reflection_prefix, prefixes_of, reflections_up_to
from .roots import root_poset
from .series import dfa_series


def _system(spec):
    return CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))


def _count(text):
    """argparse type for depths, bounds and caps: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer, got %r" % text)
    return value


def _write_file(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror or exc))


def _print_series(name, obj, out):
    """Text form of a series report: num, den and the coefficients."""
    out.write("%s: num %s den %s\n" % (name, obj["num"], obj["den"]))
    out.write("%s coefficients: %s\n" % (name, obj["coefficients"]))


# the most items of a report list that one write carries
_CHUNK = 1000


def _write_list(out, texts):
    """Write a report's list as json.dumps(report, indent=2) does, from
    its items' texts, each on lines of its own, _CHUNK items a write."""
    sep = "["
    for chunk in iter(lambda: ",".join(islice(texts, _CHUNK)), ""):
        out.write(sep + chunk)
        sep = ","
    out.write("[]" if sep == "[" else "\n  ]")


# one root and one cover of a `roots --json` report, as json.dumps(obj, indent=2)
# writes them inside the report's lists
_ROOT_JSON = ('\n    {\n      "label": %s,\n      "coords": [\n        %s\n      ],'
              '\n      "depth": %d,\n      "dp_inf": %d\n    }')
_COVER_JSON = '\n    [\n      %s,\n      %s,\n      %d,\n      %s\n    ]'


def _write_roots_json(out, system, max_depth, poset):
    """Write json.dumps(report, indent=2) of the `roots` report and a
    newline, one template per root and per cover."""
    names = list(map(encode_basestring_ascii, poset.labels()))
    out.write('{\n  "rank": %d,\n  "max_depth": %d,\n  "roots": ' % (system.rank, max_depth))
    _write_list(out, (
        _ROOT_JSON % (name, ",\n        ".join(map(encode_basestring_ascii, text)), d, dpinf)
        for name, text, d, dpinf in zip(names, poset.coord_texts(), poset.depths, poset.dpinfs)))
    out.write(',\n  "covers": ')
    _write_list(out, (_COVER_JSON % (names[lo], names[hi], s + 1, "true" if longe else "false")
                      for lo, hi, s, longe in poset.edges))
    out.write("\n}\n")


# one state and one transition of an `automaton --json` report, likewise
_STATE_JSON = '\n    {\n      "set": %s,\n      "final": %s\n    }'
_TRANSITION_JSON = '\n    [\n      %d,\n      %d,\n      %d\n    ]'


def _write_automaton_json(out, dfa, series):
    """Write json.dumps({**dfa_to_obj(dfa), "series": series}, indent=2),
    the series left out when None, and a newline, likewise."""
    names = list(map(encode_basestring_ascii, dfa.poset.labels()))
    out.write('{\n  "kind": %s,\n  "m": %d,\n  "initial": %d,\n  "set_states": %d,\n  "states": '
              % (encode_basestring_ascii(dfa.kind), dfa.m, dfa.initial, dfa.set_count))
    _write_list(out, (
        _STATE_JSON % ("[\n        %s\n      ]" % ",\n        ".join([names[j] for j in members])
                       if members else "[]", "true" if dfa.final(i) else "false")
        for i, members in enumerate(map(dfa.members, range(len(dfa.states))))))
    out.write(',\n  "transitions": ')
    _write_list(out, (_TRANSITION_JSON % (i, s + 1, dst) for i, row in enumerate(dfa.table)
                      for s, dst in enumerate(row) if dst is not None))
    if series is not None:
        out.write(',\n  "series": ' + json.dumps(series, indent=2).replace("\n", "\n  "))
    out.write("\n}\n")


def cmd_roots(args, out):
    system = _system(args.spec)
    poset = root_poset(system, max_depth=args.max_depth, limit=args.max_roots)
    if args.dot:
        _write_file(args.dot, poset.to_dot())
    if args.json:
        _write_roots_json(out, system, args.max_depth, poset)
        return 0
    labels = poset.labels()
    up = poset.up if args.poset else None
    lines = []
    depth = None
    # the columns are in depth order, so each depth's roots come together
    for i, (label, d, dpinf) in enumerate(zip(labels, poset.depths, poset.dpinfs)):
        if d != depth:
            depth = d
            lines.append("depth %d:" % d)
        line = "  %s  dp_inf=%d" % (label, dpinf)
        if up is not None:
            ups = ", ".join("%d:%s%s" % (s + 1, labels[j], "(long)" if longe else "")
                            for s, j, longe in up[i])
            line += "  covers: " + (ups or "-")
        lines.append(line)
    lines.append("%d roots\n" % len(labels))
    out.write("\n".join(lines))
    return 0


def cmd_automaton(args, out):
    system = _system(args.spec)
    dfa = build_automaton(system, args.m, args.kind, limit=args.max_elements)
    if args.dot:
        _write_file(args.dot, dfa_to_dot(dfa))
    series = dfa_series(dfa).to_obj(args.terms) if args.series else None
    if args.json:
        _write_automaton_json(out, dfa, series)
        return 0
    out.write("kind=%s m=%d\n" % (dfa.kind, dfa.m))
    out.write("states: %d (distinct small sets: %d), final: %d, transitions: %d\n"
              % (len(dfa.states), dfa.set_count, sum(_flags(dfa)),
                 sum(len(row) - row.count(None) for row in dfa.table)))
    if series is not None:
        _print_series("series", series, out)
    return 0


def cmd_reflections(args, out):
    system = _system(args.spec)
    rows = reflections_up_to(system, args.max_length, limit=args.max_roots)
    obj = [
        {
            "word": format_word(t.word, system.rank),
            "length": t.length,
            "palindrome": format_word(pal, system.rank),
        }
        for t, pal in rows
    ]
    if args.json:
        out.write(json.dumps(obj, indent=2) + "\n")
        return 0
    counts = {}
    for row in obj:
        counts[row["length"]] = counts.get(row["length"], 0) + 1
        out.write("%(word)s  length=%(length)d  palindrome=%(palindrome)s\n" % row)
    census = " ".join("%d:%d" % (k, counts[k]) for k in sorted(counts))
    out.write("census by length: %s\n" % (census if census else "-"))
    return 0


def cmd_prefixes(args, out):
    system = _system(args.spec)
    w = system.element(parse_word(args.word, system.rank))
    try:
        prefs = prefixes_of(system, w, args.max_roots)
    except DomainError:  # not a reflection: w is checked as a prefix instead
        prefs = None
    if prefs is not None:
        # the first prefix is the one the greedy descent spells
        obj = {
            "reflection": format_word(w.word, system.rank),
            "palindrome": format_word(_palindrome(prefs[0].element.word), system.rank),
            "prefixes": [format_word(p.element.word, system.rank) for p in prefs],
        }
    else:
        pref = is_reflection_prefix(system, w)
        obj = {"word": format_word(w.word, system.rank), "is_prefix": pref is not None}
        if pref is not None:
            obj["reflection"] = format_word(pref.reflection.word, system.rank)
    if args.json:
        out.write(json.dumps(obj, indent=2) + "\n")
    elif prefs is not None:
        out.write("reflection %(reflection)s, palindromic word %(palindrome)s\n" % obj)
        for p in obj["prefixes"]:
            out.write("  prefix %s\n" % p)
        out.write("%d prefixes\n" % len(obj["prefixes"]))
    elif obj["is_prefix"]:
        out.write("%(word)s: reflection-prefix of %(reflection)s\n" % obj)
    else:
        out.write("%(word)s: not a reflection-prefix\n" % obj)
    return 0


def cmd_dihedral(args, out):
    system = _system(args.spec)
    r = system.element(parse_word(args.word_r, system.rank))
    t = system.element(parse_word(args.word_t, system.rank))
    sub = canonical_generators(system, r, t)
    obj = {
        "generators": [format_word(w.word, system.rank) for w in (r, t)],
        "canonical": [format_word(c.word, system.rank) for c in sub.canonical],
        "order_m": sub.order_m,
    }
    if args.json:
        out.write(json.dumps(obj, indent=2) + "\n")
        return 0
    out.write("canonical generators: {%s, %s}, m = %s\n"
              % (*obj["canonical"], obj["order_m"] or "infinite-or-large"))
    return 0


def cmd_affine(args, out):
    obj = affine_to_obj(affine_datum(args.type), args.terms)
    if args.json:
        out.write(json.dumps(obj, indent=2) + "\n")
        return 0
    out.write("type %s, %d positive finite roots, highest root (%s)\n"
              % (obj["type"], obj["positive_roots"], ", ".join(obj["highest_root"])))
    for orbit in obj["orbit_series"]:
        out.write("orbit %d (size %d): P = %s, M = %d\n"
                  % (orbit["orbit"], orbit["size"], orbit["P"], orbit["M"]))
    out.write("combined: P = %s, M = %d\n" % (obj["depth_numerator"], obj["depth_period"]))
    _print_series("depth series", obj["depth_series"], out)
    _print_series("reflection series", obj["reflection_series"], out)
    return 0


def _add_common(sub, max_roots=False):
    sub.add_argument("--json", action="store_true", help="JSON output")
    if max_roots:
        sub.add_argument("--max-roots", type=_count, default=100000,
                         help="cap on enumerated roots")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Exact combinatorics of Coxeter systems: root posets, "
                    "canonical automata, and reduced-word series.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("roots", help="root poset by depth")
    p.add_argument("spec", help="preset name or Coxeter matrix JSON")
    p.add_argument("--max-depth", type=_count, required=True)
    p.add_argument("--poset", action="store_true", help="show cover lists")
    p.add_argument("--dot", metavar="FILE", help="write DOT to FILE")
    _add_common(p, max_roots=True)
    p.set_defaults(func=cmd_roots)

    p = subs.add_parser("automaton", help="canonical m-automaton")
    p.add_argument("spec")
    p.add_argument("--m", type=_count, default=0)
    p.add_argument("--kind", choices=KINDS, default="red")
    p.add_argument("--dot", metavar="FILE")
    p.add_argument("--series", action="store_true",
                   help="exact generating series of the language")
    p.add_argument("--terms", type=_count, default=12)
    p.add_argument("--max-elements", type=_count, default=200000,
                   help="cap on the m-small roots and on automaton states")
    _add_common(p)
    p.set_defaults(func=cmd_automaton)

    p = subs.add_parser("reflections", help="reflection census in a ball")
    p.add_argument("spec")
    p.add_argument("--max-length", type=_count, required=True)
    _add_common(p, max_roots=True)
    p.set_defaults(func=cmd_reflections)

    p = subs.add_parser("prefixes", help="reflection-prefix listing or check")
    p.add_argument("spec")
    p.add_argument("word", help="reflection to list prefixes of, or word to check")
    _add_common(p, max_roots=True)
    p.set_defaults(func=cmd_prefixes)

    p = subs.add_parser("dihedral", help="canonical generators of <r, t>")
    p.add_argument("spec")
    p.add_argument("word_r")
    p.add_argument("word_t")
    _add_common(p)
    p.set_defaults(func=cmd_dihedral)

    p = subs.add_parser("affine", help="affine closed forms")
    p.add_argument("type", help="affine type name such as ~B3")
    p.add_argument("--terms", type=_count, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_affine)

    return parser


@functools.cache
def _parser():
    """The parser every `main` call shares, built on the first one.

    parse_args keeps no state between calls: each makes a new Namespace
    and formats usage and errors against the sys.stderr of the moment.
    """
    return build_parser()


def _apply_mem_cap():
    cap = os.environ.get("COXKIT_MAX_MEM")
    if not cap:
        return
    try:
        nbytes = int(cap)
        if nbytes <= 0:
            raise ValueError
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))
    except (ValueError, OverflowError):  # OverflowError: past what a C long holds
        raise ValueError("COXKIT_MAX_MEM must be an integer byte count") from None
    except (ImportError, OSError):
        pass


class _Stdout:
    """sys.stdout, writing every byte.  A pipe whose reader closes
    mid-write takes only part of it, and over an unbuffered binary layer
    (`python -u`) the text layer drops the rest without an error; so the
    bytes go out until all are taken, and the next write raises
    BrokenPipeError.  A buffered layer does that itself."""

    def write(self, text):
        out = sys.stdout
        raw = getattr(out, "buffer", None)
        if not isinstance(raw, io.RawIOBase):
            out.write(text)
            return
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[raw.write(data):]


def _quiet_stdout():
    """Point fd 1 at os.devnull after a broken pipe, so that the
    interpreter's final flush of stdout has somewhere to go (the SIGPIPE
    note of the `signal` module docs).  A stdout with no file descriptor,
    such as a StringIO, is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None):
    try:
        _apply_mem_cap()
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # --help (0) or a usage error (2)
            return exc.code
        code = args.func(args, _Stdout())
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout early, as `head` does
        _quiet_stdout()
        return 141
    except DomainError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 4
    except LimitExceeded as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 3
    except MemoryError:
        sys.stderr.write("error: memory cap exceeded\n")
        return 3
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except ArithmeticError as exc:
        sys.stderr.write("error: internal error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
