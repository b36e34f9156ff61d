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
import os
import sys
from json.encoder import encode_basestring_ascii

from .affine import affine_datum, affine_to_obj
from .automata import build_automaton, dfa_to_dot, dfa_to_obj
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


# encoders of the JSON scalars, by exact type, as json.dumps writes them
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _json(obj, indent="\n"):
    """The text of json.dumps(obj, indent=2), for dicts with str keys,
    lists and tuples over str, int, bool and None (exactly these types);
    any other type raises TypeError.

    A recursive join that writes scalars in place: strings, keys too, go
    through the C escaper (which rejects a key that is not a str) and
    ints through int.__repr__, as in the json module, whose indenting
    encoder is pure Python.
    """
    enc = _SCALARS.get(type(obj))
    if enc is not None:
        return enc(obj)
    inner = indent + "  "
    if type(obj) is dict:
        opening, closing = "{", "}"
        items = [encode_basestring_ascii(k) + ": "
                 + (_SCALARS[type(v)](v) if type(v) in _SCALARS else _json(v, inner))
                 for k, v in obj.items()]
    elif type(obj) is list or type(obj) is tuple:
        opening, closing = "[", "]"
        items = [_SCALARS[type(x)](x) if type(x) in _SCALARS else _json(x, inner)
                 for x in obj]
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)
    if not items:
        return opening + closing
    return opening + inner + ("," + inner).join(items) + indent + closing


def _print_series(name, obj, out):
    """Text form of a series report: num, den and the coefficients."""
    out.write("%s: num %s den %s\n" % (name, obj["num"], obj["den"]))
    out.write("%s coefficients: %s\n" % (name, obj["coefficients"]))


# one root and one cover of a `roots --json` report, as json.dumps(obj, indent=2)
# writes them inside the report's lists
_ROOT_JSON = ('\n    {\n      "label": %s,\n      "coords": [\n        %s\n      ],'
              '\n      "depth": %d,\n      "dp_inf": %d\n    }')
_COVER_JSON = '\n    [\n      %s,\n      %s,\n      %d,\n      %s\n    ]'


def _roots_json(system, max_depth, poset):
    """The text of json.dumps(report, indent=2) for the `roots` report,
    one template per root and per cover."""
    enc = encode_basestring_ascii
    names = [enc(label) for label in poset.labels()]
    roots = ",".join(
        _ROOT_JSON % (name, ",\n        ".join(map(enc, text)), d, dpinf)
        for name, text, d, dpinf in zip(names, poset.coord_texts(), poset.depths, poset.dpinfs))
    covers = ",".join(
        _COVER_JSON % (names[lo], names[hi], s + 1, "true" if longe else "false")
        for lo, hi, s, longe in poset.edges)
    return ('{\n  "rank": %d,\n  "max_depth": %d,\n  "roots": [%s\n  ],\n  "covers": %s\n}'
            % (system.rank, max_depth, roots, "[%s\n  ]" % covers if covers else "[]"))


def cmd_roots(args, out):
    system = _system(args.spec)
    poset = root_poset(system, max_depth=args.max_depth, limit=args.max_roots)
    if args.dot:
        _write_file(args.dot, poset.to_dot())
    if args.json:
        out.write(_roots_json(system, args.max_depth, poset) + "\n")
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
        obj = dfa_to_obj(dfa)
        if series is not None:
            obj["series"] = series
        out.write(_json(obj) + "\n")
        return 0
    out.write("kind=%s m=%d\n" % (dfa.kind, dfa.m))
    out.write("states: %d (distinct small sets: %d), final: %d, transitions: %d\n"
              % (len(dfa.states), dfa.set_count, len(dfa.finals),
                 sum(len(row) - row.count(None) for row in dfa.table)))
    if series is not None:
        _print_series("series", series, out)
    return 0


def cmd_reflections(args, out):
    system = _system(args.spec)
    rows = reflections_up_to(system, args.max_length, limit=args.max_roots)
    if args.json:
        obj = [
            {
                "word": format_word(t.word, system.rank),
                "length": t.length,
                "palindrome": format_word(pal, system.rank),
            }
            for t, pal in rows
        ]
        out.write(_json(obj) + "\n")
        return 0
    counts = {}
    for t, pal in rows:
        counts[t.length] = counts.get(t.length, 0) + 1
        out.write("%s  length=%d  palindrome=%s\n"
                  % (format_word(t.word, system.rank), t.length,
                     format_word(pal, system.rank)))
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
        pal = _palindrome(prefs[0].element.word)
        if args.json:
            obj = {
                "reflection": format_word(w.word, system.rank),
                "palindrome": format_word(pal, system.rank),
                "prefixes": [format_word(p.element.word, system.rank) for p in prefs],
            }
            out.write(_json(obj) + "\n")
            return 0
        out.write("reflection %s, palindromic word %s\n"
                  % (format_word(w.word, system.rank), format_word(pal, system.rank)))
        for p in prefs:
            out.write("  prefix %s\n" % format_word(p.element.word, system.rank))
        out.write("%d prefixes\n" % len(prefs))
        return 0
    pref = is_reflection_prefix(system, w)
    if args.json:
        obj = {"word": format_word(w.word, system.rank), "is_prefix": pref is not None}
        if pref is not None:
            obj["reflection"] = format_word(pref.reflection.word, system.rank)
        out.write(_json(obj) + "\n")
        return 0
    if pref is None:
        out.write("%s: not a reflection-prefix\n" % format_word(w.word, system.rank))
    else:
        out.write("%s: reflection-prefix of %s\n"
                  % (format_word(w.word, system.rank),
                     format_word(pref.reflection.word, system.rank)))
    return 0


def cmd_dihedral(args, out):
    system = _system(args.spec)
    r = system.element(parse_word(args.word_r, system.rank))
    t = system.element(parse_word(args.word_t, system.rank))
    sub = canonical_generators(system, r, t)
    c1, c2 = sub.canonical
    if args.json:
        obj = {
            "generators": [format_word(w.word, system.rank) for w in (r, t)],
            "canonical": [format_word(c.word, system.rank) for c in (c1, c2)],
            "order_m": sub.order_m,
        }
        out.write(_json(obj) + "\n")
        return 0
    m = sub.order_m if sub.order_m else "infinite-or-large"
    out.write("canonical generators: {%s, %s}, m = %s\n"
              % (format_word(c1.word, system.rank), format_word(c2.word, system.rank), m))
    return 0


def cmd_affine(args, out):
    obj = affine_to_obj(affine_datum(args.type), args.terms)
    if args.json:
        out.write(_json(obj) + "\n")
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
    p.add_argument("--kind", choices=("red", "pref"), default="red")
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
    except ValueError:
        raise ValueError("COXKIT_MAX_MEM must be an integer byte count")
    try:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (nbytes, nbytes))
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
