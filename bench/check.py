"""Output checks, run outside the timed region.

Every job's stdout is compared with a brute-force answer computed here,
never with another path of coxkit:

* automaton series: coefficients against reduced-word counts (`red`) or
  reduced palindromic word counts (`pref`), and num/den against the
  printed coefficients;
* reflections: the census by length against the reflections grown as
  palindromes, and each printed word against its palindrome;
* roots: the count per depth d against the number of reflections of
  length 2d+1;
* affine: the depth and reflection series against the same census;
* prefixes: each listed prefix against `is_prefix_brute` from
  tests/oracles.py, and the whole list against all factorisations
  t = u r u^-1; for a word that is not a reflection, the CLI's verdict
  and closing reflection against `is_prefix_brute`;
* dihedral: both pairs generate the same subgroup, the order comes from
  repeated products, and the canonical roots span the subgroup's cone.

Counting uses the float model in refgroup.py; `is_prefix_brute` runs in
coxkit's exact arithmetic.
"""

import ast
import json
import math
from fractions import Fraction

from coxkit.core import CoxeterSystem, coxeter_matrix_from_descriptor
from oracles import is_prefix_brute
from refgroup import PointMap, Rep, sign, flat, palindromes, reduced_word_counts
from workloads import order_bound, spec_matrix


class Mismatch(Exception):
    """An output disagrees with the brute-force answer."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _letters(text):
    return [int(ch) - 1 for ch in text] if text != "e" else []


class Checker:
    """Checks job outputs, caching brute-force results per system."""

    def __init__(self):
        self._reps = {}
        self._words = {}
        self._pals = {}

    def rep(self, spec):
        if spec not in self._reps:
            self._reps[spec] = Rep(spec_matrix(spec))
        return self._reps[spec]

    def word_counts(self, spec, length):
        got = self._words.get(spec)
        if got is None or len(got) <= length:
            got = reduced_word_counts(self.rep(spec), length)
            self._words[spec] = got
        return got[:length + 1]

    def palindromes(self, spec, half):
        got = self._pals.get(spec)
        if got is None or len(got[0]) <= half:
            got = palindromes(self.rep(spec), half)
            self._pals[spec] = got
        return got[0][:half + 1], got[1][:half + 1]

    def check(self, argv, out):
        """None when the output of argv is right, else the reason."""
        try:
            getattr(self, "_" + argv[0])(argv, out)
        except Mismatch as exc:
            return str(exc)
        except Exception as exc:  # output the parser or the model cannot take
            return "unparsable output (%s: %s)" % (type(exc).__name__, exc)
        return None

    def _automaton(self, argv, out):
        spec, kind, terms = argv[1], _flag(argv, "--kind"), int(_flag(argv, "--terms"))
        if "--json" in argv:
            obj = json.loads(out)
            expect(obj["kind"] == kind, "kind")
            series = obj["series"]
        else:
            lines = dict(line.split(": ", 1) for line in out.splitlines()[2:])
            num, den = lines["series"].split(" den ")
            series = {"num": ast.literal_eval(num[len("num "):]),
                      "den": ast.literal_eval(den),
                      "coefficients": ast.literal_eval(lines["series coefficients"])}
            expect(out.startswith("kind=%s m=%s\n" % (kind, _flag(argv, "--m"))), "header")
        coeffs = _series_coefficients(series, terms)
        if kind == "red":
            want = self.word_counts(spec, terms - 1)
        else:
            want = [0] + self.palindromes(spec, terms - 2)[1]
        expect(coeffs == want, "series %s != brute force %s" % (coeffs, want))

    def _reflections(self, argv, out):
        spec, max_len = argv[1], int(_flag(argv, "--max-length"))
        rep = self.rep(spec)
        if "--json" in argv:
            rows = [(r["word"], r["length"], r["palindrome"]) for r in json.loads(out)]
        else:
            lines = out.splitlines()
            rows = []
            for line in lines[:-1]:
                word, length, pal = line.split()
                rows.append((word, int(length[len("length="):]), pal[len("palindrome="):]))
        seen = PointMap(rep.n * rep.n)
        by_length = {}
        for word, length, pal in rows:
            w, p = _letters(word), _letters(pal)
            expect(len(w) == length == len(p) and p == p[::-1], "row %s" % word)
            expect(rep.is_reduced(w) and rep.is_reduced(p), "unreduced row %s" % word)
            t = rep.word(w)
            expect(rep.equal(t, rep.word(p)), "palindrome of %s" % word)
            expect(seen.find(flat(t)) is None, "repeated reflection %s" % word)
            seen.add(flat(t), t, 1)
            by_length[length] = by_length.get(length, 0) + 1
        distinct, _ = self.palindromes(spec, (max_len - 1) // 2)
        want = {2 * k + 1: c for k, c in enumerate(distinct) if c}
        expect(by_length == want, "census %s != brute force %s" % (by_length, want))
        if "--json" not in argv:
            census = " ".join("%d:%d" % (k, want[k]) for k in sorted(want))
            expect(lines[-1] == "census by length: %s" % census, "census line")

    def _roots(self, argv, out):
        spec, depth = argv[1], int(_flag(argv, "--max-depth"))
        if "--json" in argv:
            obj = json.loads(out)
            depths = [r["depth"] for r in obj["roots"]]
            labels = [r["label"] for r in obj["roots"]]
        else:
            depths, labels = [], []
            current = None
            lines = out.splitlines()
            for line in lines[:-1]:
                if line.startswith("depth "):
                    current = int(line[len("depth "):-1])
                else:
                    depths.append(current)
                    labels.append(line.strip().split("  dp_inf=")[0])
            expect(lines[-1] == "%d roots" % len(depths), "root total line")
        expect(len(set(labels)) == len(labels), "repeated root label")
        counts = [depths.count(d) for d in range(depth + 1)]
        want = self.palindromes(spec, depth)[0]
        expect(counts == want and len(depths) == sum(want),
               "roots per depth %s != reflections %s" % (counts, want))

    def _affine(self, argv, out):
        name, terms = argv[1], int(_flag(argv, "--terms"))
        if "--json" in argv:
            obj = json.loads(out)
            depth, refl = obj["depth_series"], obj["reflection_series"]
            finite_roots = obj["positive_roots"]
        else:
            lines = out.splitlines()
            finite_roots = int(lines[0].split(", ")[1].split()[0])
            found = {}
            for line in lines:
                key, _, rest = line.partition(": ")
                found[key] = rest
            depth, refl = [
                {"num": ast.literal_eval(found[k].split(" den ")[0][len("num "):]),
                 "den": ast.literal_eval(found[k].split(" den ")[1]),
                 "coefficients": ast.literal_eval(found[k + " coefficients"])}
                for k in ("depth series", "reflection series")]
        distinct = self.palindromes(name, terms - 1)[0]
        expect(_series_coefficients(depth, terms) == distinct, "depth series")
        want = [distinct[j // 2] if j % 2 else 0 for j in range(terms)]
        expect(_series_coefficients(refl, terms) == want, "reflection series")
        finite = self.palindromes(name[1:], 64)[0]
        expect(finite_roots == sum(finite), "finite root count")

    def _prefixes(self, argv, out):
        spec, word = argv[1], _letters(argv[2])
        obj = json.loads(out) if "--json" in argv else None
        if (out.startswith("reflection ") if obj is None else "prefixes" in obj):
            self._prefix_list(spec, word, out, obj)
        else:
            self._prefix_check(spec, word, out, obj)

    def _prefix_check(self, spec, word, out, obj):
        """The CLI's answer for a word that is not a reflection."""
        system = CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
        w = system.element(word)
        if obj is None:
            _, _, rest = out.strip().partition(": ")
            is_prefix = rest.startswith("reflection-prefix of ")
            expect(is_prefix or rest == "not a reflection-prefix", "prefix check line")
            refl = rest[len("reflection-prefix of "):]
        else:
            is_prefix, refl = obj["is_prefix"], obj.get("reflection")
        expect(is_prefix == is_prefix_brute(system, w), "is_prefix_brute disagrees")
        if is_prefix:
            r = system.generator(w.right_descents()[0])
            expect(system.element(refl) == w * r * w.inverse(), "closing reflection")

    def _prefix_list(self, spec, word, out, obj):
        """The CLI's prefix listing for a reflection."""
        rep = self.rep(spec)
        if obj is not None:
            refl, pal, prefs = obj["reflection"], obj["palindrome"], obj["prefixes"]
        else:
            lines = out.splitlines()
            refl, pal = lines[0][len("reflection "):].split(", palindromic word ")
            prefs = [line.split()[1] for line in lines[1:-1]]
            expect(lines[-1] == "%d prefixes" % len(prefs), "prefix total line")
        t = rep.word(word)
        p = _letters(pal)
        expect(p == p[::-1] and rep.is_reduced(p) and rep.equal(rep.word(p), t), "palindrome")
        expect(rep.equal(rep.word(_letters(refl)), t), "reflection")
        want = all_prefixes(rep, t, (len(word) - 1) // 2)
        listed = PointMap(rep.n * rep.n)
        for text in prefs:
            q = rep.word(_letters(text))
            expect(want.find(flat(q)) is not None, "%s is not a prefix" % text)
            listed.add(flat(q), q, 1)
        expect(len(listed) == len(prefs) == len(want),
               "%d prefixes listed, %d exist" % (len(prefs), len(want)))
        system = CoxeterSystem(matrix=coxeter_matrix_from_descriptor(spec))
        t_exact = system.element(word)
        for text in prefs:
            q = system.element(text)
            r = system.generator(q.right_descents()[0])
            expect(is_prefix_brute(system, q) and q * r * q.inverse() == t_exact,
                   "is_prefix_brute rejects %s" % text)

    def _dihedral(self, argv, out):
        spec = argv[1]
        rep = self.rep(spec)
        if "--json" in argv:
            obj = json.loads(out)
            c1, c2 = obj["canonical"]
            m = obj["order_m"]
        else:
            head, _, tail = out.strip().partition("}, m = ")
            c1, c2 = head[len("canonical generators: {"):].split(", ")
            m = 0 if tail == "infinite-or-large" else int(tail)
        r, t = rep.word(_letters(argv[2])), rep.word(_letters(argv[3]))
        gens = []
        for text in (c1, c2):
            letters = _letters(text)
            c = rep.word(letters)
            trace = sum(c[j][j] for j in range(rep.n))
            expect(rep.is_reduced(letters) and len(letters) % 2 == 1
                   and rep.is_identity(rep.mul(c, c)) and abs(trace - (rep.n - 2)) < 1e-6,
                   "%s is not a reflection" % text)
            gens.append(c)
        g = rep.mul(gens[0], gens[1])
        bound = m if m else order_bound(spec_matrix(spec))
        power = rep.identity
        for j in range(1, bound + 1):
            power = rep.mul(power, g)
            if rep.is_identity(power):
                expect(j == m, "c1 c2 has order %d, printed %s" % (j, m))
                break
        else:
            expect(m == 0, "c1 c2 has no order <= %d" % bound)
        # reflections of <c1, c2> are g^k c1; find r and t among them
        if m:
            ks = range(m)
        else:
            reach = max(len(argv[2]), len(argv[3])) + 2
            ks = range(-reach, reach + 1)
        g_inv = rep.mul(gens[1], gens[0])
        pos = {}
        for k in ks:
            step = g if k >= 0 else g_inv
            rho = gens[0]
            for _ in range(abs(k)):
                rho = rep.mul(step, rho)
            for name, x in (("r", r), ("t", t)):
                if name not in pos and rep.equal(rho, x):
                    pos[name] = k
        expect(len(pos) == 2, "an input reflection is not in <c1, c2>")
        gap = abs(pos["r"] - pos["t"])
        expect((math.gcd(gap, m) == 1) if m else gap == 1, "<r, t> is a proper subgroup")
        b1, b2 = rep.root_of(gens[0]), rep.root_of(gens[1])
        cos = rep.form(b1, b2) / math.sqrt(rep.form(b1, b1) * rep.form(b2, b2))
        want = -math.cos(math.pi / m) if m else -1.0
        expect(abs(cos - want) < 1e-6 if m else cos < want + 1e-6,
               "the roots of c1, c2 are not the simple roots of the subgroup")


def _series_coefficients(series, terms):
    """Printed coefficients as ints, after checking num/den expand to them."""
    num = [Fraction(c) for c in series["num"]]
    den = [Fraction(c) for c in series["den"]]
    got = [Fraction(c) for c in series["coefficients"]]
    expect(len(got) == terms and den and den[0] == 1, "series shape")
    expansion = []
    for k in range(terms):
        c = num[k] if k < len(num) else Fraction(0)
        c -= sum(den[j] * expansion[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        expansion.append(c)
    expect(expansion == got, "num/den do not expand to the printed coefficients")
    expect(all(c.denominator == 1 for c in got), "non-integral count")
    return [int(c) for c in got]


def all_prefixes(rep, t, half):
    """Every prefix u r of the reflection t = u r u^-1, l(u) = half, as a
    PointMap: peel letters s off both ends while the length drops by two."""
    level = PointMap(rep.n * rep.n)
    level.add(flat(rep.identity), (t, rep.identity), 0)
    for _ in range(half):
        nxt = PointMap(rep.n * rep.n)
        for (cur, u), _ in level.entries():
            for s in range(rep.n):
                col = cur[s]
                if sign(col) < 0 and sign(rep.reflect(col, s)) < 0:
                    us = rep.right_mul(u, s)
                    nxt.add(flat(us), (rep.right_mul(rep.left_mul(cur, s), s), us), 0)
        level = nxt
    out = PointMap(rep.n * rep.n)
    for (cur, u), _ in level.entries():
        for r, g in enumerate(rep.gens):
            if rep.equal(cur, g):
                p = rep.right_mul(u, r)
                out.add(flat(p), p, 0)
    return out
