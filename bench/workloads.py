"""Seeded job lists for the three workloads.

A job is the argv list of one `coxkit` CLI call.  The generator uses
nothing of coxkit beyond the CLI syntax and its preset table; every
input is valid by construction, using the float model in refgroup.py:
reflections are grown as reduced palindromes u s u^-1, dihedral pairs
are distinct and outside the class of the known defect, seeded matrices are checked for a hyperbolic form, and
no argv repeats within a list.

Each list mixes fixed cases, which carry most of the time and keep
run-to-run spread low, with seeded cases.  Seeded cases are drawn
stratified (one draw per stratum) so that a seed changes which inputs
run, not how much work a list holds.
"""

import json
import math
import random
from itertools import combinations_with_replacement

from coxkit.core import preset
from refgroup import Rep, sign, field_degree, negative_directions, root_counts

KINDS = ("red", "pref")

# Finite groups for `census`, with the length of their longest element,
# so that --max-length at or past it enumerates the whole group.
CENSUS_GROUPS = {"A4": 10, "A5": 15, "D5": 20, "B4": 16, "F4": 24, "H3": 15}
CENSUS_JSON = ("A4", "B4", "F4")
# I2(m) whose field Q(2cos(pi/m)) has degree 2 to 4.
I2_BONDS = (4, 5, 6, 7, 8, 9, 10, 12, 15)

AFFINE_TYPES = ("~A2", "~A3", "~A4", "~A5", "~B3", "~B4", "~C2", "~C3", "~C4",
                "~D4", "~D5", "~E6", "~E7", "~E8", "~F4", "~G2")

# Groups of the reflection questions, with the half-length l(u) of the
# drawn reflections u s u^-1.  Finite groups stay one below their longest
# reflection, so that the two reflections of a dihedral pair can differ.
REFLECTION_GROUPS = {"H3": 5, "B4": 4, "F4": 6, "D5": 5, "~A3": 6, "~G2": 7,
                     "~B3": 5, "~C3": 5, "U3": 5}

# Dihedral pairs whose duplicate canonical-generator path would take
# seconds (long canonical generators of an infinite subgroup) are redrawn,
# and so are pairs of the known defect's class (known_wrong_dihedral),
# which every queries run probes instead (known_defects.json).
DIHEDRAL_WORK_CAP = 1.0e6

HYPERBOLIC_BONDS = (2, 3, 4, 5, 6, 7, 0)
HYPERBOLIC_MAX_DEGREE = 16
# Seeded root posets are cut at the deepest depth whose estimated cost
# stays under this budget; a root costs about 0.35 + 0.03 degree^2 ms at
# the commit that added the benchmark.
HYPERBOLIC_ROOT_BUDGET_MS = 300.0


def matrix_text(mat):
    return json.dumps(mat, separators=(",", ":"))


def spec_matrix(spec):
    """Coxeter matrix of a CLI system descriptor (0 = infinite bond)."""
    if spec.startswith("["):
        return json.loads(spec)
    return preset(spec).to_obj()


def word_text(word):
    return "".join(str(s + 1) for s in word)


def random_reflection(rng, rep, half):
    """A reduced palindrome u s u^-1 with l(u) = half, as letters.

    Wrapping x around t keeps the word reduced exactly when t(a_x) and
    x(t(a_x)) are positive roots; the walk stops early only when no
    letter can wrap (past the longest reflection of a finite group)."""
    s = rng.randrange(rep.n)
    t = rep.gens[s]
    word = [s]
    for _ in range(half):
        ok = [x for x in range(rep.n)
              if sign(t[x]) > 0 and sign(rep.reflect(t[x], x)) > 0]
        if not ok:
            break
        x = rng.choice(ok)
        t = rep.right_mul(rep.left_mul(t, x), x)
        word = [x] + word + [x]
    return word, t


def order_bound(mat):
    """coxkit's documented search cap for the order of a product of two
    reflections: 2 lcm(finite bonds) + rank^2."""
    n = len(mat)
    L = 1
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] >= 3:
                L = L * mat[i][j] // math.gcd(L, mat[i][j])
    return 2 * L + n * n


def half_length(rep, t):
    """k with l(t) = 2k + 1, by peeling letters off both ends of t."""
    k = 0
    while True:
        for s in range(rep.n):
            col = t[s]
            if sign(col) < 0 and sign(rep.reflect(col, s)) < 0:
                t = rep.right_mul(rep.left_mul(t, s), s)
                k += 1
                break
        else:
            return k


def dihedral_work(rep, r, t, bound):
    """Products the CLI's duplicate dihedral path makes for <r, t>.

    For a finite subgroup that is at most its order.  For an infinite one
    it takes `bound` powers of c1 c2, whose length grows linearly, so the
    work goes as bound^3 (l(c1) + l(c2))^2.  The reflections
    rho_k = (r t)^k r (rho_0 = r, rho_-1 = t) get shorter towards the
    canonical pair and longer past it, so c1 and c2 are found by walking
    from the shorter input while lengths drop."""
    g = rep.mul(r, t)
    p = rep.identity
    for _ in range(bound):
        p = rep.mul(p, g)
        if rep.is_identity(p):
            return bound
    hr, ht = half_length(rep, r), half_length(rep, t)
    if hr < ht:
        cur, h, other, step = r, hr, ht, g
    else:
        cur, h, other, step = t, ht, hr, rep.mul(t, r)
    while True:
        nxt = rep.mul(step, cur)
        hn = half_length(rep, nxt)
        if hn >= h:
            return bound ** 3 * (2 * h + 2 * min(hn, other) + 2) ** 2
        cur, h, other = nxt, hn, h


def known_wrong_dihedral(rep, r, t):
    """Whether <r, t> is in the class of the known dihedral defect of
    known_defects.json: an infinite subgroup whose canonical pair holds
    neither r nor t.  Two reflections are the canonical pair of the
    infinite dihedral subgroup they generate exactly when the cosine of
    their positive roots is at most -1; a cosine of at least 1 means an
    infinite subgroup whose canonical pair is not {r, t}.  The pairs next
    to {r, t} along the subgroup's reflections are {t, t r t} and
    {r, r t r}."""
    def cos(x, y):
        a, b = rep.root_of(x), rep.root_of(y)
        return rep.form(a, b) / math.sqrt(rep.form(a, a) * rep.form(b, b))
    if cos(r, t) < 1 - 1e-9:
        return False
    return (cos(t, rep.mul(rep.mul(t, r), t)) > 0
            and cos(r, rep.mul(rep.mul(r, t), r)) > 0)


def automaton_job(spec, m, kind, terms, as_json):
    job = ["automaton", spec, "--m", str(m), "--kind", kind, "--series",
           "--terms", str(terms)]
    return job + ["--json"] if as_json else job


def growth(rng):
    jobs = []
    # ~G2 at m = 1 (about 3.5 s) and ~A3 (about 7 s) run one fixed kind
    # each, the cheaper one, so that a pass stays short enough for three
    # in a run and the seed does not pick between kinds of different cost
    for spec in ("~A2", "~C2", "~G2"):
        for m in (0, 1):
            for kind in (("pref",) if spec == "~G2" and m == 1 else KINDS):
                jobs.append(automaton_job(spec, m, kind, rng.randint(10, 13), m == 1))
    jobs.append(automaton_job("~A3", 0, "red", rng.randint(10, 13), False))
    # per bond multiset: both kinds at m = 0, each in a random labelling,
    # and on every other multiset one kind at m = 1, which keeps a pass
    # short enough for three in a run; the cheap m = 0 jobs keep the
    # median job in a dense part of the latency distribution
    for i, bonds in enumerate(combinations_with_replacement((3, 4, 6, 0), 3)):
        for m, kinds in ((0, KINDS), (1, (rng.choice(KINDS),) if i % 2 == 0 else ())):
            for kind in kinds:
                a, b, c = rng.sample(bonds, 3)
                mat = [[1, a, b], [a, 1, c], [b, c, 1]]
                jobs.append(automaton_job(matrix_text(mat), m, kind,
                                          rng.randint(10, 12), (i + m) % 4 == 0))
    return jobs


def census(rng):
    jobs = []
    # one automaton per larger group, of a fixed kind, which keeps a pass
    # short enough for three in a run; I2(m) is cheap and runs both
    for i, (name, longest) in enumerate(CENSUS_GROUPS.items()):
        job = ["reflections", name, "--max-length", str(longest + rng.randint(0, 3))]
        jobs.append(job + ["--json"] if name in CENSUS_JSON else job)
        kind = KINDS[i % 2]
        jobs.append(automaton_job(name, 0, kind, rng.randint(8, 14), kind == "pref"))
    for m in I2_BONDS:
        name = "I2(%d)" % m
        as_json = rng.random() < 0.5
        job = ["reflections", name, "--max-length", str(m + rng.randint(0, 3))]
        jobs.append(job + ["--json"] if as_json else job)
        for kind in KINDS:
            jobs.append(automaton_job(name, 0, kind, rng.randint(8, 14), kind == "pref"))
    return jobs


def hyperbolic_job(rng, rank):
    """roots on a connected rank-3/4 Coxeter matrix whose form has one
    negative direction and whose field has degree <= 16, cut at the
    deepest depth whose estimated cost fits the budget.  Matrices whose
    cut lands below 70% of the budget are redrawn, so that each job
    costs about the same."""
    while True:
        mat = [[1] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                mat[i][j] = mat[j][i] = rng.choice(HYPERBOLIC_BONDS)
        bonds = [mat[i][j] for i in range(rank) for j in range(i + 1, rank)]
        degree = field_degree(bonds)
        if degree > HYPERBOLIC_MAX_DEGREE or negative_directions(mat) != 1:
            continue
        seen, stack = {0}, [0]
        while stack:
            i = stack.pop()
            for j in range(rank):
                if j not in seen and mat[i][j] != 2:
                    seen.add(j)
                    stack.append(j)
        if len(seen) < rank:
            continue
        budget = HYPERBOLIC_ROOT_BUDGET_MS / (0.35 + 0.03 * degree ** 2)
        counts = root_counts(Rep(mat), 12, budget)
        depth = 2
        while depth + 1 < len(counts) and sum(counts[:depth + 2]) <= budget:
            depth += 1
        if sum(counts[:depth + 1]) >= 0.7 * budget:
            return ["roots", matrix_text(mat), "--max-depth", str(depth)]


def queries(rng):
    jobs = [
        ["roots", "U4", "--max-depth", "7"],
        ["roots", "U3", "--max-depth", "10", "--json"],
        ["roots", "U3", "--max-depth", "8", "--poset"],
    ]
    for i, name in enumerate(AFFINE_TYPES):
        job = ["roots", name, "--max-depth", "9"]
        flag = ("--poset", "--json", None)[i % 3]
        jobs.append(job + [flag] if flag else job)
        job = ["affine", name, "--terms", str(rng.randint(8, 16))]
        jobs.append(job + ["--json"] if i % 2 else job)
    for rank in (3, 4) * 5:
        job = hyperbolic_job(rng, rank)
        while job in jobs:
            job = hyperbolic_job(rng, rank)
        jobs.append(job)
    for i, (name, half) in enumerate(REFLECTION_GROUPS.items()):
        rep = Rep(spec_matrix(name))
        word, _ = random_reflection(rng, rep, half)
        job = ["prefixes", name, word_text(word)]
        jobs.append(job + ["--json"] if i % 3 == 0 else job)
        # the half-word u s of another reflection: the prefix-check path
        word, _ = random_reflection(rng, rep, half)
        job = ["prefixes", name, word_text(word[:len(word) // 2 + 1])]
        jobs.append(job + ["--json"] if i % 3 == 2 else job)
        bound = order_bound(spec_matrix(name))
        while True:
            r, tr = random_reflection(rng, rep, half)
            t, tt = random_reflection(rng, rep, half - 1)
            if (not rep.equal(tr, tt) and dihedral_work(rep, tr, tt, bound) <= DIHEDRAL_WORK_CAP
                    and not known_wrong_dihedral(rep, tr, tt)):
                break
        job = ["dihedral", name, word_text(r), word_text(t)]
        jobs.append(job + ["--json"] if i % 3 == 1 else job)
    return jobs


WORKLOADS = {"growth": growth, "census": census, "queries": queries}


def make_jobs(workload, seed):
    """The job list of one workload for one seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = WORKLOADS[workload](rng)
    if len({tuple(j) for j in jobs}) != len(jobs):
        raise ValueError("a job repeats in %s seed %d" % (workload, seed))
    return jobs
