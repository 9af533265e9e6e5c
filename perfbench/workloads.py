"""The four benchmark workloads: seeded inputs and independent output checks.

Each workload turns ``(seed, pass_index)`` into a list of ``Request`` objects,
one per CLI invocation (the arguments after ``python -m prismvol``).  Every
request carries its own check; a check never calls into ``prismvol``.  It
compares the output with facts derived here from the inputs:

* ``audit-range``: row count, per-row status and the candidate set from the
  divisor argument (mu - 2) | 12 with mu = |4n - 1|, and the frozen value of
  the upper bound;
* ``cover-count``: Hall's identity h_n = sum_k C(n-1, k-1) t_k h_{n-k} between
  the plain and the transitive counts of one presentation, frozen trefoil
  counts, and the Hopf-link counts n! p(n) and (n-1)! sigma(n);
* ``homology``: the divisors chain under divisibility and multiply to
  |sum_i beta_i prod_{j != i} alpha_j|;
* ``cli-session``: the exact stdout of every request, built here from the
  definitions of each command, and refusals as exit 1 with one stderr line.

Inputs depend only on the seed: ``random.Random`` seeded with a string is
stable across processes and Python versions.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# The value of 2 * V0 that every audit row must print (README, criterion 10).
UPPER_BOUND_VALUE = 7.327724753418

# Homomorphism counts of the trefoil group <x, y | xyx = yxy> into S_1..S_6,
# all and transitive; the bench's own tests rederive degrees 1..4 by brute force.
TREFOIL_COUNTS = {
    False: (1, 2, 12, 96, 600, 6480),
    True: (1, 1, 8, 54, 144, 2640),
}

Check = Callable[[bytes], "str | None"]


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output must satisfy.

    ``check`` maps stdout to an error message or None; a request without a
    check must be refused: exit status 1 and exactly one line on stderr.
    ``group`` ties requests whose outputs are checked together.
    """

    argv: tuple[str, ...]
    check: Check | None = field(default=None, compare=False)
    group: tuple | None = None


def _rng(workload: str, seed: int, pass_index: int | None = None) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _compact(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _expect_text(expected: str) -> Check:
    data = expected.encode()

    def check(stdout: bytes) -> str | None:
        if stdout != data:
            return f"stdout {stdout[:200]!r} != expected {data[:200]!r}"
        return None

    return check


def _expect_json(obj: object) -> Check:
    return _expect_text(json.dumps(obj, indent=2) + "\n")


def _parse_json(stdout: bytes) -> object:
    try:
        return json.loads(stdout)
    except ValueError as err:
        raise _Mismatch(f"stdout is not JSON: {err}") from None


class _Mismatch(Exception):
    pass


def _checked(fn: Callable[[bytes], None]) -> Check:
    def check(stdout: bytes) -> str | None:
        try:
            fn(stdout)
        except _Mismatch as err:
            return str(err)
        return None

    return check


# --------------------------------------------------------------- audit-range


def candidate_exceptional(n_from: int, n_to: int) -> list[int]:
    """Parameters whose case 5 has a solution: d = 6 mu / (mu - 2) needs
    (mu - 2) | 12, and case 3, d = 3 mu / (mu - 1), needs (mu - 1) | 3, which
    no odd mu >= 3 meets."""
    found = []
    for n in range(n_from, n_to + 1):
        mu = abs(4 * n - 1)
        if mu >= 3 and 12 % (mu - 2) == 0:
            found.append(n)
    return found


def audit_check(n_from: int, n_to: int) -> Check:
    candidates = candidate_exceptional(n_from, n_to)

    def check(stdout: bytes) -> None:
        report = _parse_json(stdout)
        rows = report.get("reports") if isinstance(report, dict) else None
        if not isinstance(rows, list):
            raise _Mismatch("no 'reports' array")
        if len(rows) != n_to - n_from + 1:
            raise _Mismatch(f"{len(rows)} rows for a window of {n_to - n_from + 1}")
        for n, row in zip(range(n_from, n_to + 1), rows):
            if row.get("n") != n:
                raise _Mismatch(f"row for n={n} reports n={row.get('n')!r}")
            if abs(4 * n - 1) < 3:
                status = "excluded"
            elif n in candidates:
                status = "candidate-exceptional"
            else:
                status = "conditional"
            if row.get("status") != status:
                raise _Mismatch(f"n={n}: status {row.get('status')!r}, expected {status!r}")
            if row.get("upper_bound_value") != UPPER_BOUND_VALUE:
                raise _Mismatch(f"n={n}: upper_bound_value {row.get('upper_bound_value')!r}")
        if report.get("candidate_exceptional") != candidates:
            raise _Mismatch(
                f"candidate_exceptional {report.get('candidate_exceptional')!r}, "
                f"expected {candidates}"
            )

    return _checked(check)


AUDIT_WIDTH = 2001


def audit_range(seed: int, pass_index: int) -> list[Request]:
    """One cold JSON audit of a 2001-parameter window.

    The seed shifts the window, which always holds n = -1, 0, 1; every pass of
    a run repeats the same window, so identical output is checked once.
    """
    n_from = _rng("audit-range", seed).randint(2 - AUDIT_WIDTH, -1)
    n_to = n_from + AUDIT_WIDTH - 1
    argv = ("prism", "verify", "--from", str(n_from), "--to", str(n_to), "--json")
    return [Request(argv, audit_check(n_from, n_to))]


# --------------------------------------------------------------- cover-count


def hall_violations(plain: list[int], transitive: list[int]) -> list[int]:
    """Degrees n at which h_n != sum_k C(n-1, k-1) t_k h_{n-k} (h_0 = 1)."""
    h = [1] + list(plain)
    bad = []
    for n in range(1, len(plain) + 1):
        total = sum(
            math.comb(n - 1, k - 1) * transitive[k - 1] * h[n - k] for k in range(1, n + 1)
        )
        if total != h[n]:
            bad.append(n)
    return bad


def _partitions(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def hopf_counts(transitive: bool, degree: int) -> int:
    """Hom(Z^2, S_n) is n! p(n); its transitive part is (n-1)! sigma(n)."""
    if transitive:
        sigma = sum(k for k in range(1, degree + 1) if degree % k == 0)
        return math.factorial(degree - 1) * sigma
    return math.factorial(degree) * _partitions(degree)


def _count_check(expected: int | None) -> Check:
    def check(stdout: bytes) -> None:
        text = stdout.decode(errors="replace")
        if not text.endswith("\n") or not text[:-1].isdigit():
            raise _Mismatch(f"stdout {stdout[:80]!r} is not one count")
        if expected is not None and int(text) != expected:
            raise _Mismatch(f"count {int(text)}, frozen value {expected}")

    return _checked(check)


def random_relator(rng: random.Random, length: int = 6) -> list[int]:
    """A cyclically reduced word in two generators that uses both."""
    while True:
        word = [rng.choice((1, -1, 2, -2)) for _ in range(length)]
        reduced = all(a != -b for a, b in zip(word, word[1:] + word[:1]))
        if reduced and {abs(x) for x in word} == {1, 2}:
            return word


OVERSIZED_DEGREE = 300000


def cover_count(seed: int, pass_index: int) -> list[Request]:
    """Counts at every degree 1..d, plain and transitive, per presentation.

    Trefoil and Hopf go to d = 6 and three seeded one-relator presentations
    to d = 5; one oversized degree must be refused.  One pass then fills a
    run, and the tail (the latency with ten beyond it) falls among the eight
    degree-5 counts of length-6 relators, whose cost does not depend on which
    relators the seed draws.
    """
    rng = _rng("cover-count", seed, pass_index)
    groups: list[tuple[str, str, int, Callable[[bool, int], int] | None]] = [
        ("trefoil", "@trefoil", 6, lambda tr, d: TREFOIL_COUNTS[tr][d - 1]),
        ("hopf", "@hopf", 6, hopf_counts),
    ]
    for i in range(3):
        pres = {"generators": 2, "relators": [random_relator(rng)]}
        groups.append((f"random{i}", _compact(pres), 5, None))
    requests = []
    for label, ref, top, frozen in groups:
        for degree in range(1, top + 1):
            for transitive in (False, True):
                argv = ("covers", "count", ref, "--degree", str(degree))
                if transitive:
                    argv += ("--transitive",)
                expected = frozen(transitive, degree) if frozen else None
                requests.append(
                    Request(argv, _count_check(expected), (label, transitive, degree))
                )
    requests.append(
        Request(("covers", "count", "@trefoil", "--degree", str(OVERSIZED_DEGREE)))
    )
    rng.shuffle(requests)
    return requests


def cover_group_errors(requests: list[Request], stdouts: list[bytes | None]) -> dict[int, str]:
    """Hall's identity per presentation; a violation fails the whole group.

    ``stdouts`` holds the output of each request that passed its own check,
    else None; a group with a failed member is not checked further.
    """
    members: dict[str, list[int]] = {}
    for i, req in enumerate(requests):
        if req.group is not None:
            members.setdefault(req.group[0], []).append(i)
    errors = {}
    for label, idx in members.items():
        if any(stdouts[i] is None for i in idx):
            continue
        counts = {requests[i].group[1:]: int(stdouts[i]) for i in idx}
        top = max(d for _, d in counts)
        plain = [counts[(False, d)] for d in range(1, top + 1)]
        trans = [counts[(True, d)] for d in range(1, top + 1)]
        bad = hall_violations(plain, trans)
        if bad:
            for i in idx:
                errors[i] = f"{label}: Hall's identity fails at degrees {bad}"
    return errors


# ------------------------------------------------------------------ homology


def random_fibers(rng: random.Random, count: int, max_alpha: int) -> list[list[int]]:
    fibers = []
    for _ in range(count):
        alpha = rng.randint(2, max_alpha)
        while True:
            beta = rng.randint(-alpha + 1, alpha - 1)
            if beta and math.gcd(beta, alpha) == 1:
                break
        fibers.append([beta, alpha])
    return fibers


def homology_check(genus: int, fibers: list[list[int]]) -> Check:
    order = abs(
        sum(
            beta * math.prod(a for j, (_, a) in enumerate(fibers) if j != i)
            for i, (beta, _) in enumerate(fibers)
        )
    )

    def check(stdout: bytes) -> None:
        data = _parse_json(stdout)
        divisors = data.get("divisors") if isinstance(data, dict) else None
        if not isinstance(divisors, list) or not all(
            isinstance(d, int) and not isinstance(d, bool) and d >= 0 for d in divisors
        ):
            raise _Mismatch(f"divisors {divisors!r} are not non-negative integers")
        if len(divisors) < 2 * genus or any(divisors[len(divisors) - 2 * genus :]):
            raise _Mismatch(f"divisors {divisors} lack the {2 * genus} free summands")
        torsion = divisors[: len(divisors) - 2 * genus]
        if 1 in torsion:
            raise _Mismatch(f"divisors {divisors} list a trivial factor")
        for a, b in zip(torsion, torsion[1:]):
            if (b % a if a else b):
                raise _Mismatch(f"divisor {a} does not divide {b}")
        if math.prod(torsion) != order:
            raise _Mismatch(f"divisor product {math.prod(torsion)} != |det| = {order}")

    return _checked(check)


HOMOLOGY_FIBERS = range(4, 17)
HOMOLOGY_PER_FIBER_COUNT = 10
HOMOLOGY_MAX_ALPHA = 40


def homology(seed: int, pass_index: int) -> list[Request]:
    """``seifert h1 --json`` on orientable-base symbols, ten per fibre count
    4..16 with alpha <= 40, in seeded order.

    One pass fills a run, so every run has the same mix of fibre counts.
    """
    rng = _rng("homology", seed, pass_index)
    requests = []
    for count in HOMOLOGY_FIBERS:
        for _ in range(HOMOLOGY_PER_FIBER_COUNT):
            genus = rng.randint(0, 1)
            fibers = random_fibers(rng, count, HOMOLOGY_MAX_ALPHA)
            symbol = {"class": "Oo", "genus": genus, "fibers": fibers}
            requests.append(
                Request(("seifert", "h1", _compact(symbol), "--json"), homology_check(genus, fibers))
            )
    rng.shuffle(requests)
    return requests


# --------------------------------------------------------------- cli-session
# Each builder draws its parameters from the rng and returns one request whose
# expected stdout follows from the command's definition in the README.


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _normal_fibers(fibers: list[list[int]]) -> list[list[int]]:
    excess = 0
    exceptional = []
    for beta, alpha in fibers:
        if alpha == 1:
            excess += beta
        else:
            excess += beta // alpha
            exceptional.append([beta % alpha, alpha])
    exceptional.sort(key=lambda pair: (pair[1], pair[0]))
    return exceptional + [[excess, 1]]


def _pairs(fibers: list[list[int]]) -> str:
    return ", ".join(f"{b}/{a}" for b, a in fibers)


def _symbol(rng: random.Random, base_class: str = "Oo") -> dict:
    genus = rng.randint(1 if base_class == "On" else 0, 2)
    return {"class": base_class, "genus": genus, "fibers": random_fibers(rng, 3, 12)}


def _seifert_normalize(rng):
    s = _symbol(rng)
    line = f"(Oo, {s['genus']}; {_pairs(_normal_fibers(s['fibers']))})\n"
    return Request(("seifert", "normalize", _compact(s)), _expect_text(line))


def _seifert_euler(rng):
    s = _symbol(rng)
    e = -sum(Fraction(b, a) for b, a in s["fibers"])
    return Request(("seifert", "euler", _compact(s), "--json"), _expect_json({"euler": _frac(e)}))


def _seifert_h1(rng):
    # (1/2, -1/2, -2/3): |det| = |6 - 6 - 8| = 8, cyclic as 8 = 2^3 has one factor
    return Request(("seifert", "h1", "@m1_oo"), _expect_text("divisors: 8\norder: 8\n"))


def _seifert_base(rng):
    s = _symbol(rng, rng.choice(("Oo", "On")))
    kind = "orientable" if s["class"] == "Oo" else "non-orientable"
    cones = ", ".join(str(a) for a in sorted(a for _, a in s["fibers"]))
    line = f"{kind} genus {s['genus']}, boundary 0, cones {cones}\n"
    return Request(("seifert", "base", _compact(s)), _expect_text(line))


def _chi_orb(orientable: bool, genus: int, boundary: int, cones: list[int]) -> Fraction:
    surface = 2 - (2 if orientable else 1) * genus - boundary
    return surface - sum(1 - Fraction(1, c) for c in cones)


def _orbifold_chi(rng):
    orientable = rng.random() < 0.5
    genus = rng.randint(0 if orientable else 1, 2)
    boundary = rng.randint(0, 2)
    cones = [rng.randint(2, 9) for _ in range(rng.randint(0, 3))]
    argv = ("orbifold", "chi", "--orientable", str(orientable).lower(),
            "--genus", str(genus), "--boundary", str(boundary))
    if cones:
        argv += ("--cones", ",".join(map(str, cones)))
    return Request(argv, _expect_text(_frac(_chi_orb(orientable, genus, boundary, cones)) + "\n"))


def _orbifold_solve(rng):
    # genus-2 one-boundary fiber (chi = -3) over a disk with cones
    cones = [rng.randint(2, 9) for _ in range(rng.randint(1, 3))]
    chi_base = _chi_orb(True, 0, 1, cones)
    ratio = Fraction(-3) / chi_base if chi_base else Fraction(0)
    chi_only = [int(ratio)] if ratio.denominator == 1 and ratio > 0 else []
    degrees = [d for d in chi_only if all(d % c == 0 for c in cones)]
    argv = ("orbifold", "solve", "--fiber-genus", "2", "--fiber-boundary", "1",
            "--orientable", "true", "--genus", "0", "--boundary", "1",
            "--cones", ",".join(map(str, cones)), "--json")
    return Request(argv, _expect_json({"degrees": degrees, "chi_only_degrees": chi_only}))


def _orbifold_cover(rng):
    # double cover of the disk over k branch points: chi = 2 - k, one boundary
    # circle over it when k is odd, two when k is even
    k = rng.randint(1, 7)
    boundary = 1 if k % 2 else 2
    genus = (2 - boundary - (2 - k)) // 2
    argv = ("orbifold", "cover", "--genus", "0", "--boundary", "1", "--degree", "2")
    argv += ("--branch", "2") * k
    line = f"orientable genus {genus}, boundary {boundary}, euler {2 - k}\n"
    return Request(argv, _expect_text(line))


def _montesinos_ln(rng):
    n = rng.randint(-100, 100)
    m = 4 * n - 1
    third = (-2, m) if m > 0 else (2, -m)
    text = (f"spherical: genus 0; tangles 1/2, -1/2, {third[0]}/{third[1]}\n"
            f"crosscap: genus 1; tangles {m}/2\n")
    return Request(("montesinos", "ln", str(n)), _expect_text(text))


def _montesinos_cover(rng):
    genus = rng.randint(0, 1)
    tangles = random_fibers(rng, rng.randint(1, 4), 9)
    link = {"genus": genus, "tangles": tangles}
    symbol = {"class": "Oo" if genus == 0 else "On", "genus": genus,
              "fibers": _normal_fibers(tangles)}
    return Request(("montesinos", "cover", _compact(link), "--json"), _expect_json(symbol))


def _random_slope(rng, bound: int) -> tuple[int, int]:
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if math.gcd(p, q) == 1:
            return p, q


def _canonical(p: int, q: int) -> tuple[int, int]:
    return (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)


def _slopes_delta(rng):
    (p1, q1), (p2, q2) = _random_slope(rng, 9), _random_slope(rng, 9)
    return Request(("slopes", "delta", f"{p1},{q1}", f"{p2},{q2}"),
                   _expect_text(f"{abs(p1 * q2 - q1 * p2)}\n"))


def _slopes_enumerate(rng):
    # entries <= 3 and k1 + k2 <= 5 keep every solution inside |p|, |q| <= 15
    while True:
        f, c = _random_slope(rng, 3), _random_slope(rng, 3)
        if _canonical(*f) != _canonical(*c):
            break
    k1, k2 = rng.randint(1, 2), rng.randint(0, 3)
    found = sorted(
        {
            _canonical(p, q)
            for p in range(-20, 21)
            for q in range(-20, 21)
            if math.gcd(p, q) == 1
            and abs(f[0] * q - f[1] * p) == k1
            and abs(c[0] * q - c[1] * p) <= k2
        }
    )
    argv = ("slopes", "enumerate", f"{f[0]},{f[1]}", f"{c[0]},{c[1]}",
            "--k1", str(k1), "--k2", str(k2), "--json")
    return Request(argv, _expect_json({"slopes": [list(s) for s in found]}))


def _artin(letters: list[int]) -> str:
    return " ".join(f"s{l}" if l > 0 else f"s{-l}^-1" for l in letters)


def _braid_ttk(rng):
    p = rng.randint(2, 6)
    q, r, s = rng.randint(-3, 3), rng.randint(2, p), rng.randint(-2, 2)

    def block(top: int, exponent: int) -> list[int]:
        if exponent >= 0:
            return list(range(1, top + 1)) * exponent
        return list(range(-top, 0)) * -exponent

    letters = block(p - 1, q) + block(r - 1, r * s)
    return Request(("braid", "ttk", str(p), str(q), str(r), str(s)),
                   _expect_text(_artin(letters) + "\n"))


def _components(strands: int, letters: list[int]) -> int:
    position = list(range(strands))
    for letter in letters:
        i = abs(letter) - 1
        position[i], position[i + 1] = position[i + 1], position[i]
    seen, cycles = set(), 0
    for start in range(strands):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = position[j]
    return cycles


def _braid_word(rng, positive: bool) -> tuple[int, list[int]]:
    strands = rng.randint(2, 6)
    letters = [rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))]
    if not positive:
        letters = [l * rng.choice((1, -1)) for l in letters]
    return strands, letters


def _braid_components(rng):
    strands, letters = _braid_word(rng, positive=False)
    word = _compact({"strands": strands, "letters": letters})
    return Request(("braid", "components", word),
                   _expect_text(f"{_components(strands, letters)}\n"))


def _braid_chi(rng):
    strands, letters = _braid_word(rng, positive=True)
    chi = strands - len(letters)
    text = f"chi: {chi}\n"
    if _components(strands, letters) == 1:
        text += f"genus: {(1 - chi) // 2}\n"
    word = _compact({"strands": strands, "letters": letters})
    return Request(("braid", "chi", word), _expect_text(text))


def _covers_count(rng):
    name = rng.choice(("trefoil", "hopf"))
    degree, transitive = rng.randint(1, 4), rng.random() < 0.5
    count = TREFOIL_COUNTS[transitive][degree - 1] if name == "trefoil" else hopf_counts(
        transitive, degree
    )
    argv = ("covers", "count", f"@{name}", "--degree", str(degree))
    if transitive:
        argv += ("--transitive",)
    return Request(argv, _expect_text(f"{count}\n"))


def prism_table(n_from: int, n_to: int) -> str:
    """The ``prism verify`` table: fixed header, one row per parameter."""
    candidates = candidate_exceptional(n_from, n_to)
    lines = [
        f"upper bound 2*V0 = {UPPER_BOUND_VALUE:.12f} (degree-2 certificate)",
        "    n  status                  horizontal d    twist-knot excluded  max degree",
    ]
    for n in range(n_from, n_to + 1):
        mu = abs(4 * n - 1)
        if mu < 3:
            lines.append(f"{n:>5}  excluded                degenerate parameter: "
                         f"|4n - 1| = {mu} < 3")
            continue
        status, degree = "conditional", "none"
        if n in candidates:
            status, degree = "candidate-exceptional", str(6 * mu // (mu - 2))
        lines.append(f"{n:>5}  {status:<22}  {degree:<14}  {'yes':<19}  3")
    lines.append(f"candidate exceptional: {', '.join(map(str, candidates)) or 'none'}")
    return "\n".join(lines) + "\n"


def _prism_verify_table(rng):
    n_from = rng.randint(-60, 10)
    return Request(("prism", "verify", "--from", str(n_from), "--to", str(n_from + 48)),
                   _expect_text(prism_table(n_from, n_from + 48)))


def _prism_verify_json(rng):
    n_from = rng.randint(-60, 10)
    return Request(("prism", "verify", "--from", str(n_from), "--to", str(n_from + 48), "--json"),
                   audit_check(n_from, n_from + 48))


def _refuse_malformed_json(rng):
    text = _compact(_symbol(rng))
    return Request(("seifert", "normalize", text[: rng.randint(1, len(text) - 1)]))


def _refuse_nonprimitive_slope(rng):
    (p, q), k = _random_slope(rng, 5), rng.randint(2, 4)
    return Request(("slopes", "delta", f"{k * p},{k * q}", "1,0"))


def _refuse_unreduced_fiber(rng):
    k, a = rng.randint(2, 5), rng.randint(1, 5)
    s = {"class": "Oo", "genus": 0, "fibers": [[1, 2], [k, k * a]]}
    return Request(("seifert", "h1", _compact(s)))


def _refuse_negative_braid(rng):
    strands, letters = _braid_word(rng, positive=True)
    letters.append(-rng.randint(1, strands - 1))
    return Request(("braid", "chi", _compact({"strands": strands, "letters": letters})))


def _refuse_zero_degree(rng):
    return Request(("covers", "count", "@trefoil", "--degree", "0"))


CLI_SESSION_BUILDERS = (
    _seifert_normalize, _seifert_euler, _seifert_h1, _seifert_base,
    _orbifold_chi, _orbifold_solve, _orbifold_cover,
    _montesinos_ln, _montesinos_cover,
    _slopes_delta, _slopes_enumerate,
    _braid_ttk, _braid_components, _braid_chi,
    _covers_count, _prism_verify_table, _prism_verify_json,
    _refuse_malformed_json, _refuse_nonprimitive_slope, _refuse_unreduced_fiber,
    _refuse_negative_braid, _refuse_zero_degree,
)


def cli_session(seed: int, pass_index: int) -> list[Request]:
    """Every builder once per pass, in seeded order."""
    rng = _rng("cli-session", seed, pass_index)
    requests = [build(rng) for build in CLI_SESSION_BUILDERS]
    rng.shuffle(requests)
    return requests


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What one request did; ``stdout`` loads the output bytes on demand."""

    timed_out: bool
    exit_code: int | None
    stderr: bytes
    digest: str
    stdout: Callable[[], bytes]


def request_error(req: Request, out: Outcome) -> str | None:
    if req.check is None:
        lines = out.stderr.decode(errors="replace").splitlines()
        if out.exit_code != 1:
            return f"expected a refusal with exit 1, got exit {out.exit_code}"
        if len(lines) != 1 or not lines[0].strip():
            return f"a refusal must print one stderr line, got {len(lines)}"
        return None
    if out.exit_code != 0:
        return f"exit {out.exit_code}: {out.stderr[-200:]!r}"
    return req.check(out.stdout())


DEADLINE_MISSED = "missed the deadline"


def pass_errors(
    workload: "Workload", requests: list[Request], outcomes: list[Outcome], cache: dict
) -> list[str | None]:
    """Per request: None, ``DEADLINE_MISSED`` or what was wrong with it.

    ``cache`` maps identical (request, exit, stderr, stdout digest) tuples to
    their verdict, so a repeated output is checked once per run.
    """
    errors: list[str | None] = []
    for req, out in zip(requests, outcomes):
        if out.timed_out:
            errors.append(DEADLINE_MISSED)
            continue
        key = (req.argv, out.exit_code, out.stderr, out.digest)
        if key not in cache:
            cache[key] = request_error(req, out)
        errors.append(cache[key])
    if workload.group_errors is not None:
        passed = [o.stdout() if e is None else None for o, e in zip(outcomes, errors)]
        for i, err in workload.group_errors(requests, passed).items():
            errors[i] = err
    return errors


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable[[int, int], list[Request]]
    deadline_s: float
    group_errors: Callable[[list[Request], list], dict[int, str]] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # a request past its deadline (in reference seconds, see run.py) is
        # killed and counts as failed; only homology's deadline is tight, the
        # others guard against hangs
        Workload("audit-range", audit_range, 60.0),
        Workload("cover-count", cover_count, 30.0, cover_group_errors),
        Workload("homology", homology, 0.25),
        Workload("cli-session", cli_session, 10.0),
    )
}
