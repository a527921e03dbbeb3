"""Seeded op lists for the four benchmark workloads.

Each workload is a list of rounds.  A round takes one op from every
stratum (a family of ops cut into size bins, listed in size order) in a
seeded order, so any run of whole rounds has the same mix of families
and sizes whatever the seed; this keeps the timings steady from seed to
seed.  Ops never repeat
within a ``splice``, ``paley`` or ``graphs`` list, so memoising results
cannot stand in for construction.  ``verify`` repeats its file pool,
which set-up writes with ``gen``.

Why these workloads:

- ``splice``: odd-order OMZD and OMPZD take the nested Combine route, so
  planner stage certification, the gram, splice/zero reduction and the
  float JSON encoder do the work; the field code and eigensolver do none.
- ``paley``: conference matrices, DRTs and skew-Hadamard matrices, where
  the finite field and the quadratic-character core dominate and the
  planner and splice do nothing.
- ``graphs``: q(G) = 2 witnesses, dominated by the Jacobi eigensolver and
  the edge-set build; the only workload that runs them.
- ``verify``: the only workload that reads matrix files, so the decoder
  and both verdicts of the certifier are measured here.

The numerical margin (``min_offdiag_rel``) of one op jumps with its exact
parameters, because the zero-reducing rotations pick angles from a
discrete schedule; a minimum over randomly drawn ops would therefore
change with the seed.  It is taken over round 0 (and over the fixed
verify pool), which every seed shares.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from omzd import planner
from omzd.gfield import prime_power_decompose

WORKLOADS = ("splice", "paley", "graphs", "verify")
MAX_ORDER = 400  # output order cap for DRTs and skew-Hadamard matrices


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checker expects of it.

    ``kind`` is the gen kind, the graph family or the verify claim;
    ``params`` holds the parameters as sorted (name, value) pairs.  For
    verify ops ``argv`` names the pool file by its bare name.
    """

    argv: tuple[str, ...]
    kind: str
    params: tuple
    expect_rc: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class PoolFile:
    """A verify input: what set-up generates and how it tampers with it
    (None, "zero": clear one required-nonzero entry, "perturb": add
    1e-6·max|entry| to one required-zero entry)."""

    name: str
    kind: str
    params: tuple
    tamper: str | None

    def gen_argv(self) -> list[str]:
        argv = ["gen", "--kind", self.kind]
        for key, value in self.params:
            argv += [f"--{key}", str(value)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: tuple[tuple[Op, ...], ...]
    pool: tuple[PoolFile, ...] = ()

    def ops(self) -> list[Op]:
        return [op for r in self.rounds for op in r]

    def digest(self) -> str:
        doc = {
            "rounds": [[[list(op.argv), op.expect_rc] for op in r] for r in self.rounds],
            "pool": [[p.name, p.kind, list(map(list, p.params)), p.tamper] for p in self.pool],
        }
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _gen(kind: str, **params) -> Op:
    argv = ["gen", "--kind", kind]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    return Op(tuple(argv), kind, tuple(sorted(params.items())))


def _graph(family: str, **params) -> Op:
    argv = ["certify-graph", "--family", family]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    return Op(tuple(argv), family, tuple(sorted(params.items())))


def _chunks(seq: list, parts: int) -> list[list]:
    """Split a sorted sequence into ``parts`` contiguous, near-equal bins."""
    size, extra = divmod(len(seq), parts)
    out, start = [], 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        out.append(seq[start:end])
        start = end
    return out


_GOLDEN = (5**0.5 - 1) / 2


def _spread_order(stratum: list[Op], taken: int, rng: random.Random) -> list[Op]:
    """The stratum's ops other than index ``taken``, in an order whose
    every prefix is spread evenly over the stratum's size range: index
    floor(L·frac(u + r·golden)) for a seeded offset u (the next free index
    on a clash).  A random order would let the sizes drawn, and so the
    timings, swing with the seed."""
    size = len(stratum)
    free = [True] * size
    free[taken] = False
    order, u = [], rng.random()
    for r in range(size - 1):
        i = int(size * ((u + r * _GOLDEN) % 1.0))
        while not free[i]:
            i = (i + 1) % size
        free[i] = False
        order.append(stratum[i])
    return order


def _rounds(strata: list[list[Op]], rng: random.Random) -> tuple[tuple[Op, ...], ...]:
    """Round 0 holds the middle op of every stratum, the same for every
    seed; each later round draws the next op of every stratum's spread
    order, and the list ends when the smallest stratum is used up."""
    middles = [len(s) // 2 for s in strata]
    orders = [_spread_order(s, m, rng) for s, m in zip(strata, middles)]
    rounds = [rng.sample([s[m] for s, m in zip(strata, middles)], len(strata))]
    for r in range(min(len(o) for o in orders)):
        batch = [o[r] for o in orders]
        rng.shuffle(batch)
        rounds.append(batch)
    return tuple(tuple(r) for r in rounds)


def _exists(kind: str, n: int, k: int | None = None) -> bool:
    return planner.exists(kind, n, k).exists


def _odd_prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for q in range(lo, hi + 1):
        pk = prime_power_decompose(q)
        if pk is not None and pk[0] != 2:
            out.append(q)
    return out


def _tournament_order(kind: str, q: int, t: int) -> int:
    return (q + 1) * 2**t - (1 if kind == "drt" else 0)


def splice_strata() -> list[list[Op]]:
    odd = list(range(51, 252, 2))
    strata = []
    for ns in _chunks(odd, 10):
        strata.append([_gen("omzd", n=n) for n in ns if _exists("omzd", n)])
        strata.append(
            [_gen("ompzd", n=n, k=k) for n in ns for k in range(1, n) if _exists("ompzd", n, k)]
        )
    return strata


def _paley_families() -> list[tuple[str, int, list[int]]]:
    qs = _odd_prime_powers(27, 243)
    fams = [("conference", 0, qs)]
    for kind in ("drt", "skew-hadamard"):
        for t in (0, 1, 2):
            fams.append(
                (kind, t, [q for q in qs if q % 4 == 3 and _tournament_order(kind, q, t) <= MAX_ORDER])
            )
    return fams


def paley_strata() -> list[list[Op]]:
    bins = {("conference", 0): 6, ("drt", 0): 3, ("drt", 1): 2, ("drt", 2): 1}
    bins.update({("skew-hadamard", t): b for (k, t), b in bins.items() if k == "drt"})
    strata = []
    for kind, t, qs in _paley_families():
        for chunk in _chunks(qs, bins[(kind, t)]):
            if kind == "conference":
                strata.append([_gen(kind, q=q) for q in chunk])
            else:
                strata.append([_gen(kind, q=q, t=t) for q in chunk])
    return strata


_GNK_SKIP = {(1, 1), (2, 1), (3, 3), (3, 2)}


def graphs_strata() -> list[list[Op]]:
    halves = list(range(16, 61))  # graph order 2n in [32, 120]
    strata = [[_graph("knn", n=n) for n in ns] for ns in _chunks(halves, 4)]
    strata += [
        [
            _graph("gnk", n=n, k=k)
            for n in ns
            for k in range(n + 1)
            if (n, k) not in _GNK_SKIP and _exists("ompzd", n, k)
        ]
        for ns in _chunks(halves, 4)
    ]
    strata.append([_graph("multipartite", n=n, m=2) for n in halves])
    # m = 6 and m = 8 share three order bins: their cost climbs steeply with
    # the order, so one stratum per m would swing the mix with the seed
    more = sorted(((n * m, n, m) for m in (6, 8) for n in range(1, 21) if 32 <= n * m <= 120))
    strata += [[_graph("multipartite", n=n, m=m) for _, n, m in part] for part in _chunks(more, 3)]
    return strata


# The verify inputs: even-order OMZD-family files spanning orders 100-400
# plus the other generated kinds, with one file in five (marked True)
# tampered with.  The files are the same for every seed, so set-up costs
# the same; the seed picks their order and how each marked file is
# tampered with.  Fifteen files keep p50 and p90 inside one file's cluster
# of latencies rather than on the edge between two.
VERIFY_FILES = (
    ("omzd", {"n": 100}, False),
    ("omzd", {"n": 250}, True),
    ("omzd", {"n": 340}, False),
    ("symmetric-omzd", {"n": 160}, False),
    ("symmetric-omzd", {"n": 310}, False),
    ("symmetric-omzd", {"n": 400}, False),
    ("ompzd", {"n": 130, "k": 64}, True),
    ("ompzd", {"n": 220, "k": 73}, False),
    ("ompzd", {"n": 280, "k": 279}, False),
    ("multipartite", {"n": 60, "m": 2}, False),
    ("multipartite", {"n": 40, "m": 6}, False),
    ("conference", {"q": 81}, False),
    ("conference", {"q": 169}, False),
    ("drt", {"q": 43, "t": 2}, True),
    ("skew-hadamard", {"q": 83, "t": 1}, False),
)


def verify_pool(rng: random.Random) -> tuple[PoolFile, ...]:
    pool = []
    for i, (kind, params, tampered) in enumerate(rng.sample(VERIFY_FILES, len(VERIFY_FILES))):
        tamper = rng.choice(("zero", "perturb")) if tampered else None
        pool.append(PoolFile(f"f{i:02d}.json", kind, tuple(sorted(params.items())), tamper))
    return tuple(pool)


VERIFY_ROUNDS = 200


def build(name: str, seed: int) -> Workload:
    """The op list of a workload for a seed; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")
    if name == "splice":
        return Workload(name, _rounds(splice_strata(), rng))
    if name == "paley":
        return Workload(name, _rounds(paley_strata(), rng))
    if name == "graphs":
        return Workload(name, _rounds(graphs_strata(), rng))
    if name == "verify":
        pool = verify_pool(rng)
        ops = [
            Op(("verify", "--in", p.name, "--claim", p.kind), p.kind, (("file", p.name),), 1 if p.tamper else 0)
            for p in pool
        ]
        return Workload(name, tuple(tuple(rng.sample(ops, len(ops))) for _ in range(VERIFY_ROUNDS)), pool)
    raise ValueError(f"unknown workload {name!r}")
