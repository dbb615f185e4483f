"""Seeded plant generators for the three benchmark workloads.

Each workload is a *deck*: a fixed, stratified list of plant documents (the
JSON plant-file format of the CLI) plus the CLI command to run on them.  The
strata and their counts are fixed per workload; only the coefficients come
from the seed, so every seed exercises the same mix of input sizes and the
run-to-run spread measures the program rather than a changing mix.  The same
(workload, seed) always yields the same deck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

MAXIMAL_MS = (1, 2, 5, 6, 10, 13, 14, 21)
NON_MAXIMAL_MS = (3, 7, 11, 15)
QUAD_MAGNITUDES = (10, 100, 1000)


@dataclass(frozen=True)
class Plant:
    """One benchmark input: a plant document and the stratum it came from."""

    stratum: str
    doc: dict


@dataclass(frozen=True)
class Deck:
    command: str
    plants: list[Plant]


def _rng(workload: str, seed: int, part: str = "deck") -> random.Random:
    # String seeds are hashed with SHA-512 by `random`, so they are stable
    # across interpreters regardless of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{part}")


# ---------------------------------------------------------------------------
# Plant documents
# ---------------------------------------------------------------------------

def _delay_coeffs(rng: random.Random, degree: int) -> list[int]:
    """Integer coefficients of an element of Q[x^2, x^3]: x^1 = 0, c0 != 0, exact degree."""
    cs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    cs[1] = 0
    while cs[0] == 0:
        cs[0] = rng.randint(-9, 9)
    while cs[-1] == 0:
        cs[-1] = rng.randint(-9, 9)
    return cs


def delay_doc(num: list[int], den: list[int]) -> dict:
    return {
        "ring": {"kind": "delay"},
        "plant": {"num": {"coeffs": [str(c) for c in num]}, "den": {"coeffs": [str(c) for c in den]}},
    }


def quad_doc(m: int, a1: int, a2: int, b: int) -> dict:
    return {
        "ring": {"kind": "quadratic", "m": m},
        "plant": {"num": {"re": str(a1), "im": str(a2)}, "den": {"re": str(b), "im": "0"}},
    }


def _delay_plant(rng: random.Random, degree: int) -> dict:
    return delay_doc(_delay_coeffs(rng, degree), _delay_coeffs(rng, degree))


def _all_pole_plant(rng: random.Random, degree: int) -> dict:
    """c/d(x): 1/p lies in A, the case the witness construction handles badly."""
    return delay_doc([rng.choice((-3, -2, -1, 1, 2, 3))], _delay_coeffs(rng, degree))


def _quad_plant(rng: random.Random, m: int, magnitude: int, b: int, shared: bool) -> dict:
    """(a1 + a2*sqrt(m)i)/b in canonical form (gcd(a1, a2, b) = 1) with 1/p outside A,
    whose norm a1^2 + m*a2^2 has a factor in common with b exactly when ``shared``.

    Plants with 1/p in A cost 100-500 times more than the rest; drawn at
    random their number per deck would swing the totals from seed to seed,
    so they come in at a fixed share through ``_reciprocal_plant`` instead.
    """
    while True:
        a1 = rng.randint(-magnitude, magnitude)
        a2 = rng.randint(-magnitude, magnitude)
        norm = a1 * a1 + m * a2 * a2
        if (norm and gcd(gcd(a1, a2), b) == 1 and (b * a1 % norm or b * a2 % norm)
                and (gcd(norm, b) > 1) == shared):
            return quad_doc(m, a1, a2, b)


def _shared_rate(m: int, b: int) -> float:
    """Share of numerators a1 + a2*sqrt(m)i, uniform mod b with gcd(a1, a2, b) = 1,
    whose norm a1^2 + m*a2^2 has a factor in common with b.

    For a prime p the nonzero pairs mod p with p | norm number p - 1 when p = 2
    or p | m, 2(p - 1) when -m is a nonzero square mod p, else 0, out of
    p^2 - 1; the primes of b are independent by the Chinese remainder theorem.
    """
    coprime = 1.0
    p, rest = 2, b
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            if p == 2 or m % p == 0:
                coprime *= 1 - 1 / (p + 1)
            elif pow(-m % p, (p - 1) // 2, p) == 1:
                coprime *= 1 - 2 / (p + 1)
        p += 1
    return 1 - coprime


def _reciprocal_plant(rng: random.Random) -> dict:
    """p = 1/b over a random order: 1/p lies in A."""
    return quad_doc(rng.choice(MAXIMAL_MS + NON_MAXIMAL_MS), 1, 0, rng.randint(3, 12))


# ---------------------------------------------------------------------------
# Decks
# ---------------------------------------------------------------------------

# (degree, count) for random causal delay plants n/d, n and d of that degree.
# Cost grows steeply with degree, so counts fall with it.  The counts put the
# median (rank 94 of 188) inside the degree-6 stratum and the 11th-slowest
# plant (the tail percentile) inside the degree-16 stratum, away from stratum
# boundaries.
DELAY_SYNTH_STRATA = ((4, 72), (6, 48), (8, 36), (12, 14), (16, 12), (24, 2), (32, 2))
# All-pole plants c/d(x) from the low end of the degree range; a fixed share.
ALL_POLE_DEGREE = 2
ALL_POLE_COUNT = 2

QUAD_SYNTH_PER_STRATUM = 44   # per (m, magnitude) pair: 12 m x 3 magnitudes
QUAD_SYNTH_RECIPROCAL = 2

CF_QUAD_PER_STRATUM = 64      # per (m, magnitude) pair
CF_DELAY_STRATA = ((2, 72), (3, 72), (4, 72), (6, 72), (8, 72), (12, 72))


def _delay_synth(rng: random.Random) -> list[Plant]:
    plants = [
        Plant(f"deg{deg}", _delay_plant(rng, deg)) for deg, count in DELAY_SYNTH_STRATA for _ in range(count)
    ]
    plants += [Plant("allpole", _all_pole_plant(rng, ALL_POLE_DEGREE)) for _ in range(ALL_POLE_COUNT)]
    return plants


def _quad_strata(rng: random.Random, per_stratum: int) -> list[Plant]:
    # The denominator b sets the cost of the non-maximal searches (small b is
    # slow), so b is spread evenly over [2, magnitude]: one draw from each of
    # per_stratum equal-width slots.  Whether the norm of the numerator shares
    # a factor with b sets the cost too (on non-maximal orders with b = 2 it
    # is the difference between a 200 ms Unknown and a 3 ms verdict), so that
    # class is not left to chance either: it comes at its rate over residues
    # mod b, spread evenly through the stratum, so its count per stratum moves
    # only with the draw of b.
    plants = []
    for m in MAXIMAL_MS + NON_MAXIMAL_MS:
        for mag in QUAD_MAGNITUDES:
            owed = 0.5
            for i in range(per_stratum):
                b = 2 + int((i + rng.random()) * (mag - 1) / per_stratum)
                owed += _shared_rate(m, b)
                shared = owed >= 1
                owed -= shared
                plants.append(Plant(f"m{m}/mag{mag}", _quad_plant(rng, m, mag, b, shared)))
    return plants


def _quad_synth(rng: random.Random) -> list[Plant]:
    plants = _quad_strata(rng, QUAD_SYNTH_PER_STRATUM)
    plants += [Plant("reciprocal", _reciprocal_plant(rng)) for _ in range(QUAD_SYNTH_RECIPROCAL)]
    return plants


def _cf_verdict(rng: random.Random) -> list[Plant]:
    plants = _quad_strata(rng, CF_QUAD_PER_STRATUM)
    plants += [Plant(f"deg{deg}", _delay_plant(rng, deg)) for deg, count in CF_DELAY_STRATA for _ in range(count)]
    return plants


WORKLOADS = {
    "delay_synth": ("synthesize", _delay_synth),
    "quad_synth": ("synthesize", _quad_synth),
    "cf_verdict": ("coprime-factorization", _cf_verdict),
}


def make_deck(workload: str, seed: int) -> Deck:
    """The timed deck: stratified plants in a seeded order."""
    command, build = WORKLOADS[workload]
    rng = _rng(workload, seed)
    plants = build(rng)
    rng.shuffle(plants)
    return Deck(command, plants)


def make_warmup(workload: str, seed: int) -> Deck:
    """A few light plants of the workload's kinds, run untimed before the deck."""
    command, _ = WORKLOADS[workload]
    rng = _rng(workload, seed, "warmup")
    plants = []
    if workload != "quad_synth":
        plants += [Plant("deg4", _delay_plant(rng, 4)) for _ in range(3)]
    if workload != "delay_synth":
        plants += [Plant(f"m{m}", _quad_plant(rng, m, 10, rng.randint(2, 10), False)) for m in (1, 3, 5, 7)]
    return Deck(command, plants)
