"""`converging`: depth-driven jobs on the converging-sequence model.

A timed round runs the five job kinds at depth 4, each on its own n in
8..12 (ROUND below), in a seeded order; a run repeats the round, so every
job has several repeats to take its median from.  The pairing of kinds and
n is fixed, not seeded, so that every seed asks for the same amount of work.
Setup builds the five sites; each job unpickles a fresh copy.  The seed
names the point of the constant precosheaf, orders each round and picks the
traced run's depth-6 job.  Depths 6, 8 and 10 run in the traced run (that
job and the cosheafify depth curve): at d=10 a single `is_smooth` of
constant Z takes longer than a third of a timed run.

Expected answers are written by hand from the model: level k of the X tower
of the cosheafified point has k+2 elements, the constant point and constant Z
are not smooth, the costalk at the limit point is not rudimentary and the
costalk at 1/3 is rudimentary with a singleton top level.
"""

from __future__ import annotations

import json
import pickle
import random

from harness import Outcome

IMPORT = "finsite"
KINDS = ("cosheafify", "smooth-pt", "smooth-Z", "costalk-0", "costalk-1/3")
NS = (8, 9, 10, 11, 12)
# One round, about 5.5 s here: the costlier kind (Z) sits on the middle n.
ROUND = (("cosheafify", 12), ("smooth-pt", 11), ("smooth-Z", 10), ("costalk-0", 9),
         ("costalk-1/3", 8))
TIMED_DEPTH = 4
CURVE_N = 12
CURVE_DEPTHS = (4, 6, 8, 10)


class Job:
    def __init__(self, kind: str, n: int, d: int, state: dict):
        self.kind, self.n, self.d = kind, n, d
        self.point, self.template = state["point"], state["sites"][n]
        self.label = f"{kind} n={n} d={d}"

    def prepare(self):
        from finsite import constant_precosheaf, site_points
        from finsite.values import finset, free_ab
        site = pickle.loads(self.template)
        value = free_ab(1) if self.kind == "smooth-Z" else finset(self.point)
        return constant_precosheaf(site, value, self.d, site_points(site))

    def run(self, a, tracer=None) -> Outcome:
        from finsite import cosheafify, is_rudimentary_at_depth, is_smooth
        from finsite.cosheaf import costalk
        d = self.d
        if self.kind.startswith("smooth"):
            rep = is_smooth(a, d)
            problems = [] if rep.classification == "NOT-SMOOTH" else [
                f"expected NOT-SMOOTH, got {rep.classification}"]
            return Outcome(_canon(rep.to_json()), problems)
        result = cosheafify(a, d)
        problems = [] if result.report.verdict == "PASS" else ["cosheafify postconditions failed"]
        if self.kind == "cosheafify":
            sizes = [len(level.elements) for level in result.precosheaf.values["X"].levels]
            if sizes != [k + 2 for k in range(d + 1)]:
                problems.append(f"X tower sizes {sizes}")
            return Outcome(_canon([result.report.to_json(), sizes]), problems)
        point = "pt:0" if self.kind == "costalk-0" else "pt:1/3"
        tower = costalk(result.precosheaf, a.point_filter(point), d)
        verdict = is_rudimentary_at_depth(tower, d)
        if point == "pt:0" and verdict.rudimentary:
            problems.append("costalk at the limit point is rudimentary")
        if point == "pt:1/3" and not (verdict.rudimentary and len(tower.levels[-1]) == 1):
            problems.append("costalk at 1/3 is not a rudimentary singleton")
        return Outcome(_canon([verdict.verdict, list(verdict.profile)]), problems)


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def setup(seed: int, root):
    from finsite import converging_sequence_site
    rng = random.Random(f"converging:{seed}")
    return {"sites": {n: pickle.dumps(converging_sequence_site(n)) for n in NS},
            "seed": seed, "point": f"pt{rng.randrange(1000)}",
            "deep_n": rng.choice(NS), "deep_kind": rng.choice(KINDS)}


def rounds(state):
    jobs = [Job(kind, n, TIMED_DEPTH, state) for kind, n in ROUND]
    rng = random.Random(f"converging:{state['seed']}:order")
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


def trace_jobs(state):
    return [Job(kind, n, TIMED_DEPTH, state) for kind, n in ROUND] + [
        Job(state["deep_kind"], state["deep_n"], 6, state)]


def curve_jobs(state):
    """Cosheafify of the constant point on converging(12) at each depth of
    the depth curve; the traced run times them untraced."""
    return [Job("cosheafify", CURVE_N, d, state) for d in CURVE_DEPTHS]
