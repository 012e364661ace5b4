"""`wide-site`: depth-0 jobs on open-set sites of finite spaces.

The spaces are zigzag fences of 6 and 7 points, McCord's minimal finite
models of S^1..S^4 (2n+2 points) and antichains of 4 and 5 points, under both
cover policies where the site builds in a fraction of a second.  The 8-point
fence (55 opens) and the 6-point fence under all-irredundant covers are left
out: their jobs take 1-6 s each.  The 4-point antichain under all-irredundant
covers (168 covers) runs in the traced run only: its seven jobs take 6.7 s,
which would leave a timed run too few repeats of each job.  The seed names
the points, so every seed gives new inputs of the same shape.  Sites are
built once per setup; each job unpickles a fresh copy, so nothing a job
computes reaches the next one.

A timed round runs every kind on every timed site (84 jobs, 8 to 15 s of
wall time on a 2-vCPU Xeon VM, by the host's speed) in a seeded order.  Expected answers use c(U), the comparability
components of U, from `oracle`.
"""

from __future__ import annotations

import json
import pickle
import random

import oracle
from harness import Outcome

IMPORT = "finsite"
SITES = (("fence", 6, "generated"), ("fence", 7, "generated"),
         ("sphere", 4, "generated"), ("sphere", 4, "all-irredundant"),
         ("sphere", 6, "generated"), ("sphere", 6, "all-irredundant"),
         ("sphere", 8, "generated"), ("sphere", 8, "all-irredundant"),
         ("sphere", 10, "generated"), ("sphere", 10, "all-irredundant"),
         ("antichain", 4, "generated"), ("antichain", 5, "generated"),
         ("antichain", 4, "all-irredundant"))
KINDS = ("validate", "check-pi0", "check-h0", "cosheafify-pt", "cosheafify-Z",
         "check-sheaf", "sheafify")
TRACE_SITES = (1, 7, 12)   # fence 7, S^3 all-irredundant, antichain 4 all-irredundant
TRACE_ONLY = (12,)


class Job:
    def __init__(self, kind: str, entry: dict):
        self.kind, self.entry = kind, entry
        shape, size, policy = entry["spec"]
        self.label = f"{kind} {shape}{size} {policy}"

    def prepare(self):
        from finsite import Presheaf, constant_precosheaf, h0_precosheaf, pi0_precosheaf
        from finsite import site_points
        from finsite.values import FINSET, finset, finset_map, free_ab
        space, site = pickle.loads(self.entry["template"])
        pts = site_points(site)
        labels = self.entry["labels"]
        if self.kind == "check-pi0":
            return site, pi0_precosheaf(site, space)
        if self.kind == "check-h0":
            return site, h0_precosheaf(site, space, free_ab(1))
        if self.kind == "cosheafify-pt":
            return site, constant_precosheaf(site, finset(labels[0]), 0, pts)
        if self.kind == "cosheafify-Z":
            return site, constant_precosheaf(site, free_ab(1), 0, pts)
        if self.kind in ("check-sheaf", "sheafify"):
            g = finset(labels[0], labels[1])
            ident = {x: x for x in g.elements}
            return site, Presheaf(site, FINSET, {u: g for u in site.category.objects},
                                  {m.id: finset_map(g, g, ident) for m in site.category.morphisms},
                                  pts)
        return site, None

    def run(self, inputs, tracer=None) -> Outcome:
        from finsite import check_cosheaf, check_sheaf, cosheafify, sheafify, validate_site
        site, data = inputs
        c = self.entry["components"]
        problems = []
        if set(site.category.objects) != set(c):
            problems.append("site objects are not the opens of the space")
        if self.kind == "validate":
            rep = validate_site(site)
            _expect(problems, rep.verdict, "PASS")
            return Outcome(_canon(rep.to_json()), problems)
        if self.kind in ("check-pi0", "check-h0"):
            rep = check_cosheaf(data, 0)
            _expect(problems, rep.classification, "COSHEAF")
            return Outcome(_canon(rep.to_json()), problems)
        if self.kind == "check-sheaf":
            rep = check_sheaf(data)
            _expect(problems, rep.classification, "NOT-SEPARATED")
            return Outcome(_canon(rep.to_json()), problems)
        if self.kind == "sheafify":
            result = sheafify(data)
            _expect(problems, result.report.verdict, "PASS")
            sizes = {u: len(v.elements) for u, v in result.presheaf.values.items()}
            for u, size in sizes.items():
                if size != 2 ** c.get(u, -1):
                    problems.append(f"sheafified value at {u} has {size} elements")
            rep = check_sheaf(result.presheaf)
            _expect(problems, rep.classification, "SHEAF")
            return Outcome(_canon([result.report.to_json(), rep.to_json(), sizes]), problems)
        result = cosheafify(data, 0)
        _expect(problems, result.report.verdict, "PASS")
        found = {}
        for u, tower in result.precosheaf.values.items():
            level = tower.levels[0]
            if self.kind == "cosheafify-pt":
                found[u] = len(level.elements)
                ok = found[u] == c.get(u)
            else:
                torsion, free = level.invariants()
                found[u] = [list(torsion), free]
                ok = not torsion and free == c.get(u)
            if not ok:
                problems.append(f"cosheafified value at {u} is {found[u]}, c(U) = {c.get(u)}")
        return Outcome(_canon([result.report.to_json(), found]), problems)


def _expect(problems, got, want):
    if got != want:
        problems.append(f"expected {want}, got {got}")


def _canon(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def setup(seed: int, root):
    from finsite import open_site
    from finsite.spaces import FiniteSpace
    rng = random.Random(f"wide-site:{seed}")
    entries = []
    for shape, size, policy in SITES:
        names = oracle.point_names(rng, size)
        pairs = oracle.SHAPES[shape](names)
        space = FiniteSpace(tuple(names), frozenset(pairs))
        site = open_site(space, policy)
        entries.append({"spec": (shape, size, policy),
                        "template": pickle.dumps((space, site)),
                        "components": oracle.expected_components(names, pairs),
                        "labels": oracle.point_names(rng, 2)})
    return {"seed": seed, "entries": entries}


def rounds(state):
    jobs = [Job(kind, entry) for s, entry in enumerate(state["entries"])
            if s not in TRACE_ONLY for kind in KINDS]
    rng = random.Random(f"wide-site:{state['seed']}:order")
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


def trace_jobs(state):
    return [Job(kind, state["entries"][s]) for s in TRACE_SITES for kind in KINDS]
