"""`cli-docs`: `python -m finsite.cli` subprocesses over JSON documents.

Setup writes the documents: the pseudocircle (S^1's minimal model) site with
its pi0 and H0 precosheaves, constant pt and Z on converging_sequence_site(8)
at depth 4, a fence-6 site with the constant 2-element presheaf, and two
seeded type-mutated documents whose contract answer is exit 2 with an
INPUT-ERROR report.  A round runs the read commands, the three small demos,
a seeded oracle suite, the two `--out` writes and then reads of the written
tower-valued documents, and `check-cosheaf` on the two mutated documents, in
a fixed order (reads of written documents follow their writes).  Every job
pays interpreter start and `import finsite`.

Expected answers are the CLI contract (0 = PASS, 1 = FAIL, 2 = input error)
and verdict words derived by hand; a job whose stdout differs from an earlier
run of the same command in the same run counts as failed.

Some mutations crash the CLI today (exit 1 with a traceback, CRASHES_TODAY
below), a known gap in io's input checks.  Timed runs draw their mutated
documents from the others, so that no operation of the workload fails; the
traced run probes every (class, value) pair once and counts the crashes in
`cli.exit_mismatches`, so the gap and its repair both show there.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracle
from harness import Outcome

IMPORT = "finsite.cli"
CHILD_RSS = True   # peak memory is the CLI child's, not the benchmark's
WORK = ".perfbench"
MUTATED_PER_ROUND = 2
# Depth of the converging-model documents and of the commands run on them.
# At the CLI's default depth 6 their engine jobs took over half of a round,
# against this workload's purpose (start-up and io); at depth 4 they take
# about a third, and each job gets more repeats.
DEPTH = 4
CLI_TIMEOUT_S = 60

# Mutation classes: (name, base document, path to the replaced node, values
# that the document schema rules out there).
MUTATION_CLASSES = (
    ("covers.intersections", "pc_pi0", ("site", "covers", "*", "intersections"),
     (7, "x", [1], True)),
    ("covers.pieces", "pc_pi0", ("site", "covers", "*", "pieces", "*"), (7, None, [], {})),
    ("points", "pc_pi0", ("site", "points", "*"), (7, "x", None, [])),
    ("action", "pc_pi0", ("action", "*"), (7, "x", None, [])),
    ("values", "pc_pi0", ("values", "*"), (7, "x", None, {})),
    ("values.generators", "pc_h0", ("values", "*", "generators"), ("x", None, [], {})),
    ("objects", "pc_pi0", ("site", "objects"), (7, "x", None, {})),
)
MUTATIONS = [(name, base, pattern, value) for name, base, pattern, values in MUTATION_CLASSES
             for value in values]

# (class, value as JSON) pairs on which `check-cosheaf` exits 1 with a
# traceback today instead of 2 with an INPUT-ERROR report.
CRASHES_TODAY = {("covers.intersections", v) for v in ("7", "[1]", "true")} | {
    ("covers.pieces", v) for v in ("[]", "{}")} | {
    ("points", v) for v in ("7", '"x"', "null", "[]")} | {
    ("values.generators", v) for v in ('"x"', "null", "[]", "{}")}


class Job:
    """One CLI invocation and the hand-written answer it must give."""

    def __init__(self, label, argv, code, verdict=None, classification=None, check=None,
                 state=None, probe=False):
        self.label, self.argv, self.code = label, argv, code
        self.verdict, self.classification, self.check = verdict, classification, check
        self.state, self.probe = state, probe

    def prepare(self):
        return None

    def run(self, _inputs, tracer=None) -> Outcome:
        root = self.state["root"]
        env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
        if tracer is None:
            cmd = [sys.executable, "-m", "finsite.cli", *self.argv]
        else:
            summary = Path(root) / WORK / "shim-summary.json"
            cmd = [sys.executable, str(Path(root) / "perfbench" / "cli_shim.py"),
                   str(summary), str(tracer.spans_path), *self.argv]
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        if tracer is not None:
            data = json.loads(summary.read_text(encoding="utf-8"))
            tracer.merge(data)
            tracer.cli_imports.append(data["import_s"])
            if proc.returncode != self.code:
                tracer.calls["cli.exit_mismatches"] += 1
                if self.probe:
                    print(f"known gap: {self.label} exits {proc.returncode}, "
                          f"contract {self.code}")
        out = proc.stdout
        if self.probe:   # recorded above, not judged
            return Outcome(text=out)
        if "Traceback (most recent call last)" in proc.stderr or proc.returncode not in (0, 1, 2):
            return Outcome(text=out, raised=True, detail=proc.stderr or f"exit {proc.returncode}")
        problems = []
        if proc.returncode != self.code:
            problems.append(f"exit {proc.returncode}, expected {self.code}")
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = {}
            problems.append("stdout is not a JSON report")
        if self.verdict and report.get("verdict") != self.verdict:
            problems.append(f"verdict {report.get('verdict')}, expected {self.verdict}")
        if self.classification and report.get("classification") != self.classification:
            problems.append(f"classification {report.get('classification')}, "
                            f"expected {self.classification}")
        if self.check:
            problems.extend(self.check(report))
        seen = self.state["stdout"].setdefault(tuple(self.argv), out)
        if seen != out:
            problems.append("stdout differs from an earlier run of the same command")
        return Outcome(out, problems)


def _not_cosheaf(report):
    return [] if report.get("classification") != "COSHEAF" else [
        "constant point on the converging model classified as COSHEAF"]


def _singleton_top(report):
    trace = report.get("trace") or [""]
    return [] if trace[-1].endswith(": size 1") else [f"top costalk level is {trace[-1]!r}"]


def setup(seed: int, root):
    from finsite import (constant_precosheaf, converging_sequence_site, h0_precosheaf,
                         open_site, pi0_precosheaf, site_points, Presheaf, io)
    from finsite.spaces import FiniteSpace
    from finsite.values import FINSET, finset, finset_map, free_ab
    rng = random.Random(f"cli-docs:{seed}")
    work = Path(root) / WORK / f"cli-{seed}"
    (work / "out").mkdir(parents=True, exist_ok=True)

    names = oracle.point_names(rng, 4)
    pc = FiniteSpace(tuple(names), frozenset(oracle.sphere(names)))
    pc_site = open_site(pc)
    io.save(pc_site, work / "pc_site.json")
    io.save(pi0_precosheaf(pc_site, pc), work / "pc_pi0.json")
    io.save(h0_precosheaf(pc_site, pc, free_ab(1)), work / "pc_h0.json")

    conv = converging_sequence_site(8)
    pts = site_points(conv)
    point = f"pt{rng.randrange(1000)}"
    io.save(constant_precosheaf(conv, finset(point), DEPTH, pts), work / "conv_pt.json")
    io.save(constant_precosheaf(conv, free_ab(1), DEPTH, pts), work / "conv_z.json")

    names = oracle.point_names(rng, 6)
    fence = FiniteSpace(tuple(names), frozenset(oracle.fence(names)))
    fence_site = open_site(fence, "generated")
    io.save(fence_site, work / "fence_site.json")
    g = finset(*oracle.point_names(rng, 2))
    ident = {x: x for x in g.elements}
    io.save(Presheaf(fence_site, FINSET, {u: g for u in fence_site.category.objects},
                     {m.id: finset_map(g, g, ident) for m in fence_site.category.morphisms},
                     site_points(fence_site)), work / "fence_p2.json")

    handled = [m for m in MUTATIONS if (m[0], json.dumps(m[3])) not in CRASHES_TODAY]
    mutated = [(m, mutate(work, m, rng.choice, str(i)))
               for i, m in enumerate(rng.sample(handled, MUTATED_PER_ROUND))]
    return {"root": str(root), "work": work, "seed": seed, "stdout": {}, "mutated": mutated}


def _matches(node, pattern):
    """Every concrete key path into `node` that fits `pattern` ("*" = any key)."""
    if not pattern:
        yield ()
        return
    head, rest = pattern[0], pattern[1:]
    if head != "*":
        keys = [head] if isinstance(node, dict) and head in node else []
    elif isinstance(node, dict):
        keys = sorted(node)
    else:
        keys = range(len(node)) if isinstance(node, list) else []
    for key in keys:
        for tail_path in _matches(node[key], rest):
            yield (key, *tail_path)


def mutate(work, mutation, pick, tag: str):
    """Write one type-mutated document and return its path: `mutation` is
    (class, base document, pattern, value), and `pick` chooses one of the
    node paths that fit the pattern."""
    _, base, pattern, value = mutation
    doc = json.loads((work / f"{base}.json").read_text(encoding="utf-8"))
    *parents, last = pick(list(_matches(doc, pattern)))
    node = doc
    for key in parents:
        node = node[key]
    node[last] = copy.deepcopy(value)
    target = work / f"mut-{tag}.json"
    target.write_text(json.dumps(doc, sort_keys=True, indent=2), encoding="utf-8")
    return target


def _mutated_job(state, mutation, path, probe=False):
    label = f"mutated {mutation[0]}={json.dumps(mutation[3])}"
    return Job(label, ["check-cosheaf", str(Path(path).relative_to(state["root"]))], 2,
               verdict=None if probe else "INPUT-ERROR", state=state, probe=probe)


def _round(state):
    w = state["work"]
    rel = lambda p: str(Path(p).relative_to(state["root"]))
    conv_c, fence_s = rel(w / "out" / "conv_pt_c.json"), rel(w / "out" / "fence_p2_s.json")
    mut_jobs = [_mutated_job(state, m, path) for m, path in state["mutated"]]
    depth = ["--depth", str(DEPTH)]   # for the converging-model documents
    job = lambda label, argv, code, **kw: Job(label, argv, code, state=state, **kw)
    return [
        job("validate pseudocircle", ["validate", rel(w / "pc_site.json")], 0, verdict="PASS"),
        job("check-cosheaf pi0", ["check-cosheaf", rel(w / "pc_pi0.json")], 0,
            classification="COSHEAF"),
        job("demo pi0-pseudocircle", ["demo", "pi0-pseudocircle"], 0, classification="COSHEAF"),
        job("smooth conv pt", ["smooth", rel(w / "conv_pt.json"), *depth], 1,
            classification="NOT-SMOOTH"),
        job("check-sheaf fence", ["check-sheaf", rel(w / "fence_p2.json")], 1,
            classification="NOT-SEPARATED"),
        job("cosheafify --out", ["cosheafify", rel(w / "conv_pt.json"), "--out", conv_c, *depth], 0,
            verdict=f"PASS-AT-DEPTH({DEPTH})"),
        job("demo pt-finite-space-smooth", ["demo", "pt-finite-space-smooth"], 0,
            classification="SMOOTH"),
        job("costalk pt:0", ["costalk", conv_c, "--point", "pt:0", *depth], 0,
            classification="NOT-RUDIMENTARY-AT-DEPTH"),
        job("check-cosheaf h0", ["check-cosheaf", rel(w / "pc_h0.json")], 0,
            classification="COSHEAF"),
        job("sheafify --out", ["sheafify", rel(w / "fence_p2.json"), "--out", fence_s], 0,
            verdict="PASS"),
        mut_jobs[0],
        job("check-cosheaf written", ["check-cosheaf", conv_c, *depth], 0, classification="COSHEAF"),
        job("validate fence", ["validate", rel(w / "fence_site.json")], 0, verdict="PASS"),
        job("smooth conv Z", ["smooth", rel(w / "conv_z.json"), *depth], 1, classification="NOT-SMOOTH"),
        job("demo constant-presheaf-sheafify", ["demo", "constant-presheaf-sheafify"], 0,
            classification="NOT-SEPARATED"),
        job("costalk pt:1/3", ["costalk", conv_c, "--point", "pt:1/3", *depth], 0,
            classification="RUDIMENTARY", check=_singleton_top),
        job("check-sheaf written", ["check-sheaf", fence_s], 0, classification="SHEAF"),
        job("oracle-suite", ["oracle-suite", "--seed", str(state["seed"])], 0, verdict="PASS"),
        job("smooth written", ["smooth", conv_c, *depth], 0, classification="SMOOTH"),
        job("check-cosheaf conv pt", ["check-cosheaf", rel(w / "conv_pt.json"), *depth], 1,
            check=_not_cosheaf),
        mut_jobs[1],
    ]


def rounds(state):
    jobs = _round(state)
    while True:
        yield jobs


def trace_jobs(state):
    """A round, then one probe of every (class, value) mutation pair."""
    probes = [_mutated_job(state, m, mutate(state["work"], m, lambda paths: paths[0],
                                            f"probe-{i}"), probe=True)
              for i, m in enumerate(MUTATIONS)]
    return _round(state) + probes
