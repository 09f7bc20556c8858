#!/usr/bin/env python3
"""Paper-scale prune-service benchmark for sparqlsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script

1. builds perfbench/harness.cc against the library sources with CMake
   (build tree: .bench_build/perfbench);
2. generates the workload's database once per harness build with the
   repository's own generator and a fixed generator seed, so every run
   serves the same paper-scale graph (LUBM(20): 1.07M triples, or the
   DBpedia-like graph at scale 3: 1.23M triples);
3. draws the workload's query traffic from --seed;
4. runs the harness, which sets up the service, drives it with
   closed-loop clients for --seconds and checks the answers;
5. prints one JSON object as the last line of stdout:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, with --trace 1 the per-layer ones.

It exits non-zero without printing a result when the build, the input
generation or the run fails.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
INPUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-inputs")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")

# Every harness run gets well under the 180 s a run may take.
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

# The service shape (workers, queue depth, cache size, clients) is fixed in
# harness.cc.
# Set-up is timed this many times per run and the median reported: single
# set-ups on a shared host vary by up to a third within one run.
SETUP_REPS = 11

# ---------------------------------------------------------------------------
# Query templates. Constants are drawn from names the generators always
# create: LUBM universities U0..U19 with departments D0..D11 each, full
# and courses C0..C24 per department; DBpedia-like
# genres Genre0..39, countries Country0..119, cities City0..7499 and
# companies Company0..8999 at scale 3.
# ---------------------------------------------------------------------------

ATTRS = ["emailAddress", "telephone", "name"]
CLASSES = ["FullProfessor", "AssociateProfessor", "AssistantProfessor"]
DEGREES = ["doctoralDegreeFrom", "mastersDegreeFrom", "undergraduateDegreeFrom"]


def lubm_constants(rng, i):
    """Constants for the i-th query of a LUBM template."""
    u = rng.randrange(20)
    return {
        "u": "U%d" % u,
        "d": "U%d/D%d" % (u, rng.randrange(12)),
        "c": "U%d/D%d/C%d" % (u, rng.randrange(12), rng.randrange(25)),
        # Cycled, not drawn: the optional attribute sets most of a query's
        # cost (every node has a name, only faculty a telephone), so every
        # seed gets the same mix of them.
        "attr": ATTRS[i % 3],
        "sattr": (["takesCourse"] + ATTRS)[i % 4],
        "cls": CLASSES[i % 3],
        "deg": DEGREES[(i // 3) % 3],
    }


# The paper's L0-L5 shapes (datagen/queries.cc), each anchored by drawn
# constants so that queries differ; the cyclic ones stay graph-wide.
LUBM_TEMPLATES = {
    # L0 triangle, restricted to professors with a doctorate from one
    # university: cyclic, many fixpoint rounds over the whole graph.
    "L0": "?s <advisor> ?p . ?s <takesCourse> ?c . ?p <teacherOf> ?c . "
          "?p <doctoralDegreeFrom> <{u}> . "
          "OPTIONAL {{ ?p <{attr}> ?e . }}",
    # L1 cycle through one university.
    "L1": "?pub a <Publication> . ?pub <publicationAuthor> ?s . "
          "?pub <publicationAuthor> ?p . ?s <memberOf> ?d . "
          "?p <worksFor> ?d . ?d <subOrganizationOf> <{u}> . "
          "?s <undergraduateDegreeFrom> <{u}> . "
          "OPTIONAL {{ ?p <{attr}> ?e . }}",
    # L2 triangle over students with an undergraduate degree from one
    # university (spread over every department).
    "L2": "?p <worksFor> ?d . ?s <memberOf> ?d . ?s <advisor> ?p . "
          "?s <undergraduateDegreeFrom> <{u}> . "
          "OPTIONAL {{ ?s <{sattr}> ?c . }}",
    # L3: one department's professors of one rank.
    "L3": "?x <worksFor> <{d}> . ?x a <{cls}> . "
          "OPTIONAL {{ ?x <{deg}> ?y . }}",
    # L4: department heads of one university.
    "L4": "?x <headOf> ?d . ?d <subOrganizationOf> <{u}> . "
          "OPTIONAL {{ ?x <{attr}> ?e . }}",
    # L5: advisees of one department's head.
    "L5": "?s <advisor> ?p . ?p <headOf> <{d}> . "
          "OPTIONAL {{ ?s <{attr}> ?e . }}",
    # Students of one course, their advisors and what those teach.
    "LC": "?s <takesCourse> <{c}> . ?s <advisor> ?p . ?p <teacherOf> ?k . "
          "OPTIONAL {{ ?s <teachingAssistantOf> ?t . }}",
}


def dbpedia_constants(rng, i):
    return {
        "g": "Genre%d" % rng.randrange(40),
        "k": "Country%d" % rng.randrange(120),
        "city": "City%d" % rng.randrange(7500),
        "m": "Company%d" % rng.randrange(9000),
    }


# The B/D shapes of datagen/queries.cc with drawn anchors: selective
# predicates over a long tail, the paper's DBpedia profile.
DBPEDIA_TEMPLATES = {
    "B0": "?f <genre> <{g}> . ?f <director> ?d . ?d <birthPlace> ?c .",
    "B3": "?f <director> ?d . ?f <starring> ?a . ?a <spouse> ?d . "
          "?f <genre> <{g}> .",
    "B7": "?p <employer> <{m}> . ?p <birthPlace> ?c .",
    "B8": "?a <spouse> ?b . ?a <birthPlace> ?c . ?b <birthPlace> ?c . "
          "?c <country> <{k}> .",
    "B9": "?album <artist> ?band . ?band <genre> <{g}> .",
    "B10": "?book <author> ?w . ?w <birthPlace> ?c . ?c <country> <{k}> .",
    "B18": "?f <director> ?d . ?d <birthPlace> <{city}> . ?f <genre> ?g .",
    "D2": "?p <birthPlace> <{city}> . ?p <spouse> ?q . "
          "OPTIONAL {{ ?q <almaMater> ?u . }}",
    "D3": "?b a <Band> . ?b <bandMember> ?m . ?m <birthPlace> ?c . "
          "?c <country> <{k}> . OPTIONAL {{ ?m <spouse> ?s . }}",
}


def select(body):
    return "SELECT * WHERE { %s }" % body


def distinct_bodies(rng, templates, constants, names, count):
    """`count` pairwise different bodies, cycling over template `names`."""
    seen = set()
    bodies = []
    attempts = 0
    while len(bodies) < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("template space too small")
        name = names[len(bodies) % len(names)]
        body = templates[name].format(
            **constants(rng, len(bodies) // len(names)))
        if body not in seen:
            seen.add(body)
            bodies.append(body)
    return bodies


# A workload is its graph plus a function rng -> (warm-up, timed) lists of
# (query text, union-free branch count) pairs.

def lubm_cold(rng):
    # 168 distinct queries, 24 per shape, cycled in one seeded order: a
    # query recurs only after 167 others, so the 32-entry LRU cache never
    # answers and every request is parsed, built and solved.
    bodies = distinct_bodies(rng, LUBM_TEMPLATES, lubm_constants,
                             sorted(LUBM_TEMPLATES), 168 + 7)
    warm = [(select(b), 1) for b in bodies[168:]]
    timed = [(select(b), 1) for b in bodies[:168]]
    rng.shuffle(timed)
    return warm, timed


def lubm_hot(rng):
    # Fifteen hot queries (five per graph-wide shape, whose answers keep
    # thousands of triples), drawn uniformly: after the warm-up every
    # request is answered from the solution cache or joins an identical
    # request in flight, so extracting the kept triples is the work.
    names = ["L0", "L1", "L2"]
    hot = [select(b) for b in
           distinct_bodies(rng, LUBM_TEMPLATES, lubm_constants, names, 15)]
    timed = [(rng.choice(hot), 1) for _ in range(4000)]
    warm = [(q, 1) for q in hot]
    return warm, timed


def lubm_union(rng):
    # UNIONs of two or three anchored shapes: union normal form, one SOI
    # and solve per branch, and the merge of the branches' triples.
    names = ["L3", "L5", "LC"]
    bodies = distinct_bodies(rng, LUBM_TEMPLATES, lubm_constants, names,
                             3 * 130)
    queries = []
    i = 0
    while i + 3 <= len(bodies):
        width = 2 + (len(queries) % 2)
        parts = bodies[i:i + width]
        i += width
        queries.append((select(" UNION ".join("{ %s }" % p for p in parts)),
                        width))
    return queries[-6:], queries[:-6]


def dbpedia_cold(rng):
    names = sorted(DBPEDIA_TEMPLATES)
    count = 30 * len(names)
    bodies = distinct_bodies(rng, DBPEDIA_TEMPLATES, dbpedia_constants,
                             names, count + len(names))
    warm = [(select(b), 1) for b in bodies[count:]]
    timed = [(select(b), 1) for b in bodies[:count]]
    return warm, timed


LUBM = ("lubm", 20)
DBPEDIA = ("dbpedia", 3)
GENERATOR_SEED = 42

WORKLOADS = {
    "lubm-cold": (LUBM, lubm_cold),
    "lubm-hot": (LUBM, lubm_hot),
    "lubm-union": (LUBM, lubm_union),
    "dbpedia-cold": (DBPEDIA, dbpedia_cold),
}


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def run(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout); exits on failure."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE
                            if capture else sys.stderr, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out: " + " ".join(cmd))
        sys.exit(1)
    if proc.returncode != 0:
        log("failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
        sys.exit(1)
    return out


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
         "-j", jobs], BUILD_TIMEOUT_S)


def database(graph):
    """The workload's .gdb file, generated by the current harness binary.

    The file name carries a hash of the binary, which links the generator
    and the file writer and reader: after a rebuild that changes them, the
    database is generated afresh and stale files are removed."""
    kind, scale = graph
    os.makedirs(INPUT_DIR, exist_ok=True)
    with open(HARNESS, "rb") as f:
        fingerprint = hashlib.sha256(f.read()).hexdigest()[:16]
    stem = "%s-%d" % (kind, scale)
    path = os.path.join(INPUT_DIR, "%s-%s.gdb" % (stem, fingerprint))
    for old in glob.glob(os.path.join(INPUT_DIR, stem + "-*.gdb")):
        if old != path:
            os.remove(old)
    if not os.path.exists(path):  # the writer renames into place
        run([HARNESS, "gen", "--graph", kind, "--scale", str(scale),
             "--seed", str(GENERATOR_SEED), "--out", path], RUN_TIMEOUT_S)
    return path


def write_queries(name, seed, make):
    warm, timed = make(random.Random("%s/%d" % (name, seed)))
    ids = {}
    path = os.path.join(INPUT_DIR, "%s-%d.tsv" % (name, seed))
    with open(path, "w") as out:
        for phase, entries in (("W", warm), ("T", timed)):
            for text, branches in entries:
                qid = ids.setdefault(text, len(ids))
                out.write("%s\t%d\t%d\t%s\n" % (phase, qid, branches, text))
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    graph, make = WORKLOADS[args.workload]
    build()
    db_path = database(graph)
    queries = write_queries(args.workload, args.seed, make)
    cmd = [HARNESS, "run", "--db", db_path, "--queries", queries,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--setup-reps", str(SETUP_REPS if args.trace == 0 else 1)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            INPUT_DIR, "%s-%d.spans.jsonl" % (args.workload, args.seed))]
    out = run(cmd, RUN_TIMEOUT_S, capture=True)

    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        log("harness printed no result")
        sys.exit(1)
    raw = json.loads(lines[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    missing = [m for m in units if m not in raw["metrics"]]
    if missing:
        log("harness did not report " + ", ".join(missing))
        sys.exit(1)
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m: {"value": raw["metrics"][m], "unit": u}
                    for m, u in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
